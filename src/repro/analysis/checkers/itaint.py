"""Interprocedural secret taint: PR-1's sources/sinks across calls.

The per-file :class:`SecretTaintChecker` is linear and intraprocedural:
a secret that crosses *one* function call boundary -- returned through
a helper, or passed into a wrapper that logs -- is invisible to it.
This checker closes that gap with call-graph **summaries** computed to
a fixpoint:

* ``returns_secret`` -- the function may return secret-derived data
  (its own sources, or a callee's secret return);
* ``taint_through`` -- parameter positions whose taint flows to the
  return value (``def clamp(sk): return sk % q``);
* ``param_to_sink`` -- parameter positions that reach a log / raise /
  wire / branch sink inside the function (or transitively through a
  callee), with the sink kind and location.

Findings use a small label domain so nothing PR-1 already reports is
duplicated: ``S`` marks locally-sourced secrets (exactly PR-1's
notion), ``C`` marks secrets that arrived *through a resolved call*,
``P<i>`` tracks parameter flow for summaries.  A sink is reported here
(``itaint-*``) only when its taint includes ``C`` without ``S`` --
i.e. only flows a per-file pass cannot see -- or when a call site
passes secret data into a callee whose summary sinks that parameter.

Dataflow runs on the CFG with a worklist fixpoint, so loop-carried
taint (another PR-1 blind spot) converges instead of being missed.
"""

from __future__ import annotations

import ast

from repro.analysis.base import ProgramChecker, call_name
from repro.analysis.findings import Finding, RuleSpec
from repro.analysis.checkers.taint import (
    DECLASSIFY_ATTRS,
    DECLASSIFY_CALLS,
    LOG_METHODS,
    SECRET_ATTR_NAMES,
    SECRET_PARAM_NAMES,
    SECRET_SOURCE_CALLS,
    WIRE_CALL_NAMES,
)
from repro.analysis.ir.callgraph import CallGraph
from repro.analysis.ir.cfg import shallow_exprs
from repro.analysis.ir.dataflow import solve_forward, union_join
from repro.analysis.ir.program import FunctionInfo, Program

#: Taint labels: locally-sourced secret / call-returned secret.
S = "S"
C = "C"

EMPTY: frozenset = frozenset()

#: Upper bound on summary fixpoint sweeps (call-graph depth bound;
#: real code converges in 2-4).
MAX_SWEEPS = 20


class Summary:
    __slots__ = ("returns_secret", "taint_through", "param_to_sink")

    def __init__(self):
        self.returns_secret = False
        self.taint_through: set[int] = set()
        # param index -> (sink_kind, description) of the *first* sink.
        self.param_to_sink: dict[int, tuple[str, str]] = {}

    def snapshot(self) -> tuple:
        return (
            self.returns_secret,
            frozenset(self.taint_through),
            frozenset(self.param_to_sink),
        )


class _FunctionPass:
    """One dataflow pass over one function against current summaries."""

    def __init__(
        self,
        program: Program,
        graph: CallGraph,
        func: FunctionInfo,
        summaries: dict[int, Summary],
    ):
        self.program = program
        self.graph = graph
        self.func = func
        self.summaries = summaries
        self.params = func.param_names()
        self.param_index = {p: i for i, p in enumerate(self.params)}
        self.sinks: list[tuple[str, ast.AST, str, frozenset]] = []

    # -- environment --------------------------------------------------------

    def entry_env(self) -> dict:
        env: dict[str, frozenset] = {}
        for name, idx in self.param_index.items():
            labels = {f"P{idx}"}
            if name in SECRET_PARAM_NAMES:
                labels.add(S)
            env[name] = frozenset(labels)
        return env

    def run(self) -> tuple[Summary, list]:
        cfg = self.program.cfg_of(self.func)
        in_states, out_states = solve_forward(
            cfg, self._transfer, self.entry_env(), union_join
        )
        # Final reporting walk: sinks with their converged in-state.
        self.sinks = []
        summary = Summary()
        for block in cfg.blocks:
            env = dict(in_states.get(block.id, {}))
            for stmt in block.stmts:
                self._stmt(stmt, env, summary, record_sinks=True)
        return summary, self.sinks

    def _transfer(self, block, state: dict) -> dict:
        env = dict(state)
        dummy = Summary()
        for stmt in block.stmts:
            self._stmt(stmt, env, dummy, record_sinks=False)
        return env

    # -- statements ---------------------------------------------------------

    def _stmt(
        self,
        stmt: ast.stmt,
        env: dict,
        summary: Summary,
        record_sinks: bool,
    ) -> None:
        if isinstance(stmt, ast.Assign):
            labels = self._labels(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, labels, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._labels(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            labels = self._labels(stmt.value, env) | self._labels(
                stmt.target, env
            )
            self._bind(stmt.target, labels, env)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._sink(
                "branch", stmt, self._labels(stmt.test, env),
                "condition", summary, record_sinks,
            )
        elif isinstance(stmt, ast.Assert):
            self._sink(
                "branch", stmt, self._labels(stmt.test, env),
                "assert condition", summary, record_sinks,
            )
        elif isinstance(stmt, ast.Raise) and stmt.exc is not None:
            if isinstance(stmt.exc, ast.Call):
                args = list(stmt.exc.args) + [
                    kw.value for kw in stmt.exc.keywords
                ]
            else:
                args = [stmt.exc]
            labels = EMPTY
            for arg in args:
                labels |= self._labels(arg, env)
            self._sink(
                "raise", stmt, labels, "exception message",
                summary, record_sinks,
            )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._labels(stmt.iter, env), env)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            labels = self._labels(stmt.value, env)
            if labels & {S, C}:
                summary.returns_secret = True
            for label in labels:
                if label.startswith("P"):
                    summary.taint_through.add(int(label[1:]))
        # Sink calls inside this statement's own expressions.
        for expr in shallow_exprs(stmt):
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    self._call_sinks(node, env, summary, record_sinks)

    def _bind(self, target: ast.expr, labels: frozenset, env: dict) -> None:
        if isinstance(target, ast.Name):
            if labels:
                env[target.id] = labels
            else:
                env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                self._bind(elt, labels, env)

    # -- sinks --------------------------------------------------------------

    def _sink(
        self,
        kind: str,
        node: ast.AST,
        labels: frozenset,
        what: str,
        summary: Summary,
        record_sinks: bool,
    ) -> None:
        if not labels:
            return
        # Branch sinks do not enter summaries: almost every function
        # validates its arguments, so forwarding "param reaches a
        # branch" to call sites would flag every call passing secret
        # data to any function -- pure noise.  Branch findings stay
        # local (a returned secret used in a condition *here*).
        if kind != "branch":
            for label in labels:
                if label.startswith("P"):
                    summary.param_to_sink.setdefault(
                        int(label[1:]), (kind, what)
                    )
        if record_sinks and C in labels and S not in labels:
            self.sinks.append((kind, node, what, labels))

    def _call_sinks(
        self,
        node: ast.Call,
        env: dict,
        summary: Summary,
        record_sinks: bool,
    ) -> None:
        args = list(node.args) + [kw.value for kw in node.keywords]
        arg_labels = EMPTY
        for arg in args:
            arg_labels |= self._labels(arg, env)
        name = call_name(node)

        if name == "print" and isinstance(node.func, ast.Name):
            self._sink(
                "log", node, arg_labels, "print()", summary, record_sinks
            )
            return
        if isinstance(node.func, ast.Attribute) and name in LOG_METHODS:
            base = node.func.value
            if isinstance(base, ast.Name) and base.id in (
                "logging",
                "logger",
                "log",
            ):
                self._sink(
                    "log", node, arg_labels, f"logging {name}()",
                    summary, record_sinks,
                )
                return
        if name.startswith("encode_") or name in WIRE_CALL_NAMES:
            labels = arg_labels
            if isinstance(node.func, ast.Attribute):
                labels = labels | self._labels(node.func.value, env)
            self._sink(
                "wire", node, labels, f"serialization {name}()",
                summary, record_sinks,
            )

        # Passing secret data into a callee that sinks that parameter.
        targets, is_method = self.graph.resolve_call(node, self.func)
        if not targets:
            return
        offset = 1 if is_method else 0
        positional = list(node.args)
        for target in targets:
            callee_summary = self.summaries.get(id(target))
            if callee_summary is None or not callee_summary.param_to_sink:
                continue
            callee_params = target.param_names()
            for i, arg in enumerate(positional):
                idx = i + offset
                self._forward_to_sink(
                    target, callee_summary, idx, arg, env, node,
                    summary, record_sinks,
                )
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                if kw.arg in callee_params:
                    idx = callee_params.index(kw.arg)
                    self._forward_to_sink(
                        target, callee_summary, idx, kw.value, env, node,
                        summary, record_sinks,
                    )

    def _forward_to_sink(
        self,
        target: FunctionInfo,
        callee_summary: Summary,
        idx: int,
        arg: ast.expr,
        env: dict,
        node: ast.Call,
        summary: Summary,
        record_sinks: bool,
    ) -> None:
        hit = callee_summary.param_to_sink.get(idx)
        if hit is None:
            return
        kind, what = hit
        labels = self._labels(arg, env)
        if not labels:
            return
        # Propagate into our own summary (wrapper functions).
        for label in labels:
            if label.startswith("P"):
                summary.param_to_sink.setdefault(int(label[1:]), (kind, what))
        if (
            record_sinks
            and labels & {S, C}
            and not self._pr1_flags_here(node, kind)
        ):
            self.sinks.append(
                (
                    kind,
                    node,
                    f"{target.name}() forwards its argument to a "
                    f"{kind} sink ({what})",
                    labels,
                )
            )

    @staticmethod
    def _pr1_flags_here(node: ast.Call, kind: str) -> bool:
        """True when the per-file pass already reports this call as the
        same kind of sink -- the call's *name* is itself a sink, so a
        forwarded finding would duplicate (and double-pragma) it."""
        name = call_name(node)
        if kind == "wire":
            return name.startswith("encode_") or name in WIRE_CALL_NAMES
        if kind == "log":
            if name == "print" and isinstance(node.func, ast.Name):
                return True
            return (
                isinstance(node.func, ast.Attribute)
                and name in LOG_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("logging", "logger", "log")
            )
        return False

    # -- expressions --------------------------------------------------------

    def _labels(self, node: ast.expr | None, env: dict) -> frozenset:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            return env.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            if node.attr in DECLASSIFY_ATTRS:
                return EMPTY
            if node.attr in SECRET_ATTR_NAMES:
                # Keep the object's own labels: a helper reading
                # ``keys.mask`` passes its argument's flow through.
                return frozenset({S}) | self._labels(node.value, env)
            return self._labels(node.value, env)
        if isinstance(node, ast.Call):
            return self._call_labels(node, env)
        if isinstance(node, ast.BinOp):
            return self._labels(node.left, env) | self._labels(
                node.right, env
            )
        if isinstance(node, ast.UnaryOp):
            return self._labels(node.operand, env)
        if isinstance(node, ast.BoolOp):
            out = EMPTY
            for value in node.values:
                out |= self._labels(value, env)
            return out
        if isinstance(node, ast.Compare):
            out = self._labels(node.left, env)
            for comp in node.comparators:
                out |= self._labels(comp, env)
            return out
        if isinstance(node, ast.Subscript):
            return self._labels(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = EMPTY
            for elt in node.elts:
                out |= self._labels(elt, env)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for sub in list(node.keys) + list(node.values):
                if sub is not None:
                    out |= self._labels(sub, env)
            return out
        if isinstance(node, ast.IfExp):
            return self._labels(node.body, env) | self._labels(
                node.orelse, env
            )
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self._labels(value.value, env)
            return out
        if isinstance(node, ast.FormattedValue):
            return self._labels(node.value, env)
        if isinstance(node, ast.Starred):
            return self._labels(node.value, env)
        if isinstance(node, ast.Await):
            return self._labels(node.value, env)
        return EMPTY

    def _call_labels(self, node: ast.Call, env: dict) -> frozenset:
        name = call_name(node)
        if name in DECLASSIFY_CALLS:
            return EMPTY
        if name in SECRET_SOURCE_CALLS:
            return frozenset({S})
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in DECLASSIFY_ATTRS:
                return EMPTY
        args = list(node.args) + [kw.value for kw in node.keywords]
        arg_labels = EMPTY
        for arg in args:
            arg_labels |= self._labels(arg, env)
        targets, is_method = self.graph.resolve_call(node, self.func)
        if targets:
            out = EMPTY
            offset = 1 if is_method else 0
            for target in targets:
                callee_summary = self.summaries.get(id(target))
                if callee_summary is None:
                    continue
                if callee_summary.returns_secret:
                    out |= frozenset({C})
                if callee_summary.taint_through:
                    callee_params = target.param_names()
                    for i, arg in enumerate(node.args):
                        if i + offset in callee_summary.taint_through:
                            out |= self._labels(arg, env)
                    for kw in node.keywords:
                        if kw.arg in callee_params and (
                            callee_params.index(kw.arg)
                            in callee_summary.taint_through
                        ):
                            out |= self._labels(kw.value, env)
            return out
        # Unresolved call: PR-1 semantics -- taint flows through, and a
        # tainted receiver taints the result.
        if isinstance(node.func, ast.Attribute) and self._labels(
            node.func.value, env
        ):
            return arg_labels | self._labels(node.func.value, env)
        return arg_labels


class InterproceduralTaintChecker(ProgramChecker):
    name = "itaint"
    rules = (
        RuleSpec(
            rule="itaint-branch",
            summary="secret crosses a call boundary into a branch condition",
            invariant="behavior is key-independent even across helpers",
            paper="SS3.1, Appendix D",
        ),
        RuleSpec(
            rule="itaint-log",
            summary="secret crosses a call boundary into print/logging",
            invariant="secrets never reach logs, even via helper returns",
            paper="Definition 2.1",
        ),
        RuleSpec(
            rule="itaint-raise",
            summary="secret crosses a call boundary into an exception",
            invariant="error paths leak no key material across calls",
            paper="Definition 2.1",
        ),
        RuleSpec(
            rule="itaint-wire",
            summary="secret crosses a call boundary into serialization",
            invariant="plaintext secrets never reach the wire via helpers",
            paper="SS6.3",
        ),
    )

    def check_program(
        self, program: Program, graph: CallGraph
    ) -> list[Finding]:
        funcs = [
            f for mod in program.modules for f in mod.all_functions
        ]
        summaries: dict[int, Summary] = {id(f): Summary() for f in funcs}
        for _ in range(MAX_SWEEPS):
            changed = False
            for func in funcs:
                new_summary, _ = _FunctionPass(
                    program, graph, func, summaries
                ).run()
                if (
                    new_summary.snapshot()
                    != summaries[id(func)].snapshot()
                ):
                    summaries[id(func)] = new_summary
                    changed = True
                else:
                    summaries[id(func)] = new_summary
            if not changed:
                break
        findings: list[Finding] = []
        for func in funcs:
            _, sinks = _FunctionPass(
                program, graph, func, summaries
            ).run()
            for kind, node, what, _labels in sinks:
                findings.append(
                    Finding(
                        rule=f"itaint-{kind}",
                        path=func.module.path,
                        line=getattr(node, "lineno", 1),
                        col=getattr(node, "col_offset", 0),
                        message=(
                            f"secret-derived data (through a call chain) "
                            f"reaches {what}"
                        ),
                        snippet=func.module.ctx.snippet(
                            getattr(node, "lineno", 1)
                        ),
                    )
                )
        return findings
