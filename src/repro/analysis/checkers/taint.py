"""Secret-taint analysis: key material must not reach observable sinks.

Tiptoe's privacy argument (Definition 2.1, Appendix D) assumes the
secret keys and the sampled noise influence *only* ciphertext contents.
A secret that reaches a branch condition, a log line, an exception
message, or a wire encoding is a side channel the proof knows nothing
about.

This is one whole-program pass: a forward dataflow over each function's
CFG, iterated to a fixpoint (so loop-carried taint converges), against
call-graph summaries that are themselves iterated to a fixpoint.  Each
module's top-level statements are analysed as one more function.

* **sources** -- calls to key/noise generators (``gen_keys``,
  ``gen_secret``, ``keygen``, ``make_client_keys``, ``ternary_secret``,
  ``ternary_secret_signed``, ``gaussian_error``), parameters named like
  secrets (``sk``, ``secret``, ``secret_key``, ...), and attribute
  reads named ``.secret`` / ``.sk`` / ``.secret_key`` / ``.mask`` (a
  client key's precomputed ``A s + e``);
* **propagation** -- assignments (including tuple unpacking),
  arithmetic, subscripts, f-strings, comprehensions (their targets are
  bound from the iterables), and calls: a resolved call carries its
  callee's summary, an unresolved call returns its arguments' and its
  receiver's taint;
* **declassifiers** -- structure-only reads (``.shape``, ``.ndim``,
  ``.dtype``, ``.size``, ``.nbytes``, ``.wire_bytes``, ``len()``,
  ``isinstance()``, ``type()``) drop taint: array *shapes* are public
  parameters even when contents are secret;
* **sinks** -- ``if``/``while``/``assert`` conditions (taint-branch),
  ``print``/logging calls (taint-log), exception constructions
  (taint-raise), and serialization calls -- ``encode_*``, ``dumps``,
  ``pack``, ``tobytes``, ... (taint-wire).  A call that passes secret
  data to a callee whose summary sinks that parameter is reported at
  the call site.  Each (node, sink kind) is reported once.

A function's **summary** records whether it may return secret-derived
data, which parameters flow to its return value, and which parameters
reach a log / raise / wire sink inside it (or transitively through a
callee).  Parameter flow is tracked with integer labels (the parameter
index) beside the one :data:`SECRET` label.

The pass is name-based and trades soundness for a near-zero
false-positive rate on this codebase.  The one intended exception:
*encrypting* a secret and sending the ciphertext is the protocol, and
such sites carry a justified suppression (see ``core/engine.py``).
"""

from __future__ import annotations

import ast

from repro.analysis.base import ProgramChecker, call_name
from repro.analysis.findings import Finding, RuleSpec
from repro.analysis.ir.callgraph import CallGraph
from repro.analysis.ir.cfg import shallow_exprs
from repro.analysis.ir.dataflow import solve_forward, union_join
from repro.analysis.ir.program import FunctionInfo, ModuleInfo, Program

SECRET_SOURCE_CALLS = {
    "gen_keys",
    "gen_secret",
    "keygen",
    "make_client_keys",
    "ternary_secret",
    "ternary_secret_signed",
    "gaussian_error",
}

SECRET_PARAM_NAMES = {"sk", "secret", "secret_key", "secret_keys", "private_key"}

SECRET_ATTR_NAMES = {"secret", "sk", "secret_key", "mask"}

#: Attribute reads that yield public structure, not secret contents.
DECLASSIFY_ATTRS = {
    "shape",
    "ndim",
    "dtype",
    "size",
    "nbytes",
    "itemsize",
    "params",
    "wire_bytes",
    "upload_bytes",
}

#: ``struct`` header unpacking is the bytes-domain analog of ``.shape``:
#: it reads frame *metadata* (lengths, moduli, counts), not contents.
DECLASSIFY_CALLS = {
    "len",
    "isinstance",
    "type",
    "issubclass",
    "unpack",
    "unpack_from",
}

LOG_METHODS = {
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "critical",
    "exception",
    "log",
}

LOG_RECEIVERS = {"logging", "logger", "log"}

WIRE_CALL_NAMES = {
    "dumps",
    "dump",
    "serialize",
    "pack",
    "tobytes",
    "to_bytes",
    "save",
    "savez",
    "write",
    "send",
}

#: The label of secret-derived data; parameter flow uses ``int`` labels.
SECRET = "secret"

EMPTY: frozenset = frozenset()

COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

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
            frozenset(self.param_to_sink.items()),
        )


def _module_scope(mod: ModuleInfo) -> FunctionInfo:
    """A module's top-level statements as one parameterless function."""
    node = ast.FunctionDef(
        name="<module>",
        args=ast.arguments(
            posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[], defaults=[]
        ),
        body=mod.ctx.tree.body,
        decorator_list=[],
        lineno=1,
        col_offset=0,
    )
    return FunctionInfo(module=mod, node=node)


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
        # (id(node), kind) -> (kind, node, description); first one wins.
        self.sinks: dict[tuple[int, str], tuple[str, ast.AST, str]] = {}

    # -- environment --------------------------------------------------------

    def entry_env(self) -> dict:
        env: dict[str, frozenset] = {}
        for idx, name in enumerate(self.func.param_names()):
            labels = {idx}
            if name in SECRET_PARAM_NAMES:
                labels.add(SECRET)
            env[name] = frozenset(labels)
        return env

    def run(self) -> tuple[Summary, list]:
        cfg = self.program.cfg_of(self.func)
        in_states, _ = solve_forward(
            cfg, self._transfer, self.entry_env(), union_join
        )
        # Final reporting walk: sinks with their converged in-state.
        summary = Summary()
        for block in cfg.blocks:
            env = dict(in_states.get(block.id, {}))
            for stmt in block.stmts:
                self._report(stmt, env, summary)
                self._assign(stmt, env)
        return summary, list(self.sinks.values())

    def _transfer(self, block, state: dict) -> dict:
        env = dict(state)
        for stmt in block.stmts:
            self._assign(stmt, env)
        return env

    # -- statements ---------------------------------------------------------

    def _assign(self, stmt: ast.stmt, env: dict) -> None:
        """Apply the statement's bindings to ``env``."""
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
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._labels(stmt.iter, env), env)

    def _report(self, stmt: ast.stmt, env: dict, summary: Summary) -> None:
        """Record the statement's sinks and returns, before it binds."""
        if isinstance(stmt, (ast.If, ast.While)):
            self._sink(
                "branch", stmt, self._labels(stmt.test, env),
                "a branch condition", summary,
            )
        elif isinstance(stmt, ast.Assert):
            self._sink(
                "branch", stmt, self._labels(stmt.test, env),
                "an assert condition", summary,
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
                "raise", stmt, labels, "an exception message", summary
            )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            for label in self._labels(stmt.value, env):
                if label == SECRET:
                    summary.returns_secret = True
                else:
                    summary.taint_through.add(label)
        # Sink calls inside this statement's own expressions.
        for expr in shallow_exprs(stmt):
            for node, scope in self._calls(expr, env):
                self._call_sinks(node, scope, summary)

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

    def _calls(self, expr: ast.expr, env: dict):
        """Every call in ``expr`` with the environment it runs in (a
        comprehension's body sees its bound targets)."""
        stack = [(expr, env)]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, COMPREHENSIONS):
                scope = self._comprehension(node, scope)[1]
            elif isinstance(node, ast.Call):
                yield node, scope
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))

    def _comprehension(self, node: ast.expr, env: dict) -> tuple[frozenset, dict]:
        """The comprehension's labels (iterables plus element) and the
        environment its body runs in."""
        inner = dict(env)
        labels = EMPTY
        for gen in node.generators:
            iter_labels = self._labels(gen.iter, inner)
            labels |= iter_labels
            self._bind(gen.target, iter_labels, inner)
        if isinstance(node, ast.DictComp):
            parts = (node.key, node.value)
        else:
            parts = (node.elt,)
        for part in parts:
            labels |= self._labels(part, inner)
        return labels, inner

    # -- sinks --------------------------------------------------------------

    def _sink(
        self,
        kind: str,
        node: ast.AST,
        labels: frozenset,
        what: str,
        summary: Summary,
        via: str = "",
    ) -> None:
        # Branch sinks do not enter summaries: almost every function
        # validates its arguments, so forwarding "param reaches a
        # branch" to call sites would flag every call passing secret
        # data to any function -- pure noise.  Branch findings stay
        # local (a returned secret used in a condition *here*).
        if kind != "branch":
            for label in labels:
                if label != SECRET:
                    summary.param_to_sink.setdefault(label, (kind, what))
        if SECRET in labels:
            if via:
                what = f"{via}(), which passes it to {what}"
            self.sinks.setdefault((id(node), kind), (kind, node, what))

    def _call_sinks(self, node: ast.Call, env: dict, summary: Summary) -> None:
        args = list(node.args) + [kw.value for kw in node.keywords]
        arg_labels = EMPTY
        for arg in args:
            arg_labels |= self._labels(arg, env)
        name = call_name(node)

        if name == "print" and isinstance(node.func, ast.Name):
            self._sink("log", node, arg_labels, "print()", summary)
            return
        if (
            isinstance(node.func, ast.Attribute)
            and name in LOG_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in LOG_RECEIVERS
        ):
            self._sink(
                "log", node, arg_labels, f"logging call {name}()", summary
            )
            return
        if name.startswith("encode_") or name in WIRE_CALL_NAMES:
            labels = arg_labels
            if isinstance(node.func, ast.Attribute):
                labels = labels | self._labels(node.func.value, env)
            self._sink(
                "wire", node, labels, f"serialization call {name}()", summary
            )

        # Passing data into a callee that sinks that parameter.
        for target, idx, arg in self._bound_args(node):
            hit = self.summaries[id(target)].param_to_sink.get(idx)
            if hit is not None:
                kind, what = hit
                self._sink(
                    kind, node, self._labels(arg, env), what, summary,
                    via=target.name,
                )

    def _bound_args(self, node: ast.Call):
        """``(target, parameter index, argument)`` for every argument of
        a resolved call, per candidate target."""
        targets, _ = self.graph.resolve_call(node, self.func)
        for target in targets:
            static = any(
                call_name(d) == "staticmethod" for d in target.node.decorator_list
            )
            # The receiver (or a constructor's new object) fills ``self``.
            offset = 1 if target.is_method and not static else 0
            params = target.param_names()
            for i, arg in enumerate(node.args):
                yield target, i + offset, arg
            for kw in node.keywords:
                if kw.arg in params:
                    yield target, params.index(kw.arg), kw.value

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
                return frozenset({SECRET}) | self._labels(node.value, env)
            return self._labels(node.value, env)
        if isinstance(node, ast.Call):
            return self._call_labels(node, env)
        if isinstance(node, COMPREHENSIONS):
            return self._comprehension(node, env)[0]
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
        if isinstance(node, (ast.FormattedValue, ast.Starred, ast.Await)):
            return self._labels(node.value, env)
        return EMPTY

    def _call_labels(self, node: ast.Call, env: dict) -> frozenset:
        name = call_name(node)
        if name in DECLASSIFY_CALLS:
            return EMPTY
        if name in SECRET_SOURCE_CALLS:
            return frozenset({SECRET})
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in DECLASSIFY_ATTRS:
                return EMPTY
        targets, _ = self.graph.resolve_call(node, self.func)
        if targets:
            out = EMPTY
            for target in targets:
                if self.summaries[id(target)].returns_secret:
                    out |= frozenset({SECRET})
            for target, idx, arg in self._bound_args(node):
                if idx in self.summaries[id(target)].taint_through:
                    out |= self._labels(arg, env)
            return out
        # Unresolved call: taint flows through, and a tainted receiver
        # taints the result.
        out = EMPTY
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            out |= self._labels(arg, env)
        if isinstance(node.func, ast.Attribute):
            out |= self._labels(node.func.value, env)
        return out


class SecretTaintChecker(ProgramChecker):
    name = "taint"
    rules = (
        RuleSpec(
            rule="taint-branch",
            summary="control flow (if/while/assert) depends on a secret",
            invariant="server/client behavior is query- and key-independent",
            paper="SS3.1, Appendix D",
        ),
        RuleSpec(
            rule="taint-log",
            summary="secret-derived value passed to print/logging",
            invariant="secrets never appear in logs or terminals",
            paper="Definition 2.1",
        ),
        RuleSpec(
            rule="taint-raise",
            summary="secret-derived value embedded in an exception message",
            invariant="error paths leak no key material",
            paper="Definition 2.1",
        ),
        RuleSpec(
            rule="taint-wire",
            summary="secret-derived value passed to a serialization call",
            invariant=(
                "only ciphertexts cross the wire; plaintext secrets never do"
            ),
            paper="SS6.3",
        ),
    )

    def check_program(
        self, program: Program, graph: CallGraph
    ) -> list[Finding]:
        funcs = [f for mod in program.modules for f in mod.all_functions]
        summaries: dict[int, Summary] = {id(f): Summary() for f in funcs}
        # A sweep in which no summary changed ran every function against
        # the final summaries, so its sinks are the answer.
        for _ in range(MAX_SWEEPS):
            changed = False
            sinks = []
            for func in funcs:
                summary, found = _FunctionPass(
                    program, graph, func, summaries
                ).run()
                changed |= summary.snapshot() != summaries[id(func)].snapshot()
                summaries[id(func)] = summary
                sinks.extend((func, sink) for sink in found)
            if not changed:
                break
        for mod in program.modules:
            scope = _module_scope(mod)
            _, found = _FunctionPass(program, graph, scope, summaries).run()
            sinks.extend((scope, sink) for sink in found)
        findings: list[Finding] = []
        for func, (kind, node, what) in sinks:
            line = getattr(node, "lineno", 1)
            findings.append(
                self.finding(
                    func.module.path,
                    f"taint-{kind}",
                    node,
                    f"secret-derived data reaches {what}",
                    func.module.ctx.snippet(line),
                )
            )
        return findings
