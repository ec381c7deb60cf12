"""Secret-taint analysis: key material must not reach observable sinks.

Tiptoe's privacy argument (Definition 2.1, Appendix D) assumes the
secret keys and the sampled noise influence *only* ciphertext contents.
A secret that reaches a branch condition, a log line, an exception
message, or a wire encoding is a side channel the proof knows nothing
about.

This checker runs a forward, intraprocedural taint pass per function:

* **sources** -- calls to key/noise generators (``gen_keys``,
  ``gen_secret``, ``keygen``, ``make_client_keys``, ``ternary_secret``,
  ``ternary_secret_signed``, ``gaussian_error``), parameters named like
  secrets (``sk``, ``secret``, ``secret_key``, ...), and attribute
  reads named ``.secret`` / ``.sk`` / ``.secret_key`` / ``.mask`` (a
  client key's precomputed ``A s + e``);
* **propagation** -- assignments (including tuple unpacking),
  arithmetic, subscripts, f-strings, and through calls (a call with a
  tainted argument returns a tainted value);
* **declassifiers** -- structure-only reads (``.shape``, ``.ndim``,
  ``.dtype``, ``.size``, ``.nbytes``, ``.wire_bytes``, ``len()``,
  ``isinstance()``, ``type()``) drop taint: array *shapes* are public
  parameters even when contents are secret;
* **sinks** -- ``if``/``while``/``assert`` conditions (taint-branch),
  ``print``/logging calls (taint-log), exception constructions
  (taint-raise), and serialization calls -- ``encode_*``, ``dumps``,
  ``pack``, ``tobytes``, ... (taint-wire).

The pass is linear (no fixpoint over loops) and name-based; it trades
soundness for a near-zero false-positive rate on this codebase.  The
one intended exception: *encrypting* a secret and sending the
ciphertext is the protocol, and such sites carry a justified
suppression (see ``core/engine.py``).
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, FileContext, call_name
from repro.analysis.findings import Finding, RuleSpec

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


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            if isinstance(elt, ast.Starred):
                elt = elt.value
            out.extend(_target_names(elt))
        return out
    return []


class SecretTaintChecker(Checker):
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

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        scopes: list[tuple[list[ast.stmt], set[str]]] = [(ctx.tree.body, set())]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seeded = {
                    arg.arg
                    for arg in (
                        node.args.posonlyargs
                        + node.args.args
                        + node.args.kwonlyargs
                    )
                    if arg.arg in SECRET_PARAM_NAMES
                }
                scopes.append((node.body, seeded))
        for body, tainted in scopes:
            self._walk(body, set(tainted), ctx, findings)
        return findings

    # -- statement walk ---------------------------------------------------

    def _walk(
        self,
        body: list[ast.stmt],
        tainted: set[str],
        ctx: FileContext,
        findings: list[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # separate scope
            self._visit_stmt(stmt, tainted, ctx, findings)

    def _visit_stmt(
        self,
        stmt: ast.stmt,
        tainted: set[str],
        ctx: FileContext,
        findings: list[Finding],
    ) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, tainted)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value, tainted)
        elif isinstance(stmt, ast.AugAssign):
            if self._is_tainted(stmt.value, tainted):
                tainted.update(_target_names(stmt.target))
        elif isinstance(stmt, (ast.If, ast.While)):
            if self._is_tainted(stmt.test, tainted):
                findings.append(
                    self.finding(
                        ctx,
                        "taint-branch",
                        stmt,
                        "branch condition depends on secret-derived data",
                    )
                )
        elif isinstance(stmt, ast.Assert):
            if self._is_tainted(stmt.test, tainted):
                findings.append(
                    self.finding(
                        ctx,
                        "taint-branch",
                        stmt,
                        "assert condition depends on secret-derived data",
                    )
                )
        elif isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc_args: list[ast.expr] = []
            if isinstance(stmt.exc, ast.Call):
                exc_args = list(stmt.exc.args) + [
                    kw.value for kw in stmt.exc.keywords
                ]
            else:
                exc_args = [stmt.exc]
            if any(self._is_tainted(a, tainted) for a in exc_args):
                findings.append(
                    self.finding(
                        ctx,
                        "taint-raise",
                        stmt,
                        "exception message embeds secret-derived data",
                    )
                )
        elif isinstance(stmt, ast.For):
            if self._is_tainted(stmt.iter, tainted):
                tainted.update(_target_names(stmt.target))

        # sink calls in this statement's own expressions (nested compound
        # statements are handled by the recursion below, exactly once)
        for _, value in ast.iter_fields(stmt):
            values = value if isinstance(value, list) else [value]
            for item in values:
                if not isinstance(item, ast.expr):
                    continue
                for node in ast.walk(item):
                    if isinstance(node, ast.Call):
                        self._check_call_sink(node, tainted, ctx, findings)

        # recurse into compound bodies with the same (shared) taint set
        for field in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field, None)
            if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                self._walk(sub, tainted, ctx, findings)
        for handler in getattr(stmt, "handlers", []) or []:
            self._walk(handler.body, tainted, ctx, findings)

    def _assign(
        self, targets: list[ast.expr], value: ast.expr, tainted: set[str]
    ) -> None:
        names = [n for t in targets for n in _target_names(t)]
        if self._is_tainted(value, tainted):
            tainted.update(names)
        else:
            tainted.difference_update(names)

    # -- sinks -------------------------------------------------------------

    def _check_call_sink(
        self,
        node: ast.Call,
        tainted: set[str],
        ctx: FileContext,
        findings: list[Finding],
    ) -> None:
        args = list(node.args) + [kw.value for kw in node.keywords]
        any_tainted_arg = any(self._is_tainted(a, tainted) for a in args)
        name = call_name(node)

        if name == "print" and isinstance(node.func, ast.Name):
            if any_tainted_arg:
                findings.append(
                    self.finding(
                        ctx,
                        "taint-log",
                        node,
                        "print() receives secret-derived data",
                    )
                )
            return
        if isinstance(node.func, ast.Attribute) and name in LOG_METHODS:
            base = node.func.value
            if isinstance(base, ast.Name) and base.id in (
                "logging",
                "logger",
                "log",
            ):
                if any_tainted_arg:
                    findings.append(
                        self.finding(
                            ctx,
                            "taint-log",
                            node,
                            f"logging call {name}() receives secret-derived"
                            " data",
                        )
                    )
                return

        is_wire = name.startswith("encode_") or name in WIRE_CALL_NAMES
        if is_wire:
            receiver_tainted = isinstance(
                node.func, ast.Attribute
            ) and self._is_tainted(node.func.value, tainted)
            if any_tainted_arg or receiver_tainted:
                findings.append(
                    self.finding(
                        ctx,
                        "taint-wire",
                        node,
                        f"serialization call {name}() receives"
                        " secret-derived data",
                    )
                )

    # -- expression taint --------------------------------------------------

    def _is_tainted(self, node: ast.expr | None, tainted: set[str]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Attribute):
            if node.attr in DECLASSIFY_ATTRS:
                return False
            if node.attr in SECRET_ATTR_NAMES:
                return True
            return self._is_tainted(node.value, tainted)
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in DECLASSIFY_CALLS:
                return False
            if name in SECRET_SOURCE_CALLS:
                return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in DECLASSIFY_ATTRS:
                    return False
                if self._is_tainted(node.func.value, tainted):
                    return True
            return any(
                self._is_tainted(a, tainted)
                for a in list(node.args) + [kw.value for kw in node.keywords]
            )
        if isinstance(node, ast.BinOp):
            return self._is_tainted(node.left, tainted) or self._is_tainted(
                node.right, tainted
            )
        if isinstance(node, ast.UnaryOp):
            return self._is_tainted(node.operand, tainted)
        if isinstance(node, ast.BoolOp):
            return any(self._is_tainted(v, tainted) for v in node.values)
        if isinstance(node, ast.Compare):
            return self._is_tainted(node.left, tainted) or any(
                self._is_tainted(c, tainted) for c in node.comparators
            )
        if isinstance(node, ast.Subscript):
            return self._is_tainted(node.value, tainted)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._is_tainted(e, tainted) for e in node.elts)
        if isinstance(node, ast.Dict):
            return any(
                self._is_tainted(v, tainted)
                for v in list(node.keys) + list(node.values)
                if v is not None
            )
        if isinstance(node, ast.IfExp):
            return self._is_tainted(node.body, tainted) or self._is_tainted(
                node.orelse, tainted
            )
        if isinstance(node, ast.JoinedStr):
            return any(
                self._is_tainted(v.value, tainted)
                for v in node.values
                if isinstance(v, ast.FormattedValue)
            )
        if isinstance(node, ast.FormattedValue):
            return self._is_tainted(node.value, tainted)
        if isinstance(node, ast.Starred):
            return self._is_tainted(node.value, tainted)
        if isinstance(node, ast.Await):
            return self._is_tainted(node.value, tainted)
        return False
