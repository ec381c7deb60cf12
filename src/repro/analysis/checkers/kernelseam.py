"""The kernel-seam rule: every hot ring product crosses a backend.

The kernel refactor (DESIGN.md, "Kernel plane") makes
:mod:`repro.lwe.backends` the only place the stacked modular GEMM is
executed: serving code asks the registry for a plan
(``get_backend(name).plan(...)``) and calls ``plan.matmul``, its
only entry point.  Code that builds a
:class:`~repro.lwe.modular.StackedPlan` directly, or multiplies a ring
matrix with ``@`` / ``np.matmul``, silently pins itself to one
execution strategy -- it ignores the configured backend, the tuned
sidecar ``KernelPlan``, and the kernel timers the benchmarks read.

Two shapes are flagged outside the seam (the backends package plus
:mod:`repro.lwe.modular` itself, which implements the one shared
kernel):

* ``StackedPlan(...)`` / ``StackedPlan.from_metadata(...)``
  construction -- ask the registry for a plan instead.
* ``np.matmul(...)`` or the ``@`` operator where an operand's name
  mentions ``ring``/``stacked``/``limb`` -- this codebase's vocabulary
  for Z_{2^k} matrices.  Float-geometry products (embeddings,
  centroids, PCA) multiply freely; they are not ring data and never
  match.  ``modular.matmul`` remains legal: it is the exact
  single-shot product (hint builds, ingest deltas), not the batched
  hot path the backends own.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, FileContext, dotted_name
from repro.analysis.findings import Finding, RuleSpec

#: Identifier fragments that mark an operand as ring-domain data.
_RING_WORDS = ("ring", "stacked", "limb")


def _names_ring(node: ast.AST) -> bool:
    """Does this operand's identifier read as a ring matrix?"""
    if isinstance(node, ast.Name):
        text = node.id
    elif isinstance(node, ast.Attribute):
        text = node.attr
    elif isinstance(node, ast.Call):
        return _names_ring(node.func)
    elif isinstance(node, ast.Subscript):
        return _names_ring(node.value)
    else:
        return False
    lowered = text.lower()
    return any(word in lowered for word in _RING_WORDS)


def _is_stacked_plan_ctor(call: ast.Call) -> bool:
    """``StackedPlan(...)`` or ``[modular.]StackedPlan.from_metadata(...)``."""
    dotted = dotted_name(call.func)
    if isinstance(call.func, ast.Name):
        return call.func.id == "StackedPlan"
    if not dotted:
        return False
    parts = dotted.split(".")
    if parts[-1] == "StackedPlan":
        return True
    return len(parts) >= 2 and parts[-2] == "StackedPlan" and (
        parts[-1] == "from_metadata"
    )


class KernelSeamChecker(Checker):
    name = "kernelseam"
    rules = (
        RuleSpec(
            rule="kernel-seam",
            summary=(
                "hot ring product executed outside repro.lwe.backends;"
                " request a plan from the backend registry"
            ),
            invariant=(
                "every stacked modular GEMM flows through a backend"
                " plan, so the configured/tuned kernel actually runs"
            ),
        ),
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # The seam itself: the backends package, and modular.py, which
        # is the kernel those backends execute.
        parts = ctx.parts[:-1]
        if "repro" in parts and "lwe" in parts:
            if "backends" in parts or ctx.filename == "modular.py":
                return False
        return True

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_stacked_plan_ctor(node):
                findings.append(
                    self.finding(
                        ctx,
                        "kernel-seam",
                        node,
                        "direct StackedPlan construction pins the"
                        " reference kernel; call"
                        " get_backend(name).plan(matrix, q_bits, ...)"
                        " so the configured backend runs",
                    )
                )
            elif isinstance(node, ast.Call) and dotted_name(node.func) in (
                "np.matmul",
                "numpy.matmul",
            ):
                if any(_names_ring(arg) for arg in node.args[:2]):
                    findings.append(
                        self.finding(
                            ctx,
                            "kernel-seam",
                            node,
                            "np.matmul on a ring matrix wraps at the"
                            " float precision limit and bypasses the"
                            " kernel seam; use a backend plan (or"
                            " modular.matmul for a one-shot product)",
                        )
                    )
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.MatMult
            ):
                if _names_ring(node.left) or _names_ring(node.right):
                    findings.append(
                        self.finding(
                            ctx,
                            "kernel-seam",
                            node,
                            "`@` on a ring matrix bypasses the kernel"
                            " seam (and is inexact past 2^53); use a"
                            " backend plan or modular.matmul",
                        )
                    )
        return findings
