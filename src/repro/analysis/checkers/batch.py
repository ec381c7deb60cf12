"""The batch-plane rule: no per-query GEMM loops in the hot path.

The whole point of the stacked evaluation body (DESIGN.md, "Evaluation
plane") is that the coordinator and scheduler move *stacked* query
matrices, so each shard runs one matrix-matrix product per batch.  A
Python ``for`` loop issuing one ``matmul``/``apply``/``answer`` per
query inside those two modules silently undoes the batching: the code
still returns correct answers but streams the index from memory once
per query again, which is exactly the regression PR 3's serial
``answer_batch`` shipped with.

``batch-loop`` flags calls whose trailing name is one of the
per-query kernel entry points (``modular.matmul`` / ``plan.matmul``,
``modular.matvec``, ``apply``, ``answer`` -- each a batch of one)
lexically inside any ``for``/``while`` loop or
comprehension, scoped to ``core/cluster_runtime.py`` and
``core/scheduler.py``.  Batched entry points (``answer_stacked``,
``apply_batch``, ``answer_batch``) are not flagged; a genuinely
per-worker loop that must stay (e.g. replica failover) takes a
justified suppression.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, FileContext, call_name
from repro.analysis.findings import Finding, RuleSpec

#: Per-query kernel entry points that must not sit inside a loop.
_PER_QUERY_CALLS = frozenset({"matmul", "matvec", "apply", "answer"})

#: The batch-plane modules this invariant binds in.
_HOT_FILES = frozenset({"cluster_runtime.py", "scheduler.py"})

_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


class BatchPlaneChecker(Checker):
    name = "batch"
    rules = (
        RuleSpec(
            rule="batch-loop",
            summary=(
                "per-query matmul/apply/answer loop in a batch-plane"
                " module; stack the queries and make one GEMM call"
            ),
            invariant=(
                "the coordinator and scheduler execute one matrix-matrix"
                " product per shard per batch, never one product per query"
            ),
        ),
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.filename in _HOT_FILES and "core" in ctx.parts

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, _LOOP_NODES):
                continue
            for node in ast.walk(loop):
                if node is loop or isinstance(node, _LOOP_NODES):
                    # Nested loops produce their own findings.
                    if node is not loop:
                        continue
                if isinstance(node, ast.Call):
                    name = call_name(node)
                    if name in _PER_QUERY_CALLS:
                        findings.append(
                            self.finding(
                                ctx,
                                "batch-loop",
                                node,
                                f"per-query '{name}' call inside a loop"
                                " re-scans the index once per query; stack"
                                " the batch and call the *_stacked /"
                                " *_batch entry point once",
                            )
                        )
        # A call inside N nested loops would be reported N times; dedup
        # by position so each offending call yields one finding.
        seen: set[tuple[int, int]] = set()
        unique: list[Finding] = []
        for finding in findings:
            key = (finding.line, finding.col)
            if key not in seen:
                seen.add(key)
                unique.append(finding)
        return unique
