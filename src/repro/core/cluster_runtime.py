"""One ranking shard (SS4.3), batch-first.

The ranking matrix is vertically partitioned by cluster: a shard holds
one contiguous, cluster-aligned column slice.  Client ciphertexts
arrive stacked into a :class:`~repro.core.ranking.RankingBatch`, one
query per column, so a shard's share of a batch is a row-slice of the
stack, answered with one product over a cached kernel-backend plan (a
single query is the batch of one; parallelism inside a shard is the
backend's job).  A single process serves shard 0 of 1; in a fleet,
:mod:`repro.core.fleet` runs one process per (shard, replica) and its
router -- the paper's coordinator -- sums the partials mod q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import CostLedger
from repro.core.ranking import (
    RankingAnswer,
    RankingBatch,
    RankingBatchAnswer,
    RankingQuery,
)
from repro.homenc.double import DoubleLheScheme
from repro.lwe import modular
from repro.net import wire
from repro.net.rpc import ServiceEndpoint
from repro.net.service import Service
from repro.obs import runtime as obs


def shard_bounds(num_clusters: int, num_shards: int) -> np.ndarray:
    """Cluster boundaries of an even cut: shard ``i`` of ``num_shards``
    holds clusters ``[bounds[i], bounds[i + 1])``, never none."""
    if not 1 <= num_shards <= num_clusters:
        raise ValueError(
            f"cannot cut {num_clusters} clusters into {num_shards} shards"
        )
    return np.linspace(0, num_clusters, num_shards + 1).astype(int)


@dataclass
class ShardedRankingService(Service):
    """Shard ``shard`` of ``num_shards`` of the ranking matrix.

    Its wire interface is ``answer`` (one serialized ciphertext) and
    ``answer_batch`` (a stacked query batch).  With a
    :class:`~repro.core.scheduler.BatchScheduler` attached, single-query
    wire requests from concurrent transport threads go through it and
    coalesce into stacked batches.
    """

    #: This shard's columns, pre-lifted into the ring so the online hot
    #: loop is a bare integer matmul.
    matrix_slice: np.ndarray
    #: *Absolute* offset of the slice in the full matrix: ``answer``
    #: accepts the same full-length ciphertext on every shard.
    col_start: int
    scheme: DoubleLheScheme
    shard: int = 0
    num_shards: int = 1
    ledger: CostLedger = field(default_factory=CostLedger)
    #: Optional bound on the full matrix's centered entries (from the
    #: index sidecar), exact-safe for any slice; skips the plan's scan.
    entry_bound: int | None = None
    #: Kernel backend executing the products (None -> reference) plus
    #: plan options; see repro.lwe.backends.
    kernel_backend: str | None = None
    kernel_opts: dict = field(default_factory=dict)
    _plan: object = field(default=None, repr=False)
    scheduler: object = field(default=None, repr=False)

    service_name = "ranking"

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("answer", self._handle_answer)
        endpoint.register("answer_batch", self._handle_answer_batch)

    def _handle_answer(self, payload: memoryview) -> bytes:
        inner = self.scheme.params.inner
        query = RankingQuery(ciphertext=wire.decode_ciphertext(payload, inner))
        scheduler = self.scheduler
        if scheduler is not None and scheduler.running:
            answer = scheduler.submit(query)
        else:
            answer = self.answer(query)
        return wire.encode_answer(answer.values, inner.q_bits)

    def _handle_answer_batch(self, payload: memoryview) -> bytes:
        inner = self.scheme.params.inner
        answer = self.answer_stacked(wire.decode_batch(payload, inner))
        return wire.encode_batch_answer(answer, inner.q_bits)

    def attach_scheduler(self, scheduler) -> None:
        """Install the admission queue used by `_handle_answer`; its
        lifecycle then follows this service's ``open`` / ``close``."""
        self.scheduler = scheduler

    def health(self) -> dict:
        report = {
            "service": self.service_name,
            "status": "ok",
            "kernel_backend": self.kernel_backend or "reference",
            # May differ from what was asked for: an unavailable backend
            # serves on reference.  None until the plan is built.
            "kernel_effective": getattr(self._plan, "backend_name", None),
            "shard": self.shard,
            "num_shards": self.num_shards,
        }
        if self.scheduler is not None:
            report["scheduler"] = self.scheduler.health()
        return report

    @classmethod
    def build(
        cls,
        scheme: DoubleLheScheme,
        matrix: np.ndarray,
        dim: int,
        *,
        shard: int = 0,
        num_shards: int = 1,
        entry_bound: int | None = None,
        kernel_backend: str | None = None,
        kernel_opts: dict | None = None,
    ) -> "ShardedRankingService":
        """The cluster-column slice ``shard`` of ``num_shards``.

        ``answer`` returns the partial sum over this shard's columns;
        wraparound (mod ``2**q_bits``) addition is associative and
        commutative, so summing the ``num_shards`` partials reproduces
        the one-shard answer bit for bit.  ``entry_bound`` (from the
        precompute sidecar) bounds the full matrix's centered entries.
        """
        if not 0 <= shard < num_shards:
            raise ValueError(f"shard {shard} outside [0, {num_shards})")
        bounds = shard_bounds(matrix.shape[1] // dim, num_shards)
        lo, hi = (int(b) * dim for b in bounds[shard : shard + 2])
        return cls(
            matrix_slice=modular.to_ring(
                matrix[:, lo:hi], scheme.params.inner.q_bits
            ),
            col_start=lo,
            scheme=scheme,
            shard=shard,
            num_shards=num_shards,
            entry_bound=entry_bound,
            kernel_backend=kernel_backend,
            kernel_opts=dict(kernel_opts or {}),
        )

    def open(self) -> None:
        """Start the attached scheduler (if any).  Idempotent."""
        if self.scheduler is not None:
            self.scheduler.start()

    def close(self) -> None:
        """Stop the scheduler and release the plan (float staging, worker
        pools, segments).  Idempotent; the next answer rebuilds the plan."""
        if self.scheduler is not None:
            self.scheduler.stop()
        plan, self._plan = self._plan, None
        if plan is not None:
            plan.close()

    def answer(self, query: RankingQuery) -> RankingAnswer:
        """Answer one query: :meth:`answer_batch` of one."""
        return self.answer_batch([query])[0]

    def answer_batch(self, queries: list[RankingQuery]) -> list[RankingAnswer]:
        """Answer Q queries: :meth:`answer_stacked`, one per column."""
        if not queries:
            return []
        return self.answer_stacked(RankingBatch.from_queries(queries)).split()

    def answer_stacked(self, batch: RankingBatch) -> RankingBatchAnswer:
        """This shard's partial answer to a full-width stack: one GEMM
        streams the slice from memory once per batch instead of once
        per query, and column i of it depends on query i alone."""
        inner = self.scheme.params.inner
        # The batch vouches for its own params only; a wrong-height
        # stack must not be answered from the rows this slice covers.
        stacked = modular.as_stacked(batch.stacked, inner.m, inner.q_bits)
        rows, width = self.matrix_slice.shape
        with obs.span(
            "ranking.answer", rows=rows, cols=width, batch=batch.size
        ):
            plan = self._plan
            if plan is None:
                # Built once: like the SimplePIR hint, query-independent.
                from repro.lwe.backends import get_backend

                plan = self._plan = get_backend(self.kernel_backend).plan(
                    self.matrix_slice,
                    inner.q_bits,
                    entry_bound=self.entry_bound,
                    **self.kernel_opts,
                )
            partial = plan.matmul(
                stacked[self.col_start : self.col_start + width]
            )
        self.ledger.add("ranking", 2 * rows * width * batch.size)
        return RankingBatchAnswer(
            stacked=partial, bytes_per_element=inner.bytes_per_element
        )
