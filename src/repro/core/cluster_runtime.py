"""Coordinator and sharded workers (SS4.3), batch-first.

The ranking matrix is vertically partitioned by cluster across W
workers: worker i holds the column blocks of its clusters.  The
coordinator splits the client ciphertexts -- stacked into a
:class:`~repro.core.ranking.RankingBatch`, one query per column, so
the split is a plain row-slice of the stack -- ships chunk i to worker
i, and sums the partial answers mod q.  Each worker answers its chunk
with a single product over a cached kernel-backend plan, so a batch of
Q queries streams the shard from memory once instead of Q times; a
single query is the batch of one.  Parallelism inside a shard is the
kernel backend's job.  If any worker fails mid-batch the coordinator
cannot reply for that batch (the paper notes the same limitation; the
remedy is replication, which :mod:`repro.core.fleet` provides).
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


class WorkerFailure(RuntimeError):
    """A worker shard did not answer; the query cannot complete."""


@dataclass
class RankingWorker:
    """One shard: a contiguous range of cluster column-blocks."""

    worker_id: int
    matrix_slice: np.ndarray  # (rows, cols of this shard)
    col_start: int
    q_bits: int
    alive: bool = True
    ledger: CostLedger = field(default_factory=CostLedger)
    #: Optional precomputed bound on the shard's centered entries
    #: (from the index sidecar); skips the plan's full-shard scan.  The
    #: full-matrix bound is exact-safe for any column slice of it.
    entry_bound: int | None = None
    #: Kernel backend executing this shard's products (None ->
    #: reference) plus tuned plan options; see repro.lwe.backends.
    kernel_backend: str | None = None
    kernel_opts: dict = field(default_factory=dict)
    _plan: object = field(default=None, repr=False)

    def batch_plan(self):
        """The shard's kernel-backend plan, built once and reused.

        Like the SimplePIR hint, the plan is message-independent: it
        depends only on the shard contents, never on any query.
        """
        if self._plan is None:
            from repro.lwe import backends as kernel_backends

            self._plan = kernel_backends.get_backend(self.kernel_backend).plan(
                self.matrix_slice,
                self.q_bits,
                entry_bound=self.entry_bound,
                **self.kernel_opts,
            )
        return self._plan

    @property
    def effective_backend(self) -> str | None:
        """The backend actually executing -- after availability
        fallback -- or None while the plan is still unbuilt."""
        plan = self._plan
        return getattr(plan, "backend_name", None) if plan is not None else None

    def drop_plan(self) -> None:
        """Release the plan (float staging, worker pools, segments)."""
        plan, self._plan = self._plan, None
        if plan is not None:
            plan.close()

    def answer_stacked(self, chunk: np.ndarray) -> np.ndarray:
        """Answer a (width, Q) stacked chunk with one GEMM."""
        if not self.alive:
            raise WorkerFailure(f"worker {self.worker_id} is down")
        if chunk.ndim != 2 or chunk.shape[0] != self.matrix_slice.shape[1]:
            raise ValueError("stacked chunk does not match shard width")
        self.ledger.add("ranking", 2 * self.matrix_slice.size * chunk.shape[1])
        return self.batch_plan().matmul(chunk)

    def storage_bytes(self) -> int:
        """Shard size at 4-bit entries (what bounds RAM per machine)."""
        return self.matrix_slice.size // 2


@dataclass
class ShardedRankingService(Service):
    """The coordinator plus its worker fleet.

    As a :class:`~repro.net.service.Service` its wire interface is an
    ``answer`` method carrying one serialized ciphertext and an
    ``answer_batch`` method carrying a stacked query batch.  When a
    :class:`~repro.core.scheduler.BatchScheduler` is attached,
    single-query wire requests from concurrent transport threads are
    routed through it so they coalesce into stacked batches.
    """

    workers: list[RankingWorker]
    scheme: DoubleLheScheme
    ledger: CostLedger = field(default_factory=CostLedger)
    #: Set when this service holds one fleet shard (see
    #: :meth:`build_shard`): its workers cover only that shard's
    #: cluster columns and ``answer`` returns a *partial* sum the
    #: fleet router folds together.  None for the full-matrix service.
    shard: int | None = None
    num_shards: int | None = None
    #: Kernel backend the shard workers execute on (None -> reference).
    kernel_backend: str | None = None
    _scheduler: object = field(default=None, repr=False)

    service_name = "ranking"

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("answer", self._handle_answer)
        endpoint.register("answer_batch", self._handle_answer_batch)

    def _handle_answer(self, payload: bytes) -> bytes:
        ct = wire.decode_ciphertext(payload, self.scheme.params.inner)
        query = RankingQuery(ciphertext=ct)
        scheduler = self._scheduler
        if scheduler is not None and scheduler.running:
            answer = scheduler.submit(query)
        else:
            answer = self.answer(query)
        return wire.encode_answer(
            answer.values, self.scheme.params.inner.q_bits
        )

    def _handle_answer_batch(self, payload: bytes) -> bytes:
        batch = wire.decode_batch(payload, self.scheme.params.inner)
        answer = self.answer_stacked(batch)
        return wire.encode_batch_answer(
            answer, self.scheme.params.inner.q_bits
        )

    def attach_scheduler(self, scheduler) -> None:
        """Install the admission queue used by `_handle_answer`.

        The scheduler's lifecycle follows this service's ``open`` /
        ``close`` once attached.
        """
        self._scheduler = scheduler

    @property
    def scheduler(self):
        return self._scheduler

    def health(self) -> dict:
        alive = sum(1 for w in self.workers if w.alive)
        report = {
            "service": self.service_name,
            "status": "ok" if alive == len(self.workers) else "degraded",
            "workers": len(self.workers),
            "alive": alive,
            "kernel_backend": self.kernel_backend or "reference",
        }
        # What is *actually* running may differ from what was asked
        # for: an unavailable backend (say cnative on a host with no C
        # compiler) silently serves on reference.  Report it so
        # operators can see the downgrade; None until a plan is built.
        effective = next(
            (
                w.effective_backend
                for w in self.workers
                if w.effective_backend is not None
            ),
            None,
        )
        report["kernel_effective"] = effective
        if self.shard is not None:
            report["shard"] = self.shard
            report["num_shards"] = self.num_shards
        if self._scheduler is not None:
            report["scheduler"] = self._scheduler.health()
        return report

    @classmethod
    def build(
        cls,
        scheme: DoubleLheScheme,
        matrix: np.ndarray,
        dim: int,
        num_workers: int,
        entry_bound: int | None = None,
        kernel_backend: str | None = None,
        kernel_opts: dict | None = None,
    ) -> "ShardedRankingService":
        """Partition the matrix by cluster across workers.

        ``entry_bound`` (from the precompute sidecar) is a bound on the
        full matrix's centered entries; each shard inherits it so its
        batch plan skips the entry scan.  ``kernel_backend`` /
        ``kernel_opts`` select and parameterize the kernel backend every
        shard executes on (see :mod:`repro.lwe.backends`).
        """
        num_clusters = matrix.shape[1] // dim
        num_workers = min(num_workers, num_clusters)
        bounds = np.linspace(0, num_clusters, num_workers + 1).astype(int)
        workers = []
        q_bits = scheme.params.inner.q_bits
        for w in range(num_workers):
            col_start = bounds[w] * dim
            col_end = bounds[w + 1] * dim
            # Shards are stored pre-lifted into the ring so the online
            # hot loop is a bare integer matmul.
            workers.append(
                RankingWorker(
                    worker_id=w,
                    matrix_slice=modular.to_ring(
                        matrix[:, col_start:col_end], q_bits
                    ),
                    col_start=col_start,
                    q_bits=q_bits,
                    entry_bound=entry_bound,
                    kernel_backend=kernel_backend,
                    kernel_opts=dict(kernel_opts or {}),
                )
            )
        return cls(
            workers=workers, scheme=scheme, kernel_backend=kernel_backend
        )

    @classmethod
    def build_shard(
        cls,
        scheme: DoubleLheScheme,
        matrix: np.ndarray,
        dim: int,
        shard: int,
        num_shards: int,
        num_workers: int = 1,
        entry_bound: int | None = None,
        kernel_backend: str | None = None,
        kernel_opts: dict | None = None,
    ) -> "ShardedRankingService":
        """One fleet shard: the cluster-column slice ``shard`` of
        ``num_shards``, itself worker-partitioned via :meth:`build`.

        The shard's workers keep *absolute* column offsets into the
        full matrix, so ``answer`` accepts the same full-length
        ciphertext as the single-process service and returns the
        partial sum over this shard's columns.  Because answers add
        with wraparound (mod ``2**q_bits``) arithmetic -- associative
        and commutative -- a router summing the ``num_shards`` partial
        answers reproduces the single-process result bit for bit.
        """
        if not 0 <= shard < num_shards:
            raise ValueError(f"shard {shard} outside [0, {num_shards})")
        num_clusters = matrix.shape[1] // dim
        if num_shards > num_clusters:
            raise ValueError(
                f"cannot cut {num_clusters} clusters into {num_shards} shards"
            )
        bounds = np.linspace(0, num_clusters, num_shards + 1).astype(int)
        lo = int(bounds[shard]) * dim
        hi = int(bounds[shard + 1]) * dim
        service = cls.build(
            scheme,
            matrix[:, lo:hi],
            dim,
            num_workers,
            entry_bound=entry_bound,
            kernel_backend=kernel_backend,
            kernel_opts=kernel_opts,
        )
        for worker in service.workers:
            worker.col_start += lo
        service.shard = shard
        service.num_shards = num_shards
        return service

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def open(self) -> None:
        """Start the attached scheduler (if any).  Idempotent."""
        if self._scheduler is not None:
            self._scheduler.start()

    def close(self) -> None:
        """Stop the scheduler and release every shard plan (idempotent).

        The service remains usable after close -- plans are lazily
        rebuilt.
        """
        if self._scheduler is not None:
            self._scheduler.stop()
        for worker in self.workers:
            worker.drop_plan()

    def __enter__(self) -> "ShardedRankingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def answer(self, query: RankingQuery) -> RankingAnswer:
        """Answer one query: :meth:`answer_batch` of one."""
        return self.answer_batch([query])[0]

    def answer_batch(self, queries: list[RankingQuery]) -> list[RankingAnswer]:
        """Answer Q queries: :meth:`answer_stacked`, one per column."""
        if not queries:
            return []
        return self.answer_stacked(RankingBatch.from_queries(queries)).split()

    def answer_stacked(self, batch: RankingBatch) -> RankingBatchAnswer:
        """Fan the stack out by shard, sum the partial answers mod q.

        Stacking the ciphertexts turns Q scans into one product per
        shard -- the index streams from memory once per batch instead
        of once per query.  Each worker partial is the exact ring
        product of its operands and mod-2^k accumulation is
        column-wise, so column i depends on query i alone.
        """
        stacked = batch.stacked
        total = None
        with obs.span(
            "ranking.answer", workers=len(self.workers), batch=batch.size
        ) as coord_span:
            for worker in self.workers:
                width = worker.matrix_slice.shape[1]
                with obs.span(
                    "ranking.worker",
                    parent=coord_span,
                    worker=worker.worker_id,
                    rows=worker.matrix_slice.shape[0],
                    cols=width,
                    batch=batch.size,
                ):
                    partial = worker.answer_stacked(
                        stacked[worker.col_start : worker.col_start + width]
                    )
                if total is None:
                    total = partial
                else:
                    # Unsigned in-place add wraps mod 2^k exactly.
                    np.add(total, partial, out=total)
        for worker in self.workers:
            self.ledger.merge(worker.ledger)
            worker.ledger = CostLedger()
        return RankingBatchAnswer(
            stacked=total,
            bytes_per_element=self.scheme.params.inner.bytes_per_element,
        )

    def fail_worker(self, worker_id: int) -> None:
        """Failure injection for tests/benchmarks."""
        self.workers[worker_id].alive = False

    def revive_worker(self, worker_id: int) -> None:
        self.workers[worker_id].alive = True

    def max_shard_bytes(self) -> int:
        return max(w.storage_bytes() for w in self.workers)
