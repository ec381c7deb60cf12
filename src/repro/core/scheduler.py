"""The cross-query batch scheduler: an admission queue for ranking.

Tiptoe's server cost is one linear scan per query; the paper's
throughput numbers assume that scan is amortized across many
concurrent clients (SS6, Table 7 reports core-seconds per query at
full load).  This module supplies the serving-side half of that
amortization: requests arriving on concurrent transport threads are
parked in an admission queue, a single dispatcher coalesces up to
``max_batch_size`` of them into one
:class:`~repro.core.ranking.RankingBatch`, the ranking service answers
the whole batch with one GEMM over its column slice, and the answers
fan back out to the waiting threads.

Batching changes *when* work happens, never *what* is computed: column
i of the stacked product is the exact mod-2^k ring product of query
i alone, so an answer does not depend on what it was batched with
(asserted in tests).  A failure while answering -- e.g. a stack of
the wrong height -- fails only the queries in that batch; the
dispatcher keeps serving subsequent batches.

Latency policy: a batch is dispatched as soon as it is full, or once
``max_batch_wait_s`` has elapsed since its *first* query was enqueued,
whichever comes first.  An idle scheduler dispatches a lone query
after at most the wait bound, so the worst-case added latency is one
hold window.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.ranking import RankingAnswer, RankingBatch, RankingQuery
from repro.obs import runtime as obs


class SchedulerClosed(RuntimeError):
    """The scheduler is not running; the query was not executed."""


class _Slot:
    """One waiting query: its parking event and eventual outcome."""

    __slots__ = ("query", "event", "answer", "error", "enqueued_at")

    def __init__(self, query: RankingQuery, now: float):
        self.query = query
        self.event = threading.Event()
        self.answer: RankingAnswer | None = None
        self.error: BaseException | None = None
        self.enqueued_at = now

    def resolve(self, answer: RankingAnswer) -> None:
        self.answer = answer
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


@dataclass
class SchedulerStats:
    """Always-on counters (metrics histograms need obs enabled)."""

    batches: int = 0
    queries: int = 0
    failed_queries: int = 0
    max_batch: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.queries / self.batches if self.batches else 0.0


class BatchScheduler:
    """Coalesces concurrent ranking queries into stacked batches.

    ``submit`` blocks the calling (transport) thread until its query's
    batch has been answered and returns that query's own answer; the
    dispatcher thread is the only caller of the service's
    ``answer_stacked``.  Lifecycle is ``start`` / ``stop`` (idempotent,
    also usable as a context manager); the owning
    ``ShardedRankingService`` drives both from its ``open`` / ``close``.
    """

    def __init__(
        self,
        service,
        max_batch_size: int,
        max_batch_wait_ms: float = 2.0,
        clock=time.perf_counter,
    ):
        if max_batch_size < 1:
            raise ValueError("max batch size must be at least 1")
        if max_batch_wait_ms < 0:
            raise ValueError("max batch wait must be non-negative")
        self.service = service
        self.max_batch_size = max_batch_size
        self.max_batch_wait_s = max_batch_wait_ms / 1000.0
        self._clock = clock
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: list[_Slot] = []  # guarded-by: _lock
        self._running = False  # guarded-by: _lock
        self._thread: threading.Thread | None = None
        self.stats = SchedulerStats()

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        with self._lock:
            return self._running

    def start(self) -> None:
        """Start the dispatcher thread.  Idempotent."""
        with self._lock:
            if self._running:
                return
            self._running = True
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="ranking-batcher", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Drain the queue, stop the dispatcher, join it.  Idempotent.

        Queries already enqueued are still answered; queries submitted
        after stop begins raise :class:`SchedulerClosed`.
        """
        with self._wakeup:
            if not self._running:
                return
            self._running = False
            self._wakeup.notify_all()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        # The dispatcher drains before exiting; anything still queued
        # means it died abnormally -- never strand a waiting thread.
        with self._lock:
            leftover, self._queue = self._queue, []
        for slot in leftover:
            slot.fail(SchedulerClosed("scheduler stopped before dispatch"))

    def __enter__(self) -> "BatchScheduler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- the submission path -------------------------------------------------

    def submit(self, query: RankingQuery) -> RankingAnswer:
        """Enqueue one query and block until its answer is ready.

        Raises whatever the batch execution raised -- scoped to this
        batch only -- or :class:`SchedulerClosed` if the scheduler is
        not running.
        """
        slot = _Slot(query, self._clock())
        with self._wakeup:
            if not self._running:
                raise SchedulerClosed("scheduler is not running")
            self._queue.append(slot)
            self._wakeup.notify_all()
        slot.event.wait()
        if slot.error is not None:
            raise slot.error
        return slot.answer

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    def health(self) -> dict:
        return {
            "running": self.running,
            "max_batch_size": self.max_batch_size,
            "max_batch_wait_ms": self.max_batch_wait_s * 1000.0,
            "queued": self.queued,
            "batches": self.stats.batches,
            "queries": self.stats.queries,
            "failed_queries": self.stats.failed_queries,
            "mean_batch_size": self.stats.mean_batch_size,
            # Which kernel backend the batches it dispatches execute on
            # (the service owns the plan; reference when unset).
            "kernel_backend": getattr(self.service, "kernel_backend", None)
            or "reference",
        }

    # -- the dispatcher ------------------------------------------------------

    def _take_batch(self) -> list[_Slot] | None:
        """Block until a batch is ready; None once stopped and drained.

        The hold window opens when the oldest queued query arrived: the
        batch ships as soon as it is full or that query has waited
        ``max_batch_wait_s``, so added latency is bounded per query,
        not reset by late arrivals.
        """
        with self._wakeup:
            while self._running and not self._queue:
                self._wakeup.wait()
            if not self._queue:
                return None  # stopped and fully drained
            deadline = self._queue[0].enqueued_at + self.max_batch_wait_s
            while self._running and len(self._queue) < self.max_batch_size:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._wakeup.wait(remaining)
            batch = self._queue[: self.max_batch_size]
            del self._queue[: self.max_batch_size]
            return batch

    def _dispatch_loop(self) -> None:
        while True:
            slots = self._take_batch()
            if slots is None:
                return
            self._run_batch(slots)

    def _run_batch(self, slots: list[_Slot]) -> None:
        now = self._clock()
        for slot in slots:
            obs.observe("scheduler.queue_wait_seconds", now - slot.enqueued_at)
        obs.observe("scheduler.batch_size", len(slots))
        self.stats.batches += 1
        self.stats.queries += len(slots)
        self.stats.max_batch = max(self.stats.max_batch, len(slots))
        try:
            batch = RankingBatch.from_queries([slot.query for slot in slots])
            answers = self.service.answer_stacked(batch).split()
        except BaseException as exc:  # fail this batch, keep serving
            self.stats.failed_queries += len(slots)
            for slot in slots:
                slot.fail(exc)
            return
        for slot, answer in zip(slots, answers):
            slot.resolve(answer)
