"""Shared-memory multiprocessing backend: the scan on every core.

The ranking GEMM is embarrassingly parallel over matrix *rows*: the
product ``M @ B`` row-partitions into ``M[lo:hi] @ B`` blocks that
touch disjoint output rows.  This backend spawns worker processes
(escaping the GIL), places one read-only copy of the ring matrix -- and
of the centered float64 limb copy when the BLAS path is active -- in
POSIX shared memory, and hands each worker a zero-copy row-slice view.
Per batch, the stacked ciphertexts go out through one input segment and
the evaluated rows come back through one output segment; each worker
writes only its own ``[lo, hi)`` rows, so recombination is plain
concatenation (the degenerate case of ``modular.add`` with
zero-initialized remainders).

Exactness of the partition is inherited from
:func:`~repro.lwe.modular.limb_product`: every partial sum of every
per-worker dgemm is an exactly representable integer below 2^53, so
each worker's block equals the corresponding rows of the reference
product bit for bit, independent of how rows are split.  The integer
fallback regime partitions just as freely -- unsigned wraparound matmul
is exact per row.

Processes are ``spawn``-ed, never forked: the parent has live BLAS
thread pools and forking those is undefined behavior.
"""

from __future__ import annotations

import os
import threading
import weakref

import multiprocessing
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.lwe import modular
from repro.lwe.backends.base import KernelUnavailable, PlanContextMixin
from repro.obs import runtime as _obs

#: Default worker-pool width: always genuinely multiprocess (>= 2) so
#: the out-of-process path is exercised even on small hosts, capped so
#: spawn cost stays sane.
DEFAULT_WORKERS = max(2, min(4, os.cpu_count() or 1))

#: How long (seconds) teardown waits for a worker to exit politely
#: before terminating it.
_JOIN_TIMEOUT = 5.0


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    Python 3.11's ``SharedMemory`` registers *every* handle -- creator
    or not -- with the resource tracker, and spawn-context children
    share the parent's tracker process, so an attaching child would
    steal (and on exit, destroy) the parent's registration.  Suppress
    registration for the duration of the attach instead: the creating
    process owns cleanup.  (3.13 exposes this as ``track=False``.)
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _worker_main(conn, spec: dict) -> None:
    """Worker loop: attach row-slice views, serve matmul jobs.

    Runs in a spawned child.  ``spec`` carries segment names and the
    worker's row range; per-job messages carry the batch input/output
    segment names.  Replies ``("ok", None)`` or ``("err", detail)``.
    """
    q_bits = spec["q_bits"]
    dtype = modular.dtype_for(q_bits)
    ring_shm = _attach(spec["ring"])
    float_shm = _attach(spec["float"]) if spec["float"] else None
    try:
        shape = (spec["rows"], spec["cols"])
        lo, hi = spec["lo"], spec["hi"]
        ring = np.ndarray(shape, dtype=dtype, buffer=ring_shm.buf)[lo:hi]
        fslice = (
            np.ndarray(shape, dtype=np.float64, buffer=float_shm.buf)[lo:hi]
            if float_shm is not None
            else None
        )
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            try:
                _, in_name, batch, out_name = msg
                in_shm = _attach(in_name)
                out_shm = _attach(out_name)
                try:
                    stacked = np.ndarray(
                        (spec["cols"], batch), dtype=dtype, buffer=in_shm.buf
                    )
                    out = np.ndarray(
                        (spec["rows"], batch), dtype=dtype, buffer=out_shm.buf
                    )
                    if fslice is not None:
                        out[lo:hi] = modular.limb_product(
                            fslice,
                            stacked,
                            spec["limb_bits"],
                            q_bits,
                            chunk_rows=spec["chunk_rows"],
                        )
                    else:
                        out[lo:hi] = modular.matmul(ring, stacked, q_bits)
                finally:
                    in_shm.close()
                    out_shm.close()
                conn.send(("ok", None))
            except Exception as exc:  # pragma: no cover - defensive
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        ring_shm.close()
        if float_shm is not None:
            float_shm.close()
        conn.close()


def _teardown(conns, procs, segments) -> None:
    """Stop workers and release the long-lived segments.

    Module-level so ``weakref.finalize`` never keeps the plan alive;
    ``finalize`` guarantees at-most-once, making ``close()`` idempotent.
    """
    for conn in conns:
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for proc in procs:
        proc.join(timeout=_JOIN_TIMEOUT)
        if proc.is_alive():  # pragma: no cover - hung worker
            proc.terminate()
            proc.join(timeout=_JOIN_TIMEOUT)
    for conn in conns:
        conn.close()
    for shm in segments:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class SharedMemoryPlan(PlanContextMixin):
    """A row-partitioned plan executed by a spawn-context worker pool."""

    backend_name = "multiprocess"

    def __init__(
        self,
        inner: modular.StackedPlan,
        *,
        workers: int,
        timer_label: str,
    ):
        self.q_bits = inner.q_bits
        self.entry_bound = inner.entry_bound
        self.limb_bits = inner.limb_bits
        self.chunk_rows = inner.chunk_rows
        self.timer_label = timer_label
        rows, cols = inner.ring.shape
        self._shape = (rows, cols)
        self.workers = max(1, min(int(workers), rows)) if rows else 1
        self._dtype = modular.dtype_for(self.q_bits)

        ctx = multiprocessing.get_context("spawn")
        segments: list = []
        conns, procs = [], []
        bounds = np.linspace(0, rows, self.workers + 1).astype(int)
        try:
            ring_shm = shared_memory.SharedMemory(
                create=True, size=max(inner.ring.nbytes, 1)
            )
            segments.append(ring_shm)
            ring_view = np.ndarray(
                self._shape, dtype=self._dtype, buffer=ring_shm.buf
            )
            np.copyto(ring_view, inner.ring)
            float_shm = None
            if inner.uses_blas:
                float_shm = shared_memory.SharedMemory(
                    create=True, size=max(rows * cols * 8, 1)
                )
                segments.append(float_shm)
                fview = np.ndarray(
                    self._shape, dtype=np.float64, buffer=float_shm.buf
                )
                # Centered representatives fit in float64 exactly
                # whenever the limb path is active (the entry bound
                # derived a positive limb width, so |entry| << 2^53).
                np.copyto(fview, modular.centered(ring_view, self.q_bits))
            for w in range(self.workers):
                spec = {
                    "ring": ring_shm.name,
                    "float": float_shm.name if float_shm is not None else None,
                    "rows": rows,
                    "cols": cols,
                    "q_bits": self.q_bits,
                    "lo": int(bounds[w]),
                    "hi": int(bounds[w + 1]),
                    "limb_bits": self.limb_bits,
                    "chunk_rows": self.chunk_rows,
                }
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main, args=(child_conn, spec), daemon=True
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)
        except Exception:
            _teardown(conns, procs, segments)
            raise

        self._ring = ring_view
        self._io_lock = threading.Lock()
        self._conns = conns  # guarded-by: _io_lock
        self._finalizer = weakref.finalize(
            self, _teardown, conns, procs, segments
        )

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def uses_blas(self) -> bool:
        return self.limb_bits > 0

    def matmul(self, stacked: np.ndarray) -> np.ndarray:
        """The exact stacked product, fanned out across the pool.

        A stack narrower than ``modular.LIMB_MIN_BATCH`` does not
        amortize the fan-out; it runs on the parent's zero-copy view
        of the shared matrix.
        """
        if self._ring is None:
            raise KernelUnavailable("multiprocess plan is closed")
        stacked = modular.as_stacked(stacked, self.cols, self.q_bits)
        batch = stacked.shape[1]
        if batch < modular.LIMB_MIN_BATCH:
            return modular.matmul(self._ring, stacked, self.q_bits)
        if self.rows == 0:
            return np.zeros((self.rows, batch), dtype=self._dtype)
        with _obs.kernel_timer(self.timer_label):
            in_shm = shared_memory.SharedMemory(
                create=True, size=max(stacked.nbytes, 1)
            )
            out_shm = shared_memory.SharedMemory(
                create=True,
                size=max(self.rows * batch * self._dtype().itemsize, 1),
            )
            try:
                in_view = np.ndarray(
                    stacked.shape, dtype=self._dtype, buffer=in_shm.buf
                )
                np.copyto(in_view, stacked)
                replies = []
                with self._io_lock:
                    for conn in self._conns:
                        conn.send(("matmul", in_shm.name, batch, out_shm.name))
                    for conn in self._conns:
                        # tiptoe-lint: disable=lock-blocking-call -- the pool pipe is private to this plan; workers always reply once per job, so the recv cannot deadlock against another holder of _io_lock
                        replies.append(conn.recv())
                errors = [detail for status, detail in replies if status != "ok"]
                if errors:
                    raise KernelUnavailable(
                        f"kernel worker failed: {'; '.join(errors)}"
                    )
                out_view = np.ndarray(
                    (self.rows, batch), dtype=self._dtype, buffer=out_shm.buf
                )
                return out_view.copy()
            finally:
                in_shm.close()
                in_shm.unlink()
                out_shm.close()
                out_shm.unlink()

    def metadata(self) -> dict:
        """Serializable plan parameters -- same shape as the reference."""
        return {
            "q_bits": self.q_bits,
            "entry_bound": self.entry_bound,
            "limb_bits": self.limb_bits,
        }

    def close(self) -> None:
        """Stop the pool and unlink the shared segments.  Idempotent."""
        self._ring = None
        self._finalizer()


class SharedMemoryBackend:
    """Spawn-context process pool over shared-memory matrix views."""

    name = "multiprocess"

    timer_label = "lwe.matmul_batch.multiprocess"

    @property
    def available(self) -> bool:
        try:
            multiprocessing.get_context("spawn")
        except ValueError:  # pragma: no cover - exotic platforms
            return False
        return hasattr(shared_memory, "SharedMemory")

    def plan(
        self,
        matrix: np.ndarray,
        q_bits: int,
        *,
        entry_bound: int | None = None,
        metadata: dict | None = None,
        limb_bits: int | None = None,
        chunk_rows: int = 0,
        workers: int = 0,
    ) -> SharedMemoryPlan:
        if not self.available:  # pragma: no cover - exotic platforms
            raise KernelUnavailable("spawn/shared-memory unsupported here")
        if metadata is not None and limb_bits is None:
            inner = modular.StackedPlan.from_metadata(
                matrix, metadata, chunk_rows=chunk_rows
            )
        else:
            if metadata is not None and entry_bound is None:
                entry_bound = int(metadata["entry_bound"])
            inner = modular.StackedPlan(
                matrix,
                q_bits,
                entry_bound=entry_bound,
                limb_bits=limb_bits,
                chunk_rows=chunk_rows,
            )
        try:
            return SharedMemoryPlan(
                inner,
                workers=workers or DEFAULT_WORKERS,
                timer_label=self.timer_label,
            )
        finally:
            inner.close()
