"""Native compiled backend: a cffi C GEMM with GIL-released threads.

The multiprocess backend escapes the GIL by paying for processes:
spawn latency at plan build, one ``SharedMemory`` round trip per
batch, and a full copy of the stacked ciphertexts in and the answer
rows out.  This backend escapes the GIL for free instead: the stacked
product runs in a small C extension (built once with cffi in API
mode) that releases the GIL for the whole call and row-partitions the
GEMM across *native* threads -- same matrix, same address space, zero
copies per batch.

Exactness is by construction, on either of two code paths:

* **Limb path** (``limb_bits > 0``, the serving regime).  The same
  decomposition contract as :class:`~repro.lwe.modular.StackedPlan`:
  the matrix is read through its *centered* signed view, each stacked
  ciphertext column is split into ``limb_bits``-wide limbs, and each
  limb product accumulates in ``int64``.  The limb width was derived
  (or validated) by ``StackedPlan`` so that every partial sum stays
  strictly below 2^53 -- comfortably inside ``int64`` -- so every
  intermediate is the same exact integer the reference float64 dgemm
  produces, and the wraparound recombination ``out += (uint)acc <<
  shift`` is the same mod-2^k arithmetic ``limb_product`` performs.
  Bit-identity therefore does not depend on summation order, the row
  partition, or the thread count.
* **Integer path** (``limb_bits == 0``, entries too large for exact
  limbs).  A direct ``uint32``/``uint64`` wraparound GEMM -- C
  unsigned arithmetic *is* reduction mod 2^k, exactly like
  :func:`~repro.lwe.modular.matmul`.

The extension is compiled ahead of time, not at import: the generated
C is content-hashed together with the cffi/python/platform fingerprint
and cached (``REPRO_CNATIVE_CACHE`` overrides the location), so every
process after the first just ``dlopen``-s the cached shared object.
A host without a C compiler -- or a failing build -- degrades to
``available == False``; ``get_backend("cnative")`` then hands back the
reference backend and serving continues bit-identically, never an
import error (the CI "compiler-absent" job proves this path).
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import sys
import sysconfig
import threading
from pathlib import Path

import numpy as np

from repro.lwe import modular
from repro.lwe.backends.base import KernelUnavailable, PlanContextMixin
from repro.obs import runtime as _obs

logger = logging.getLogger(__name__)

#: Default native thread count: every core, capped so a giant host does
#: not oversubscribe the memory bus on one skinny GEMM.
DEFAULT_THREADS = max(1, min(8, os.cpu_count() or 1))

#: Environment switch forcing the backend unavailable (CI's
#: compiler-absent job and the fallback tests set it).
DISABLE_ENV = "REPRO_CNATIVE_DISABLE"

#: Environment override for the build-cache directory.
CACHE_ENV = "REPRO_CNATIVE_CACHE"

_CDEF = """
int tiptoe_gemm(int q_bits, int limb_bits,
                const void *matrix, const void *stacked, void *out,
                int64_t rows, int64_t cols, int64_t batch, int threads);
"""

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <pthread.h>

typedef struct {
    int q_bits;      /* 32 or 64 */
    int limb_bits;   /* 0 -> direct wraparound integer path */
    const void *matrix;
    const void *stacked;
    void *out;
    int64_t cols;
    int64_t batch;
    int64_t lo;      /* this job's row range [lo, hi) */
    int64_t hi;
    int status;      /* 0 ok; 1 allocation failure */
} gemm_job;

/* Direct wraparound paths: C unsigned arithmetic is exact mod 2^k. */

static void rows_int32(gemm_job *job)
{
    const uint32_t *m = (const uint32_t *)job->matrix;
    const uint32_t *b = (const uint32_t *)job->stacked;
    uint32_t *out = (uint32_t *)job->out;
    int64_t cols = job->cols, batch = job->batch, i, k, j;
    for (i = job->lo; i < job->hi; i++) {
        const uint32_t *row = m + i * cols;
        uint32_t *orow = out + i * batch;
        memset(orow, 0, (size_t)batch * sizeof(uint32_t));
        for (k = 0; k < cols; k++) {
            uint32_t a = row[k];
            const uint32_t *brow = b + k * batch;
            for (j = 0; j < batch; j++)
                orow[j] += a * brow[j];
        }
    }
}

static void rows_int64(gemm_job *job)
{
    const uint64_t *m = (const uint64_t *)job->matrix;
    const uint64_t *b = (const uint64_t *)job->stacked;
    uint64_t *out = (uint64_t *)job->out;
    int64_t cols = job->cols, batch = job->batch, i, k, j;
    for (i = job->lo; i < job->hi; i++) {
        const uint64_t *row = m + i * cols;
        uint64_t *orow = out + i * batch;
        memset(orow, 0, (size_t)batch * sizeof(uint64_t));
        for (k = 0; k < cols; k++) {
            uint64_t a = row[k];
            const uint64_t *brow = b + k * batch;
            for (j = 0; j < batch; j++)
                orow[j] += a * brow[j];
        }
    }
}

/* Limb paths: StackedPlan's decomposition with int64 accumulation.
 * The caller guarantees (via exact_limb_bits) that every partial sum
 * of centered_entry * limb over cols terms is < 2^53 in magnitude, so
 * the int64 accumulator never overflows and every intermediate equals
 * the reference dgemm's exactly-representable float64 integer. */

static void rows_limb32(gemm_job *job)
{
    const int32_t *m = (const int32_t *)job->matrix;
    const uint32_t *b = (const uint32_t *)job->stacked;
    uint32_t *out = (uint32_t *)job->out;
    int64_t cols = job->cols, batch = job->batch, i, k, j;
    int lb = job->limb_bits;
    int num_limbs = (32 + lb - 1) / lb;
    uint32_t mask = (lb >= 32) ? 0xffffffffu : ((1u << lb) - 1u);
    int64_t *acc = (int64_t *)malloc((size_t)batch * sizeof(int64_t));
    int l;
    if (acc == NULL) {
        job->status = 1;
        return;
    }
    for (i = job->lo; i < job->hi; i++) {
        const int32_t *row = m + i * cols;
        uint32_t *orow = out + i * batch;
        memset(orow, 0, (size_t)batch * sizeof(uint32_t));
        for (l = 0; l < num_limbs; l++) {
            int shift = l * lb;
            memset(acc, 0, (size_t)batch * sizeof(int64_t));
            for (k = 0; k < cols; k++) {
                int64_t a = (int64_t)row[k];
                const uint32_t *brow = b + k * batch;
                for (j = 0; j < batch; j++)
                    acc[j] += a * (int64_t)((brow[j] >> shift) & mask);
            }
            for (j = 0; j < batch; j++)
                orow[j] += (uint32_t)((uint64_t)acc[j] << shift);
        }
    }
    free(acc);
}

static void rows_limb64(gemm_job *job)
{
    const int64_t *m = (const int64_t *)job->matrix;
    const uint64_t *b = (const uint64_t *)job->stacked;
    uint64_t *out = (uint64_t *)job->out;
    int64_t cols = job->cols, batch = job->batch, i, k, j;
    int lb = job->limb_bits;
    int num_limbs = (64 + lb - 1) / lb;
    uint64_t mask =
        (lb >= 64) ? ~(uint64_t)0 : (((uint64_t)1 << lb) - (uint64_t)1);
    int64_t *acc = (int64_t *)malloc((size_t)batch * sizeof(int64_t));
    int l;
    if (acc == NULL) {
        job->status = 1;
        return;
    }
    for (i = job->lo; i < job->hi; i++) {
        const int64_t *row = m + i * cols;
        uint64_t *orow = out + i * batch;
        memset(orow, 0, (size_t)batch * sizeof(uint64_t));
        for (l = 0; l < num_limbs; l++) {
            int shift = l * lb;
            memset(acc, 0, (size_t)batch * sizeof(int64_t));
            for (k = 0; k < cols; k++) {
                int64_t a = row[k];
                const uint64_t *brow = b + k * batch;
                for (j = 0; j < batch; j++)
                    acc[j] += a * (int64_t)((brow[j] >> shift) & mask);
            }
            for (j = 0; j < batch; j++)
                orow[j] += ((uint64_t)acc[j]) << shift;
        }
    }
    free(acc);
}

static void run_range(gemm_job *job)
{
    if (job->limb_bits > 0) {
        if (job->q_bits == 32)
            rows_limb32(job);
        else
            rows_limb64(job);
    } else {
        if (job->q_bits == 32)
            rows_int32(job);
        else
            rows_int64(job);
    }
}

static void *thread_entry(void *arg)
{
    run_range((gemm_job *)arg);
    return NULL;
}

int tiptoe_gemm(int q_bits, int limb_bits,
                const void *matrix, const void *stacked, void *out,
                int64_t rows, int64_t cols, int64_t batch, int threads)
{
    gemm_job *jobs;
    pthread_t *tids;
    char *started;
    int t, status = 0;
    if (rows <= 0 || batch <= 0)
        return 0;
    if (threads < 1)
        threads = 1;
    if ((int64_t)threads > rows)
        threads = (int)rows;
    if (threads > 64)
        threads = 64;
    if (threads == 1) {
        gemm_job job;
        job.q_bits = q_bits;
        job.limb_bits = limb_bits;
        job.matrix = matrix;
        job.stacked = stacked;
        job.out = out;
        job.cols = cols;
        job.batch = batch;
        job.lo = 0;
        job.hi = rows;
        job.status = 0;
        run_range(&job);
        return job.status;
    }
    jobs = (gemm_job *)calloc((size_t)threads, sizeof(gemm_job));
    tids = (pthread_t *)calloc((size_t)threads, sizeof(pthread_t));
    started = (char *)calloc((size_t)threads, 1);
    if (jobs == NULL || tids == NULL || started == NULL) {
        free(jobs);
        free(tids);
        free(started);
        return 1;
    }
    for (t = 0; t < threads; t++) {
        jobs[t].q_bits = q_bits;
        jobs[t].limb_bits = limb_bits;
        jobs[t].matrix = matrix;
        jobs[t].stacked = stacked;
        jobs[t].out = out;
        jobs[t].cols = cols;
        jobs[t].batch = batch;
        jobs[t].lo = rows * t / threads;
        jobs[t].hi = rows * (t + 1) / threads;
        jobs[t].status = 0;
    }
    for (t = 0; t < threads; t++) {
        if (jobs[t].hi <= jobs[t].lo)
            continue;
        if (pthread_create(&tids[t], NULL, thread_entry, &jobs[t]) == 0)
            started[t] = 1;
        else
            run_range(&jobs[t]); /* degrade to inline, still exact */
    }
    for (t = 0; t < threads; t++)
        if (started[t])
            pthread_join(tids[t], NULL);
    for (t = 0; t < threads; t++)
        status |= jobs[t].status;
    free(jobs);
    free(tids);
    free(started);
    return status;
}
"""

_BUILD_LOCK = threading.Lock()


def _module_key() -> str:
    """Content hash naming one build: source + toolchain fingerprint."""
    import cffi

    payload = "\n".join(
        [
            _CDEF,
            _SOURCE,
            cffi.__version__,
            sys.implementation.cache_tag or sys.version,
            sysconfig.get_platform(),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _cache_root() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    import tempfile

    return Path(tempfile.gettempdir()) / f"repro-cnative-{uid}"


def _compiler_path() -> str | None:
    """The C compiler the build would use, or None if there is none.

    ``CC`` (what distutils/cffi honor) wins when set -- even if it
    points at nothing, because that is what the build would fail with.
    """
    cc = os.environ.get("CC")
    if cc is not None:
        return shutil.which(cc.split()[0]) if cc.strip() else None
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found is not None:
            return found
    return None


def _find_built(out_dir: Path, module_name: str) -> Path | None:
    if not out_dir.is_dir():
        return None
    for path in sorted(out_dir.glob(f"{module_name}*")):
        if path.suffix in (".so", ".pyd", ".dylib"):
            return path
    return None


def _load_module(module_name: str, so_path: Path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(module_name, str(so_path))
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise KernelUnavailable(f"cannot load built kernel {so_path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_native_module(cache_root: Path | str | None = None):
    """Compile (or load from the content-hashed cache) the extension.

    Returns ``(ffi, lib)``.  Raises :class:`KernelUnavailable` -- never
    anything harsher -- when the environment cannot produce a working
    extension: cffi missing, no C compiler, or a failing build.
    """
    if os.environ.get(DISABLE_ENV):
        raise KernelUnavailable(f"cnative backend disabled via {DISABLE_ENV}")
    try:
        import cffi
    except ImportError as exc:  # pragma: no cover - cffi is baked in
        raise KernelUnavailable("cffi is not installed") from exc

    key = _module_key()
    module_name = f"_tiptoe_cnative_{key}"
    root = Path(cache_root) if cache_root is not None else _cache_root()
    out_dir = root / key
    with _BUILD_LOCK:
        so_path = _find_built(out_dir, module_name)
        if so_path is None:
            if _compiler_path() is None:
                raise KernelUnavailable(
                    "no C compiler on PATH (set CC or install cc/gcc/clang);"
                    " the reference backend serves identically, just slower"
                )
            ffibuilder = cffi.FFI()
            ffibuilder.cdef(_CDEF)
            ffibuilder.set_source(
                module_name,
                _SOURCE,
                extra_compile_args=["-O3", "-pthread"],
                extra_link_args=["-pthread"],
            )
            # Build in a per-process scratch dir, then publish the
            # artifact with an atomic rename: concurrent builders race
            # benignly (same content hash -> same bits).
            build_dir = out_dir / f"build-{os.getpid()}"
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
                built = ffibuilder.compile(tmpdir=str(build_dir), verbose=False)
                so_path = out_dir / Path(built).name
                os.replace(built, so_path)
            except KernelUnavailable:
                raise
            except Exception as exc:
                raise KernelUnavailable(
                    f"cnative build failed ({type(exc).__name__}: {exc})"
                ) from exc
            finally:
                shutil.rmtree(build_dir, ignore_errors=True)
        try:
            module = _load_module(module_name, so_path)
        except KernelUnavailable:
            raise
        except Exception as exc:
            raise KernelUnavailable(
                f"cached cnative kernel failed to load"
                f" ({type(exc).__name__}: {exc}); delete {out_dir} to rebuild"
            ) from exc
    return module.ffi, module.lib


class CNativePlan(PlanContextMixin):
    """One long-lived matrix staged for the native threaded kernel.

    Holds a C-contiguous copy of the ring matrix (and, on the limb
    path, its centered signed *view* -- same memory, zero extra bytes)
    plus the dlopen-ed library.  ``matmul`` makes exactly one C call;
    cffi releases the GIL for its whole duration, and the C side fans
    the row range across ``threads`` pthreads.
    """

    backend_name = "cnative"

    def __init__(
        self,
        inner: modular.StackedPlan,
        *,
        ffi,
        lib,
        threads: int,
        timer_label: str,
    ):
        self.q_bits = inner.q_bits
        self.entry_bound = inner.entry_bound
        self.limb_bits = inner.limb_bits
        self.threads = max(1, int(threads))
        self.timer_label = timer_label
        self._ffi = ffi
        self._lib = lib
        self._dtype = modular.dtype_for(self.q_bits)
        self._ring = np.ascontiguousarray(inner.ring)
        # The centered signed view aliases the ring buffer: the C limb
        # kernel reads the same bytes through int32_t*/int64_t*.
        self._centered = (
            modular.centered(self._ring, self.q_bits)
            if self.limb_bits > 0
            else None
        )
        self._shape = self._ring.shape

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def uses_limbs(self) -> bool:
        """True when the exact int64 limb path is active."""
        return self.limb_bits > 0

    def matmul(self, stacked: np.ndarray) -> np.ndarray:
        """The exact stacked product, one GIL-released C call.

        A stack narrower than ``modular.LIMB_MIN_BATCH`` does not
        amortize a thread fan-out; it runs in-process on the ring
        matrix, like every other backend.
        """
        if self._ring is None:
            raise KernelUnavailable("cnative plan is closed")
        stacked = modular.as_stacked(stacked, self.cols, self.q_bits)
        batch = stacked.shape[1]
        if batch < modular.LIMB_MIN_BATCH:
            return modular.matmul(self._ring, stacked, self.q_bits)
        if self.rows == 0 or self.cols == 0:
            return np.zeros((self.rows, batch), dtype=self._dtype)
        stacked = np.ascontiguousarray(stacked)
        matrix = self._centered if self.limb_bits > 0 else self._ring
        out = np.empty((self.rows, batch), dtype=self._dtype)
        ffi = self._ffi
        with _obs.kernel_timer(self.timer_label):
            status = self._lib.tiptoe_gemm(
                self.q_bits,
                self.limb_bits,
                ffi.from_buffer(matrix),
                ffi.from_buffer(stacked),
                ffi.from_buffer(out, require_writable=True),
                self.rows,
                self.cols,
                batch,
                self.threads,
            )
        if status != 0:  # pragma: no cover - allocation failure
            raise KernelUnavailable("cnative kernel ran out of memory")
        return out

    def metadata(self) -> dict:
        """Serializable plan parameters -- same shape as the reference."""
        return {
            "q_bits": self.q_bits,
            "entry_bound": self.entry_bound,
            "limb_bits": self.limb_bits,
        }

    def close(self) -> None:
        """Drop the staged matrix copies.  Idempotent."""
        self._ring = None
        self._centered = None


class CNativeBackend:
    """cffi-compiled C GEMM over native threads; builds lazily, once.

    The first ``available`` / ``plan`` call attempts the cached build
    and memoizes the outcome -- success or the human-readable reason it
    cannot run here (``build_error``).  Import of this module never
    compiles anything and never fails.
    """

    name = "cnative"

    timer_label = "lwe.matmul_batch.cnative"

    def __init__(self, cache_root: Path | str | None = None):
        self._cache_root = cache_root
        self._lock = threading.Lock()
        self._attempted = False  # guarded-by: _lock
        self._ffi = None  # guarded-by: _lock
        self._lib = None  # guarded-by: _lock
        self._error: str | None = None  # guarded-by: _lock

    def _load(self):
        with self._lock:
            if not self._attempted:
                self._attempted = True
                try:
                    self._ffi, self._lib = build_native_module(
                        self._cache_root
                    )
                except KernelUnavailable as exc:
                    self._error = str(exc)
                    logger.warning(
                        "cnative kernel backend unavailable (%s);"
                        " falling back to the reference backend",
                        exc,
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    self._error = f"{type(exc).__name__}: {exc}"
                    logger.warning(
                        "cnative kernel backend unavailable (%s);"
                        " falling back to the reference backend",
                        self._error,
                    )
            return self._ffi, self._lib, self._error

    @property
    def available(self) -> bool:
        """True once the extension built (or loaded from cache)."""
        return self._load()[1] is not None

    @property
    def build_error(self) -> str | None:
        """Why the backend is unavailable here, or None when it runs."""
        return self._load()[2]

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
    ) -> CNativePlan:
        ffi, lib, error = self._load()
        if lib is None:
            raise KernelUnavailable(
                f"cnative backend unavailable: {error}"
            )
        # chunk_rows is a BLAS-tiling knob; the C kernel streams rows
        # and ignores it (the seam contract: unused knobs are no-ops).
        if metadata is not None and limb_bits is None:
            inner = modular.StackedPlan.from_metadata(matrix, metadata)
        else:
            if metadata is not None and entry_bound is None:
                entry_bound = int(metadata["entry_bound"])
            inner = modular.StackedPlan(
                matrix, q_bits, entry_bound=entry_bound, limb_bits=limb_bits
            )
        try:
            return CNativePlan(
                inner,
                ffi=ffi,
                lib=lib,
                threads=workers or DEFAULT_THREADS,
                timer_label=self.timer_label,
            )
        finally:
            inner.close()
