"""Wrap-around matrix arithmetic over Z_{2^32} and Z_{2^64}.

Tiptoe's inner encryption layer works modulo a power-of-two ciphertext
modulus q (2^64 for the ranking service, 2^32 for the URL service;
Appendix C).  Representing ring elements as ``uint32`` / ``uint64``
NumPy arrays makes reduction modulo q free: C-style unsigned integer
arithmetic wraps exactly as required, including inside ``matmul``
accumulators, so a single integer matrix product *is* the homomorphic
evaluation.

All helpers here take and return arrays of the ``dtype`` matching the
modulus; they never silently up-cast.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.obs import runtime as _obs

#: Ciphertext moduli supported by the inner layer, keyed by bit width.
SUPPORTED_Q_BITS = (32, 64)

_DTYPES = {32: np.uint32, 64: np.uint64}
_SIGNED_DTYPES = {32: np.int32, 64: np.int64}


def dtype_for(q_bits: int) -> type:
    """Return the unsigned NumPy dtype representing Z_{2^q_bits}."""
    try:
        return _DTYPES[q_bits]
    except KeyError:
        raise ValueError(
            f"unsupported modulus 2^{q_bits}; supported: {SUPPORTED_Q_BITS}"
        ) from None


def signed_dtype_for(q_bits: int) -> type:
    """Return the signed NumPy dtype for centered representatives."""
    try:
        return _SIGNED_DTYPES[q_bits]
    except KeyError:
        raise ValueError(
            f"unsupported modulus 2^{q_bits}; supported: {SUPPORTED_Q_BITS}"
        ) from None


def to_ring(values: np.ndarray, q_bits: int) -> np.ndarray:
    """Reduce arbitrary integers into Z_{2^q_bits} (non-negative reps).

    Accepts signed input; negative entries map to their additive
    inverses mod q, matching the centered-representative convention of
    Appendix B.1.
    """
    dtype = dtype_for(q_bits)
    arr = np.asarray(values)
    if arr.dtype == dtype:
        return arr
    # Cast through a signed/unsigned view wraps correctly for any
    # integer input; object/float inputs are reduced explicitly first.
    if arr.dtype.kind not in "iu":
        q = 1 << q_bits
        arr = np.asarray(np.mod(arr, q), dtype=object)
        return np.array([int(x) for x in arr.ravel()], dtype=dtype).reshape(
            arr.shape
        )
    return arr.astype(dtype, casting="unsafe")


def centered(values: np.ndarray, q_bits: int) -> np.ndarray:
    """Map Z_q elements to centered representatives in [-q/2, q/2)."""
    dtype = dtype_for(q_bits)
    arr = np.asarray(values, dtype=dtype)
    return arr.view(signed_dtype_for(q_bits)) if arr.flags.c_contiguous else (
        np.ascontiguousarray(arr).view(signed_dtype_for(q_bits))
    )


def matmul(a: np.ndarray, b: np.ndarray, q_bits: int) -> np.ndarray:
    """Matrix product over Z_{2^q_bits}.

    The accumulator wraps modulo q by construction, so this is an exact
    ring operation regardless of operand magnitudes.
    """
    dtype = dtype_for(q_bits)
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    # Kernel timer: the ranking/URL scans bottom out here.  Disabled
    # observability costs one global read + branch (see repro.obs).
    with _obs.kernel_timer("lwe.matmul"):
        with np.errstate(over="ignore"):
            return a @ b


def matvec(a: np.ndarray, v: np.ndarray, q_bits: int) -> np.ndarray:
    """Matrix-vector product over Z_{2^q_bits}."""
    return matmul(a, v.reshape(-1), q_bits)


def add(a: np.ndarray, b: np.ndarray, q_bits: int) -> np.ndarray:
    """Elementwise sum over Z_{2^q_bits}."""
    dtype = dtype_for(q_bits)
    with np.errstate(over="ignore"):
        return np.asarray(a, dtype=dtype) + np.asarray(b, dtype=dtype)


def sub(a: np.ndarray, b: np.ndarray, q_bits: int) -> np.ndarray:
    """Elementwise difference over Z_{2^q_bits}."""
    dtype = dtype_for(q_bits)
    with np.errstate(over="ignore"):
        return np.asarray(a, dtype=dtype) - np.asarray(b, dtype=dtype)


def scale(a: np.ndarray, c: int, q_bits: int) -> np.ndarray:
    """Scalar multiple over Z_{2^q_bits}."""
    dtype = dtype_for(q_bits)
    with np.errstate(over="ignore"):
        return np.asarray(a, dtype=dtype) * dtype(c % (1 << q_bits))


def round_to_message(noisy: np.ndarray, q_bits: int, p: int) -> np.ndarray:
    """Round Z_q values to the nearest multiple of Delta = q // p.

    This is the non-linear step ``f`` of SimplePIR decryption
    (Appendix A): given ``Delta * m + e`` with ``|e| < Delta / 2``,
    recover ``m mod p``.  Requires ``p`` to divide ``2^q_bits`` exactly
    (both are powers of two in the operational configuration), so the
    encoding has no ``m * epsilon`` error term.
    """
    q = 1 << q_bits
    if q % p != 0:
        raise ValueError(f"plaintext modulus {p} must divide q = 2^{q_bits}")
    delta = q // p
    dtype = dtype_for(q_bits)
    noisy = np.asarray(noisy, dtype=dtype)
    with np.errstate(over="ignore"):
        shifted = noisy + dtype(delta // 2)
    # Shifted division by a power of two is exact in the unsigned ring.
    return ((shifted >> dtype(int(delta).bit_length() - 1)) % dtype(p)).astype(
        np.int64
    )


def encode_message(m: np.ndarray, q_bits: int, p: int) -> np.ndarray:
    """Scale plaintexts in Z_p up to Z_q: ``m -> Delta * m``."""
    q = 1 << q_bits
    if q % p != 0:
        raise ValueError(f"plaintext modulus {p} must divide q = 2^{q_bits}")
    delta = q // p
    dtype = dtype_for(q_bits)
    m = np.asarray(m)
    m_red = to_ring(np.mod(m, p), q_bits)
    with np.errstate(over="ignore"):
        return m_red * dtype(delta)


#: Smallest ciphertext limb width for which the BLAS path is worthwhile;
#: below this the limb count makes dgemm slower than the native matmul.
MIN_LIMB_BITS = 16

#: float64 represents every integer of magnitude below 2^53 exactly.
_FLOAT_EXACT_BITS = 53

#: Narrowest stack a plan hands to its batched strategy (float64 limbs,
#: a thread or process fan-out).  A single column runs as the plain
#: integer product instead: measured on 102x2656 at q = 2^64 with BLAS
#: on one thread, integer 0.17 ms against 0.17 ms through the limbs at
#: Q=1 (0.67 ms through the C kernel, more through a process pool),
#: 2.8 ms against 1.1 ms at Q=16; between Q=2 and Q=4 the winner
#: depends on the shape.  A measured constant, not a setting.
LIMB_MIN_BATCH = 2


def exact_limb_bits(bound: int, cols: int, q_bits: int) -> int:
    """Widest limb for which the float64 partial sums stay exact.

    Every partial sum of ``M_centered @ limb`` is bounded by
    ``bound * (2^limb_bits - 1) * cols``; the returned width is the
    largest one keeping that strictly below 2^53, clamped to
    ``q_bits``.  Returns 0 when no positive width is exact-safe.  Any
    *smaller* positive width is also exact (the bound only shrinks), so
    tuned plans may narrow limbs freely without losing bit-identity.
    """
    bound = int(bound)
    cols = int(cols)
    limb_bits = min(
        q_bits,
        _FLOAT_EXACT_BITS - 1 - bound.bit_length() - max(cols, 1).bit_length(),
    )
    while limb_bits > 0 and (
        bound * ((1 << limb_bits) - 1) * cols >= 1 << _FLOAT_EXACT_BITS
    ):
        limb_bits -= 1
    return max(limb_bits, 0)


def limb_product(
    float_matrix: np.ndarray,
    stacked: np.ndarray,
    limb_bits: int,
    q_bits: int,
    *,
    chunk_rows: int = 0,
) -> np.ndarray:
    """The exact limb-decomposed product ``M @ B`` over Z_{2^q_bits}.

    ``float_matrix`` is the centered float64 copy of ``M`` (every entry
    within the bound that derived ``limb_bits``); ``stacked`` is the
    (cols, Q) ciphertext stack.  This is the one shared hot kernel:
    :meth:`StackedPlan.matmul` and every out-of-process backend worker
    call it on their row slice, so bit-identity across backends holds
    by construction -- all intermediate sums are exactly representable
    integers, making the result independent of summation order and of
    any row partition (``chunk_rows`` only tiles the dgemm).
    """
    num_limbs = -(-q_bits // limb_bits)
    rows = float_matrix.shape[0]
    wide = stacked.astype(np.uint64)  # lossless widening for uint32
    mask = np.uint64((1 << limb_bits) - 1)
    shifts = [np.uint64(limb_bits * j) for j in range(num_limbs)]
    limbs = [((wide >> shift) & mask).astype(np.float64) for shift in shifts]
    acc = np.zeros((rows, stacked.shape[1]), dtype=np.uint64)
    step = chunk_rows if 0 < chunk_rows < rows else rows
    with np.errstate(over="ignore"):
        for lo in range(0, rows, step):
            block = float_matrix[lo : lo + step]
            out = acc[lo : lo + step]
            for shift, limb in zip(shifts, limbs):
                exact = block @ limb  # every partial sum < 2^53
                # tiptoe-lint: disable=dtype-signed-cast -- exact holds signed integers below 2^53; int64 view then uint64 is the value mod 2^64
                part = exact.astype(np.int64).view(np.uint64)
                out += part << shift
    # Truncation to uint32 is reduction mod 2^32 (2^32 | 2^64).
    return acc if q_bits == 64 else acc.astype(dtype_for(q_bits))


def as_stacked(stacked: np.ndarray, cols: int, q_bits: int) -> np.ndarray:
    """Validate a (cols, Q) ciphertext stack and lift it into the ring."""
    stacked = np.asarray(stacked, dtype=dtype_for(q_bits))
    if stacked.ndim != 2:
        raise ValueError(
            f"stacked ciphertexts must form a (cols, Q) matrix;"
            f" got shape {stacked.shape}"
        )
    if stacked.shape[0] != cols:
        raise ValueError(
            f"stacked ciphertexts have {stacked.shape[0]} rows,"
            f" expected {cols}"
        )
    return stacked


class StackedPlan:
    """Preprocessed state for exact stacked products ``M @ B`` over Z_{2^k}.

    Stacking Q query ciphertexts into the columns of one matrix ``B``
    turns Q matrix-vector scans over ``M`` into a single matrix-matrix
    product -- the database is streamed from memory once per batch
    instead of once per query.  When the *centered* entries of ``M``
    are small (always true for the ranking matrix, whose entries are
    quantized embeddings, and for the packed URL database, whose
    entries are digits mod p), the product is additionally routed
    through float64 BLAS: each ciphertext column is split into limbs of
    ``limb_bits`` bits chosen so that every partial sum of
    ``M_centered @ limb`` stays strictly below 2^53 in magnitude.
    Every term and every intermediate sum of each dgemm is then an
    exactly representable integer, so the limbs recombine with
    wraparound shifts into the exact mod-2^k result, bit-identical to
    the integer product :func:`matmul` whichever path runs.

    Matrices whose centered entries are too large for an exact limb
    split fall back to the native unsigned integer matmul (also exact).
    The plan is message-independent -- it depends only on ``M``, like
    the SimplePIR hint -- so it is computed once per long-lived matrix;
    the float64 copy costs one extra 8-byte word per entry.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        q_bits: int,
        *,
        entry_bound: int | None = None,
        limb_bits: int | None = None,
        chunk_rows: int = 0,
        timer_label: str = "lwe.matmul_batch",
    ):
        self.q_bits = q_bits
        self.ring = to_ring(np.asarray(matrix), q_bits)
        if self.ring.ndim != 2:
            raise ValueError("a stacked plan needs a 2-D matrix")
        _, cols = self.ring.shape
        if entry_bound is None:
            signed = centered(self.ring, q_bits)
            if signed.size:
                # Python-int bound: abs() of the most negative int64 would
                # overflow inside numpy, so take both extremes exactly.
                bound = max(-int(signed.min()), int(signed.max()))
            else:
                bound = 0
        else:
            # A caller-supplied bound (e.g. from the precompute sidecar)
            # skips the full-matrix scan.  Any upper bound on the true
            # centered magnitude is exact-safe: the limb width below only
            # shrinks when the bound grows.
            bound = int(entry_bound)
            if bound < 0:
                raise ValueError("entry_bound must be non-negative")
        self.entry_bound = bound
        derived = exact_limb_bits(bound, cols, q_bits)
        if derived >= MIN_LIMB_BITS:
            self.limb_bits = derived
            if limb_bits is not None:
                # A tuned override may only *narrow* the limbs -- any
                # width at or below the derived maximum stays exact.
                self.limb_bits = max(MIN_LIMB_BITS, min(int(limb_bits), derived))
        else:
            self.limb_bits = 0
        if chunk_rows < 0:
            raise ValueError("chunk_rows must be non-negative")
        self.chunk_rows = int(chunk_rows)
        self.timer_label = timer_label
        # The float64 limb copy is staged lazily on the first product
        # wide enough for the limb path, so plans serving only single
        # queries never pay the extra 8-byte word per entry.
        self._float = None

    @property
    def uses_blas(self) -> bool:
        """True when the exact float64 limb path is active."""
        return self.limb_bits > 0

    def _staged_float(self) -> np.ndarray:
        """The centered float64 copy, built on first use and cached.

        Benign race under concurrent first calls: both threads compute
        the same array and either assignment is correct.
        """
        if self._float is None:
            # tiptoe-lint: disable=dtype-signed-cast -- the BLAS fast path runs on the centered representatives; exactness is guaranteed by the limb-width bound in __init__
            self._float = centered(self.ring, self.q_bits).astype(np.float64)
        return self._float

    def metadata(self) -> dict:
        """Serializable plan parameters (everything but the matrix).

        Together with the matrix these reconstruct the plan without the
        entry-bound scan; persisted in the ``repro.index/v2`` precompute
        sidecar.
        """
        return {
            "q_bits": self.q_bits,
            "entry_bound": self.entry_bound,
            "limb_bits": self.limb_bits,
        }

    @classmethod
    def from_metadata(
        cls, matrix: np.ndarray, meta: dict, **kwargs
    ) -> "StackedPlan":
        """Rebuild a plan from :meth:`metadata`, skipping the scan.

        The derived limb width must match the recorded one -- a
        mismatch means the metadata does not describe this matrix.
        Extra keyword arguments (``chunk_rows``, ``timer_label``) pass
        through to the constructor.
        """
        plan = cls(
            matrix,
            int(meta["q_bits"]),
            entry_bound=int(meta["entry_bound"]),
            **kwargs,
        )
        if plan.limb_bits != int(meta["limb_bits"]):
            raise ValueError(
                f"plan metadata mismatch: derived limb_bits"
                f" {plan.limb_bits}, recorded {meta['limb_bits']}"
            )
        return plan

    @property
    def rows(self) -> int:
        return self.ring.shape[0]

    @property
    def cols(self) -> int:
        return self.ring.shape[1]

    def matmul(self, stacked: np.ndarray) -> np.ndarray:
        """The exact stacked product ``M @ B`` in Z_{2^q_bits}.

        ``stacked`` has shape (cols, Q): one query ciphertext per
        column.  Returns the (rows, Q) evaluated columns.  Stacks
        narrower than :data:`LIMB_MIN_BATCH` run on the native integer
        path and never trigger the float64 copy, so a plan that only
        sees single queries stays as cheap as the bare ring matrix.
        """
        stacked = as_stacked(stacked, self.cols, self.q_bits)
        if self.limb_bits == 0 or stacked.shape[1] < LIMB_MIN_BATCH:
            return matmul(self.ring, stacked, self.q_bits)
        with _obs.kernel_timer(self.timer_label):
            return limb_product(
                self._staged_float(),
                stacked,
                self.limb_bits,
                self.q_bits,
                chunk_rows=self.chunk_rows,
            )

    def close(self) -> None:
        """Release the staged float copy.  Kernel-backend plans share
        this interface; for the in-process plan there is nothing else
        to tear down and the plan stays usable (staging is lazy)."""
        self._float = None


#: How many one-shot plans :func:`stacked_matmul` keeps warm.  Small on
#: purpose: long-lived matrices belong in an explicit plan (or a kernel
#: backend); the cache only de-duplicates repeated convenience calls.
PLAN_CACHE_SIZE = 8

_plan_cache_lock = threading.Lock()
#: guarded-by: _plan_cache_lock
_plan_cache: OrderedDict = OrderedDict()
#: guarded-by: _plan_cache_lock
_plan_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}


def _content_key(ring: np.ndarray, q_bits: int) -> tuple:
    """Cache key: content digest + shape + modulus.

    Keyed on bytes rather than ``id()`` so a caller mutating or
    reallocating an equal matrix still hits, and a reused address with
    different contents never aliases a stale plan.
    """
    digest = hashlib.sha256(np.ascontiguousarray(ring).tobytes()).digest()
    return (digest, ring.shape, q_bits)


def plan_cache_stats() -> dict:
    """Hit/miss counters of the one-shot plan cache (for tests/bench)."""
    with _plan_cache_lock:
        return dict(_plan_cache_stats)


def clear_plan_cache() -> None:
    """Empty the one-shot plan cache and reset its counters.

    Cached plans are closed on the way out -- same discipline as LRU
    eviction -- so backend plans holding real resources release them.
    """
    with _plan_cache_lock:
        dropped = list(_plan_cache.values())
        _plan_cache.clear()
        _plan_cache_stats["hits"] = 0
        _plan_cache_stats["misses"] = 0
        _plan_cache_stats["evictions"] = 0
    for plan in dropped:
        plan.close()


def stacked_matmul(a: np.ndarray, b: np.ndarray, q_bits: int) -> np.ndarray:
    """One-shot exact stacked product over Z_{2^q_bits}.

    Bit-identical to ``matmul(a, b, q_bits)``.  Repeated calls on the
    same matrix hit a small LRU keyed on the matrix's content digest,
    so the entry-bound scan and float64 staging are paid once, not per
    call.  Long-lived matrices should still build a
    :class:`StackedPlan` (or a kernel-backend plan) once explicitly --
    the cache is a convenience, not a lifecycle.
    """
    ring = to_ring(np.asarray(a), q_bits)
    if ring.ndim != 2:
        raise ValueError("a stacked plan needs a 2-D matrix")
    key = _content_key(ring, q_bits)
    with _plan_cache_lock:
        plan = _plan_cache.get(key)
        if plan is not None:
            _plan_cache.move_to_end(key)
            _plan_cache_stats["hits"] += 1
    if plan is None:
        # Build outside the lock: plan construction scans the matrix.
        plan = StackedPlan(ring, q_bits)
        evicted = []
        with _plan_cache_lock:
            _plan_cache_stats["misses"] += 1
            _plan_cache[key] = plan
            _plan_cache.move_to_end(key)
            while len(_plan_cache) > PLAN_CACHE_SIZE:
                evicted.append(_plan_cache.popitem(last=False)[1])
                _plan_cache_stats["evictions"] += 1
        # Close outside the lock: evicted backend plans may hold real
        # resources (native buffers, worker pools) whose teardown must
        # not serialize every cache access behind it.
        for old in evicted:
            old.close()
    return plan.matmul(b)


def mod_switch(values: np.ndarray, q_bits: int, new_modulus: int) -> np.ndarray:
    """Rescale Z_{2^q_bits} elements to Z_{new_modulus} by rounding.

    Computes ``round(x * new_modulus / q)`` elementwise.  Used when
    handing the inner hint/answer to the outer compression layer
    (SS6.2), whose plaintext modulus is an odd prime near 2^32.

    The result is exact: the scaled value is computed with integer
    arithmetic split into high and low halves to avoid overflow.
    """
    q = 1 << q_bits
    arr = np.asarray(values, dtype=dtype_for(q_bits))
    if new_modulus <= 0:
        raise ValueError("new modulus must be positive")
    if q_bits == 32:
        prod = arr.astype(np.uint64) * np.uint64(new_modulus)
        return ((prod + np.uint64(q // 2)) >> np.uint64(q_bits)).astype(
            np.uint64
        ) % np.uint64(new_modulus)
    if new_modulus >= 1 << 32:
        raise ValueError("mod_switch from 2^64 requires new modulus < 2^32")
    # q = 2^64: split x = hi * 2^32 + lo and combine the two scaled halves.
    lo = (arr & np.uint64(0xFFFFFFFF)).astype(np.uint64)
    hi = (arr >> np.uint64(32)).astype(np.uint64)
    t = np.uint64(new_modulus)
    # x * t / 2^64 = hi * t / 2^32 + lo * t / 2^64, rounded.
    hi_prod = hi * t  # < 2^32 * 2^34 = 2^66?  new_modulus < 2^32 keeps it safe
    lo_prod = lo * t
    combined = hi_prod + (lo_prod >> np.uint64(32))
    frac_low = lo_prod & np.uint64(0xFFFFFFFF)
    # combined is x*t / 2^32 with 32 fractional bits remaining; round.
    result = (combined + np.uint64(1 << 31)) >> np.uint64(32)
    # Account for the discarded sub-2^-32 fraction only at the boundary.
    boundary = ((combined & np.uint64(0xFFFFFFFF)) == np.uint64(0x7FFFFFFF)) & (
        frac_low >= np.uint64(1 << 31)
    )
    result = result + boundary.astype(np.uint64)
    return result % t
