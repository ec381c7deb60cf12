"""Negacyclic number-theoretic transforms.

The outer encryption scheme works over Z_q[x] / (x^n + 1).  Polynomial
products in that ring are computed with the negacyclic NTT: a length-n
transform that bakes the reduction by x^n + 1 into twisted twiddle
factors (the 2n-th primitive root "psi"), following the algorithm of
Longa and Naehrig.  All butterflies are vectorized over NumPy arrays;
moduli are capped at 31 bits so products fit in uint64 without
intermediate overflow.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from repro.obs import runtime as _obs

#: Largest usable NTT modulus: products of two residues must fit uint64.
MAX_PRIME_BITS = 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for n < 3.3e24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def find_ntt_primes(n_ring: int, bits: int, count: int) -> tuple[int, ...]:
    """Find ``count`` primes p < 2^bits with p = 1 (mod 2 * n_ring).

    Such primes admit a primitive 2n-th root of unity, which is what
    the negacyclic transform needs.  Searches downward from 2^bits.
    The search is deterministic in its arguments, so results are
    cached for the life of the process.
    """
    if bits > MAX_PRIME_BITS:
        raise ValueError(f"NTT primes are capped at {MAX_PRIME_BITS} bits")
    modulus = 2 * n_ring
    found: list[int] = []
    candidate = ((1 << bits) - 1) // modulus * modulus + 1
    while candidate > modulus and len(found) < count:
        if candidate < (1 << (bits - 1)):
            break
        if is_prime(candidate):
            found.append(candidate)
        candidate -= modulus
    if len(found) < count:
        raise ValueError(
            f"could not find {count} NTT primes of {bits} bits for n={n_ring}"
        )
    return tuple(found)


@functools.lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo prime p (cached per prime)."""
    factors = []
    phi = p - 1
    rem = phi
    f = 2
    while f * f <= rem:
        if rem % f == 0:
            factors.append(f)
            while rem % f == 0:
                rem //= f
        f += 1
    if rem > 1:
        factors.append(rem)
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in factors):
            return g
    raise ArithmeticError(f"no primitive root modulo {p}")


@functools.lru_cache(maxsize=None)
def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Bit-reversal index permutation, shared across all primes of one n.

    The permutation depends only on the ring dimension, so every
    :class:`NttContext` of the same ``n`` -- one per RNS prime --
    reuses one cached (read-only) copy instead of rebuilding it.
    """
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for b in range(bits):
        rev |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(bits - 1 - b)
    # tiptoe-lint: disable=dtype-signed-cast -- bit-reversal permutation indices, not ring elements; int64 is numpy's natural index dtype
    out = rev.astype(np.int64)
    out.setflags(write=False)
    return out


def _power_table(base: int, n: int, p: int) -> np.ndarray:
    """``[base^0, ..., base^(n-1)] mod p`` by vectorized doubling.

    Each round extends the filled prefix with one cumulative product
    ``powers[:span] * base^filled mod p`` -- O(log n) NumPy passes
    instead of n Python-level ``pow`` calls.  Residues stay below
    2^MAX_PRIME_BITS, so every product fits uint64 without overflow.
    """
    powers = np.empty(n, dtype=np.uint64)
    powers[0] = 1
    filled = 1
    step = base % p
    pp = np.uint64(p)
    while filled < n:
        span = min(filled, n - filled)
        powers[filled : filled + span] = (
            powers[:span] * np.uint64(step) % pp
        )
        filled += span
        step = step * step % p
    return powers


class NttContext:
    """Forward/inverse negacyclic NTT modulo one prime.

    Transforms operate on the last axis of any array shaped
    ``(..., n)``.  The transform order (bit-reversed) is internally
    consistent: pointwise products of forward transforms invert to the
    negacyclic convolution of the inputs.
    """

    def __init__(self, n: int, p: int):
        if n & (n - 1) != 0 or n < 2:
            raise ValueError("ring dimension must be a power of two >= 2")
        if (p - 1) % (2 * n) != 0:
            raise ValueError(f"prime {p} does not support a 2*{n}-th root")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p.bit_length() > MAX_PRIME_BITS:
            raise ValueError(f"prime {p} exceeds {MAX_PRIME_BITS} bits")
        self.n = n
        self.p = p
        g = _primitive_root(p)
        psi = pow(g, (p - 1) // (2 * n), p)
        # psi is a primitive 2n-th root: psi^n = -1 mod p.
        if pow(psi, n, p) != p - 1:
            raise ArithmeticError("psi is not a primitive 2n-th root")
        inv_psi = pow(psi, p - 2, p)
        rev = _bit_reverse_permutation(n)
        self._psi_rev = _power_table(psi, n, p)[rev]
        self._inv_psi_rev = _power_table(inv_psi, n, p)[rev]
        self._n_inv = np.uint64(pow(n, p - 2, p))

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Negacyclic NTT along the last axis; input values must be < p."""
        with _obs.kernel_timer("ntt.forward"):
            p = np.uint64(self.p)
            n = self.n
            out = np.ascontiguousarray(a, dtype=np.uint64).copy()
            lead = out.shape[:-1]
            t = n
            m = 1
            while m < n:
                t //= 2
                view = out.reshape(*lead, m, 2, t)
                s = self._psi_rev[m : 2 * m].reshape(m, 1)
                u = view[..., 0, :].copy()
                v = view[..., 1, :] * s % p
                view[..., 0, :] = (u + v) % p
                view[..., 1, :] = (u + p - v) % p
                m *= 2
            return out

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT along the last axis."""
        with _obs.kernel_timer("ntt.inverse"):
            p = np.uint64(self.p)
            n = self.n
            out = np.ascontiguousarray(a, dtype=np.uint64).copy()
            lead = out.shape[:-1]
            t = 1
            m = n
            while m > 1:
                h = m // 2
                view = out.reshape(*lead, h, 2, t)
                s = self._inv_psi_rev[h : 2 * h].reshape(h, 1)
                u = view[..., 0, :].copy()
                v = view[..., 1, :].copy()
                view[..., 0, :] = (u + v) % p
                view[..., 1, :] = (u + p - v) * s % p
                t *= 2
                m = h
            return out * self._n_inv % p

    @functools.cached_property
    def small_matrix(self) -> np.ndarray:
        """The forward NTT as a centred ``(n, n)`` float64 matrix.

        Row c is ``forward(x^c)`` lifted into (-p/2, p/2], so by
        linearity ``forward(x mod p) == x @ W mod p`` for signed integer
        ``x``; the float product is exact while every dot product stays
        below 2^53 (see :meth:`repro.rlwe.poly.RnsContext.to_ntt_small`).
        Built on first use from :meth:`forward` -- n^2 * 8 bytes, 0.5 MiB
        at n = 256 and 32 MiB at n = 2048 -- and shared by every user of
        this ``(n, p)`` context, like the twiddle tables.
        """
        rows = self.forward(np.eye(self.n, dtype=np.uint64))
        centred = rows.astype(np.float64)
        centred[rows > np.uint64(self.p // 2)] -= float(self.p)
        centred.setflags(write=False)
        return centred

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two polynomials in Z_p[x]/(x^n + 1)."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(fa * fb % np.uint64(self.p))


# -- the process-wide context registry ----------------------------------------
#
# Twiddle tables depend only on (n, p), and a context is immutable
# after construction (forward/inverse only read the tables), so every
# RnsContext, BfvScheme, and serve cold-start in one process can share
# a single table per (n, p) pair instead of rebuilding it.

_REGISTRY: dict[tuple[int, int], NttContext] = {}  # guarded-by: _REGISTRY_LOCK
_REGISTRY_LOCK = threading.Lock()


def ntt_context(n: int, p: int) -> NttContext:
    """The shared :class:`NttContext` for ``(n, p)``, built at most once.

    Thread-safe: concurrent first requests for the same pair race on
    the registry lock and every caller receives the same object.
    """
    key = (n, p)
    # tiptoe-lint: disable=lock-guarded-attr -- double-checked locking: a stale miss on this unlocked fast-path read only falls through to the locked slow path, which re-checks
    ctx = _REGISTRY.get(key)
    if ctx is None:
        with _REGISTRY_LOCK:
            ctx = _REGISTRY.get(key)
            if ctx is None:
                ctx = NttContext(n, p)
                _REGISTRY[key] = ctx
    return ctx


def clear_ntt_registry() -> None:
    """Drop every cached context and table (cold-start benchmarks)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()
    _primitive_root.cache_clear()
    _bit_reverse_permutation.cache_clear()


def negacyclic_convolve_reference(
    a: np.ndarray, b: np.ndarray, p: int
) -> np.ndarray:
    """Schoolbook negacyclic convolution, for testing the NTT against."""
    n = len(a)
    out = np.zeros(n, dtype=object)
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] += a[i] * b[j]
            else:
                out[k - n] -= a[i] * b[j]
    return np.array([int(x) % p for x in out], dtype=np.uint64)
