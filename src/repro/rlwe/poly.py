"""The ring Z_q[x] / (x^n + 1) in residue-number-system form.

The outer scheme's ciphertext modulus q is a product of NTT-friendly
primes; ring elements are stored as a stack of per-prime residue
polynomials (shape ``(k, n)`` for k primes).  Because the CRT map is a
ring isomorphism, all arithmetic -- including uniform sampling -- is
done independently per prime, and full-width integers only appear at
encode/decode time.
"""

from __future__ import annotations

import math

import numpy as np

from repro.lwe import sampling
from repro.rlwe.ntt import ntt_context


class RnsContext:
    """Arithmetic for Z_q[x]/(x^n + 1) with q a product of NTT primes."""

    def __init__(self, n: int, primes: tuple[int, ...]):
        if len(set(primes)) != len(primes):
            raise ValueError("RNS primes must be distinct")
        self.n = n
        self.primes = tuple(int(p) for p in primes)
        self.q = math.prod(self.primes)
        # Shared per-(n, p) contexts: twiddle tables are built once per
        # process, not once per scheme instance (see rlwe.ntt).
        self.ntts = [ntt_context(n, p) for p in self.primes]
        self._primes_arr = np.array(self.primes, dtype=np.uint64).reshape(-1, 1)
        # CRT reconstruction constants: x = sum_i (r_i * y_i mod p_i) * qhat_i.
        self._qhat = [self.q // p for p in self.primes]
        self._qhat_inv = [
            pow(self.q // p, p - 2, p) for p in self.primes
        ]

    @property
    def k(self) -> int:
        """Number of RNS channels."""
        return len(self.primes)

    # -- representation ---------------------------------------------------

    def from_signed(self, coeffs: np.ndarray) -> np.ndarray:
        """Lift small signed integer coefficients into RNS form.

        Shape ``(..., n)`` becomes ``(..., k, n)``: a stack of
        polynomials lifts in one broadcast.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64)
        residues = coeffs[..., None, :] % self._primes_arr.astype(np.int64)
        return residues.astype(np.uint64)

    def from_ints(self, coeffs: list[int] | np.ndarray) -> np.ndarray:
        """Lift arbitrary-precision integer coefficients into RNS form."""
        out = np.empty((self.k, len(coeffs)), dtype=np.uint64)
        for i, p in enumerate(self.primes):
            out[i] = np.array([int(c) % p for c in coeffs], dtype=np.uint64)
        return out

    def to_ints(self, rns: np.ndarray) -> list[int]:
        """CRT-reconstruct coefficients as Python ints in [0, q)."""
        n = rns.shape[-1]
        acc = [0] * n
        for i, p in enumerate(self.primes):
            scaled = [
                (int(r) * self._qhat_inv[i]) % p for r in rns[i]
            ]
            qhat = self._qhat[i]
            for j in range(n):
                acc[j] += scaled[j] * qhat
        return [a % self.q for a in acc]

    def to_centered_ints(self, rns: np.ndarray) -> list[int]:
        """CRT-reconstruct coefficients centered in [-q/2, q/2)."""
        half = self.q // 2
        return [x - self.q if x >= half else x for x in self.to_ints(rns)]

    # -- arithmetic (elementwise per prime; valid in NTT or coeff domain) --

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self._primes_arr

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + self._primes_arr - b) % self._primes_arr

    def neg(self, a: np.ndarray) -> np.ndarray:
        return (self._primes_arr - a) % self._primes_arr

    def mul_pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise product (= ring product when both are in NTT form)."""
        return a * b % self._primes_arr

    def scalar_mul(self, a: np.ndarray, c: int) -> np.ndarray:
        residues = np.array(
            [c % p for p in self.primes], dtype=np.uint64
        ).reshape(-1, 1)
        return a * residues % self._primes_arr

    # -- transforms --------------------------------------------------------

    def to_ntt(self, rns: np.ndarray) -> np.ndarray:
        """Forward NTT of ``(..., k, n)``: one batched NTT per prime
        covers a whole stack of polynomials."""
        return np.stack(
            [self.ntts[i].forward(rns[..., i, :]) for i in range(self.k)],
            axis=-2,
        )

    def from_ntt(self, rns: np.ndarray) -> np.ndarray:
        return np.stack(
            [self.ntts[i].inverse(rns[i]) for i in range(self.k)]
        )

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full ring product of two coefficient-domain elements."""
        return self.from_ntt(self.mul_pointwise(self.to_ntt(a), self.to_ntt(b)))

    # -- sampling -----------------------------------------------------------

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform ring element (independent uniform residues, by CRT)."""
        out = np.empty((self.k, self.n), dtype=np.uint64)
        for i, p in enumerate(self.primes):
            out[i] = rng.integers(0, p, size=self.n, dtype=np.uint64)
        return out

    def expand_uniform(self, seed: bytes, count: int) -> np.ndarray:
        """``count`` uniform ring elements expanded from a public seed.

        Shape ``(count, k, n)``.  Deterministic in ``(seed, count)``, so
        two parties holding the seed agree on the elements without
        sending them.  Uniform residues are uniform in either domain
        (the NTT is a bijection on Z_p^n), so callers may read the
        result as NTT-domain directly.
        """
        rng = sampling.seeded_rng(seed)
        out = np.empty((count, self.k, self.n), dtype=np.uint64)
        for i, p in enumerate(self.primes):
            out[:, i, :] = rng.integers(
                0, p, size=(count, self.n), dtype=np.uint64
            )
        return out

    def sample_gaussian(
        self, rng: np.random.Generator, sigma: float, count: int | None = None
    ) -> np.ndarray:
        """A rounded-Gaussian error element, lifted into RNS.

        With ``count``, a stack of ``count`` independent elements,
        shape ``(count, k, n)``, drawn in one call.
        """
        size = self.n if count is None else (count, self.n)
        raw = np.rint(rng.normal(0.0, sigma, size=size)).astype(np.int64)
        return self.from_signed(raw)

    def sample_ternary(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly ternary ring element, lifted into RNS."""
        raw = rng.integers(-1, 2, size=self.n, dtype=np.int64)
        return self.from_signed(raw)

    def zero(self) -> np.ndarray:
        return np.zeros((self.k, self.n), dtype=np.uint64)
