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
        # The primes as a (k, 1) column, broadcast against (k, n) stacks.
        self.prime_column = np.array(self.primes, dtype=np.uint64).reshape(-1, 1)
        # CRT reconstruction constants: x = sum_i (r_i * y_i mod p_i) * qhat_i.
        self._qhat = [self.q // p for p in self.primes]
        self._qhat_inv = [
            pow(self.q // p, p - 2, p) for p in self.primes
        ]
        # to_ntt_small: centred twiddles are below 2^(bits-1), so n
        # coefficients under this bound keep every dot product < 2^52.
        max_bits = max(p.bit_length() for p in self.primes)
        self.small_bound = (1 << (53 - max_bits)) // n
        # Multiples of p at or above 2^52: added to a signed dot product
        # they make it non-negative without changing it mod p.
        self._small_bias = np.array(
            [-(-(1 << 52) // p) * p for p in self.primes], dtype=np.int64
        )

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
        residues = coeffs[..., None, :] % self.prime_column.astype(np.int64)
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
        return (a + b) % self.prime_column

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + self.prime_column - b) % self.prime_column

    def neg(self, a: np.ndarray) -> np.ndarray:
        return (self.prime_column - a) % self.prime_column

    def mul_pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise product (= ring product when both are in NTT form)."""
        return a * b % self.prime_column

    def scalar_mul(self, a: np.ndarray, c: int) -> np.ndarray:
        residues = np.array(
            [c % p for p in self.primes], dtype=np.uint64
        ).reshape(-1, 1)
        return a * residues % self.prime_column

    # -- transforms --------------------------------------------------------

    def to_ntt(self, rns: np.ndarray) -> np.ndarray:
        """Forward NTT of ``(..., k, n)``: one batched NTT per prime
        covers a whole stack of polynomials."""
        return np.stack(
            [self.ntts[i].forward(rns[..., i, :]) for i in range(self.k)],
            axis=-2,
        )

    def to_ntt_small(
        self,
        signed: np.ndarray,
        constants: np.ndarray | None = None,
        addend: np.ndarray | None = None,
    ) -> np.ndarray:
        """Lift and forward-transform small signed coefficients.

        ``signed`` is ``(..., n)``; the result is ``(..., k, n)`` and
        equals ``to_ntt(from_signed(signed))`` bit for bit.  The NTT is
        linear, so each prime's transform is one float64 GEMM against
        :attr:`NttContext.small_matrix`, exact because every coefficient
        is below :attr:`small_bound` in magnitude (``ValueError``
        otherwise -- nothing is clipped).

        Two optional terms join the one reduction mod p per prime:
        ``constants`` ``(..., k)``, residues of constant polynomials (a
        constant transforms to itself in every slot), and ``addend``
        ``(..., k, n)``, NTT-domain words below 2^62 such as a pointwise
        product of two residues.
        """
        x = np.asarray(signed)
        n, k = self.n, self.k
        if x.shape[-1:] != (n,):
            raise ValueError(f"expected (..., {n}) coefficients, got {x.shape}")
        if x.size and max(-int(x.min()), int(x.max())) >= self.small_bound:
            raise ValueError(
                f"coefficients must lie strictly within +-{self.small_bound}"
                f" for an exact transform at n={n}"
            )
        lead = x.shape[:-1]
        flat = x.reshape(-1, n).astype(np.float64)
        offset = np.broadcast_to(self._small_bias, (flat.shape[0], k))
        if constants is not None:
            offset = offset + np.asarray(constants).reshape(-1, k).astype(np.int64)
        if addend is not None:
            addend = np.asarray(addend, dtype=np.uint64).reshape(-1, k, n)
        out = np.empty((flat.shape[0], k, n), dtype=np.uint64)
        # Three scratch buffers serve every prime: fresh MiB-sized
        # temporaries per step would cost more than the arithmetic.
        dots = np.empty((flat.shape[0], n), dtype=np.float64)
        acc = np.empty((flat.shape[0], n), dtype=np.int64)
        quot = np.empty((flat.shape[0], n), dtype=np.uint64)
        words = acc.view(np.uint64)
        for j, (ntt, p) in enumerate(zip(self.ntts, self.primes)):
            # Exact: |dot| < 2^52, so float64 holds it and int64 casts it.
            np.matmul(flat, ntt.small_matrix, out=dots)
            np.copyto(acc, dots, casting="unsafe")
            acc += offset[:, j : j + 1]
            if addend is not None:
                words += addend[:, j, :]
            # words % p, as a scalar floor division NumPy vectorises.
            pp = np.uint64(p)
            np.floor_divide(words, pp, out=quot)
            quot *= pp
            np.subtract(words, quot, out=out[:, j, :])
        return out.reshape(*lead, k, n)

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
        return self.from_signed(self.sample_gaussian_signed(rng, sigma, count))

    def sample_gaussian_signed(
        self, rng: np.random.Generator, sigma: float, count: int | None = None
    ) -> np.ndarray:
        """The signed coefficients :meth:`sample_gaussian` lifts, shape
        ``(n,)`` or ``(count, n)`` -- the input :meth:`to_ntt_small`
        transforms without a lift."""
        size = self.n if count is None else (count, self.n)
        return np.rint(rng.normal(0.0, sigma, size=size)).astype(np.int64)

    def sample_ternary(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly ternary ring element, lifted into RNS."""
        raw = rng.integers(-1, 2, size=self.n, dtype=np.int64)
        return self.from_signed(raw)

    def zero(self) -> np.ndarray:
        return np.zeros((self.k, self.n), dtype=np.uint64)
