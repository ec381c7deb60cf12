"""BFV-style secret-key linearly homomorphic encryption over RLWE.

This is the "outer" encryption scheme Enc2 of SS6.2 / Appendix A.2: it
is allowed to be computationally slower than the inner Regev layer,
but its ciphertexts stay compact after homomorphic evaluation, which
is exactly what the download-compression trick needs.

Supported homomorphic operations (all linear, per Appendix A):

* ciphertext addition / subtraction,
* multiplication by plaintext ring elements (NTT-domain pointwise),
* multiplication by scalars,
* addition of plaintext ring elements.

Encoding follows the scale-invariant convention: a message coefficient
``m`` is encoded as ``round(m * q / t)``, so the per-message encoding
error is at most 1/2 (instead of the ``m * (q/t - floor(q/t))`` error
of naive Delta-scaling, which matters here because our plaintext
modulus t is close to 2^32).

Slot batching (Appendix C uses t = 65537) is available whenever t is a
prime with t = 1 (mod 2n): ``encode_slots`` / ``decode_slots`` map
between slot values and plaintext polynomials, making plaintext
multiplication act componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lwe import sampling
from repro.rlwe.ntt import NttContext, find_ntt_primes, ntt_context
from repro.rlwe.poly import RnsContext

#: Bytes per RNS residue on the wire: every NTT prime is below 2^31
#: (:data:`repro.rlwe.ntt.MAX_PRIME_BITS`), so residues travel as u32.
RESIDUE_BYTES = 4


@dataclass(frozen=True)
class BfvParams:
    """Parameters for the outer RLWE scheme.

    Attributes
    ----------
    n:
        Ring dimension (power of two).
    t:
        Plaintext modulus.
    primes:
        NTT-friendly ciphertext primes; q is their product.
    sigma:
        Error standard deviation.
    """

    n: int
    t: int
    primes: tuple[int, ...]
    sigma: float = 3.2

    @staticmethod
    def create(
        n: int,
        t: int,
        prime_bits: int = 30,
        num_primes: int = 3,
        sigma: float = 3.2,
    ) -> "BfvParams":
        """Build a parameter set, searching for suitable NTT primes."""
        primes = find_ntt_primes(n, prime_bits, num_primes)
        return BfvParams(n=n, t=t, primes=primes, sigma=sigma)

    @property
    def q(self) -> int:
        q = 1
        for p in self.primes:
            q *= p
        return q

    @property
    def delta(self) -> float:
        """The (real-valued) plaintext scale q / t."""
        return self.q / self.t

    def ciphertext_bytes(self) -> int:
        """Wire size of one ciphertext (two RNS ring elements)."""
        return 2 * len(self.primes) * self.n * RESIDUE_BYTES

    def supports_batching(self) -> bool:
        """Whether slot batching is available for this t."""
        from repro.rlwe.ntt import is_prime

        return is_prime(self.t) and (self.t - 1) % (2 * self.n) == 0


@dataclass(frozen=True)
class BfvSecretKey:
    """Ternary RLWE secret, cached in NTT form for fast products."""

    s_ntt: np.ndarray
    s_signed: np.ndarray


@dataclass
class BfvCiphertext:
    """An RLWE ciphertext ``(b, a)`` with ``b = a*s + e + encode(m)``.

    Both components are stored in NTT form, which makes homomorphic
    plaintext multiplication a pointwise product.
    """

    b: np.ndarray
    a: np.ndarray

    def wire_bytes(self) -> int:
        return (self.b.size + self.a.size) * RESIDUE_BYTES


class BfvScheme:
    """The outer linearly homomorphic encryption scheme."""

    def __init__(self, params: BfvParams):
        self.params = params
        self.ring = RnsContext(params.n, params.primes)
        self._slot_ntt: NttContext | None = (
            ntt_context(params.n, params.t)
            if params.supports_batching()
            else None
        )

    # -- keys ---------------------------------------------------------------

    def gen_secret(self, rng: np.random.Generator | None = None) -> BfvSecretKey:
        rng = sampling.resolve_rng(rng)
        signed = sampling.ternary_secret_signed(rng, self.params.n)
        s_rns = self.ring.from_signed(signed)
        return BfvSecretKey(s_ntt=self.ring.to_ntt(s_rns), s_signed=signed)

    # -- encoding -----------------------------------------------------------

    def _scale(self, message) -> list[int]:
        """``round((m mod t) * q / t)`` per message, as Python ints."""
        q, t = self.params.q, self.params.t
        return [(int(m) % t * q + t // 2) // t for m in message]

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Scale messages mod t into a coefficient-domain ring element."""
        msg = list(np.asarray(message).ravel())
        if len(msg) > self.params.n:
            raise ValueError("message longer than ring dimension")
        msg += [0] * (self.params.n - len(msg))
        return self.ring.from_ints(self._scale(msg))

    def decode(self, phase: list[int], length: int | None = None) -> np.ndarray:
        """Recover messages mod t from centered decryption phases."""
        q, t = self.params.q, self.params.t
        out = [((y * t + q // 2) // q) % t for y in phase]
        if length is not None:
            out = out[:length]
        return np.array(out, dtype=np.int64)

    def encode_slots(self, values: np.ndarray) -> np.ndarray:
        """Pack per-slot values mod t into a plaintext polynomial."""
        if self._slot_ntt is None:
            raise ValueError(
                f"t={self.params.t} does not support slot batching"
            )
        vals = np.asarray(values, dtype=np.int64) % self.params.t
        if len(vals) > self.params.n:
            raise ValueError("too many slot values")
        padded = np.zeros(self.params.n, dtype=np.uint64)
        padded[: len(vals)] = vals.astype(np.uint64)
        return self._slot_ntt.inverse(padded).astype(np.int64)

    def decode_slots(self, plain_coeffs: np.ndarray) -> np.ndarray:
        """Unpack a plaintext polynomial into its slot values."""
        if self._slot_ntt is None:
            raise ValueError(
                f"t={self.params.t} does not support slot batching"
            )
        arr = np.asarray(plain_coeffs, dtype=np.int64) % self.params.t
        return self._slot_ntt.forward(arr.astype(np.uint64)).astype(np.int64)

    # -- encryption ---------------------------------------------------------

    def encrypt(
        self,
        sk: BfvSecretKey,
        message: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> BfvCiphertext:
        """Encrypt a vector of coefficients mod t."""
        return self.encrypt_encoded(sk, self.encode(message), rng)

    def encrypt_encoded(
        self,
        sk: BfvSecretKey,
        encoded: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> BfvCiphertext:
        """Encrypt an already-encoded coefficient-domain ring element."""
        rng = sampling.resolve_rng(rng)
        ring = self.ring
        a_ntt = ring.to_ntt(ring.sample_uniform(rng))
        e = ring.sample_gaussian(rng, self.params.sigma)
        payload = ring.to_ntt(ring.add(e, encoded))
        b_ntt = ring.add(ring.mul_pointwise(a_ntt, sk.s_ntt), payload)
        return BfvCiphertext(b=b_ntt, a=a_ntt)

    def encrypt_constants(
        self,
        sk: BfvSecretKey,
        values: np.ndarray,
        a_ntt: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Encrypt each of ``values`` as a constant polynomial, stacked.

        Ciphertext i is ``(b[i], a_ntt[i])`` for a public NTT-domain
        ``a_ntt`` of shape ``(len(values), k, n)`` that both parties
        hold, so only the returned NTT-domain ``b`` stack, shape
        ``(len(values), k, n)``, needs to travel.  One Gaussian draw and
        one exact GEMM per prime (:meth:`RnsContext.to_ntt_small`, the
        error is small and signed) replace a per-value :meth:`encrypt`
        loop, with ``a*s`` and the encodings folded into the same
        reduction mod p.  A constant's encoding is the same residue in
        every NTT slot, so it needs no transform and is looked up once
        per distinct value.
        """
        rng = sampling.resolve_rng(rng)
        ring = self.ring
        values = np.asarray(values, dtype=np.int64)
        e = ring.sample_gaussian_signed(rng, self.params.sigma, len(values))
        distinct, which = np.unique(values, return_inverse=True)
        table = ring.from_ints(self._scale(distinct))  # (k, distinct)
        # a*s < p^2 < 2^62 stays unreduced until to_ntt_small's one % p.
        a_s = np.multiply(a_ntt, sk.s_ntt)
        return ring.to_ntt_small(e, constants=table.T[which], addend=a_s)

    def decrypt_phase(self, sk: BfvSecretKey, ct: BfvCiphertext) -> list[int]:
        """The centered decryption phase ``b - a*s`` as Python ints."""
        ring = self.ring
        y_ntt = ring.sub(ct.b, ring.mul_pointwise(ct.a, sk.s_ntt))
        return ring.to_centered_ints(ring.from_ntt(y_ntt))

    def decrypt(
        self, sk: BfvSecretKey, ct: BfvCiphertext, length: int | None = None
    ) -> np.ndarray:
        """Decrypt to coefficient messages mod t."""
        return self.decode(self.decrypt_phase(sk, ct), length)

    def decrypt_slots(self, sk: BfvSecretKey, ct: BfvCiphertext) -> np.ndarray:
        """Decrypt to slot values mod t (batched plaintexts)."""
        coeffs = self.decrypt(sk, ct)
        return self.decode_slots(coeffs)

    # -- homomorphic operations ----------------------------------------------

    def add(self, c1: BfvCiphertext, c2: BfvCiphertext) -> BfvCiphertext:
        ring = self.ring
        return BfvCiphertext(b=ring.add(c1.b, c2.b), a=ring.add(c1.a, c2.a))

    def sub(self, c1: BfvCiphertext, c2: BfvCiphertext) -> BfvCiphertext:
        ring = self.ring
        return BfvCiphertext(b=ring.sub(c1.b, c2.b), a=ring.sub(c1.a, c2.a))

    def mul_plain_ntt(
        self, ct: BfvCiphertext, plain_ntt: np.ndarray
    ) -> BfvCiphertext:
        """Multiply by a plaintext ring element given in NTT form."""
        ring = self.ring
        return BfvCiphertext(
            b=ring.mul_pointwise(ct.b, plain_ntt),
            a=ring.mul_pointwise(ct.a, plain_ntt),
        )

    def mul_plain(self, ct: BfvCiphertext, coeffs: np.ndarray) -> BfvCiphertext:
        """Multiply by a plaintext polynomial with small signed coeffs."""
        plain_ntt = self.ring.to_ntt(self.ring.from_signed(coeffs))
        return self.mul_plain_ntt(ct, plain_ntt)

    def mul_scalar(self, ct: BfvCiphertext, c: int) -> BfvCiphertext:
        ring = self.ring
        return BfvCiphertext(
            b=ring.scalar_mul(ct.b, c), a=ring.scalar_mul(ct.a, c)
        )

    def add_plain_encoded(
        self, ct: BfvCiphertext, encoded: np.ndarray
    ) -> BfvCiphertext:
        """Add an encoded (coefficient-domain) plaintext to a ciphertext."""
        return BfvCiphertext(
            b=self.ring.add(ct.b, self.ring.to_ntt(encoded)), a=ct.a
        )

    def zero_ciphertext(self) -> BfvCiphertext:
        """An additive-identity ciphertext (trivially decryptable to 0)."""
        return BfvCiphertext(b=self.ring.zero(), a=self.ring.zero())

    # -- diagnostics ----------------------------------------------------------

    def noise_magnitude(
        self, sk: BfvSecretKey, ct: BfvCiphertext, message: np.ndarray
    ) -> int:
        """Max |phase - encode(message)| -- the invariant noise."""
        phase = self.decrypt_phase(sk, ct)
        expected = self.ring.to_centered_ints(self.encode(message))
        q = self.params.q
        worst = 0
        for got, want in zip(phase, expected):
            diff = (got - want) % q
            diff = diff - q if diff >= q // 2 else diff
            worst = max(worst, abs(diff))
        return worst

    def noise_budget_bits(
        self, sk: BfvSecretKey, ct: BfvCiphertext, message: np.ndarray
    ) -> float:
        """log2 of (decryption threshold / current noise)."""
        import math

        noise = max(1, self.noise_magnitude(sk, ct, message))
        return math.log2(self.params.q / (2.0 * self.params.t) / noise)
