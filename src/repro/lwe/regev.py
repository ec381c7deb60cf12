"""Secret-key Regev encryption with preprocessing (the SimplePIR LHE).

This is the inner encryption layer of Tiptoe (SS6.1, Appendix A.1): a
linearly homomorphic encryption scheme whose homomorphic evaluation --
multiplying a server-held plaintext matrix ``M`` into an encrypted
vector -- costs roughly two 64-bit word operations per matrix entry
after a one-time, message-independent preprocessing of ``M``.

Scheme (all arithmetic mod q = 2^32 or 2^64):

* public parameters: a uniform matrix ``A`` in Z_q^{m x n}, expanded
  from a short seed shared by both parties;
* secret key: ternary ``s`` in Z_q^n;
* ``Enc(s, v) = A s + e + Delta v`` for plaintext ``v`` in Z_p^m and
  ``Delta = q / p``; the mask ``A s + e`` does not depend on ``v``
  and is computed ahead of time when the key is single-use;
* ``Preproc(M) = H = M A`` (the SimplePIR "hint");
* ``Apply(M, c) = M c``;
* ``Dec(s, H, a) = round_Delta(a - H s) mod p = M v mod p``.

The hint is what makes evaluation cheap: the ``M A s`` term is folded
into preprocessing, so the per-query work is a single plaintext-speed
integer matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.lwe import modular, sampling
from repro.lwe.params import LweParams
from repro.obs import runtime as _obs


@dataclass(frozen=True)
class SecretKey:
    """A ternary Regev secret, stored reduced into Z_q."""

    s: np.ndarray
    params: LweParams

    def __post_init__(self) -> None:
        if self.s.shape != (self.params.n,):
            raise ValueError(
                f"secret has shape {self.s.shape}, expected ({self.params.n},)"
            )

    def signed(self) -> np.ndarray:
        """The secret as small signed integers in {-1, 0, 1}."""
        return modular.centered(self.s, self.params.q_bits).astype(np.int64)


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted vector: ``c = A s + e + Delta v`` in Z_q^m."""

    c: np.ndarray
    params: LweParams

    def __post_init__(self) -> None:
        if self.c.ndim != 1:
            raise ValueError("ciphertext must be a vector")

    @property
    def upload_bytes(self) -> int:
        """Wire size of this ciphertext (the seed for A is amortized)."""
        return self.params.ciphertext_bytes(len(self.c))


def stack_ciphertexts(cts: Sequence[Ciphertext]) -> np.ndarray:
    """Stack Q ciphertext vectors into the (m, Q) column matrix.

    This is the wire layout of the cross-query batch plane: one query
    per column, so a batched Apply is a single matrix-matrix product.
    """
    if not cts:
        raise ValueError("cannot stack an empty ciphertext batch")
    params = cts[0].params
    for ct in cts[1:]:
        if ct.params != params:
            raise ValueError(
                "all ciphertexts in a batch must share one parameter set"
            )
    return np.stack([ct.c for ct in cts], axis=1)


@dataclass
class RegevScheme:
    """The SimplePIR linearly homomorphic encryption scheme.

    One instance is bound to one public matrix ``A`` (i.e., one
    database layout); the seed for ``A`` is the only public parameter
    that must be shared.
    """

    params: LweParams
    a_seed: bytes = field(default_factory=sampling.random_seed)
    _a: np.ndarray | None = field(default=None, repr=False)

    @property
    def a(self) -> np.ndarray:
        """The public matrix ``A`` in Z_q^{m x n} (expanded lazily)."""
        if self._a is None:
            self._a = sampling.expand_matrix(
                self.a_seed, self.params.m, self.params.n, self.params.q_bits
            )
        return self._a

    def gen_secret(self, rng: np.random.Generator | None = None) -> SecretKey:
        """Sample a fresh ternary secret key."""
        rng = sampling.resolve_rng(rng)
        s = sampling.ternary_secret(rng, self.params.n, self.params.q_bits)
        return SecretKey(s=s, params=self.params)

    def mask(
        self, sk: SecretKey, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """The message-independent half of an encryption: ``A s + e``.

        It depends only on the secret and fresh noise, so a client whose
        secret is single-use computes it when the key is made, ahead of
        the query (SS6.3), and encrypts online with
        :meth:`encrypt_with_mask`.  Secret: with the ciphertext it
        yields the message.
        """
        rng = sampling.resolve_rng(rng)
        q_bits = self.params.q_bits
        e = sampling.gaussian_error(rng, self.params.sigma, self.params.m, q_bits)
        return modular.add(modular.matvec(self.a, sk.s, q_bits), e, q_bits)

    def encrypt(
        self,
        sk: SecretKey,
        message: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> Ciphertext:
        """Encrypt a plaintext vector in Z_p^m under a fresh mask."""
        return self.encrypt_with_mask(self.mask(sk, rng), message)

    def encrypt_with_mask(
        self, mask: np.ndarray, message: np.ndarray
    ) -> Ciphertext:
        """``mask + Delta m`` for a :meth:`mask` of the secret: one add.

        Negative message entries are accepted and reduced mod p
        (centered fixed-precision convention of Appendix B.1).  A mask
        encrypts one message: two ciphertexts under it differ by
        exactly ``Delta (m1 - m2)``.
        """
        message = np.asarray(message)
        if message.shape != (self.params.m,):
            raise ValueError(
                f"message has shape {message.shape}, expected"
                f" ({self.params.m},)"
            )
        if mask.shape != (self.params.m,):
            raise ValueError(
                f"mask has shape {mask.shape}, expected ({self.params.m},)"
            )
        q_bits = self.params.q_bits
        encoded = modular.encode_message(message, q_bits, self.params.p)
        return Ciphertext(c=modular.add(mask, encoded, q_bits), params=self.params)

    def preprocess(self, matrix: np.ndarray) -> np.ndarray:
        """Compute the hint ``H = M A`` for a plaintext matrix ``M``.

        ``M`` has shape (l, m) with entries that are small integers
        (database records mod p, or signed quantized embeddings); it is
        lifted into Z_q before the product.
        """
        matrix = self._check_matrix(matrix)
        return modular.matmul(matrix, self.a, self.params.q_bits)

    def apply(self, matrix: np.ndarray, ct: Ciphertext) -> np.ndarray:
        """``Enc(M v)`` for one ciphertext: :meth:`apply_batch` of one."""
        return self.apply_batch(matrix, [ct])[:, 0]

    def batch_plan(
        self, matrix: np.ndarray, *, backend: str | None = None, **plan_kwargs
    ):
        """Message-independent preprocessing for Apply calls.

        Like the hint, the plan depends only on ``M``; long-lived
        servers build it once and feed it to :meth:`apply_batch`.
        ``backend`` names a registered kernel backend (``None`` /
        ``"auto"`` resolve to the reference path); ``plan_kwargs``
        (``metadata``, ``limb_bits``, ``chunk_rows``, ``workers``)
        forward to :meth:`~repro.lwe.backends.KernelBackend.plan`.
        """
        from repro.lwe import backends as kernel_backends

        return kernel_backends.get_backend(backend).plan(
            self._check_matrix(matrix), self.params.q_bits, **plan_kwargs
        )

    def apply_batch(
        self,
        matrix: np.ndarray | None,
        cts: Sequence[Ciphertext] | np.ndarray,
        plan=None,
    ) -> np.ndarray:
        """Homomorphically compute ``Enc(M v)`` for Q stacked queries.

        The online hot loop -- the ~2*N word operations per query of
        SS6.1, streamed over ``M`` once per call.  ``cts`` is either a
        sequence of ciphertexts (possibly empty) or an already stacked
        (m, Q) column matrix.  Returns the (rows, Q) evaluated columns
        ``a = M c`` in Z_q.  Pass a precomputed ``plan`` to skip the
        per-call preprocessing, in which case ``matrix`` may be None.
        The ``kernel.lwe.apply`` timer contains the plan's product.
        """
        if plan is None:
            if matrix is None:
                raise ValueError("apply_batch needs a matrix or a plan")
            plan = self.batch_plan(matrix)
        if isinstance(cts, np.ndarray):
            stacked = cts
        elif len(cts) == 0:
            stacked = np.empty(
                (self.params.m, 0), dtype=modular.dtype_for(self.params.q_bits)
            )
        else:
            stacked = stack_ciphertexts(cts)
        with _obs.kernel_timer("lwe.apply"):
            return plan.matmul(stacked)

    def decrypt(
        self, sk: SecretKey, hint: np.ndarray, answer: np.ndarray
    ) -> np.ndarray:
        """Recover ``M v mod p`` from an evaluated ciphertext."""
        noisy = self.decrypt_noisy(sk, hint, answer)
        return modular.round_to_message(noisy, self.params.q_bits, self.params.p)

    def decrypt_noisy(
        self, sk: SecretKey, hint: np.ndarray, answer: np.ndarray
    ) -> np.ndarray:
        """The linear part of decryption: ``a - H s`` in Z_q.

        Isolated because the double-layer scheme (SS6.2) outsources
        exactly this matrix-vector product to the server.
        """
        q_bits = self.params.q_bits
        hs = modular.matvec(hint, sk.s, q_bits)
        return modular.sub(np.asarray(answer), hs, q_bits)

    def decrypt_centered(
        self, sk: SecretKey, hint: np.ndarray, answer: np.ndarray
    ) -> np.ndarray:
        """Decrypt and map results to centered values in [-p/2, p/2)."""
        m = self.decrypt(sk, hint, answer)
        p = self.params.p
        return np.where(m >= p // 2, m - p, m)

    def _check_matrix(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.params.m:
            raise ValueError(
                f"matrix has shape {matrix.shape}, expected (*, {self.params.m})"
            )
        return modular.to_ring(matrix, self.params.q_bits)

    # -- cost model hooks -------------------------------------------------

    def hint_bytes(self, rows: int) -> int:
        """Wire/storage size of the hint for an l-row matrix."""
        return rows * self.params.n * self.params.bytes_per_element

    def answer_bytes(self, rows: int) -> int:
        """Wire size of an evaluated ciphertext for an l-row matrix."""
        return rows * self.params.bytes_per_element

    def apply_word_ops(self, rows: int) -> int:
        """Word operations for one Apply (2 per matrix entry, SS6.1)."""
        return 2 * rows * self.params.m

    def preprocess_word_ops(self, rows: int) -> int:
        """Word operations for the one-time hint computation."""
        return 2 * rows * self.params.m * self.params.n
