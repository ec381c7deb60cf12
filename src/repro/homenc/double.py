"""The double-layer ("augmented") LHE scheme of SS6.2 and Appendix A.

The inner Regev scheme makes homomorphic evaluation nearly as fast as
plaintext arithmetic, but decryption needs the hint matrix ``H = M A``
-- gigabytes of corpus-dependent data the client would otherwise have
to download.  Here the client instead uploads an outer encryption of
its inner secret key, and the server computes the hint-secret product
``H s`` *under the outer encryption*:

1. the client sends ``Enc2`` ciphertexts of each inner-secret
   component ``s_i`` (the ``z_i`` of Appendix A.2) -- their ``b``
   halves plus one public seed the uniform ``a`` halves expand from;
2. the server, per chunk of ``n_outer`` hint rows, evaluates
   ``sum_i C_i(x) * z_i`` where ``C_i`` is the plaintext polynomial
   whose r-th coefficient is ``H[r, i]`` -- because each ``z_i``
   encrypts a *constant*, coefficient r of the sum is exactly
   ``sum_i H[r, i] s_i``, row r of ``H s``;
3. the client decrypts the few compact outer ciphertexts instead of
   downloading ``H``.

Two paper optimizations are folded in:

* *modulus switching / dropping low-order hint bits* (Appendix A.3):
  the hint and the online answer are rescaled from the inner modulus
  q to an odd prime T < 2^32 before the outer layer sees them -- from
  q = 2^64 this literally drops the low 32 bits of each hint word;
* the outer evaluation is key-dependent but *query-independent*, so it
  runs ahead of time (the query tokens of :mod:`repro.homenc.token`).

Faithfulness note (DESIGN.md substitution 8): the paper instantiates
Enc2 with SEAL's BFV at t = 65537 plus encoding tricks the appendix
does not fully specify; we instantiate Enc2 with the same BFV-style
scheme but plaintext modulus T, which keeps the arithmetic exact and
preserves every systems-level property (offline evaluation, O(l)
evaluated ciphertexts, no hint download).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.lwe import modular, sampling
from repro.lwe.params import LweParams
from repro.lwe.regev import Ciphertext, RegevScheme, SecretKey
from repro.obs import runtime as _obs
from repro.rlwe.bfv import BfvCiphertext, BfvParams, BfvScheme, BfvSecretKey

#: Default modulus-switch target: the largest prime below 2^32.
DEFAULT_SWITCH_MODULUS = 4294967291


@dataclass(frozen=True)
class DoubleLheParams:
    """Parameters tying the two encryption layers together."""

    inner: LweParams
    outer_n: int = 2048
    outer_prime_bits: int = 30
    outer_num_primes: int = 3
    outer_sigma: float = 3.2
    switch_modulus: int = DEFAULT_SWITCH_MODULUS

    def __post_init__(self) -> None:
        if self.switch_modulus >= 1 << 32:
            raise ValueError("switch modulus must be below 2^32")
        if self.switch_modulus % 2 == 0:
            raise ValueError("switch modulus must be odd")

    def outer_params(self) -> BfvParams:
        return BfvParams.create(
            n=self.outer_n,
            t=self.switch_modulus,
            prime_bits=self.outer_prime_bits,
            num_primes=self.outer_num_primes,
            sigma=self.outer_sigma,
        )


@dataclass(frozen=True)
class ClientKeys:
    """Both layers' secret keys, held only by the client."""

    inner: SecretKey
    outer: BfvSecretKey


#: Length of the public seed that ``z_a`` is expanded from.
KEY_SEED_BYTES = 32


@dataclass(frozen=True)
class EncryptedKey:
    """The outer encryption of the inner secret (the ``z_i`` vectors).

    ``z_b`` is the stacked NTT-domain ``b`` half, shape ``(n_inner, k,
    n_outer)``, so the server's evaluation is a batched pointwise
    product.  The uniform ``a`` half is never sent: both sides expand it
    from the public ``a_seed`` (SimplePIR's seed compression, applied
    to the outer layer), which halves the ahead-of-time upload of SS6.3.
    It is query-independent and reusable across services.
    """

    z_b: np.ndarray
    a_seed: bytes

    def wire_bytes(self) -> int:
        """Seed plus ``z_b`` words: the encoding minus its fixed header."""
        return len(self.a_seed) + self.z_b.size * 8


@dataclass(frozen=True)
class CompressedHint:
    """Outer ciphertexts encrypting ``H s``, one per n_outer hint rows."""

    chunks: tuple[BfvCiphertext, ...]
    rows: int

    def wire_bytes(self) -> int:
        return sum(c.wire_bytes() for c in self.chunks)


@dataclass(frozen=True)
class PreprocessedMatrix:
    """Server-side state for one plaintext matrix M: hint + switched hint.

    ``hint_ntt`` optionally carries the forward NTTs of every chunk's
    plaintext polynomials ``C_i`` (shape ``(n_chunks, k, n_inner,
    n_outer)``).  The table is client-independent, so computing it
    ahead of time -- or loading it from the precompute sidecar of
    ``repro.index/v2`` -- removes every forward NTT from token minting.
    """

    hint: np.ndarray
    switched_hint: np.ndarray
    rows: int
    hint_ntt: np.ndarray | None = None


#: Hint NTT words enter the key products as two limbs of this many
#: bits, so every sum over the inner dimension fits uint64 unreduced.
LIMB_BITS = 15

#: Inner-dimension rows per pass: one block of the hint NTTs, its limbs
#: and each key's matching rows stay cache-resident while they are
#: multiplied (measured: 32-64 rows beat whole-chunk limbs by ~2x).
LIMB_BLOCK = 32


def _key_products(
    keys: Sequence[np.ndarray], c_ntts: np.ndarray, primes: np.ndarray
) -> np.ndarray:
    """``sum_i z[i] * C[:, i] mod p`` for each ``z`` of ``keys``.

    Every ``z`` is ``(n_inner, k, n)`` with residues < p
    (``check_key``); ``C`` is a chunk's ``(k, n_inner, n)`` hint NTTs.
    The result is ``(len(keys), k, n)``, all primes at once.  ``C``
    enters as two :data:`LIMB_BITS`-bit limbs, split once per block of
    rows for all keys; a residue times a limb, summed over the n_inner
    rows, stays below 2^64 (checked when the scheme is built), so each
    limb sum needs one reduction at the end.
    """
    k, n_inner, n = c_ntts.shape
    mask = np.uint64((1 << LIMB_BITS) - 1)
    sums = np.zeros((len(keys), 2, k, n), dtype=np.uint64)
    for start in range(0, n_inner, LIMB_BLOCK):
        rows = c_ntts[:, start : start + LIMB_BLOCK]
        limbs = (rows & mask, rows >> np.uint64(LIMB_BITS))
        for acc, z in zip(sums, keys):
            block = z[start : start + LIMB_BLOCK]
            for half, limb in zip(acc, limbs):
                half += np.einsum("ikn,kin->kn", block, limb)
    lo, hi = sums[:, 0] % primes, sums[:, 1] % primes
    return (lo + (hi << np.uint64(LIMB_BITS))) % primes


class DoubleLheScheme:
    """Linearly homomorphic encryption with preprocessing + compression.

    The public interface mirrors Appendix A.1's syntax: ``encrypt``
    (inner), ``preprocess`` (hint + switched hint), ``apply_batch``
    (inner, the online hot loop), ``evaluate_hint_batch`` (outer,
    offline) -- ``apply`` / ``evaluate_hint`` are their batches of one
    -- and ``decrypt`` (client, from the compressed hint product).
    """

    def __init__(
        self, params: DoubleLheParams, a_seed: bytes | None = None
    ):
        self.params = params
        self.inner = RegevScheme(
            params=params.inner,
            a_seed=a_seed if a_seed is not None else sampling.random_seed(),
        )
        self.outer = BfvScheme(params.outer_params())
        p_max = max(self.outer.params.primes)
        limb_max = max((1 << LIMB_BITS) - 1, (p_max - 1) >> LIMB_BITS)
        if params.inner.n * (p_max - 1) * limb_max >= 1 << 64:
            raise ValueError(
                f"inner dimension {params.inner.n} overflows the uint64"
                " hint evaluation"
            )

    # -- client key management -----------------------------------------------

    def gen_keys(self, rng: np.random.Generator | None = None) -> ClientKeys:
        rng = sampling.resolve_rng(rng)
        return ClientKeys(
            inner=self.inner.gen_secret(rng), outer=self.outer.gen_secret(rng)
        )

    def encrypt_key(
        self, keys: ClientKeys, rng: np.random.Generator | None = None
    ) -> EncryptedKey:
        """Encrypt every inner-secret component under the outer scheme.

        One stacked encryption of all ``n_inner`` constants; the seed
        of their ``a`` halves is public randomness drawn fresh from
        ``rng`` for every key.
        """
        rng = sampling.resolve_rng(rng)
        a_seed = rng.bytes(KEY_SEED_BYTES)
        z_b = self.outer.encrypt_constants(
            keys.outer, keys.inner.signed(), a_seed, rng
        )
        return EncryptedKey(z_b=z_b, a_seed=a_seed)

    def expand_z_a(self, enc_key: EncryptedKey) -> np.ndarray:
        """The NTT-domain ``a`` halves of ``enc_key``, from its seed."""
        return self.outer.ring.expand_uniform(
            enc_key.a_seed, self.params.inner.n
        )

    def check_key(self, enc_key: EncryptedKey) -> None:
        """Reject an encrypted key this scheme cannot evaluate.

        Keys arrive from clients: a wrong shape would broadcast into a
        silently wrong token, and residues >= p would break the
        accumulation bound of :func:`_key_products`.
        """
        ring = self.outer.ring
        want = (self.params.inner.n, ring.k, ring.n)
        z_b = enc_key.z_b
        if z_b.shape != want or z_b.dtype != np.uint64:
            raise ValueError(
                f"encrypted key z_b is {z_b.dtype} {z_b.shape},"
                f" expected uint64 {want}"
            )
        if len(enc_key.a_seed) != KEY_SEED_BYTES:
            raise ValueError(
                f"encrypted key seed is {len(enc_key.a_seed)} bytes,"
                f" expected {KEY_SEED_BYTES}"
            )
        if not (z_b < ring.prime_column).all():
            raise ValueError(
                "encrypted key z_b has residues outside [0, p) for its"
                " RNS prime"
            )

    def check_hint(self, compressed: CompressedHint, rows: int) -> None:
        """Reject a compressed hint this scheme cannot decrypt.

        Hints arrive from the server: a wrong row count or chunk shape
        would decrypt into misplaced rows, and residues >= p would
        overflow the uint64 ``a*s`` of decryption into a silently wrong
        hint product.  ``rows`` is the service's hint height.
        """
        if compressed.rows != rows:
            raise ValueError(
                f"compressed hint declares {compressed.rows} rows,"
                f" expected {rows}"
            )
        ring = self.outer.ring
        want_chunks = -(-rows // ring.n)
        if len(compressed.chunks) != want_chunks:
            raise ValueError(
                f"compressed hint has {len(compressed.chunks)} chunks,"
                f" expected {want_chunks} for {rows} rows"
            )
        want = (ring.k, ring.n)
        for i, chunk in enumerate(compressed.chunks):
            for half, words in (("b", chunk.b), ("a", chunk.a)):
                if words.shape != want or words.dtype != np.uint64:
                    raise ValueError(
                        f"compressed hint chunk {i} {half} is {words.dtype}"
                        f" {words.shape}, expected uint64 {want}"
                    )
                if not (words < ring.prime_column).all():
                    raise ValueError(
                        f"compressed hint chunk {i} {half} has residues"
                        " outside [0, p) for its RNS prime"
                    )

    # -- server-side preprocessing ---------------------------------------------

    def preprocess(self, matrix: np.ndarray) -> PreprocessedMatrix:
        """Compute the inner hint and its modulus-switched form."""
        hint = self.inner.preprocess(matrix)
        switched = modular.mod_switch(
            hint, self.params.inner.q_bits, self.params.switch_modulus
        )
        return PreprocessedMatrix(
            hint=hint, switched_hint=switched, rows=hint.shape[0]
        )

    def _chunk_c_ntts(
        self, prep: PreprocessedMatrix, chunk_idx: int, start: int
    ) -> np.ndarray:
        """Per-prime forward NTTs of chunk ``chunk_idx``'s polynomials.

        Served from ``prep.hint_ntt`` when the precompute table is
        present (bit-identical by construction); otherwise computed on
        the spot.  Shape ``(k, n_inner, n_outer)``.
        """
        if prep.hint_ntt is not None:
            return prep.hint_ntt[chunk_idx]
        n_outer = self.params.outer_n
        n_inner = self.params.inner.n
        ring = self.outer.ring
        block = prep.switched_hint[start : start + n_outer]
        # C has one polynomial per inner-secret index: column i of the
        # hint block becomes the coefficients of C_i.
        c_polys = np.zeros((n_inner, n_outer), dtype=np.uint64)
        c_polys[:, : block.shape[0]] = block.T
        return np.stack(
            [
                ntt.forward(c_polys % np.uint64(p))
                for p, ntt in zip(ring.primes, ring.ntts)
            ]
        )

    def hint_ntt_table(self, prep: PreprocessedMatrix) -> np.ndarray:
        """The full precompute table: every chunk's plaintext-side NTTs.

        Shape ``(n_chunks, k, n_inner, n_outer)``.  Depends only on the
        switched hint -- not on any client key -- so it can be built at
        index time and persisted in the ``precompute.npz`` sidecar.
        """
        n_outer = self.params.outer_n
        starts = list(range(0, prep.rows, n_outer))
        bare = PreprocessedMatrix(
            hint=prep.hint, switched_hint=prep.switched_hint, rows=prep.rows
        )
        return np.stack(
            [
                self._chunk_c_ntts(bare, idx, start)
                for idx, start in enumerate(starts)
            ]
        )

    def with_hint_ntt(self, prep: PreprocessedMatrix) -> PreprocessedMatrix:
        """A copy of ``prep`` carrying the precomputed NTT table."""
        if prep.hint_ntt is not None:
            return prep
        return PreprocessedMatrix(
            hint=prep.hint,
            switched_hint=prep.switched_hint,
            rows=prep.rows,
            hint_ntt=self.hint_ntt_table(prep),
        )

    def evaluate_hint(
        self, enc_key: EncryptedKey, prep: PreprocessedMatrix
    ) -> CompressedHint:
        """``Enc2(H' s)`` for one client: a batch of one."""
        return self.evaluate_hint_batch([enc_key], prep)[0]

    def evaluate_hint_batch(
        self,
        enc_keys: Sequence[EncryptedKey],
        prep: PreprocessedMatrix,
    ) -> list[CompressedHint]:
        """Compute ``Enc2(H' s)`` per client -- decryption outsourced
        to the server, for several clients in one hint pass.

        Runs once per client key per matrix, entirely offline.  Each
        chunk of ``n_outer`` hint rows yields one outer ciphertext per
        client.  The plaintext polynomials ``C_i`` -- and their forward
        NTTs, the dominant per-chunk cost -- depend only on the hint
        block, not on any client, so they are computed once per chunk
        and reused across the batch.  Each client's pointwise products
        run against that client's own encrypted key: per-client outer
        keys never mix.  Each key's ``z_a`` is expanded from its seed
        once, before the chunk loop.
        """
        if not enc_keys:
            return []
        n_outer = self.params.outer_n
        # Each client's b and a halves, expanded from its seed once.
        halves = [
            z for key in enc_keys for z in (key.z_b, self.expand_z_a(key))
        ]
        per_client: list[list[BfvCiphertext]] = [[] for _ in enc_keys]
        for idx, start in enumerate(range(0, prep.rows, n_outer)):
            # Kernel timer: the BFV homomorphic evaluation (one outer
            # ciphertext per chunk and client) is the token path's hot
            # loop.
            with _obs.kernel_timer("bfv.apply"):
                # Shared across the batch: one NTT per RNS prime --
                # precomputed when the sidecar table is loaded.
                c_ntts = self._chunk_c_ntts(prep, idx, start)
                words = _key_products(
                    halves, c_ntts, self.outer.ring.prime_column
                )
                for client, chunks in enumerate(per_client):
                    b, a = words[2 * client : 2 * client + 2]
                    chunks.append(BfvCiphertext(b=b, a=a))
        return [
            CompressedHint(chunks=tuple(chunks), rows=prep.rows)
            for chunks in per_client
        ]

    # -- client-side recovery ---------------------------------------------------

    def decrypt_hint_product(
        self, keys: ClientKeys, compressed: CompressedHint
    ) -> np.ndarray:
        """Recover ``H' s mod T`` (one value per hint row)."""
        pieces = [
            self.outer.decrypt(keys.outer, chunk) for chunk in compressed.chunks
        ]
        flat = np.concatenate(pieces)[: compressed.rows]
        return flat.astype(np.uint64)

    # -- the online query path ----------------------------------------------------

    def encrypt(
        self,
        keys: ClientKeys,
        message: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> Ciphertext:
        """Inner encryption of the query vector (the online upload)."""
        return self.inner.encrypt(keys.inner, message, rng)

    def apply(self, matrix: np.ndarray, ct: Ciphertext) -> np.ndarray:
        """Inner evaluation of one ciphertext: a batch of one."""
        return self.apply_batch(matrix, [ct])[:, 0]

    def batch_plan(
        self, matrix: np.ndarray, *, backend: str | None = None, **plan_kwargs
    ):
        """Message-independent preprocessing for Apply calls.

        ``backend`` / ``plan_kwargs`` select and parameterize a kernel
        backend (see :mod:`repro.lwe.backends`).
        """
        return self.inner.batch_plan(matrix, backend=backend, **plan_kwargs)

    def apply_batch(
        self,
        matrix: np.ndarray | None,
        cts,
        plan=None,
    ) -> np.ndarray:
        """Inner homomorphic evaluation (the online server hot loop):
        Q stacked queries, one GEMM, (rows, Q) evaluated columns."""
        return self.inner.apply_batch(matrix, cts, plan=plan)

    def decrypt(
        self,
        keys: ClientKeys,
        answer: np.ndarray,
        hint_product: np.ndarray,
    ) -> np.ndarray:
        """Recover ``M v mod p`` from the answer and the hint product.

        Mirrors SimplePIR decryption, but over the switched modulus T:
        scale the answer to T, subtract the (token-delivered) hint
        product, and round by the scaled plaintext step T / p.
        """
        t = self.params.switch_modulus
        p = self.params.inner.p
        a_switched = modular.mod_switch(
            np.asarray(answer), self.params.inner.q_bits, t
        )
        noisy = (
            # tiptoe-lint: disable=dtype-signed-cast -- values are reduced mod T < 2^32 so they fit int64 exactly; centering needs signed arithmetic
            a_switched.astype(np.int64)
            - np.asarray(hint_product, dtype=np.uint64).astype(np.int64)
        ) % t
        centered = np.where(noisy >= t // 2, noisy - t, noisy).astype(
            np.float64
        )
        return np.rint(centered * (p / t)).astype(np.int64) % p

    def decrypt_centered(
        self,
        keys: ClientKeys,
        answer: np.ndarray,
        hint_product: np.ndarray,
    ) -> np.ndarray:
        """Like :meth:`decrypt`, mapping into [-p/2, p/2)."""
        m = self.decrypt(keys, answer, hint_product)
        p = self.params.inner.p
        return np.where(m >= p // 2, m - p, m)

    # -- cost accounting -----------------------------------------------------------

    def compressed_hint_bytes(self, rows: int) -> int:
        """Wire size of the evaluated outer ciphertexts for l hint rows."""
        n_chunks = -(-rows // self.params.outer_n)
        return n_chunks * self.outer.params.ciphertext_bytes()

    def key_upload_bytes(self) -> int:
        """Wire size of the one-time encrypted-key upload: the seed plus
        one RNS ring element (``z_b``) per inner-secret component."""
        per_b = self.outer.params.ciphertext_bytes() // 2
        return KEY_SEED_BYTES + self.params.inner.n * per_b
