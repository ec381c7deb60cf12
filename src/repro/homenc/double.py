"""The double-layer ("augmented") LHE scheme of SS6.2 and Appendix A.

The inner Regev scheme makes homomorphic evaluation nearly as fast as
plaintext arithmetic, but decryption needs the hint matrix ``H = M A``
-- gigabytes of corpus-dependent data the client would otherwise have
to download.  Here the client instead uploads an outer encryption of
its inner secret key, and the server computes the hint-secret product
``H s`` *under the outer encryption*:

1. the client sends ``Enc2`` ciphertexts of each inner-secret
   component ``s_i`` (the ``z_i`` of Appendix A.2) -- only their ``b``
   halves: the uniform ``a`` halves are the scheme's public outer
   ``A``, one ring element ``A_i`` per inner-secret index, expanded
   from a hash of the public ``a_seed`` (:attr:`DoubleLheScheme.outer_a`);
2. the server, per chunk of ``n_outer`` hint rows, evaluates
   ``sum_i C_i(x) * z_i`` where ``C_i`` is the plaintext polynomial
   whose r-th coefficient is ``H[r, i]`` -- because each ``z_i``
   encrypts a *constant*, coefficient r of the sum is exactly
   ``sum_i H[r, i] s_i``, row r of ``H s``.  Its ``a`` half,
   ``sum_i C_i * A_i``, is the same for every client: the server
   computes it once per index generation (:class:`AProduct`), and each
   token carries only the ``b`` halves;
3. the client decrypts the few compact outer ciphertexts, pairing each
   token's ``b`` halves with the ``a``-product it fetched once,
   instead of downloading ``H``.

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

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.lwe import modular, sampling
from repro.lwe.params import LweParams
from repro.lwe.regev import Ciphertext, RegevScheme, SecretKey
from repro.obs import runtime as _obs
from repro.rlwe.bfv import (
    RESIDUE_BYTES,
    BfvCiphertext,
    BfvParams,
    BfvScheme,
    BfvSecretKey,
)

#: Default modulus-switch target: the largest prime below 2^32.
DEFAULT_SWITCH_MODULUS = 4294967291

#: Domain separator of the outer ``A``'s seed: a hash of the public
#: ``a_seed`` under this tag, never the seed the inner Regev ``A``
#: expands from.
OUTER_A_DOMAIN = b"repro/outer-a/v1"

#: Bytes of the digest that pairs a token's ``b`` halves with the
#: :class:`AProduct` they were minted against.
A_DIGEST_BYTES = 8


class GenerationMismatchError(ValueError):
    """A hint was minted against another ``a``-product than the one the
    client holds -- another index generation's; pairing the two would
    decrypt into a silently wrong hint product."""


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
        if self.outer_prime_bits > 8 * RESIDUE_BYTES:
            raise ValueError(
                f"outer residues travel as u32: outer_prime_bits"
                f" {self.outer_prime_bits} exceeds {8 * RESIDUE_BYTES}"
            )
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
    """Both layers' secret keys, held only by the client.

    ``mask`` is the inner encryption's query-independent half ``A s +
    e`` (:meth:`RegevScheme.mask`), computed when the keys are made so
    the online encryption is one add.  It is as secret as the keys,
    never leaves the client, and encrypts one query only.
    """

    inner: SecretKey
    outer: BfvSecretKey
    mask: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class EncryptedKey:
    """The outer encryption of the inner secret (the ``z_i`` vectors).

    ``z_b`` is the stacked NTT-domain ``b`` half, shape ``(n_inner, k,
    n_outer)``, so the server's evaluation is a batched pointwise
    product.  The uniform ``a`` half is the scheme's public
    :attr:`DoubleLheScheme.outer_a` and is never sent (SimplePIR's
    public-matrix reuse, applied to the outer layer), which halves the
    ahead-of-time upload of SS6.3.  It is query-independent and
    reusable across services.
    """

    z_b: np.ndarray

    def wire_bytes(self) -> int:
        """``z_b`` words: the encoding minus its fixed header."""
        return self.z_b.size * RESIDUE_BYTES


def _stack_digest(words: np.ndarray, rows: int) -> bytes:
    """:data:`A_DIGEST_BYTES` naming a residue stack and its row count."""
    h = hashlib.blake2b(digest_size=A_DIGEST_BYTES)
    h.update(struct.pack("<I", rows))
    h.update(np.ascontiguousarray(words, dtype="<u4").tobytes())
    return h.digest()


@dataclass(frozen=True)
class AProduct:
    """The ``a`` halves of every token's hint ciphertexts.

    Chunk j is ``sum_i C_i * A_i`` over chunk j's plaintext
    polynomials: shape ``(n_chunks, k, n_outer)``, NTT domain.  It
    depends on the public ``A`` and the switched hint only, so the
    server computes it once per index generation and every client
    fetches it once.  ``digest`` names it; each minted hint carries the
    digest of the product it pairs with.
    """

    words: np.ndarray
    rows: int

    @cached_property
    def digest(self) -> bytes:
        return _stack_digest(self.words, self.rows)

    def wire_bytes(self) -> int:
        return self.words.size * RESIDUE_BYTES


@dataclass(frozen=True)
class CompressedHint:
    """The ``b`` halves of the outer ciphertexts encrypting ``H s``.

    ``b`` has one ``(k, n_outer)`` NTT-domain element per n_outer hint
    rows, shape ``(n_chunks, k, n_outer)``; the matching ``a`` halves
    are the :class:`AProduct` whose digest is ``a_digest``.
    """

    b: np.ndarray
    rows: int
    a_digest: bytes

    def wire_bytes(self) -> int:
        return self.b.size * RESIDUE_BYTES


#: Hint NTT words enter the key products as two limbs of this many
#: bits, so every sum over the inner dimension fits uint64 unreduced.
LIMB_BITS = 15

#: Inner-dimension rows per pass: one block of the hint-NTT limbs and
#: each key's matching rows stay cache-resident while they are
#: multiplied (measured: 32-64 rows beat whole-chunk blocks by ~2x).
LIMB_BLOCK = 32


def _split_limbs(c_ntts: np.ndarray) -> np.ndarray:
    """Hint NTTs ``(..., k, n_inner, n)`` as their low and high
    :data:`LIMB_BITS`-bit limbs, ``(..., 2, k, n_inner, n)``: one pass."""
    lead = c_ntts.shape[:-3]
    limbs = np.empty(lead + (2,) + c_ntts.shape[-3:], dtype=np.uint64)
    np.bitwise_and(
        c_ntts, np.uint64((1 << LIMB_BITS) - 1), out=limbs[..., 0, :, :, :]
    )
    np.right_shift(c_ntts, np.uint64(LIMB_BITS), out=limbs[..., 1, :, :, :])
    return limbs


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

    @cached_property
    def hint_limbs(self) -> np.ndarray | None:
        """``hint_ntt`` split into the limbs the key products multiply
        (:func:`_split_limbs`), shape ``(n_chunks, 2, k, n_inner,
        n_outer)``: split on first use, once per generation, and kept
        read-only.  ``None`` without the table."""
        if self.hint_ntt is None:
            return None
        limbs = _split_limbs(self.hint_ntt)
        limbs.flags.writeable = False
        return limbs


def _key_products(
    keys: Sequence[np.ndarray], limbs: np.ndarray, primes: np.ndarray
) -> np.ndarray:
    """``sum_i z[i] * C[:, i] mod p`` for each ``z`` of ``keys``.

    Every ``z`` is ``(n_inner, k, n)`` with residues < p
    (``check_key``), uint64 or the u32 words a key arrives as;
    ``limbs`` is a chunk's ``(k, n_inner, n)`` hint NTTs ``C`` split
    into two :data:`LIMB_BITS`-bit limbs (:func:`_split_limbs`).  The
    result is ``(len(keys), k, n)``, all primes at once.  Each block of
    a key's rows is widened to uint64 only where it is multiplied, so
    a u32 key is never widened whole.  A residue times a limb, summed
    over the n_inner rows, stays below 2^64 (checked when the scheme
    is built), so each limb sum needs one reduction at the end.
    """
    _, k, n_inner, n = limbs.shape
    sums = np.zeros((len(keys), 2, k, n), dtype=np.uint64)
    for start in range(0, n_inner, LIMB_BLOCK):
        block_limbs = limbs[:, :, start : start + LIMB_BLOCK]
        for acc, z in zip(sums, keys):
            block = z[start : start + LIMB_BLOCK].astype(np.uint64, copy=False)
            for half, limb in zip(acc, block_limbs):
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
        #: The server's ``a``-product a client adopted for this scheme's
        #: service (:meth:`adopt_a_product`); ``None`` until then.
        self.held_a_product: AProduct | None = None
        p_max = max(self.outer.params.primes)
        limb_max = max((1 << LIMB_BITS) - 1, (p_max - 1) >> LIMB_BITS)
        if params.inner.n * (p_max - 1) * limb_max >= 1 << 64:
            raise ValueError(
                f"inner dimension {params.inner.n} overflows the uint64"
                " hint evaluation"
            )

    # -- client key management -----------------------------------------------

    def gen_keys(self, rng: np.random.Generator | None = None) -> ClientKeys:
        """Fresh keys of both layers and the inner mask ``A s + e``.

        The mask noise comes from a child of ``rng``
        (:func:`~repro.lwe.sampling.child_rng`), so the keys are the
        same draws they would be without it.
        """
        rng = sampling.resolve_rng(rng)
        inner = self.inner.gen_secret(rng)
        outer = self.outer.gen_secret(rng)
        mask = self.inner.mask(inner, sampling.child_rng(rng))
        return ClientKeys(inner=inner, outer=outer, mask=mask)

    @cached_property
    def outer_a(self) -> np.ndarray:
        """The public outer ``A``: one uniform NTT-domain ring element
        ``A_i`` per inner-secret index, shape ``(n_inner, k, n_outer)``.

        Expanded once, from a hash of the public ``a_seed`` under
        :data:`OUTER_A_DOMAIN`, so the server picks a seed and never
        ``A`` itself -- the trust the inner Regev ``A`` already gets.
        Read-only: every key and ``a``-product of this scheme uses it.
        """
        seed = hashlib.sha256(OUTER_A_DOMAIN + self.inner.a_seed).digest()
        a = self.outer.ring.expand_uniform(seed, self.params.inner.n)
        a.flags.writeable = False
        return a

    def encrypt_key(
        self, keys: ClientKeys, rng: np.random.Generator | None = None
    ) -> EncryptedKey:
        """Encrypt every inner-secret component under the outer scheme.

        One stacked encryption of all ``n_inner`` constants, component
        i under ``A_i`` of :attr:`outer_a`; the outer secret of
        ``keys`` is fresh per token, so keys never share a secret.
        """
        z_b = self.outer.encrypt_constants(
            keys.outer, keys.inner.signed(), self.outer_a, rng
        )
        return EncryptedKey(z_b=z_b)

    def _check_residues(
        self,
        words: np.ndarray,
        want: tuple,
        what: str,
        dtypes: tuple = (np.dtype(np.uint64),),
    ) -> None:
        """Reject a residue stack of the wrong shape or dtype, or with a
        residue >= its RNS prime; its shape is ``(m, k, n)``, so one
        maximum per prime decides."""
        if words.shape != want or words.dtype not in dtypes:
            expected = " or ".join(dtype.name for dtype in dtypes)
            raise ValueError(
                f"{what} is {words.dtype} {words.shape}, expected"
                f" {expected} {want}"
            )
        top = words.max(axis=(0, 2), initial=0)
        if not (top < self.outer.ring.prime_column[:, 0]).all():
            raise ValueError(
                f"{what} has residues outside [0, p) for its RNS prime"
            )

    def _hint_shape(self, declared: int, rows: int, what: str) -> tuple:
        """The ``(n_chunks, k, n)`` shape of a ``rows``-row hint stack;
        a stack declaring other than ``rows`` rows is refused."""
        if declared != rows:
            raise ValueError(
                f"{what} declares {declared} rows, expected {rows}"
            )
        ring = self.outer.ring
        return (-(-rows // ring.n), ring.k, ring.n)

    def check_key(self, enc_key: EncryptedKey) -> None:
        """Reject an encrypted key this scheme cannot evaluate.

        Keys arrive from clients: a wrong shape would broadcast into a
        silently wrong token, and residues >= p would break the
        accumulation bound of :func:`_key_products`.  ``z_b`` may be
        the read-only u32 view a decoded upload is
        (:func:`repro.net.wire.decode_encrypted_key`); it is checked as
        it is, never widened.
        """
        ring = self.outer.ring
        self._check_residues(
            enc_key.z_b,
            (self.params.inner.n, ring.k, ring.n),
            "encrypted key z_b",
            dtypes=(np.dtype(np.uint32), np.dtype(np.uint64)),
        )

    def check_hint(self, compressed: CompressedHint, rows: int) -> None:
        """Reject a compressed hint this scheme cannot decrypt.

        Hints arrive from the server: a wrong row count or chunk shape
        would decrypt into misplaced rows, and residues >= p would
        overflow the uint64 ``a*s`` of decryption into a silently wrong
        hint product.  ``rows`` is the service's hint height.  Which
        ``a``-product the hint pairs with is checked on decryption.
        """
        want = self._hint_shape(compressed.rows, rows, "compressed hint")
        self._check_residues(compressed.b, want, "compressed hint b")

    def check_a_product(self, a_product: AProduct, rows: int) -> None:
        """Reject an ``a``-product this scheme cannot pair with hints:
        the same shape and residue checks as :meth:`check_hint`."""
        want = self._hint_shape(a_product.rows, rows, "a-product")
        self._check_residues(a_product.words, want, "a-product")

    def adopt_a_product(self, a_product: AProduct, rows: int) -> None:
        """Check the server's ``a``-product and keep it for decryption.

        A client does this once per index generation; ``rows`` is the
        service's hint height.  The digest of what it holds is computed
        here, from the words, never taken from the server.
        """
        self.check_a_product(a_product, rows)
        _ = a_product.digest
        self.held_a_product = a_product

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

    def _key_product_stack(
        self, zs: Sequence[np.ndarray], prep: PreprocessedMatrix
    ) -> np.ndarray:
        """``sum_i C_i * z[i]`` for each ``z`` of ``zs``, every chunk:
        shape ``(len(zs), n_chunks, k, n_outer)``.

        The plaintext polynomials ``C_i`` -- and their forward NTTs, the
        dominant per-chunk cost -- depend only on the hint block, so
        they are computed and split into limbs once per chunk for all
        of ``zs``; with the sidecar table the limbs are
        ``prep.hint_limbs``, split once per generation.
        """
        ring = self.outer.ring
        starts = range(0, prep.rows, self.params.outer_n)
        table = prep.hint_limbs
        out = np.empty((len(zs), len(starts), ring.k, ring.n), np.uint64)
        for idx, start in enumerate(starts):
            # Kernel timer: the BFV homomorphic evaluation (one outer
            # ciphertext half per chunk and key) is the token path's
            # hot loop.
            with _obs.kernel_timer("bfv.apply"):
                if table is None:
                    limbs = _split_limbs(self._chunk_c_ntts(prep, idx, start))
                else:
                    limbs = table[idx]
                out[:, idx] = _key_products(zs, limbs, ring.prime_column)
        return out

    def a_product(
        self, prep: PreprocessedMatrix, outer_a: np.ndarray | None = None
    ) -> AProduct:
        """The ``a`` halves of every hint minted over ``prep``.

        One key-product pass over the public ``A`` -- this scheme's
        :attr:`outer_a` unless ``outer_a`` is given: a key shared by
        several services (:func:`repro.homenc.token.make_client_keys`)
        is encrypted under one of their ``A``s, and the token factory
        passes that one.
        """
        a = self.outer_a if outer_a is None else outer_a
        words = self._key_product_stack([a], prep)[0]
        return AProduct(words=words, rows=prep.rows)

    def evaluate_hint(
        self,
        enc_key: EncryptedKey,
        prep: PreprocessedMatrix,
        a_product: AProduct,
    ) -> CompressedHint:
        """``Enc2(H' s)`` for one client: a batch of one."""
        return self.evaluate_hint_batch([enc_key], prep, a_product)[0]

    def evaluate_hint_batch(
        self,
        enc_keys: Sequence[EncryptedKey],
        prep: PreprocessedMatrix,
        a_product: AProduct,
    ) -> list[CompressedHint]:
        """Compute the ``b`` halves of ``Enc2(H' s)`` per client --
        decryption outsourced to the server, for several clients in one
        hint pass.

        Runs once per client key per matrix, entirely offline: one
        key-product pass per client, over its ``z_b``.  The ``a``
        halves are the same for every client; ``a_product`` is them
        (:meth:`a_product`, computed once per generation), and each
        hint carries its digest.  Per-client outer keys never mix.
        """
        if a_product.rows != prep.rows:
            raise ValueError(
                f"a-product covers {a_product.rows} rows, the hint"
                f" {prep.rows}"
            )
        if not enc_keys:
            return []
        stacks = self._key_product_stack([key.z_b for key in enc_keys], prep)
        return [
            CompressedHint(b=b, rows=prep.rows, a_digest=a_product.digest)
            for b in stacks
        ]

    # -- client-side recovery ---------------------------------------------------

    def check_generation(self, compressed: CompressedHint) -> None:
        """Raise :class:`GenerationMismatchError` unless the hint was
        minted against the held ``a``-product (:meth:`adopt_a_product`).

        Only the digests are compared, so this is safe before
        :meth:`check_hint` and tells a stale generation apart from a
        malformed hint even when the new hint's height differs too.
        """
        held = self.held_a_product
        if held is None:
            raise ValueError(
                "no a-product held: adopt the token service's before"
                " decrypting a hint"
            )
        if compressed.a_digest != held.digest:
            raise GenerationMismatchError(
                f"hint was minted against a-product"
                f" {compressed.a_digest.hex()}, this client holds"
                f" {held.digest.hex()}: another index generation's"
            )

    def decrypt_hint_product(
        self, keys: ClientKeys, compressed: CompressedHint
    ) -> np.ndarray:
        """Recover ``H' s mod T`` (one value per hint row).

        Pairs the hint's ``b`` halves with the held ``a``-product
        (:meth:`adopt_a_product`); a hint minted against another one
        raises :class:`GenerationMismatchError`.
        """
        self.check_generation(compressed)
        pieces = [
            self.outer.decrypt(keys.outer, BfvCiphertext(b=b, a=a))
            for b, a in zip(compressed.b, self.held_a_product.words)
        ]
        flat = np.concatenate(pieces)[: compressed.rows]
        return flat.astype(np.uint64)

    # -- the online query path ----------------------------------------------------

    def encrypt(self, keys: ClientKeys, message: np.ndarray) -> Ciphertext:
        """Inner encryption of the query vector (the online upload):
        the keys' precomputed mask plus the encoded message."""
        return self.inner.encrypt_with_mask(keys.mask, message)

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
        """Wire size of one token's hint for l hint rows: one RNS ring
        element (a ``b`` half) per chunk."""
        n_chunks = -(-rows // self.params.outer_n)
        return n_chunks * self.outer.params.ciphertext_bytes() // 2

    def key_upload_bytes(self) -> int:
        """Wire size of the per-token encrypted-key upload: one RNS ring
        element (``z_b``) per inner-secret component."""
        per_b = self.outer.params.ciphertext_bytes() // 2
        return self.params.inner.n * per_b
