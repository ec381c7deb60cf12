"""The per-component encrypted-key construction and the per-prime hint
evaluation, kept as test oracles.

``DoubleLheScheme.encrypt_key`` encrypts all ``n_inner`` components of
the inner secret in one stacked pass.  This is the loop it replaced:
one scalar ``BfvScheme.encode`` (Python big-int scaling) and one
forward NTT per component ``s_i``, exactly as ``BfvScheme.
encrypt_encoded`` does for a single ciphertext.  The uniform ``a``
halves come from the key's public seed, so the result is an
``EncryptedKey`` the server evaluates like any other; only the error
draws differ from the stacked path, and both must decrypt exactly.

``DoubleLheScheme.evaluate_hint_batch`` sums the key products over the
inner dimension on 15-bit limbs of the hint NTTs, all primes at once.
``evaluate_hint_per_prime`` is the loop it replaced: per prime and per
half, blocks of eight full-width products reduced mod p after each
block.  Both must return bit-identical ciphertexts.
"""

import numpy as np

from repro.homenc.double import KEY_SEED_BYTES, CompressedHint, EncryptedKey
from repro.rlwe.bfv import BfvCiphertext


def encrypt_key_per_component(scheme, keys, rng) -> EncryptedKey:
    outer = scheme.outer
    ring = outer.ring
    a_seed = rng.bytes(KEY_SEED_BYTES)
    z_a = ring.expand_uniform(a_seed, scheme.params.inner.n)
    z_b = []
    for s_i, a_ntt in zip(keys.inner.signed(), z_a):
        e = ring.sample_gaussian(rng, outer.params.sigma)
        encoded = outer.encode(np.array([int(s_i)]))
        payload = ring.to_ntt(ring.add(e, encoded))
        z_b.append(ring.add(ring.mul_pointwise(a_ntt, keys.outer.s_ntt), payload))
    return EncryptedKey(z_b=np.stack(z_b), a_seed=a_seed)


def _mulsum_mod(lhs, rhs, modulus: int, block: int = 8) -> np.ndarray:
    """``sum_i lhs[i] * rhs[i] mod modulus``: residues are < 2^30, so
    ``block`` products of < 2^60 sum below 2^64 between reductions."""
    p = np.uint64(modulus)
    acc = np.zeros(lhs.shape[1:], dtype=np.uint64)
    for start in range(0, lhs.shape[0], block):
        part = lhs[start : start + block] * rhs[start : start + block]
        acc = (acc + part.sum(axis=0, dtype=np.uint64)) % p
    return acc


def evaluate_hint_per_prime(scheme, enc_key, prep) -> CompressedHint:
    ring = scheme.outer.ring
    z_a = scheme.expand_z_a(enc_key)
    chunks = []
    for idx, start in enumerate(range(0, prep.rows, ring.n)):
        c_ntts = scheme._chunk_c_ntts(prep, idx, start)
        b = [
            _mulsum_mod(enc_key.z_b[:, ch, :], c_ntts[ch], p)
            for ch, p in enumerate(ring.primes)
        ]
        a = [
            _mulsum_mod(z_a[:, ch, :], c_ntts[ch], p)
            for ch, p in enumerate(ring.primes)
        ]
        chunks.append(BfvCiphertext(b=np.stack(b), a=np.stack(a)))
    return CompressedHint(chunks=tuple(chunks), rows=prep.rows)
