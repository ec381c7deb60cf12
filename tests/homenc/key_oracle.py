"""The fresh-seed encrypted key and the per-prime hint evaluation, kept
as test oracles.

``DoubleLheScheme.encrypt_key`` encrypts all ``n_inner`` components of
the inner secret in one stacked pass under the scheme's public outer
``A``, and the server returns only ``b`` halves, paired on the client
with the per-generation ``a``-product.  This is the path it replaced:
every key draws its own 32-byte public seed, expands its own uniform
``a`` halves ``z_a`` from it, and encrypts component by component --
one scalar ``BfvScheme.encode`` (Python big-int scaling) and one
forward NTT per ``s_i``, exactly as ``BfvScheme.encrypt_encoded`` does
for a single ciphertext.  The server evaluates both halves of every
key, per prime, and the client decrypts full ``(b, a)`` ciphertexts.
Both paths must decrypt to the same ``H' s mod T``.

``DoubleLheScheme`` sums key products over the inner dimension on
15-bit limbs of the hint NTTs, all primes at once.
``key_products_per_prime`` is the loop it replaced: per prime, blocks
of eight full-width products reduced mod p after each block.  Both
must return bit-identical words, for a key's ``z_b`` and for ``A``.
"""

import numpy as np

from repro.rlwe.bfv import BfvCiphertext


def adopt_own_a_product(scheme, prep):
    """The server's ``a``-product for ``prep`` under the scheme's own
    ``A``, adopted client-side as a fetched one would be."""
    a_product = scheme.a_product(prep)
    scheme.adopt_a_product(a_product, prep.rows)
    return a_product


def encrypt_key_fresh_seed(scheme, keys, rng) -> tuple[np.ndarray, np.ndarray]:
    """``(z_b, z_a)`` with ``z_a`` expanded from a fresh per-key seed."""
    outer = scheme.outer
    ring = outer.ring
    z_a = ring.expand_uniform(rng.bytes(32), scheme.params.inner.n)
    z_b = []
    for s_i, a_ntt in zip(keys.inner.signed(), z_a):
        e = ring.sample_gaussian(rng, outer.params.sigma)
        encoded = outer.encode(np.array([int(s_i)]))
        payload = ring.to_ntt(ring.add(e, encoded))
        z_b.append(ring.add(ring.mul_pointwise(a_ntt, keys.outer.s_ntt), payload))
    return np.stack(z_b), z_a


def _mulsum_mod(lhs, rhs, modulus: int, block: int = 8) -> np.ndarray:
    """``sum_i lhs[i] * rhs[i] mod modulus``: residues are < 2^30, so
    ``block`` products of < 2^60 sum below 2^64 between reductions."""
    p = np.uint64(modulus)
    acc = np.zeros(lhs.shape[1:], dtype=np.uint64)
    for start in range(0, lhs.shape[0], block):
        part = lhs[start : start + block] * rhs[start : start + block]
        acc = (acc + part.sum(axis=0, dtype=np.uint64)) % p
    return acc


def key_products_per_prime(scheme, z, prep) -> np.ndarray:
    """``sum_i C_i * z[i]`` per chunk, shape ``(n_chunks, k, n)``."""
    ring = scheme.outer.ring
    chunks = []
    for idx, start in enumerate(range(0, prep.rows, ring.n)):
        c_ntts = scheme._chunk_c_ntts(prep, idx, start)
        chunks.append(
            np.stack(
                [
                    _mulsum_mod(z[:, ch, :], c_ntts[ch], p)
                    for ch, p in enumerate(ring.primes)
                ]
            )
        )
    return np.stack(chunks)


def hint_product_fresh_seed(scheme, keys, z_b, z_a, prep) -> np.ndarray:
    """``H' s mod T`` through the fresh-seed path: both halves
    evaluated per prime, full ciphertexts decrypted chunk by chunk."""
    b = key_products_per_prime(scheme, z_b, prep)
    a = key_products_per_prime(scheme, z_a, prep)
    pieces = [
        scheme.outer.decrypt(keys.outer, BfvCiphertext(b=b_j, a=a_j))
        for b_j, a_j in zip(b, a)
    ]
    return np.concatenate(pieces)[: prep.rows].astype(np.uint64)
