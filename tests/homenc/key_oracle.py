"""The per-component encrypted-key construction, kept as a test oracle.

``DoubleLheScheme.encrypt_key`` encrypts all ``n_inner`` components of
the inner secret in one stacked pass.  This is the loop it replaced:
one scalar ``BfvScheme.encode`` (Python big-int scaling) and one
forward NTT per component ``s_i``, exactly as ``BfvScheme.
encrypt_encoded`` does for a single ciphertext.  The uniform ``a``
halves come from the key's public seed, so the result is an
``EncryptedKey`` the server evaluates like any other; only the error
draws differ from the stacked path, and both must decrypt exactly.
"""

import numpy as np

from repro.homenc.double import KEY_SEED_BYTES, EncryptedKey


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
