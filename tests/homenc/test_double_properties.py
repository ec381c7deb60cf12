"""Property-based tests: the double-layer pipeline over random shapes.

One strategy instance = one full Enc -> Preproc -> Apply -> compress
-> decrypt pipeline with randomized dimensions, moduli, messages, and
matrices.  The invariant is total: the recovered plaintext equals the
plaintext matrix-vector product, for every parameter combination the
scheme accepts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.homenc import DoubleLheParams, DoubleLheScheme
from repro.lwe import LweParams
from repro.lwe.sampling import seeded_rng
from tests.homenc.key_oracle import adopt_own_a_product


@st.composite
def pipeline_cases(draw):
    q_bits = draw(st.sampled_from([32, 64]))
    p_bits = draw(st.integers(6, 10 if q_bits == 32 else 14))
    m = draw(st.integers(4, 24))
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    return q_bits, 1 << p_bits, m, rows, seed


@given(pipeline_cases())
@settings(max_examples=15, deadline=None)
def test_pipeline_total_correctness(case):
    q_bits, p, m, rows, seed = case
    inner = LweParams(n=24, q_bits=q_bits, p=p, sigma=3.2, m=m)
    scheme = DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=32, outer_num_primes=3),
        a_seed=seed.to_bytes(4, "little") * 8,
    )
    rng = seeded_rng(seed)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    bound = 4
    matrix = rng.integers(-bound, bound + 1, size=(rows, m))
    msg = rng.integers(-bound, bound + 1, m)
    prep = scheme.preprocess(matrix)
    hint_product = scheme.decrypt_hint_product(
        keys, scheme.evaluate_hint(
            enc_key, prep, adopt_own_a_product(scheme, prep)
        )
    )
    ct = scheme.encrypt(keys, msg, rng)
    got = scheme.decrypt_centered(keys, scheme.apply(matrix, ct), hint_product)
    want = matrix @ msg
    # The product must stay inside the centered plaintext range.
    if np.abs(want).max() < p // 2:
        assert np.array_equal(got, want)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_one_key_many_matrices(seed, num_matrices):
    """One encrypted key serves any number of preprocessed matrices."""
    inner = LweParams(n=16, q_bits=64, p=2**10, sigma=3.2, m=8)
    scheme = DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=32), a_seed=b"H" * 32
    )
    rng = seeded_rng(seed)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    msg = rng.integers(-3, 4, 8)
    ct = scheme.encrypt(keys, msg, rng)
    for _ in range(num_matrices):
        matrix = rng.integers(-3, 4, size=(6, 8))
        prep = scheme.preprocess(matrix)
        hint_product = scheme.decrypt_hint_product(
            keys, scheme.evaluate_hint(
                enc_key, prep, adopt_own_a_product(scheme, prep)
            )
        )
        got = scheme.decrypt_centered(
            keys, scheme.apply(matrix, ct), hint_product
        )
        assert np.array_equal(got, matrix @ msg)
