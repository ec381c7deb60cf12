"""Batched double-layer evaluation: exactness and key isolation.

Two contracts, each checked against a reference that shares no code
with the batch body (``apply`` / ``evaluate_hint`` are that body on a
batch of one, so they cannot serve as one):

* ``apply_batch`` (inner layer, delegated through the double scheme)
  equals the plain integer ``modular.matmul`` product;
* ``evaluate_hint_batch`` shares only the client-independent work (the
  plaintext hint polynomials and their NTTs) -- every client's
  pointwise products run against that client's own encrypted key, so
  each returned hint decrypts, under that client's keys alone, to the
  plaintext product ``H' s mod T``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.homenc import DoubleLheParams, DoubleLheScheme
from repro.lwe import LweParams, modular
from repro.lwe.regev import stack_ciphertexts
from repro.lwe.sampling import seeded_rng
from tests.homenc.key_oracle import adopt_own_a_product


@pytest.fixture(scope="module")
def double_setup():
    inner = LweParams(n=24, q_bits=32, p=512, sigma=3.2, m=20)
    scheme = DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=32, outer_num_primes=3),
        a_seed=b"D" * 32,
    )
    rng = seeded_rng(1)
    matrix = rng.integers(-4, 5, size=(70, 20))
    prep = scheme.preprocess(matrix)
    clients = []
    for c in range(3):
        keys = scheme.gen_keys(rng)
        enc_key = scheme.encrypt_key(keys, rng)
        msgs = [rng.integers(-4, 5, 20) for _ in range(2)]
        cts = [scheme.encrypt(keys, msg, rng) for msg in msgs]
        clients.append((keys, enc_key, cts, msgs))
    return scheme, matrix, prep, clients


def hint_product_in_the_clear(scheme, prep, keys):
    """``H' s mod T`` from the switched hint and the bare secret."""
    t = scheme.params.switch_modulus
    return (
        prep.switched_hint.astype(object) @ keys.inner.signed().astype(object)
    ) % t


class TestDoubleApplyBatch:
    @pytest.mark.parametrize("batch", [1, 2, 5, 6])
    def test_bit_identical_to_integer_product(self, double_setup, batch):
        scheme, matrix, _, clients = double_setup
        cts = [ct for _, _, ccts, _ in clients for ct in ccts][:batch]
        got = scheme.apply_batch(matrix, cts)
        want = modular.matmul(
            modular.to_ring(matrix, 32), stack_ciphertexts(cts), 32
        )
        assert np.array_equal(got, want)

    def test_plan_reuse_matches(self, double_setup):
        scheme, matrix, _, clients = double_setup
        cts = [ct for _, _, ccts, _ in clients for ct in ccts]
        plan = scheme.batch_plan(matrix)
        assert np.array_equal(
            scheme.apply_batch(None, cts, plan=plan),
            scheme.apply_batch(matrix, cts),
        )


class TestEvaluateHintBatch:
    @pytest.mark.parametrize("num_clients", [1, 3])
    def test_each_hint_decrypts_under_its_own_key(
        self, double_setup, num_clients
    ):
        scheme, _, prep, clients = double_setup
        clients = clients[:num_clients]
        batched = scheme.evaluate_hint_batch(
            [enc_key for _, enc_key, _, _ in clients],
            prep,
            adopt_own_a_product(scheme, prep),
        )
        assert len(batched) == num_clients
        for (keys, _, _, _), hint in zip(clients, batched):
            assert hint.rows == prep.rows
            got = scheme.decrypt_hint_product(keys, hint)
            want = hint_product_in_the_clear(scheme, prep, keys)
            assert np.array_equal(got.astype(object), want)

    def test_empty_batch(self, double_setup):
        scheme, _, prep, _ = double_setup
        assert scheme.evaluate_hint_batch(
            [], prep, adopt_own_a_product(scheme, prep)
        ) == []

    def test_batched_hints_decrypt_correct_scores(self, double_setup):
        """End to end: token minted via the batch path still decrypts."""
        scheme, matrix, prep, clients = double_setup
        enc_keys = [enc_key for _, enc_key, _, _ in clients]
        batched = scheme.evaluate_hint_batch(
            enc_keys, prep, adopt_own_a_product(scheme, prep)
        )
        for (keys, _, cts, msgs), hint in zip(clients, batched):
            hint_product = scheme.decrypt_hint_product(keys, hint)
            got = scheme.decrypt_centered(
                keys, scheme.apply_batch(matrix, cts[:1])[:, 0], hint_product
            )
            assert np.array_equal(got, matrix @ msgs[0])


@st.composite
def batch_pipeline_cases(draw):
    q_bits = draw(st.sampled_from([32, 64]))
    m = draw(st.integers(4, 16))
    rows = draw(st.integers(1, 30))
    batch = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return q_bits, m, rows, batch, seed


@given(batch_pipeline_cases())
@settings(max_examples=10, deadline=None)
def test_batched_pipeline_total_correctness(case):
    """Random shapes: decrypting a batched Apply column recovers M v."""
    q_bits, m, rows, batch, seed = case
    inner = LweParams(n=24, q_bits=q_bits, p=256, sigma=3.2, m=m)
    scheme = DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=32, outer_num_primes=3),
        a_seed=seed.to_bytes(4, "little") * 8,
    )
    rng = seeded_rng(seed)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    matrix = rng.integers(-4, 5, size=(rows, m))
    prep = scheme.preprocess(matrix)
    (hint,) = scheme.evaluate_hint_batch(
        [enc_key], prep, adopt_own_a_product(scheme, prep)
    )
    hint_product = scheme.decrypt_hint_product(keys, hint)
    msgs = [rng.integers(-4, 5, m) for _ in range(batch)]
    cts = [scheme.encrypt(keys, msg, rng) for msg in msgs]
    answers = scheme.apply_batch(matrix, cts)
    for i, msg in enumerate(msgs):
        got = scheme.decrypt_centered(keys, answers[:, i], hint_product)
        want = matrix.astype(np.int64) @ msg.astype(np.int64)
        assert np.array_equal(got, want)
