"""Batched SimplePIR answers: exactness and full-protocol recovery."""

import numpy as np
import pytest

from repro.lwe import modular
from repro.lwe.regev import stack_ciphertexts
from repro.pir.simplepir import build_pir
from tests.homenc.key_oracle import adopt_own_a_product


@pytest.fixture(scope="module")
def pir_setup():
    records = [bytes([i] * 16) for i in range(30)]
    server, client = build_pir(records, a_seed=b"P" * 32)
    rng = np.random.default_rng(0)
    clients = []
    for c in range(5):
        keys = client.keygen(np.random.default_rng(100 + c))
        query = client.query(keys, c * 3)
        clients.append((keys, c * 3, query))
    return records, server, client, clients


class TestPirAnswerBatch:
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_bit_identical_to_integer_product(self, pir_setup, batch):
        _, server, _, clients = pir_setup
        queries = [q for _, _, q in clients[:batch]]
        got = server.answer_batch(queries)
        assert len(got) == batch
        want = modular.matmul(
            modular.to_ring(server.db.matrix, 32),
            stack_ciphertexts([q.ciphertext for q in queries]),
            32,
        )
        for i, answer in enumerate(got):
            assert np.array_equal(answer.values, want[:, i])
            assert answer.bytes_per_element == 4

    def test_empty_batch(self, pir_setup):
        _, server, _, _ = pir_setup
        assert server.answer_batch([]) == []

    def test_plan_is_cached_across_calls(self, pir_setup):
        _, server, _, clients = pir_setup
        server.answer_batch([clients[0][2]])
        plan = server._plan
        assert plan is not None
        server.answer_batch([clients[1][2]])
        assert server._plan is plan

    def test_batched_answers_recover_records(self, pir_setup):
        """Full protocol: every batched answer decrypts to its record."""
        records, server, client, clients = pir_setup
        queries = [q for _, _, q in clients]
        answers = server.answer_batch(queries)
        for (keys, index, _), answer in zip(clients, answers):
            enc_key = server.scheme.encrypt_key(
                keys, np.random.default_rng(index)
            )
            hint = server.scheme.evaluate_hint(
                enc_key, server.prep, adopt_own_a_product(server.scheme, server.prep)
            )
            hint_product = server.scheme.decrypt_hint_product(keys, hint)
            assert client.recover(keys, answer, hint_product) == records[index]
