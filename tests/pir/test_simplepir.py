"""Integration tests for the SimplePIR protocol."""

import pytest

from repro.lwe.sampling import seeded_rng
from repro.pir import build_pir
from repro.pir.database import PackedDatabase
from tests.homenc.key_oracle import adopt_own_a_product


@pytest.fixture(scope="module")
def pir():
    records = [f"record-{i}".encode() * (i % 3 + 1) for i in range(40)]
    server, client = build_pir(records, a_seed=b"P" * 32)
    return server, client, records


class TestClassicMode:
    def test_retrieves_every_record(self, pir):
        server, client, records = pir
        rng = seeded_rng(0)
        keys = client.keygen(rng)
        hint = server.hint()
        for index in [0, 7, 39]:
            query = client.query(keys, index, rng)
            answer = server.answer(query)
            assert client.recover_classic(keys, answer, hint) == records[index]

    def test_query_size_is_index_independent(self, pir):
        server, client, _ = pir
        rng = seeded_rng(1)
        keys = client.keygen(rng)
        sizes = {client.query(keys, i, rng).wire_bytes() for i in (0, 5, 39)}
        assert len(sizes) == 1

    def test_answer_size_is_index_independent(self, pir):
        server, client, _ = pir
        rng = seeded_rng(2)
        keys = client.keygen(rng)
        sizes = {
            server.answer(client.query(keys, i, rng)).wire_bytes()
            for i in (0, 39)
        }
        assert len(sizes) == 1


class TestCompressedMode:
    def test_retrieval_via_hint_product(self, pir):
        server, client, records = pir
        rng = seeded_rng(3)
        keys = client.keygen(rng)
        enc_key = server.scheme.encrypt_key(keys, rng)
        compressed = server.scheme.evaluate_hint(
            enc_key, server.prep, adopt_own_a_product(server.scheme, server.prep)
        )
        hint_product = server.scheme.decrypt_hint_product(keys, compressed)
        query = client.query(keys, 13, rng)
        answer = server.answer(query)
        assert client.recover(keys, answer, hint_product) == records[13]

    def test_compressed_hint_smaller_than_raw(self, pir):
        server, _, _ = pir
        compressed = server.scheme.compressed_hint_bytes(server.db.num_rows)
        assert compressed < server.hint_bytes()


class TestValidation:
    def test_modulus_mismatch_rejected(self, pir):
        server, _, _ = pir
        other_db = PackedDatabase.from_records([b"x"] * 40, 16)
        from repro.pir.simplepir import SimplePirServer

        if other_db.p != server.scheme.params.inner.p:
            with pytest.raises(ValueError):
                SimplePirServer(other_db, server.scheme)

    def test_width_mismatch_rejected(self, pir):
        server, _, _ = pir
        small_db = PackedDatabase.from_records(
            [b"x"] * 3, server.scheme.params.inner.p
        )
        from repro.pir.simplepir import SimplePirServer

        with pytest.raises(ValueError):
            SimplePirServer(small_db, server.scheme)
