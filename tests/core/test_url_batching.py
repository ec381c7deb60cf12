"""Tests for the URL service's one answer body and its kernel plan."""

import numpy as np
import pytest

from repro.core.services import build_services
from repro.lwe import modular
from repro.lwe.regev import stack_ciphertexts
from repro.net import wire
from repro.net.rpc import frame, unframe
from repro.pir.simplepir import PirQuery


class TestUrlAnswerBatch:
    @pytest.fixture(scope="class")
    def queries(self, engine):
        index = engine.index
        rng = np.random.default_rng(0)
        keys = index.url_scheme.gen_keys(rng)
        queries = []
        for i in range(4):
            sel = index.url_db.selection_vector(i % index.url_db.num_records)
            queries.append(
                PirQuery(ciphertext=index.url_scheme.encrypt(keys, sel))
            )
        return queries

    @pytest.mark.parametrize("batch", [1, 4])
    def test_matches_the_integer_product(self, engine, queries, batch):
        index = engine.index
        q_bits = index.url_scheme.params.inner.q_bits
        want = modular.matmul(
            modular.to_ring(index.url_db.matrix, q_bits),
            stack_ciphertexts([q.ciphertext for q in queries[:batch]]),
            q_bits,
        )
        got = engine.url_service.answer_batch(queries[:batch])
        assert len(got) == batch
        for i, answer in enumerate(got):
            assert np.array_equal(answer.values, want[:, i])
        if batch == 1:
            assert np.array_equal(
                engine.url_service.answer(queries[0]).values, want[:, 0]
            )

    def test_empty_batch(self, engine):
        assert engine.url_service.answer_batch([]) == []

    def test_ledger_scales_with_batch(self, engine, queries):
        service = engine.url_service
        before = service.ledger.total_ops("url")
        service.answer_batch(queries)
        added = service.ledger.total_ops("url") - before
        per_query = engine.index.url_scheme.inner.apply_word_ops(
            engine.index.url_db.num_rows
        )
        assert added == per_query * len(queries)

    def test_wire_answer_runs_on_the_cached_kernel_plan(
        self, engine, queries, monkeypatch
    ):
        """Regression: the wire only registers ``answer``, whose old
        scalar body bypassed the kernel plan -- the configured backend
        never ran, ``kernel_effective`` stayed None, and every query
        re-converted the whole int64 database into the ring."""
        index = engine.index
        service = build_services(index)["url"]
        converted = []
        real_to_ring = modular.to_ring

        def spying_to_ring(values, q_bits):
            if np.shape(values) == index.url_db.matrix.shape:
                converted.append(np.asarray(values).dtype)
            return real_to_ring(values, q_bits)

        monkeypatch.setattr(modular, "to_ring", spying_to_ring)
        try:
            assert service.health()["kernel_effective"] is None
            request = frame(
                "answer", wire.encode_ciphertext(queries[0].ciphertext)
            )
            first = service.endpoint.dispatch(request)
            assert service.health()["kernel_effective"] == "reference"
            for _ in range(3):
                assert service.endpoint.dispatch(request) == first
        finally:
            service.close()
        values, _ = wire.decode_answer(unframe(first)[1])
        assert np.array_equal(
            values, engine.url_service.answer(queries[0]).values
        )
        # One database-sized conversion per service lifetime (when the
        # plan is built), not one per query.
        assert len([d for d in converted if d == np.int64]) == 1
