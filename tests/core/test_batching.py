"""Tests for server-side query batching."""

import time

import numpy as np
import pytest

from repro.core.cluster_runtime import ShardedRankingService
from repro.core.ranking import RankingClient
from repro.embeddings.quantize import quantize
from repro.lwe import modular
from repro.lwe.regev import stack_ciphertexts


@pytest.fixture(scope="module")
def batch_setup(engine):
    index = engine.index
    service = ShardedRankingService.build(
        index.ranking_scheme, index.layout.matrix, index.layout.dim
    )
    client = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    rng = np.random.default_rng(0)
    keys = index.ranking_scheme.gen_keys(rng)
    queries = [
        client.build_query(
            keys,
            quantize(index.embeddings[i] * index.quantization_gain, index.config.quantization()),
            i % index.layout.num_clusters,
            rng,
        )
        for i in range(6)
    ]
    return service, queries


class TestBatchedAnswers:
    @pytest.mark.parametrize("batch", [1, 6])
    def test_matches_the_integer_product(self, engine, batch_setup, batch):
        """The plan's product against one plain integer product over
        the whole matrix."""
        service, queries = batch_setup
        index = engine.index
        q_bits = index.ranking_scheme.params.inner.q_bits
        want = modular.matmul(
            modular.to_ring(index.layout.matrix, q_bits),
            stack_ciphertexts([q.ciphertext for q in queries[:batch]]),
            q_bits,
        )
        batched = service.answer_batch(queries[:batch])
        assert len(batched) == batch
        for i, answer in enumerate(batched):
            assert np.array_equal(answer.values, want[:, i])
        if batch == 1:
            assert np.array_equal(
                service.answer(queries[0]).values, want[:, 0]
            )

    def test_empty_batch(self, batch_setup):
        service, _ = batch_setup
        assert service.answer_batch([]) == []

    def test_ledger_counts_per_query_work(self, batch_setup):
        service, queries = batch_setup
        before = service.ledger.total_ops()
        service.answer_batch(queries)
        added = service.ledger.total_ops() - before
        assert added == 2 * service.matrix_slice.size * len(queries)

    def test_batching_is_not_slower_per_query(self, batch_setup):
        service, queries = batch_setup
        t0 = time.perf_counter()
        for _ in range(3):
            for q in queries:
                service.answer(q)
        individual_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(3):
            service.answer_batch(queries)
        batched_s = time.perf_counter() - t0
        assert batched_s < individual_s * 1.5


class TestPlanLifecycle:
    """The one kernel plan is the service's only held resource."""

    def _build(self, engine):
        return ShardedRankingService.build(
            engine.index.ranking_scheme,
            engine.index.layout.matrix,
            engine.index.layout.dim,
        )

    def test_close_drops_plans_and_is_idempotent(self, engine, batch_setup):
        _, queries = batch_setup
        service = self._build(engine)
        assert service.health()["kernel_effective"] is None
        service.answer(queries[0])
        plan = service._plan
        assert service.health()["kernel_effective"] == "reference"
        service.answer_batch(queries)
        assert service._plan is plan  # built once, reused
        service.close()
        assert service._plan is None
        service.close()  # idempotent

    def test_answer_after_close_rebuilds_plans(self, engine, batch_setup):
        _, queries = batch_setup
        service = self._build(engine)
        want = service.answer(queries[0]).values
        service.close()
        got = service.answer(queries[0]).values
        assert np.array_equal(got, want)
        service.close()

    def test_context_manager_closes(self, engine, batch_setup):
        _, queries = batch_setup
        with self._build(engine) as service:
            service.answer(queries[0])
            assert service._plan is not None
        assert service._plan is None

    def test_engine_close_reaches_ranking_plans(self, corpus):
        from repro import TiptoeConfig, TiptoeEngine

        with TiptoeEngine.build(
            corpus.texts()[:120],
            corpus.urls()[:120],
            TiptoeConfig(),
            rng=np.random.default_rng(4),
        ) as engine:
            engine.search(corpus.documents[0].text, np.random.default_rng(5))
            service = engine.ranking_service
            assert service._plan is not None
        assert service._plan is None
