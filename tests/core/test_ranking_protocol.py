"""Tests for the private ranking protocol and the sharded runtime."""

import numpy as np
import pytest

from repro.core.cluster_runtime import ShardedRankingService
from repro.core.ranking import RankingClient, build_query_vector
from repro.embeddings.quantize import quantize
from repro.lwe import modular


class TestQueryVector:
    def test_structure_matches_figure_10(self):
        q = np.array([1, -2, 3])
        q_tilde = build_query_vector(q, cluster_index=1, num_clusters=3)
        assert q_tilde.tolist() == [0, 0, 0, 1, -2, 3, 0, 0, 0]

    def test_bad_cluster_rejected(self):
        with pytest.raises(IndexError):
            build_query_vector(np.ones(2), 3, 3)
        with pytest.raises(IndexError):
            build_query_vector(np.ones(2), -1, 3)


@pytest.fixture(scope="module")
def ranking_setup(engine):
    index = engine.index
    client = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    service = ShardedRankingService.build(
        index.ranking_scheme,
        index.layout.matrix,
        dim=index.layout.dim,
    )
    return index, client, service


def fresh_keyed_token(engine, seed):
    token = engine.mint_token(np.random.default_rng(seed))
    return token.consume()


class TestRankingCorrectness:
    def test_scores_match_plaintext_inner_products(
        self, engine, ranking_setup
    ):
        index, client, service = ranking_setup
        keys, hints = fresh_keyed_token(engine, 0)
        rng = np.random.default_rng(1)
        q_emb = quantize(index.embeddings[3] * index.quantization_gain, index.config.quantization())
        cluster = 2
        query = client.build_query(keys["ranking"], q_emb, cluster, rng)
        answer = service.answer(query)
        scores = client.decode_scores(keys["ranking"], answer, hints["ranking"])
        dim = index.layout.dim
        block = index.layout.matrix[:, cluster * dim : (cluster + 1) * dim]
        assert np.array_equal(scores, block @ q_emb)

    def test_own_document_wins_its_cluster(self, engine, ranking_setup):
        index, client, service = ranking_setup
        keys, hints = fresh_keyed_token(engine, 2)
        doc = 10
        cluster = index.clusters.doc_to_clusters[doc][0]
        row = index.layout.cluster_doc_ids[cluster].index(doc)
        q_emb = quantize(index.embeddings[doc] * index.quantization_gain, index.config.quantization())
        query = client.build_query(
            keys["ranking"], q_emb, cluster, np.random.default_rng(3)
        )
        scores = client.decode_scores(
            keys["ranking"], service.answer(query), hints["ranking"]
        )
        real = int(index.layout.cluster_sizes[cluster])
        assert int(np.argmax(scores[:real])) == row

    def test_ledger_counts_two_ops_per_entry(self, engine, ranking_setup):
        index, _, service = ranking_setup
        expected_per_query = 2 * index.layout.matrix.size
        queries_so_far = service.ledger.total_ops("ranking") / expected_per_query
        assert queries_so_far == int(queries_so_far)


class TestShardedService:
    """The cluster cut is a partition: any number of shards folds back
    to the one-shard answer, which is the plain integer product."""

    @staticmethod
    def _shards(index, num_shards):
        return [
            ShardedRankingService.build(
                index.ranking_scheme,
                index.layout.matrix,
                dim=index.layout.dim,
                shard=shard,
                num_shards=num_shards,
            )
            for shard in range(num_shards)
        ]

    def test_partials_fold_to_the_integer_product(self, engine, ranking_setup):
        index, client, whole = ranking_setup
        keys, _ = fresh_keyed_token(engine, 4)
        q_emb = quantize(index.embeddings[7] * index.quantization_gain, index.config.quantization())
        query = client.build_query(
            keys["ranking"], q_emb, 1, np.random.default_rng(5)
        )
        q_bits = index.ranking_scheme.params.inner.q_bits
        want = modular.matmul(
            modular.to_ring(index.layout.matrix, q_bits),
            query.ciphertext.c,
            q_bits,
        )
        assert np.array_equal(whole.answer(query).values, want)
        for num_shards in (1, 2, 3, index.layout.num_clusters):
            total = np.zeros_like(want)
            for shard in self._shards(index, num_shards):
                total = modular.add(total, shard.answer(query).values, q_bits)
            assert np.array_equal(total, want), num_shards

    def test_slices_are_cluster_aligned_and_tile_all_columns(self, engine):
        index = engine.index
        dim = index.layout.dim
        for num_shards in (1, 2, 3, index.layout.num_clusters):
            next_col = 0
            for i, shard in enumerate(self._shards(index, num_shards)):
                assert (shard.shard, shard.num_shards) == (i, num_shards)
                assert shard.col_start == next_col
                width = shard.matrix_slice.shape[1]
                assert width > 0 and width % dim == 0
                next_col += width
            assert next_col == index.layout.matrix.shape[1]

    def test_more_shards_than_clusters_rejected(self, engine):
        index = engine.index
        with pytest.raises(ValueError, match="clusters into"):
            self._shards(index, index.layout.num_clusters + 1)


class TestClientValidation:
    def test_dimension_mismatch_rejected(self, engine):
        with pytest.raises(ValueError):
            RankingClient(engine.index.ranking_scheme, dim=3, num_clusters=2)
