"""Query-privacy structural tests (Definition 2.1, Appendix D).

We cannot test computational indistinguishability directly, but the
definition has checkable structural consequences: the client's message
flow and packet sizes must not depend on the query string, and the
server-visible ciphertexts must carry no plaintext query material.
"""

import numpy as np
import pytest

from repro.core.ranking import build_query_vector
from repro.embeddings.quantize import quantize


QUERIES = [
    "covid19 symptoms",
    "x",
    "a very long and detailed query about many different things " * 5,
]


class TestMessageShape:
    def test_message_sizes_are_query_independent(self, engine):
        summaries = []
        for i, q in enumerate(QUERIES):
            result = engine.search(q, np.random.default_rng(i))
            summaries.append(result.traffic.phase_summary())
        assert summaries[0] == summaries[1] == summaries[2]

    def test_message_flow_is_query_independent(self, engine):
        flows = []
        for i, q in enumerate(QUERIES):
            result = engine.search(q, np.random.default_rng(100 + i))
            flows.append(
                [(m.phase, m.direction) for m in result.traffic.messages]
            )
        assert flows[0] == flows[1] == flows[2]

    def test_answer_row_count_independent_of_cluster(self, engine):
        # The server always returns max-cluster-size rows, padding
        # smaller clusters -- it cannot learn which cluster was probed.
        rows = engine.index.layout.rows
        sizes = engine.index.layout.cluster_sizes
        assert (sizes <= rows).all()
        assert rows == engine.index.layout.matrix.shape[0]


class TestCiphertextOpacity:
    def test_ciphertext_reveals_no_zero_block_structure(self, engine):
        """q-tilde is almost all zeros; the ciphertext must not be."""
        token = engine.mint_token(np.random.default_rng(0))
        keys, _ = token.consume()
        index = engine.index
        q_emb = quantize(index.embeddings[0] * index.quantization_gain, index.config.quantization())
        q_tilde = build_query_vector(q_emb, 0, index.layout.num_clusters)
        ct = index.ranking_scheme.encrypt(
            keys["ranking"], q_tilde, np.random.default_rng(1)
        )
        # The plaintext is >90% zeros; ciphertext words should look
        # uniform -- check no excess of small words where zeros sit.
        dim = index.layout.dim
        zero_region = np.asarray(ct.c[dim:], dtype=np.float64)
        payload_region = np.asarray(ct.c[:dim], dtype=np.float64)
        q = 2.0**64
        assert abs(zero_region.mean() / q - 0.5) < 0.05
        assert abs(payload_region.mean() / q - 0.5) < 0.2

    def test_same_query_twice_yields_different_bytes(self, engine):
        """Fresh keys per token: identical queries are unlinkable."""
        index = engine.index
        q_emb = quantize(index.embeddings[5] * index.quantization_gain, index.config.quantization())
        q_tilde = build_query_vector(q_emb, 2, index.layout.num_clusters)
        cts = []
        for seed in (0, 1):
            keys, _ = engine.mint_token(np.random.default_rng(seed)).consume()
            cts.append(
                index.ranking_scheme.encrypt(
                    keys["ranking"], q_tilde, np.random.default_rng(seed + 10)
                ).c
            )
        assert not np.array_equal(cts[0], cts[1])

    def test_ciphertext_bytes_pass_uniformity_test(self, engine):
        """Chi-squared test: ciphertext bytes are consistent with a
        uniform distribution (a sharper check than the mean)."""
        from scipy import stats

        index = engine.index
        words = []
        for seed in range(4):
            keys, _ = engine.mint_token(np.random.default_rng(seed)).consume()
            q_emb = quantize(
                index.embeddings[seed] * index.quantization_gain,
                index.config.quantization(),
            )
            q_tilde = build_query_vector(q_emb, seed, index.layout.num_clusters)
            ct = index.ranking_scheme.encrypt(
                keys["ranking"], q_tilde, np.random.default_rng(seed + 50)
            )
            words.append(np.asarray(ct.c, dtype=np.uint64))
        raw = np.concatenate(words).view(np.uint8)
        counts = np.bincount(raw, minlength=256)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.001  # no gross deviation from uniform

    def test_pir_query_hides_batch_index(self, engine):
        """Two PIR queries for different batches have identical shape."""
        keys, _ = engine.mint_token(np.random.default_rng(2)).consume()
        client = engine.new_client(np.random.default_rng(3))
        q_first = client.url_client.build_query(
            keys["url"], 0, np.random.default_rng(4)
        )
        keys2, _ = engine.mint_token(np.random.default_rng(5)).consume()
        last = engine.index.url_db.num_records - 1
        q_last = client.url_client.build_query(
            keys2["url"], last, np.random.default_rng(6)
        )
        assert q_first.wire_bytes() == q_last.wire_bytes()
        assert len(q_first.ciphertext.c) == len(q_last.ciphertext.c)


class TestServerScansEverything:
    def test_ranking_touches_every_cluster(self, engine):
        """Cost is identical whichever cluster the client probes --
        the linear scan the privacy argument requires (SS3.1)."""
        from repro.core.cluster_runtime import ShardedRankingService
        from repro.core.ranking import RankingClient

        index = engine.index
        service = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            dim=index.layout.dim,
        )
        client = RankingClient(
            index.ranking_scheme,
            dim=index.layout.dim,
            num_clusters=index.layout.num_clusters,
        )
        costs = []
        for cluster in (0, index.layout.num_clusters - 1):
            keys, _ = engine.mint_token(
                np.random.default_rng(cluster)
            ).consume()
            q_emb = quantize(
                index.embeddings[0], index.config.quantization()
            )
            before = service.ledger.total_ops()
            service.answer(
                client.build_query(
                    keys["ranking"], q_emb, cluster, np.random.default_rng(7)
                )
            )
            costs.append(service.ledger.total_ops() - before)
        assert costs[0] == costs[1]
        assert costs[0] == 2 * index.layout.matrix.size
