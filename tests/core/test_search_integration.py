"""End-to-end integration tests for the full private search pipeline."""

import numpy as np
import pytest

from repro import TiptoeConfig, TiptoeEngine
from repro.homenc import TokenReuseError


class TestEndToEndSearch:
    def test_own_text_query_finds_document(self, engine, corpus):
        hits = 0
        for doc in (3, 40, 120):
            result = engine.search(
                corpus.documents[doc].text, np.random.default_rng(doc)
            )
            if doc in engine.result_doc_ids(result)[:5]:
                hits += 1
        assert hits >= 2

    def test_result_urls_are_corpus_urls(self, engine, corpus):
        result = engine.search(corpus.documents[1].text, np.random.default_rng(0))
        url_set = set(corpus.urls())
        assert result.urls()
        assert all(u in url_set for u in result.urls())

    def test_best_result_url_always_present(self, engine, corpus):
        # The fetched batch is chosen to contain the top match (SS5).
        result = engine.search(corpus.documents[9].text, np.random.default_rng(1))
        assert result.results[0].url is not None

    def test_scores_are_descending(self, engine, corpus):
        result = engine.search(corpus.documents[2].text, np.random.default_rng(2))
        scores = [r.score for r in result.results]
        assert scores == sorted(scores, reverse=True)

    def test_results_capped_at_k(self, corpus):
        engine = TiptoeEngine.build(
            corpus.texts(),
            corpus.urls(),
            TiptoeConfig(results_per_query=5),
            rng=np.random.default_rng(3),
        )
        result = engine.search(corpus.documents[0].text, np.random.default_rng(4))
        assert len(result.results) == 5

    def test_search_bit_identical_across_kernel_backends(
        self, engine, corpus
    ):
        """The full search path -- embed, encrypt, ranking scan, URL
        PIR, decrypt -- returns the same bits whichever kernel backend
        the server GEMMs run on."""
        import dataclasses

        mp_engine = TiptoeEngine(
            dataclasses.replace(
                engine.index,
                config=engine.index.config.with_(
                    kernel_backend="multiprocess"
                ),
            )
        )
        try:
            for text in ("alpha beta", "gamma delta"):
                a = engine.search(text, rng=np.random.default_rng(17))
                b = mp_engine.search(text, rng=np.random.default_rng(17))
                assert b.cluster == a.cluster
                assert [(r.position, r.score, r.url) for r in b.results] == [
                    (r.position, r.score, r.url) for r in a.results
                ]
        finally:
            mp_engine.close()

    def test_benchmark_queries_complete(self, engine, query_benchmark):
        rng = np.random.default_rng(5)
        client = engine.new_client(rng)
        for q in query_benchmark.queries[:5]:
            result = client.search(q.text)
            assert len(result.results) > 0


class TestTokens:
    def test_each_search_consumes_one_token(self, engine):
        client = engine.new_client(np.random.default_rng(6))
        client.fetch_tokens(2)
        assert client.tokens_available() == 2
        client.search("anything at all")
        assert client.tokens_available() == 1

    def test_tokens_fetched_lazily(self, engine):
        client = engine.new_client(np.random.default_rng(7))
        assert client.tokens_available() == 0
        client.search("something")
        assert client.tokens_available() == 0

    def test_consumed_token_cannot_be_reused(self, engine):
        token = engine.mint_token(np.random.default_rng(8))
        token.consume()
        with pytest.raises(TokenReuseError):
            token.consume()


class TestTrafficAccounting:
    def test_phases_logged(self, engine, corpus):
        result = engine.search(corpus.documents[4].text, np.random.default_rng(9))
        assert result.traffic.phases() == ["token", "ranking", "url"]
        for phase in ("token", "ranking", "url"):
            assert result.traffic.bytes_up(phase) > 0
            assert result.traffic.bytes_down(phase) > 0

    def test_token_phase_dominates_upload(self, engine, corpus):
        # SS6.3 / Table 7: most traffic happens before the query exists.
        result = engine.search(corpus.documents[6].text, np.random.default_rng(10))
        assert result.traffic.total_bytes("token") > result.traffic.total_bytes(
            "ranking"
        )

    def test_latency_model_positive(self, engine, corpus):
        result = engine.search(corpus.documents[7].text, np.random.default_rng(11))
        assert result.perceived_latency > 0
        assert result.token_latency > 0
        # Two online round trips at 50 ms RTT: at least 100 ms.
        assert result.perceived_latency >= 0.1


class TestImagePipeline:
    def test_text_to_image_search(self):
        from repro.corpus import ImageCorpus
        from repro.embeddings import HashingEmbedder
        from repro.embeddings.joint import JointEmbedder

        images = ImageCorpus.generate(num_images=120, latent_dim=16, seed=12)
        joint = JointEmbedder.fit(
            HashingEmbedder(dim=24),
            images.captions()[:60],
            images.latent_matrix()[:60],
        )
        embeddings = joint.embed_images(images.latent_matrix())
        engine = TiptoeEngine.build_from_embeddings(
            embeddings,
            images.urls(),
            query_embedder=joint,
            config=TiptoeConfig(embedding_dim=16, pca_dim=None),
            rng=np.random.default_rng(13),
        )
        hits = 0
        for img in (5, 25, 70):
            result = engine.search(
                images.images[img].caption, np.random.default_rng(img)
            )
            if img in engine.result_doc_ids(result)[:10]:
                hits += 1
        assert hits >= 2


class TestMultiprobeQuality:
    """SS8.2: more probed clusters -> better quality, linear cost."""

    def test_probes_lift_mrr(self, corpus, query_benchmark):
        from repro.evalx.metrics import mrr_at_k
        from repro.evalx.quality import TiptoeQualitySim

        sim1 = TiptoeQualitySim.build(
            corpus.texts(),
            corpus.urls(),
            TiptoeConfig(target_cluster_size=8),
            rng=np.random.default_rng(3),
        )
        sim4 = TiptoeQualitySim(index=sim1.index, mode="cluster+batch", probes=4)
        targets = [q.target_doc_id for q in query_benchmark.queries]
        mrr1 = mrr_at_k(
            [sim1.rank(q.text) for q in query_benchmark.queries], targets
        )
        mrr4 = mrr_at_k(
            [sim4.rank(q.text) for q in query_benchmark.queries], targets
        )
        assert mrr4 >= mrr1

    def test_probe_validation(self, corpus):
        from repro.evalx.quality import TiptoeQualitySim

        sim = TiptoeQualitySim.build(
            corpus.texts()[:50],
            corpus.urls()[:50],
            TiptoeConfig(),
            rng=np.random.default_rng(4),
        )
        with pytest.raises(ValueError):
            TiptoeQualitySim(index=sim.index, probes=0)
