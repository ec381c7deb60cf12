"""Engine-level robustness and edge-case tests."""

import numpy as np
import pytest

from repro import TiptoeConfig, TiptoeEngine
from repro.net import wire
from repro.net.rpc import frame


class TestEngineConstruction:
    def test_build_from_embeddings_requires_matching_dim(self):
        class FakeEmbedder:
            def embed(self, text):
                return np.zeros(4)

        with pytest.raises(ValueError):
            TiptoeEngine.build_from_embeddings(
                np.zeros((3, 5)),
                ["u1", "u2", "u3"],
                query_embedder=FakeEmbedder(),
                config=TiptoeConfig(embedding_dim=4, pca_dim=None),
            )

    def test_embed_query_applies_pca(self, engine):
        vec = engine.embed_query("some words here")
        assert vec.shape == (engine.index.config.effective_dim,)

    def test_embed_query_prefers_embed_text_interface(self, corpus):
        class JointLike:
            def embed_text(self, text):
                return np.ones(6) / np.sqrt(6)

            def embed(self, text):  # pragma: no cover - must not be used
                raise AssertionError("embed_text should take precedence")

        engine = TiptoeEngine.build_from_embeddings(
            np.eye(6).repeat(4, axis=0),
            [f"u{i}" for i in range(24)],
            query_embedder=JointLike(),
            config=TiptoeConfig(embedding_dim=6, pca_dim=None),
            rng=np.random.default_rng(0),
        )
        assert engine.embed_query("x").shape == (6,)

    def test_storage_position_identity_without_scatter(self, engine):
        assert engine.storage_position(17) == 17

    def test_storage_position_with_scatter_map(self, corpus):
        engine = TiptoeEngine.build(
            corpus.texts()[:60],
            corpus.urls()[:60],
            TiptoeConfig(group_urls_by_content=False),
            rng=np.random.default_rng(1),
        )
        perm = engine.index.url_position_map
        assert perm is not None
        assert engine.storage_position(5) == int(perm[5])
        # The scattered deployment still answers correctly end to end.
        result = engine.search(corpus.documents[2].text, np.random.default_rng(2))
        assert result.results[0].url is not None


class TestEndpointRobustness:
    def test_unknown_method_rejected(self, engine):
        with pytest.raises(KeyError):
            engine.ranking_endpoint.dispatch(frame("bogus", b""))

    def test_wrong_modulus_ciphertext_rejected(self, engine):
        # A URL-scheme (q = 2^32) ciphertext sent to the ranking
        # endpoint (q = 2^64) must be refused, not misparsed.
        rng = np.random.default_rng(3)
        keys = engine.index.url_scheme.gen_keys(rng)
        sel = engine.index.url_db.selection_vector(0)
        ct = engine.index.url_scheme.encrypt(keys, sel)
        with pytest.raises(ValueError):
            engine.ranking_endpoint.dispatch(
                frame("answer", wire.encode_ciphertext(ct))
            )

    def test_hint_endpoint_serves_real_hints(self, engine):
        body = engine.hint_endpoint.dispatch(frame("ranking", b""))
        from repro.net.rpc import unframe

        _, payload = unframe(body)
        hint, q_bits = wire.decode_matrix(payload)
        assert q_bits == 64
        assert np.array_equal(hint, engine.index.ranking_prep.hint)


class TestWireRobustness:
    def test_truncated_matrix_blob(self):
        blob = wire.encode_matrix(np.zeros((2, 3), dtype=np.uint64), 64)
        with pytest.raises(ValueError):
            wire.decode_matrix(blob[: len(blob) // 2])

    def test_matrix_round_trip_32(self):
        m = np.arange(12, dtype=np.uint32).reshape(3, 4)
        back, q_bits = wire.decode_matrix(wire.encode_matrix(m, 32))
        assert q_bits == 32
        assert np.array_equal(back, m)
