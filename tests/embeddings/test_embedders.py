"""Tests for the LSA, hashing, PCA, quantization, and joint embedders."""

import numpy as np
import pytest

from repro.embeddings import (
    HashingEmbedder,
    LsaEmbedder,
    PcaReducer,
    QuantizationConfig,
    dequantize,
    quantize,
)
from repro.embeddings.joint import JointEmbedder

CORPUS = [
    "knee pain treatment therapy for joint injuries",
    "knee pain arthritis joint exercises",
    "chronic pain therapy and physical exercises",
    "tokyo weather forecast rain and sunshine",
    "weather climate rain patterns in tokyo",
    "sushi ramen japanese restaurants in tokyo",
    "marathon running training shoes",
    "running shoes for knee injuries",
    "graduate school research advice",
    "research careers in graduate school",
]


@pytest.fixture(scope="module")
def lsa():
    return LsaEmbedder.fit(CORPUS, dim=8)


class TestLsaEmbedder:
    def test_embeddings_are_unit_norm(self, lsa):
        for doc in CORPUS:
            assert np.linalg.norm(lsa.embed(doc)) == pytest.approx(1.0)

    def test_same_topic_closer_than_different_topic(self, lsa):
        pain_a = lsa.embed("knee pain treatment")
        pain_b = lsa.embed("joint pain exercises")
        weather = lsa.embed("tokyo weather rain")
        assert pain_a @ pain_b > pain_a @ weather

    def test_semantic_match_without_exact_overlap(self, lsa):
        # "therapy" and "arthritis" co-occur with "pain" in training:
        # latent structure links them even with no shared query term.
        q = lsa.embed("arthritis therapy")
        scores = lsa.embed_batch(CORPUS) @ q
        assert np.argmax(scores) in {0, 1, 2}

    def test_batch_matches_single(self, lsa):
        batch = lsa.embed_batch(CORPUS[:3])
        for i in range(3):
            # Close, not equal: both fold in the same unnormalized row,
            # but ``embed`` divides by a 1-D ``np.linalg.norm`` (a BLAS
            # dot) and ``embed_batch`` by the row-wise norm of
            # ``_normalize_rows`` (a pairwise sum), which can round the
            # norm one ulp apart.  Query vectors keep the 1-D form.
            assert np.allclose(batch[i], lsa.embed(CORPUS[i]))
        # Batch against batch is exact: a row's bits never depend on the
        # documents batched with it.
        for i in range(3):
            assert lsa.embed_batch([CORPUS[i]]).tobytes() == batch[i].tobytes()
        assert lsa.embed_batch(CORPUS)[:3].tobytes() == batch.tobytes()

    def test_empty_text_embeds_to_zero(self, lsa):
        assert not lsa.embed("").any()

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ValueError):
            LsaEmbedder.fit(["one"], dim=4)

    def test_model_bytes_positive(self, lsa):
        assert lsa.model_bytes() > 0


class TestHashingEmbedder:
    def test_deterministic(self):
        e1 = HashingEmbedder(dim=16).embed("knee pain")
        e2 = HashingEmbedder(dim=16).embed("knee pain")
        assert np.array_equal(e1, e2)

    def test_unit_norm(self):
        e = HashingEmbedder(dim=16)
        assert np.linalg.norm(e.embed("some text here")) == pytest.approx(1.0)

    def test_shared_tokens_increase_similarity(self):
        e = HashingEmbedder(dim=64)
        overlap = e.embed("knee pain treatment") @ e.embed("knee pain relief")
        disjoint = e.embed("knee pain treatment") @ e.embed("sushi ramen tokyo")
        assert overlap > disjoint

    def test_morphological_variants_similar(self):
        # Character trigrams give stems of the same word high overlap.
        e = HashingEmbedder(dim=64)
        related = e.embed("running") @ e.embed("runner")
        unrelated = e.embed("running") @ e.embed("weather")
        assert related > unrelated


class TestPca:
    def test_reduces_dimension_and_normalizes(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((50, 12))
        pca = PcaReducer.fit(data, dim=4)
        out = pca.transform(data)
        assert out.shape == (50, 4)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_single_vector_transform(self):
        rng = np.random.default_rng(1)
        pca = PcaReducer.fit(rng.standard_normal((20, 6)), dim=3)
        assert pca.transform(rng.standard_normal(6)).shape == (3,)

    def test_captures_dominant_direction(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal(8)
        data = np.outer(rng.standard_normal(100), base)
        data += 0.01 * rng.standard_normal(data.shape)
        pca = PcaReducer.fit(data, dim=1)
        assert pca.explained_variance_ratio[0] > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            PcaReducer.fit(np.zeros((5, 3)), dim=0)
        with pytest.raises(ValueError):
            PcaReducer.fit(np.zeros((5, 3)), dim=4)
        with pytest.raises(ValueError):
            PcaReducer.fit(np.zeros((1, 3)), dim=1)
        with pytest.raises(ValueError):
            PcaReducer.fit(np.zeros(3), dim=1)

    def test_projection_bytes(self):
        rng = np.random.default_rng(3)
        pca = PcaReducer.fit(rng.standard_normal((10, 6)), dim=2)
        assert pca.projection_bytes() == 2 * 6 * 8 + 6 * 8


class TestQuantization:
    def test_round_trip_error_bounded(self):
        rng = np.random.default_rng(4)
        cfg = QuantizationConfig(precision_bits=4)
        vals = rng.uniform(-1, 1, size=100)
        err = np.abs(dequantize(quantize(vals, cfg), cfg) - vals)
        assert err.max() <= 0.5 / cfg.scale + 1e-12

    def test_clipping(self):
        cfg = QuantizationConfig(precision_bits=4)
        out = quantize(np.array([5.0, -5.0]), cfg)
        assert list(out) == [cfg.scale, -cfg.scale]

    def test_inner_products_track_real_ones(self):
        rng = np.random.default_rng(5)
        cfg = QuantizationConfig(precision_bits=4)
        a = rng.uniform(-1, 1, size=64) / 8
        b = rng.uniform(-1, 1, size=64) / 8
        approx = (quantize(a, cfg) @ quantize(b, cfg)) / (cfg.scale**2)
        assert abs(approx - a @ b) < 0.1

    def test_modulus_check_matches_appendix_b1(self):
        cfg = QuantizationConfig(precision_bits=4)
        # Paper: d = 192 at 4 bits needs p = 2^17.
        assert cfg.min_plaintext_modulus(192) <= 2**17
        cfg.check_modulus(2**17, 192)
        with pytest.raises(ValueError):
            cfg.check_modulus(2**12, 192)

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError):
            QuantizationConfig(precision_bits=0)


class TestJointEmbedder:
    def test_caption_query_retrieves_its_image(self):
        rng = np.random.default_rng(6)
        text = HashingEmbedder(dim=32)
        captions = [
            "a dog running on the beach",
            "sushi on a wooden table",
            "mountain landscape at sunset",
            "a man wearing a blue shirt",
            "rainy street in tokyo at night",
            "a train at the station platform",
        ]
        images = rng.standard_normal((len(captions), 16))
        joint = JointEmbedder.fit(text, captions, images)
        img_emb = joint.embed_images(images)
        hits = 0
        for i, cap in enumerate(captions):
            scores = img_emb @ joint.embed_text(cap)
            hits += int(np.argmax(scores) == i)
        assert hits >= 5

    def test_dimension_doubling(self):
        rng = np.random.default_rng(7)
        text = HashingEmbedder(dim=16)
        captions = ["a", "b", "c", "d"]
        images = rng.standard_normal((4, 32))
        joint = JointEmbedder.fit(text, captions, images)
        assert joint.dim == 32
        assert joint.embed_text("anything").shape == (32,)

    def test_mismatched_pairs_rejected(self):
        with pytest.raises(ValueError):
            JointEmbedder.fit(
                HashingEmbedder(dim=8), ["only one"], np.zeros((2, 4))
            )
