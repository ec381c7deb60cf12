"""Tests for the deployment configuration."""

import pytest

from repro.core.config import TiptoeConfig


class TestConfig:
    def test_effective_dim_with_and_without_pca(self):
        assert TiptoeConfig(embedding_dim=24, pca_dim=12).effective_dim == 12
        assert TiptoeConfig(embedding_dim=24, pca_dim=None).effective_dim == 24

    def test_ranking_plaintext_modulus_matches_appendix_c(self):
        # Paper: d = 192, 4-bit precision -> p = 2^17.
        cfg = TiptoeConfig(embedding_dim=192, pca_dim=None, precision_bits=4)
        assert cfg.ranking_plaintext_modulus() == 2**17

    def test_plaintext_modulus_is_power_of_two(self):
        cfg = TiptoeConfig(embedding_dim=24, pca_dim=12)
        p = cfg.ranking_plaintext_modulus()
        assert p & (p - 1) == 0
        assert p >= cfg.quantization().min_plaintext_modulus(12)

    def test_cluster_size_rule(self):
        cfg = TiptoeConfig()
        assert cfg.cluster_size_for(10_000) == 100  # sqrt rule
        assert TiptoeConfig(target_cluster_size=7).cluster_size_for(10_000) == 7

    def test_with_overrides(self):
        cfg = TiptoeConfig().with_(boundary_fraction=0.0)
        assert cfg.boundary_fraction == 0.0
        assert cfg.embedding_dim == TiptoeConfig().embedding_dim

    def test_validation(self):
        with pytest.raises(ValueError):
            TiptoeConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            TiptoeConfig(embedding_dim=8, pca_dim=9)
        with pytest.raises(ValueError):
            TiptoeConfig(url_batch_size=0)
