"""Tests for the baselines and the analytic cost model."""

import numpy as np
import pytest

from repro.corpus import QueryBenchmark, SyntheticCorpus, SyntheticCorpusConfig
from repro.evalx.baselines import (
    CoeusModel,
    LatentOracleRetriever,
    client_side_index_bytes,
)
from repro.evalx.costmodel import GIB, PaperScaleModel, TiptoeCostModel

PAPER_TEXT_DOCS = 364_000_000


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus.generate(
        SyntheticCorpusConfig(num_docs=300, num_topics=10, vocab_size=500, seed=9)
    )


class TestLatentOracle:
    def test_beats_chance_on_conceptual_queries(self, corpus):
        bench = QueryBenchmark.generate(
            corpus, 40, np.random.default_rng(0),
            family_weights={"conceptual": 1.0},
        )
        oracle = LatentOracleRetriever(corpus)
        from repro.evalx.metrics import mrr_at_k

        ranked = [oracle.rank(q.text) for q in bench.queries]
        targets = [q.target_doc_id for q in bench.queries]
        assert mrr_at_k(ranked, targets) > 0.15

    def test_exact_token_matching(self, corpus):
        doc = corpus.documents_with_entities()[0]
        oracle = LatentOracleRetriever(corpus)
        assert oracle.rank(doc.entity)[0] == doc.doc_id

    def test_query_latent_is_unit_or_zero(self, corpus):
        oracle = LatentOracleRetriever(corpus)
        q = oracle.query_latent(corpus.documents[0].text)
        assert np.linalg.norm(q) == pytest.approx(1.0)
        assert not oracle.query_latent("zzz qqq").any()


class TestCoeusModel:
    """The paper's SS8.3 Coeus extrapolations."""

    def test_reference_point_matches_paper(self):
        coeus = CoeusModel()
        row = coeus.summary(5_000_000)
        assert row["comm_mib"] == pytest.approx(50.0, rel=0.05)
        assert row["core_seconds"] == 12_900
        assert row["aws_cost"] == pytest.approx(0.059)

    def test_c4_scale_matches_paper_estimates(self):
        coeus = CoeusModel()
        # Paper: >3 GiB of traffic, >900,000 core-s, ~$4.00 at C4 scale.
        assert coeus.communication_bytes(PAPER_TEXT_DOCS) > 3 * GIB
        assert coeus.core_seconds(PAPER_TEXT_DOCS) > 900_000
        assert 3.5 < coeus.aws_cost(PAPER_TEXT_DOCS) < 4.7

    def test_tiptoe_is_1000x_cheaper_in_aws_cost(self):
        # SS8.3: "more than 1000x lower AWS operating costs".
        tiptoe = TiptoeCostModel().aws_cost(PAPER_TEXT_DOCS)
        coeus = CoeusModel().aws_cost(PAPER_TEXT_DOCS)
        assert coeus / tiptoe > 1000


class TestClientSideIndex:
    def test_paper_storage_estimates(self):
        sizes = client_side_index_bytes(PAPER_TEXT_DOCS)
        # Table 6: 48 GiB for the client-side Tiptoe index.
        assert sizes["tiptoe_index_bytes"] == pytest.approx(48 * GIB, rel=0.15)
        # SS8.3: 7.4 GiB absolute minimum for compressed URLs alone.
        assert sizes["urls_only_bytes"] == pytest.approx(7.4 * GIB, rel=0.15)
        assert sizes["bm25_index_bytes_paper"] > sizes["tiptoe_index_bytes"]


class TestTiptoeCostModel:
    """Table 7 reproduction and Fig. 8 scaling laws."""

    @pytest.fixture(scope="class")
    def row(self):
        return TiptoeCostModel().summary(PAPER_TEXT_DOCS)

    @pytest.mark.parametrize(
        "key,paper,tol",
        [
            ("up_token_mib", 32.4, 0.10),
            ("down_token_mib", 9.8, 0.15),
            ("up_ranking_mib", 11.6, 0.15),
            ("down_ranking_mib", 0.5, 0.35),
            ("up_url_mib", 2.4, 0.35),
            ("down_url_mib", 0.1, 0.5),
            ("core_seconds", 145.0, 0.25),
            ("perceived_latency_s", 2.7, 0.35),
            ("token_latency_s", 6.5, 0.35),
        ],
    )
    def test_table7_within_tolerance(self, row, key, paper, tol):
        assert row[key] == pytest.approx(paper, rel=tol)

    def test_total_communication_matches_headline(self, row):
        # Abstract: 56.9 MiB per query, 74% ahead of time.
        assert row["total_mib"] == pytest.approx(56.9, rel=0.1)
        offline = row["up_token_mib"] + row["down_token_mib"]
        assert offline / row["total_mib"] == pytest.approx(0.74, abs=0.05)

    def test_query_cost_is_fractions_of_a_cent(self, row):
        assert 0.001 < row["aws_cost"] < 0.01

    def test_compute_scales_linearly(self):
        model = TiptoeCostModel()
        small = model.online_core_seconds(10**9)
        large = model.online_core_seconds(10**10)
        assert large / small == pytest.approx(10, rel=0.1)

    def test_communication_scales_roughly_as_sqrt(self):
        # SS8.5: "communication increases by roughly a factor of
        # sqrt(T)".  The ranking phases scale exactly as sqrt; the URL
        # *upload* (one word per batch) is linear, so the aggregate
        # sits between sqrt(T) and T -- much closer to sqrt.
        model = TiptoeCostModel()
        small = model.online_bytes(10**9)
        large = model.online_bytes(10**10)
        assert np.sqrt(10) * 0.8 < large / small < 10 * 0.6

    def test_figure8_google_scale_point(self):
        # SS8.5: ~1900 core-s and ~140 MiB at 8B documents.
        model = TiptoeCostModel()
        series = model.figure8_series([8 * 10**9])[0]
        total_mib = series["token_comm_mib"] + series["online_comm_mib"]
        assert series["computation_core_s"] == pytest.approx(1900, rel=0.45)
        assert total_mib == pytest.approx(140, rel=0.3)

    def test_image_deployment_costs_roughly_double(self):
        m = PaperScaleModel()
        text = m.text.summary(PAPER_TEXT_DOCS)
        image = m.image.summary(400_000_000, ranking_vcpus=320, url_vcpus=32)
        ratio = image["core_seconds"] / text["core_seconds"]
        assert 1.4 < ratio < 2.6
        assert image["total_mib"] > text["total_mib"]

    def test_table6_rows_complete(self):
        rows = PaperScaleModel().table6_rows()
        assert {r["system"] for r in rows} == {"tiptoe-text", "tiptoe-image"}
