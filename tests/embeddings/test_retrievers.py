"""Tests for the tf-idf and BM25 retrieval baselines."""

import numpy as np

from repro.embeddings import Bm25Retriever, TfidfRetriever

CORPUS = [
    "knee pain causes and treatment options for runners",
    "tokyo weather forecast rain tomorrow",
    "symptoms of covid19 fever cough fatigue",
    "graduate school admissions advice and research careers",
    "best running shoes for marathon training",
    "japanese cuisine sushi ramen tokyo restaurants",
    "chronic joint pain arthritis knee therapy exercises",
    "weather patterns and climate change research",
]


class TestTfidf:
    def test_exact_topic_match_ranks_first(self):
        r = TfidfRetriever(CORPUS)
        assert r.rank("covid19 symptoms fever")[0] == 2

    def test_related_documents_rank_high(self):
        r = TfidfRetriever(CORPUS)
        top3 = r.rank("knee pain", k=3)
        assert set(top3) >= {0, 6}

    def test_scores_are_cosines(self):
        r = TfidfRetriever(CORPUS)
        scores = r.scores("tokyo weather")
        assert scores.shape == (len(CORPUS),)
        assert np.all(scores <= 1.0 + 1e-9) and np.all(scores >= 0.0)

    def test_unknown_terms_score_zero(self):
        r = TfidfRetriever(CORPUS)
        assert not r.scores("xylophone quasar").any()

    def test_rank_respects_k(self):
        r = TfidfRetriever(CORPUS)
        assert len(r.rank("pain", k=3)) == 3

    def test_index_bytes_positive(self):
        assert TfidfRetriever(CORPUS).index_bytes() > 0


class TestRestrictedVocabulary:
    """The Coeus configuration collapses on common-term queries (SS8.2)."""

    def test_restricted_dictionary_misses_common_terms(self):
        tiny = TfidfRetriever.with_restricted_vocab(CORPUS, top_idf_terms=3)
        full = TfidfRetriever(CORPUS)
        assert len(tiny.vocab) == 3
        assert len(full.vocab) > 3
        # Most query terms fall outside the restricted dictionary.
        assert np.count_nonzero(tiny.scores("knee pain")) <= np.count_nonzero(
            full.scores("knee pain")
        )


class TestBm25:
    def test_exact_topic_match_ranks_first(self):
        r = Bm25Retriever.from_documents(CORPUS)
        assert r.rank("covid19 symptoms fever")[0] == 2

    def test_default_parameters_match_paper(self):
        r = Bm25Retriever.from_documents(CORPUS)
        assert r.k1 == 0.9 and r.b == 0.4

    def test_scores_nonnegative(self):
        r = Bm25Retriever.from_documents(CORPUS)
        assert np.all(r.scores("knee pain arthritis") >= 0)

    def test_term_frequency_saturates(self):
        docs = ["pain " * 50 + "knee", "pain knee therapy"]
        r = Bm25Retriever.from_documents(docs)
        scores = r.scores("pain")
        # BM25 saturation: 50x repetition must not give 50x the score.
        assert scores[0] < 5 * scores[1]

    def test_unknown_query_scores_zero(self):
        r = Bm25Retriever.from_documents(CORPUS)
        assert not r.scores("zzzz").any()

    def test_index_bytes_positive(self):
        assert Bm25Retriever.from_documents(CORPUS).index_bytes() > 0
