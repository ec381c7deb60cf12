"""Pins the exact bits of the streaming embedding path.

The ingest plane promises that its artifacts are a pure function of the
corpus and the build parameters: re-embedding a changed document, or
the same corpus under another batching, must reproduce the same bytes.
These tests fix one small corpus and pin a digest over everything the
fit produces (LSA projection, PCA map, quantization gain) together with
the rows ``transform_texts`` emits for it, so any change to the text
analysis or the fold-in arithmetic that moves a single bit fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.corpus import SyntheticCorpusConfig
from repro.corpus.source import SyntheticDocumentSource
from repro.embeddings import analyze, fit_streaming_models, transform_texts

#: sha256 over projection, PCA mean and components, repr(gain) and the
#: transformed rows of ``_texts``; recorded before the fold-in was
#: batched and the stemmer memoised, which must not move it.
PINNED_DIGEST = "e16ee47178a82f78eaf4e1d020fc3636c06518f2e95ff028216dcb6d8f28079d"

#: Documents that exercise the fold-in's corner cases: nothing to
#: analyze, only stopwords, only out-of-vocabulary terms (the corpus
#: has no digits), and one term repeated.
EDGE_DOCS = [
    "",
    "the and of to in is it",
    "xq7z 42abc zz99 0x0f",
]


def _corpus() -> list[str]:
    config = SyntheticCorpusConfig(num_docs=90, num_topics=6, vocab_size=240, seed=7)
    source = SyntheticDocumentSource(config, batch_size=32)
    return [text for batch in source.batches() for text in batch.texts]


def _texts(corpus: list[str]) -> list[str]:
    repeated = " ".join([corpus[0].split()[0]] * 9)
    docs = EDGE_DOCS + [repeated]
    # Interleave the corner cases with ordinary documents so every
    # batching below puts them next to full-length neighbours.
    return corpus[:5] + docs[:2] + corpus[5:40] + docs[2:] + corpus[40:]


@pytest.fixture(scope="module")
def fitted():
    corpus = _corpus()
    texts = _texts(corpus)
    models = fit_streaming_models(corpus[:60], embedding_dim=24, pca_dim=12, seed=3)
    return texts, models, transform_texts(models.embedder, models.pca, texts)


def test_fit_and_transform_digest_is_pinned(fitted):
    _, models, rows = fitted
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(models.embedder.projection).tobytes())
    h.update(np.ascontiguousarray(models.pca.mean).tobytes())
    h.update(np.ascontiguousarray(models.pca.components).tobytes())
    h.update(repr(models.gain).encode("ascii"))
    h.update(np.ascontiguousarray(rows).tobytes())
    assert h.hexdigest() == PINNED_DIGEST


def test_corner_case_rows(fitted):
    texts, models, rows = fitted
    # No in-vocabulary term folds in nothing: a zero LSA vector, which
    # PCA then maps to the one row every such document shares.
    assert not models.embedder.embed_batch(EDGE_DOCS).any()
    edge = [rows[texts.index(doc)].tobytes() for doc in EDGE_DOCS]
    assert edge == [edge[0]] * len(EDGE_DOCS)
    repeated = next(t for t in texts if t and len(set(t.split())) == 1)
    raw = models.embedder.embed_batch([repeated])[0]
    assert np.linalg.norm(raw) == pytest.approx(1.0)


@pytest.mark.parametrize("batch_size", [1, 2, 7, 64])
def test_rows_identical_under_any_batching(fitted, batch_size):
    texts, models, rows = fitted
    parts = [
        transform_texts(models.embedder, models.pca, texts[i : i + batch_size])
        for i in range(0, len(texts), batch_size)
    ]
    assert np.concatenate(parts).tobytes() == rows.tobytes()


def _reference_embed_batch(embedder, texts):
    """The per-document, per-term fold-in, without memos or tables."""
    vocab, rows = embedder.vocab, []
    for text in texts:
        counts = {}
        for term in analyze(text):
            tid = vocab.id_of(term)
            if tid is not None:
                counts[tid] = counts.get(tid, 0) + 1
        weights = {
            tid: (1.0 + np.log(c)) * vocab.idf(tid) for tid, c in counts.items()
        }
        norm = float(np.sqrt(sum(w * w for w in weights.values())))
        vec = np.zeros(embedder.dim)
        for tid, w in weights.items():
            vec += (w / norm) * embedder.projection[tid]
        rows.append(vec)
    matrix = np.stack(rows)
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)


def test_batched_fold_in_matches_per_term_loop(fitted):
    texts, models, _ = fitted
    expected = _reference_embed_batch(models.embedder, texts)
    assert models.embedder.embed_batch(texts).tobytes() == expected.tobytes()
