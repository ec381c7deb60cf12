"""The semantic embedding model: latent semantic analysis.

The paper embeds documents with a pretrained transformer
(msmarco-distilbert-base-tas-b, 768-dimensional).  With no pretrained
models available offline, this reproduction trains a latent semantic
embedder on (a sample of) the corpus itself: a truncated SVD of the
tf-idf matrix.  Like the transformer, it maps text to dense vectors
whose inner products track topical similarity, it is a *server-chosen*
function the client downloads, and the Tiptoe protocol is oblivious to
which of the two produced the vectors (SS3.1).

Documents and queries embed through the same fold-in projection, and
all embeddings are L2-normalized so inner product equals cosine
similarity -- the similarity measure the protocol computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import svds

from repro.embeddings.tfidf import TfidfModel
from repro.embeddings.tokenizer import analyze
from repro.embeddings.vocab import Vocabulary


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)


@dataclass
class LsaEmbedder:
    """A trained LSA embedding function.

    ``fit`` plays the role of the (offline, server-side) model
    training; the fitted object is the ~hundreds-of-MiB artifact the
    client downloads before querying (SS3.2).
    """

    dim: int
    vocab: Vocabulary = field(default=None, repr=False)
    projection: np.ndarray = field(default=None, repr=False)

    @classmethod
    def fit(
        cls,
        documents: list[str],
        dim: int = 64,
        max_terms: int | None = None,
        seed: int = 0,
    ) -> "LsaEmbedder":
        """Train on a corpus sample (SS7 trains k-means on a sample too)."""
        token_lists = [analyze(doc) for doc in documents]
        return cls.fit_tokens(token_lists, dim=dim, max_terms=max_terms, seed=seed)

    @classmethod
    def fit_tokens(
        cls,
        token_lists: list[list[str]],
        dim: int = 64,
        max_terms: int | None = None,
        seed: int = 0,
    ) -> "LsaEmbedder":
        """:meth:`fit` on documents already run through ``analyze``."""
        vocab = Vocabulary.build(token_lists, max_terms=max_terms)
        model = TfidfModel(vocab)
        matrix = model.matrix(token_lists)
        k = min(dim, min(matrix.shape) - 1)
        if k < 1:
            raise ValueError("corpus too small to fit an embedding")
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(min(matrix.shape))
        _, singular, vt = svds(matrix, k=k, v0=v0)
        order = np.argsort(-singular)
        projection = np.zeros((len(vocab), dim))
        projection[:, : len(order)] = vt[order].T
        return cls(dim=dim, vocab=vocab, projection=projection)

    @cached_property
    def _tfidf(self) -> TfidfModel:
        return TfidfModel(self.vocab)

    def _fold_in(self, token_lists: list[list[str]]) -> np.ndarray:
        """Un-normalized LSA vectors, one row per analyzed document.

        Row ``i`` accumulates ``w * projection[t]`` over the document's
        terms in first-occurrence order.  All rows advance one term
        position at a time, so a batch costs one gather-multiply-add per
        position rather than two NumPy calls per term, and each row still
        sees exactly the IEEE multiplies and adds of a one-row fold-in.
        Shorter documents are zero-padded: a padded slot adds
        ``0.0 * projection[0] = +-0.0``, which leaves the row unchanged
        (the accumulator starts at +0.0, and a round-to-nearest sum never
        turns it into -0.0), so a row's bits never depend on its batch.
        """
        weights = [self._tfidf.vectorize_tokens(tokens) for tokens in token_lists]
        width = max(map(len, weights), default=0)
        ids = np.zeros((len(weights), width), dtype=np.intp)
        vals = np.zeros((len(weights), width))
        for i, row in enumerate(weights):
            ids[i, : len(row)] = list(row)
            vals[i, : len(row)] = list(row.values())
        vecs = np.zeros((len(weights), self.dim))
        for t in range(width):
            vecs += vals[:, t : t + 1] * self.projection[ids[:, t]]
        return vecs

    def embed(self, text: str) -> np.ndarray:
        """Embed one text into a unit-norm vector."""
        vec = self._fold_in([analyze(text)])[0]
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed many texts; rows are unit-norm (or zero)."""
        return self.embed_tokens([analyze(t) for t in texts])

    def embed_tokens(self, token_lists: list[list[str]]) -> np.ndarray:
        """:meth:`embed_batch` on documents already run through ``analyze``."""
        return _normalize_rows(self._fold_in(token_lists))

    def model_bytes(self) -> int:
        """Download size of the embedding function (Table 7 'Model')."""
        terms = sum(len(t) + 8 for t in self.vocab.term_to_id)
        return int(self.projection.nbytes) + terms
