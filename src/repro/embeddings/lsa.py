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

    def _fold_in(self, tokens: list[str]) -> np.ndarray:
        weights = TfidfModel(self.vocab).vectorize_tokens(tokens)
        vec = np.zeros(self.dim)
        for tid, w in weights.items():
            vec += w * self.projection[tid]
        return vec

    def embed(self, text: str) -> np.ndarray:
        """Embed one text into a unit-norm vector."""
        vec = self._fold_in(analyze(text))
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed many texts; rows are unit-norm (or zero)."""
        return _normalize_rows(np.stack([self._fold_in(analyze(t)) for t in texts]))

    def model_bytes(self) -> int:
        """Download size of the embedding function (Table 7 'Model')."""
        terms = sum(len(t) + 8 for t in self.vocab.term_to_id)
        return int(self.projection.nbytes) + terms
