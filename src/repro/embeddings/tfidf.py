"""tf-idf vectors and the cosine-similarity retrieval baseline (SS8.2).

The paper compares Tiptoe against classic tf-idf with an unrestricted
dictionary (MRR@100 about 0.27 on MS MARCO) and against tf-idf with
Coeus's restricted dictionary (MRR@100 of 0).  Both configurations run
through this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.embeddings.tokenizer import analyze
from repro.embeddings.vocab import Vocabulary


@functools.lru_cache(maxsize=1024)
def _log_tf(count: int) -> float:
    """Sublinear term frequency ``1 + ln(count)``, memoised per count.

    Deliberately ``np.log`` (not ``math.log``, which need not round the
    same way), so every weight keeps its bits.
    """
    return 1.0 + np.log(count)


@dataclass
class TfidfModel:
    """Maps analyzed documents to L2-normalized tf-idf vectors."""

    vocab: Vocabulary

    def vectorize_tokens(self, tokens: list[str]) -> dict[int, float]:
        """A sparse tf-idf vector (term-id -> weight), L2-normalized."""
        counts: dict[int, int] = {}
        id_of = self.vocab.term_to_id.get
        for term in tokens:
            tid = id_of(term)
            if tid is not None:
                counts[tid] = counts.get(tid, 0) + 1
        if not counts:
            return {}
        idf = self.vocab.idf_table
        weights = {tid: _log_tf(c) * idf[tid] for tid, c in counts.items()}
        norm = float(np.sqrt(sum(w * w for w in weights.values())))
        return {tid: w / norm for tid, w in weights.items()}

    def vectorize(self, text: str) -> dict[int, float]:
        return self.vectorize_tokens(analyze(text))

    def matrix(self, token_lists: list[list[str]]) -> sparse.csr_matrix:
        """Stack document vectors into a (docs x terms) CSR matrix."""
        rows, cols, vals = [], [], []
        for i, tokens in enumerate(token_lists):
            for tid, w in self.vectorize_tokens(tokens).items():
                rows.append(i)
                cols.append(tid)
                vals.append(w)
        return sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(token_lists), len(self.vocab))
        )


class TfidfRetriever:
    """Exhaustive cosine-similarity ranking over tf-idf vectors."""

    def __init__(self, documents: list[str], max_terms: int | None = None):
        self._token_lists = [analyze(doc) for doc in documents]
        self.vocab = Vocabulary.build(self._token_lists, max_terms=max_terms)
        self.model = TfidfModel(self.vocab)
        self._matrix = self.model.matrix(self._token_lists)

    @classmethod
    def with_restricted_vocab(
        cls, documents: list[str], top_idf_terms: int
    ) -> "TfidfRetriever":
        """The Coeus configuration: top-k terms by IDF only."""
        retriever = cls.__new__(cls)
        retriever._token_lists = [analyze(doc) for doc in documents]
        full = Vocabulary.build(retriever._token_lists)
        retriever.vocab = full.restrict_to_top_idf(top_idf_terms)
        retriever.model = TfidfModel(retriever.vocab)
        retriever._matrix = retriever.model.matrix(retriever._token_lists)
        return retriever

    @property
    def num_documents(self) -> int:
        return self._matrix.shape[0]

    def scores(self, query: str) -> np.ndarray:
        """Cosine similarity of the query against every document."""
        qvec = self.model.vectorize(query)
        if not qvec:
            return np.zeros(self.num_documents)
        q = sparse.csr_matrix(
            (
                list(qvec.values()),
                ([0] * len(qvec), list(qvec.keys())),
            ),
            shape=(1, len(self.vocab)),
        )
        return np.asarray((self._matrix @ q.T).todense()).ravel()

    def rank(self, query: str, k: int = 100) -> list[int]:
        """Document ids of the top-k matches, best first."""
        scores = self.scores(query)
        top = np.argsort(-scores, kind="stable")[:k]
        return [int(i) for i in top]

    def index_bytes(self) -> int:
        """Approximate index size (CSR data + indices), for Table 6."""
        return int(
            self._matrix.data.nbytes
            + self._matrix.indices.nbytes
            + self._matrix.indptr.nbytes
        )
