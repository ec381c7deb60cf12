"""Vocabulary and document-frequency statistics.

The tf-idf and BM25 baselines, and the LSA embedder, all share this
term dictionary.  It also implements the dictionary restriction that
Coeus applies (keeping only the top-k terms by inverse document
frequency), which SS8.2 shows collapses search quality on corpora with
many document-specific keywords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


@dataclass
class Vocabulary:
    """Term dictionary with document frequencies over a corpus."""

    term_to_id: dict[str, int]
    doc_freq: list[int]
    num_docs: int

    @classmethod
    def build(
        cls,
        token_lists: list[list[str]],
        min_df: int = 1,
        max_terms: int | None = None,
    ) -> "Vocabulary":
        """Build from analyzed documents.

        ``min_df`` drops rare terms; ``max_terms`` keeps the most
        frequent ones (by document frequency) when set.
        """
        df: dict[str, int] = {}
        for tokens in token_lists:
            for term in set(tokens):
                df[term] = df.get(term, 0) + 1
        terms = [t for t, c in df.items() if c >= min_df]
        terms.sort(key=lambda t: (-df[t], t))
        if max_terms is not None:
            terms = terms[:max_terms]
        terms.sort()
        return cls(
            term_to_id={t: i for i, t in enumerate(terms)},
            doc_freq=[df[t] for t in terms],
            num_docs=len(token_lists),
        )

    def __len__(self) -> int:
        return len(self.term_to_id)

    def __contains__(self, term: str) -> bool:
        return term in self.term_to_id

    def id_of(self, term: str) -> int | None:
        return self.term_to_id.get(term)

    def idf(self, term_id: int) -> float:
        """Smoothed inverse document frequency."""
        return math.log((1 + self.num_docs) / (1 + self.doc_freq[term_id])) + 1.0

    @cached_property
    def idf_table(self) -> tuple[float, ...]:
        """:meth:`idf` of every term id, computed once per vocabulary."""
        return tuple(self.idf(i) for i in range(len(self)))

    def restrict_to_top_idf(self, k: int) -> "Vocabulary":
        """Coeus-style restriction: keep the k highest-IDF terms.

        High IDF means rare; Coeus keeps the 65K stemmed words that
        appear in the fewest documents (SS8.2).
        """
        order = sorted(
            self.term_to_id,
            key=lambda t: (self.doc_freq[self.term_to_id[t]], t),
        )
        kept = sorted(order[:k])
        return Vocabulary(
            term_to_id={t: i for i, t in enumerate(kept)},
            doc_freq=[self.doc_freq[self.term_to_id[t]] for t in kept],
            num_docs=self.num_docs,
        )
