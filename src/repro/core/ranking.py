"""The private nearest-neighbor ranking protocol (SS4, Fig. 10).

Client side: build the augmented query vector q-tilde -- zero
everywhere except the chosen cluster's block, which holds the
quantized query embedding -- and encrypt it.  Server side
(:mod:`repro.core.cluster_runtime`): one big product over the Fig. 3
matrix.  The server touches every cluster (privacy demands the full
linear scan); the layout makes the answer contain exactly the chosen
cluster's inner-product scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.homenc.double import DoubleLheScheme
from repro.lwe.params import LweParams
from repro.lwe.regev import Ciphertext, stack_ciphertexts


@dataclass
class RankingQuery:
    """One ranking query: a single fixed-size inner ciphertext."""

    ciphertext: Ciphertext

    def wire_bytes(self) -> int:
        return self.ciphertext.upload_bytes


@dataclass
class RankingAnswer:
    """Encrypted inner-product scores for the (hidden) chosen cluster."""

    values: np.ndarray
    bytes_per_element: int

    def wire_bytes(self) -> int:
        return len(self.values) * self.bytes_per_element


@dataclass
class RankingBatch:
    """Q stacked ranking queries: one ciphertext per column.

    This is the unit the batch plane moves end to end: the scheduler
    coalesces queries into one batch and each shard runs a single
    matrix-matrix product of its column block against its row-slice of
    the stack.  Column order is the fan-out order, so answer column i
    always belongs to query i.
    """

    stacked: np.ndarray  # (m, Q), one query ciphertext per column
    params: LweParams

    def __post_init__(self) -> None:
        if self.stacked.ndim != 2:
            raise ValueError("a ranking batch must be a (m, Q) matrix")
        if self.stacked.shape[0] != self.params.m:
            raise ValueError(
                f"batch has {self.stacked.shape[0]} ciphertext rows,"
                f" expected {self.params.m}"
            )
        if self.stacked.shape[1] == 0:
            raise ValueError("a ranking batch must hold at least one query")

    @classmethod
    def from_queries(
        cls, queries: Sequence[RankingQuery]
    ) -> "RankingBatch":
        """Stack Q individual queries into one batch (column i = query i)."""
        if not queries:
            raise ValueError("cannot build a batch from zero queries")
        stacked = stack_ciphertexts([q.ciphertext for q in queries])
        return cls(stacked=stacked, params=queries[0].ciphertext.params)

    @property
    def size(self) -> int:
        return self.stacked.shape[1]

    def wire_bytes(self) -> int:
        return self.stacked.size * self.params.bytes_per_element


@dataclass
class RankingBatchAnswer:
    """The stacked evaluated ciphertexts for one batch (column i =
    query i's answer, whatever else is in the batch)."""

    stacked: np.ndarray  # (rows, Q)
    bytes_per_element: int

    def __post_init__(self) -> None:
        if self.stacked.ndim != 2:
            raise ValueError("a batch answer must be a (rows, Q) matrix")

    @property
    def size(self) -> int:
        return self.stacked.shape[1]

    def split(self) -> list[RankingAnswer]:
        """Fan the columns back out into per-query answers."""
        return [
            RankingAnswer(
                values=self.stacked[:, i],
                bytes_per_element=self.bytes_per_element,
            )
            for i in range(self.stacked.shape[1])
        ]

    def wire_bytes(self) -> int:
        return self.stacked.size * self.bytes_per_element


def build_query_vector(
    query_embedding: np.ndarray, cluster_index: int, num_clusters: int
) -> np.ndarray:
    """The augmented vector q-tilde of Fig. 10 (step 1).

    ``query_embedding`` is the quantized (integer) query vector.
    """
    dim = len(query_embedding)
    if not 0 <= cluster_index < num_clusters:
        raise IndexError(f"cluster index {cluster_index} out of range")
    q_tilde = np.zeros(dim * num_clusters, dtype=np.int64)
    block = slice(cluster_index * dim, (cluster_index + 1) * dim)
    q_tilde[block] = query_embedding
    return q_tilde


class RankingClient:
    """Client-side query construction and score recovery."""

    def __init__(self, scheme: DoubleLheScheme, dim: int, num_clusters: int):
        self.scheme = scheme
        self.dim = dim
        self.num_clusters = num_clusters
        if scheme.params.inner.m != dim * num_clusters:
            raise ValueError(
                "scheme upload dimension does not match dim * clusters"
            )

    def build_query(
        self,
        keys,
        query_embedding: np.ndarray,
        cluster_index: int,
        rng: np.random.Generator | None = None,
    ) -> RankingQuery:
        q_tilde = build_query_vector(
            query_embedding, cluster_index, self.num_clusters
        )
        return RankingQuery(ciphertext=self.scheme.encrypt(keys, q_tilde, rng))

    def decode_scores(
        self, keys, answer: RankingAnswer, hint_product: np.ndarray
    ) -> np.ndarray:
        """Centered inner-product scores, one per cluster row."""
        return self.scheme.decrypt_centered(keys, answer.values, hint_product)
