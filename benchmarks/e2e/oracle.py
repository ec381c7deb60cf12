"""Plaintext oracle: what a search must return, computed in the clear.

For a query text the oracle recomputes, from the loaded index alone and
without touching any ciphertext, the cluster choice, the quantised inner
products against ``index.layout`` and the URL of the best match.  A
private search passes only if its cluster, ranked positions, scores and
top URL are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Expected:
    cluster: int
    #: Exact inner products against every real row of the cluster.
    scores: np.ndarray
    #: Layout positions of the top-k rows, best first (stable on ties).
    positions: tuple[int, ...]
    top_scores: tuple[int, ...]
    url: str | None


class Oracle:
    def __init__(self, index):
        self.index = index
        self._urls: dict[int, dict[int, str]] = {}

    def quantized_query(self, text: str) -> tuple[np.ndarray, int]:
        """(quantised embedding, nearest cluster) of a query text."""
        index = self.index
        embedder = index.embedder
        embed = getattr(embedder, "embed_text", None) or embedder.embed
        vec = embed(text)
        if index.pca is not None:
            vec = index.pca.transform(vec)
        vec = np.asarray(vec, dtype=np.float64)
        scale = 1 << index.config.precision_bits
        clipped = np.clip(vec * index.quantization_gain, -1.0, 1.0)
        quantized = np.rint(clipped * scale).astype(np.int64)
        cluster = int(np.argmax(index.clusters.centroids @ vec))
        return quantized, cluster

    def _url_at(self, position: int) -> str | None:
        if self.index.url_position_map is not None:
            position = int(self.index.url_position_map[position])
        batch = position // self.index.config.url_batch_size
        if batch not in self._urls:
            self._urls[batch] = self.index.url_batches[batch].decompress()
        return self._urls[batch].get(position) or None

    def expect(self, text: str) -> Expected:
        layout = self.index.layout
        quantized, cluster = self.quantized_query(text)
        size = int(layout.cluster_sizes[cluster])
        block = layout.matrix[
            :size, cluster * layout.dim : (cluster + 1) * layout.dim
        ]
        scores = block @ quantized
        order = np.argsort(-scores, kind="stable")
        top = order[: self.index.config.results_per_query]
        offset = int(layout.cluster_offsets[cluster])
        return Expected(
            cluster=cluster,
            scores=scores,
            positions=tuple(offset + int(r) for r in top),
            top_scores=tuple(int(scores[r]) for r in top),
            url=self._url_at(offset + int(top[0])),
        )


def search_matches(expected: Expected, result) -> bool:
    """Is a ``SearchResult`` identical to the oracle's expectation?"""
    return (
        result.cluster == expected.cluster
        and tuple(r.position for r in result.results) == expected.positions
        and tuple(r.score for r in result.results) == expected.top_scores
        and result.results[0].url == expected.url
    )
