"""The cluster index: centroids, assignments, and boundary duplication.

This is the artifact the data-loading batch jobs produce for the
ranking service (SS3.2): unit-norm centroids (the client's ahead-of-
time download) and the per-cluster document lists (the layout of the
ranking matrix).  Following SS7, 20% of documents -- those closest to a
cluster boundary -- are assigned to their two nearest clusters, for a
~1.2x index-size overhead and a +0.015 MRR@100 gain (Fig. 9, step 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.balance import split_oversized
from repro.cluster.kmeans import spherical_kmeans


@dataclass
class ClusterIndex:
    """Centroids plus cluster membership for a document corpus."""

    centroids: np.ndarray
    assignments: list[list[int]]
    doc_to_clusters: list[list[int]]

    @classmethod
    def build(
        cls,
        embeddings: np.ndarray,
        target_cluster_size: int,
        rng: np.random.Generator,
        boundary_fraction: float = 0.2,
        sample_size: int | None = None,
    ) -> "ClusterIndex":
        """Run the full SS7 pipeline: cluster, balance, multi-assign."""
        if not 0.0 <= boundary_fraction < 1.0:
            raise ValueError("boundary fraction must be in [0, 1)")
        embeddings = np.asarray(embeddings, dtype=np.float64)
        n = embeddings.shape[0]
        k = max(1, -(-n // target_cluster_size))
        result = spherical_kmeans(
            embeddings, k, rng, sample_size=sample_size
        )
        centroids, labels = split_oversized(
            embeddings,
            result.centroids,
            result.labels,
            max_size=max(1, int(target_cluster_size * 1.5)),
            rng=rng,
        )
        num_clusters = centroids.shape[0]
        assignments: list[list[int]] = [[] for _ in range(num_clusters)]
        doc_to_clusters: list[list[int]] = [[] for _ in range(n)]
        for doc, label in enumerate(labels):
            assignments[label].append(doc)
            doc_to_clusters[doc].append(int(label))
        if boundary_fraction > 0.0 and num_clusters > 1:
            cls._assign_boundaries(
                embeddings,
                centroids,
                labels,
                boundary_fraction,
                assignments,
                doc_to_clusters,
            )
        return cls(
            centroids=centroids,
            assignments=assignments,
            doc_to_clusters=doc_to_clusters,
        )

    @staticmethod
    def _assign_boundaries(
        embeddings: np.ndarray,
        centroids: np.ndarray,
        labels: np.ndarray,
        fraction: float,
        assignments: list[list[int]],
        doc_to_clusters: list[list[int]],
    ) -> None:
        sims = embeddings @ centroids.T
        order = np.argsort(-sims, axis=1)
        second = np.where(order[:, 0] == labels, order[:, 1], order[:, 0])
        best_sim = sims[np.arange(len(labels)), labels]
        second_sim = sims[np.arange(len(labels)), second]
        margin = best_sim - second_sim  # small margin = near a boundary
        budget = int(len(labels) * fraction)
        for doc in np.argsort(margin)[:budget]:
            assignments[second[doc]].append(int(doc))
            doc_to_clusters[doc].append(int(second[doc]))

    @property
    def num_clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def num_documents(self) -> int:
        return len(self.doc_to_clusters)

    def max_cluster_size(self) -> int:
        return max(len(a) for a in self.assignments)

    def total_assignments(self) -> int:
        """Total slots including duplicates (the 1.2x overhead)."""
        return sum(len(a) for a in self.assignments)

    def duplication_overhead(self) -> float:
        return self.total_assignments() / max(1, self.num_documents)

    def nearest_cluster(self, query_embedding: np.ndarray) -> int:
        """The client-side cluster pick: max inner product centroid."""
        return int(np.argmax(self.centroids @ np.asarray(query_embedding)))

    def nearest_clusters(self, query_embedding: np.ndarray, k: int) -> list[int]:
        sims = self.centroids @ np.asarray(query_embedding)
        return [int(i) for i in np.argsort(-sims)[:k]]

    def centroid_bytes(self, compressed: bool = False) -> int:
        """Client download size of the centroid table.

        ``compressed`` models the paper's compressed-update format,
        which ships ~1 byte per dimension instead of a float32.
        """
        per_value = 1 if compressed else 4
        return int(self.centroids.size * per_value)
