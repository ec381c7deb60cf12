"""Search-quality evaluation harness (Fig. 4, Fig. 9 y-axis).

:class:`TiptoeQualitySim` reproduces Tiptoe's *search quality* without
running the cryptography: the crypto layers are exact (they change
nothing about which documents rank where -- verified by the
integration tests), so quality sweeps over hundreds of queries use
this fast path.  It supports the ablation ladder's intermediate
configurations:

* ``exhaustive`` -- rank every document by quantized inner product
  (Fig. 9 step 1: no clustering);
* ``cluster`` -- rank only the chosen cluster, return its top-k
  (step 2: clustering, per-URL retrieval);
* ``cluster+batch`` -- additionally restrict output to the URL batch
  containing the best match (steps 3-4; whether batches are scattered
  or content-grouped comes from the index's configuration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import TiptoeConfig
from repro.core.indexer import TiptoeIndex
from repro.corpus.benchmark import QueryBenchmark
from repro.embeddings.quantize import quantize
from repro.evalx.metrics import mrr_at_k, rank_cdf


@dataclass
class TiptoeQualitySim:
    """Crypto-free Tiptoe ranking over a built index.

    ``probes`` > 1 models the SS8.2 hypothetical of querying several
    clusters: quality improves, but every probed cluster costs a full
    extra ranking query and URL fetch (the multiprobe benchmark
    quantifies the trade).
    """

    index: TiptoeIndex
    mode: str = "cluster+batch"
    probes: int = 1

    _MODES = ("exhaustive", "cluster", "cluster+batch")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}")
        if self.probes < 1:
            raise ValueError("must probe at least one cluster")
        cfg = self.index.config
        gain = self.index.quantization_gain
        self._quantized = quantize(
            self.index.embeddings * gain, cfg.quantization()
        )

    @classmethod
    def build(
        cls,
        texts: list[str],
        urls: list[str],
        config: TiptoeConfig | None = None,
        mode: str = "cluster+batch",
        embedder=None,
        embeddings: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> "TiptoeQualitySim":
        config = config if config is not None else TiptoeConfig()
        index = TiptoeIndex.build(
            texts, urls, config, embedder=embedder, embeddings=embeddings,
            rng=rng,
        )
        return cls(index=index, mode=mode)

    # -- query path (mirrors TiptoeClient.search, minus encryption) --------

    def _embed(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        embedder = self.index.embedder
        vec = embedder.embed(query)
        if self.index.pca is not None:
            vec = self.index.pca.transform(vec)
        gain = self.index.quantization_gain
        return vec, quantize(vec * gain, self.index.config.quantization())

    def chosen_cluster(self, query: str) -> int:
        vec, _ = self._embed(query)
        return int(np.argmax(self.index.clusters.centroids @ vec))

    def rank(self, query: str, k: int = 100) -> list[int]:
        """Document ids Tiptoe would return, best first."""
        vec, q_emb = self._embed(query)
        if self.mode == "exhaustive":
            scores = self._quantized @ q_emb
            return [int(i) for i in np.argsort(-scores, kind="stable")[:k]]
        layout = self.index.layout
        probed = self.index.clusters.nearest_clusters(vec, self.probes)
        batch_size = self.index.config.url_batch_size
        scored: dict[int, int] = {}
        allowed_batches: set[int] = set()
        for cluster in probed:
            docs = layout.cluster_doc_ids[cluster]
            scores = self._quantized[docs] @ q_emb
            offset = int(layout.cluster_offsets[cluster])
            storage = self._storage_positions(offset, len(docs))
            best_row = int(np.argmax(scores))
            allowed_batches.add(int(storage[best_row]) // batch_size)
            for row, doc in enumerate(docs):
                score = int(scores[row])
                if doc not in scored or score > scored[doc][0]:
                    scored[doc] = (score, int(storage[row]) // batch_size)
        order = sorted(scored, key=lambda d: -scored[d][0])
        if self.mode == "cluster":
            return order[:k]
        # cluster+batch: one URL batch is fetched per probed cluster.
        ranked = [d for d in order if scored[d][1] in allowed_batches]
        return ranked[:k]

    def _storage_positions(self, offset: int, count: int) -> np.ndarray:
        positions = np.arange(offset, offset + count)
        if self.index.url_position_map is not None:
            return self.index.url_position_map[positions]
        return positions

    def cluster_hit(self, query: str, target_doc: int) -> bool:
        """Did the client probe a cluster containing the target?

        The hit rate bounds Tiptoe's quality -- the dotted line of
        Fig. 4 (right).
        """
        cluster = self.chosen_cluster(query)
        return cluster in self.index.clusters.doc_to_clusters[target_doc]


@dataclass
class QualityReport:
    """MRR@k and rank CDFs for a set of systems on one benchmark."""

    k: int
    mrr: dict[str, float]
    cdf: dict[str, np.ndarray]
    per_family_mrr: dict[str, dict[str, float]]

    def ordering(self) -> list[str]:
        """System names sorted best-first by MRR."""
        return sorted(self.mrr, key=self.mrr.get, reverse=True)


def evaluate_systems(
    benchmark: QueryBenchmark,
    systems: dict[str, object],
    k: int = 100,
) -> QualityReport:
    """Run every system over every query; systems expose ``rank``."""
    targets = [q.target_doc_id for q in benchmark.queries]
    mrr: dict[str, float] = {}
    cdf: dict[str, np.ndarray] = {}
    per_family: dict[str, dict[str, float]] = {}
    for name, system in systems.items():
        ranked = [system.rank(q.text, k) for q in benchmark.queries]
        mrr[name] = mrr_at_k(ranked, targets, k)
        cdf[name] = rank_cdf(ranked, targets, k)
        per_family[name] = {}
        for family in set(q.family for q in benchmark.queries):
            idx = [
                i for i, q in enumerate(benchmark.queries) if q.family == family
            ]
            per_family[name][family] = mrr_at_k(
                [ranked[i] for i in idx], [targets[i] for i in idx], k
            )
    return QualityReport(k=k, mrr=mrr, cdf=cdf, per_family_mrr=per_family)


def cluster_hit_rate(sim: TiptoeQualitySim, benchmark: QueryBenchmark) -> float:
    """Fraction of queries probing a cluster that contains the target."""
    hits = sum(
        sim.cluster_hit(q.text, q.target_doc_id) for q in benchmark.queries
    )
    return hits / len(benchmark.queries)
