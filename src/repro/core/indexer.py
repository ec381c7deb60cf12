"""The data-loading batch jobs (SS3.2): embed, cluster, preprocess.

``TiptoeIndex.build`` converts a raw corpus (texts + URLs, or
precomputed embeddings for image search) into everything the two
client-facing services need:

1. *Embed*: run every document through the server-chosen embedding
   function (and PCA), then quantize to fixed precision.
2. *Cluster*: spherical k-means with balancing and boundary
   multi-assignment; the centroids become client metadata.
3. *Build matrices*: the ranking matrix of Fig. 3 (one column block
   per cluster, one row per within-cluster position) and the
   positional URL batches, laid out consistently so a ranking row
   maps to a URL batch by arithmetic alone.
4. *Preprocess cryptography*: the SimplePIR hints and their
   modulus-switched forms for both services.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster import ClusterIndex
from repro.core.config import TiptoeConfig
from repro.core.costs import CostLedger
from repro.corpus.urls import UrlBatch, UrlBatcher
from repro.embeddings.lsa import LsaEmbedder
from repro.embeddings.pca import PcaReducer
from repro.embeddings.quantize import auto_gain, quantize_gained
from repro.homenc.double import DoubleLheParams, DoubleLheScheme
from repro.homenc.token import TokenFactory
from repro.lwe import sampling
from repro.lwe.params import LweParams, SecurityLevel, select_params
from repro.pir.database import PackedDatabase

#: Outer (RLWE) ring dimension per security level.
_OUTER_N = {
    SecurityLevel.TOY: 64,
    SecurityLevel.LIGHT: 256,
    SecurityLevel.PAPER_128: 2048,
}


def ranking_scheme_for(
    config: TiptoeConfig, num_columns: int, a_seed: bytes | None = None
) -> DoubleLheScheme:
    """The ranking service's double-LHE scheme for an m-column matrix.

    ``a_seed`` pins the public LWE matrix A; a builder that wants
    reproducible (and delta-reusable) preprocessing derives it from its
    build RNG, otherwise a fresh random seed is drawn.
    """
    p_rank = config.ranking_plaintext_modulus()
    config.quantization().check_modulus(p_rank, config.effective_dim)
    rank_cfg = select_params(64, num_columns, config.security, p=p_rank)
    return DoubleLheScheme(
        DoubleLheParams(
            inner=LweParams(
                n=rank_cfg.n,
                q_bits=64,
                p=p_rank,
                sigma=rank_cfg.sigma,
                m=num_columns,
            ),
            outer_n=_OUTER_N[config.security],
        ),
        a_seed=a_seed if a_seed is not None else sampling.random_seed(),
    )


def url_side_for(
    url_batches: list[UrlBatch],
    config: TiptoeConfig,
    a_seed: bytes | None = None,
) -> tuple[PackedDatabase, DoubleLheScheme]:
    """Pack the URL batches and build the URL service's scheme."""
    records = [b.payload for b in url_batches]
    width = max(2, len(records))
    budget = select_params(32, width, config.security)
    p_url = max(16, min(budget.p, 1 << 16))
    db = PackedDatabase.from_records(records, p_url)
    scheme = DoubleLheScheme(
        DoubleLheParams(
            inner=LweParams(
                n=budget.n,
                q_bits=32,
                p=p_url,
                sigma=budget.sigma,
                m=db.num_cols,
            ),
            outer_n=_OUTER_N[config.security],
        ),
        a_seed=a_seed if a_seed is not None else sampling.random_seed(),
    )
    return db, scheme


def layout_from_cluster_streams(
    streams, dim: int, sizes: np.ndarray
) -> RankingLayout:
    """Assemble the Fig. 3 ranking matrix from per-cluster streams.

    ``streams`` yields one ``(doc_ids, rows)`` pair per cluster in
    cluster order, where ``rows`` is the ``(len(doc_ids), dim)`` int64
    quantized block; ``sizes`` is the per-cluster size vector (known
    from the assignment stage before any block is materialized).  Only
    one cluster's block is in flight at a time on top of the output
    matrix itself -- the streaming counterpart of ``_build_layout``'s
    whole-corpus ``quantized[docs]`` gather, producing bit-identical
    layouts.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    num_clusters = sizes.shape[0]
    max_size = int(sizes.max()) if num_clusters else 0
    matrix = np.zeros((max_size, dim * num_clusters), dtype=np.int64)
    cluster_doc_ids: list[list[int]] = []
    for c, (doc_ids, rows) in enumerate(streams):
        if len(doc_ids) != int(sizes[c]) or rows.shape != (len(doc_ids), dim):
            raise ValueError(
                f"cluster {c}: stream shape {rows.shape} does not match"
                f" declared size {int(sizes[c])}"
            )
        matrix[: len(doc_ids), c * dim : (c + 1) * dim] = rows
        cluster_doc_ids.append([int(d) for d in doc_ids])
    if len(cluster_doc_ids) != num_clusters:
        raise ValueError(
            f"stream yielded {len(cluster_doc_ids)} clusters, expected"
            f" {num_clusters}"
        )
    offsets = np.zeros(num_clusters, dtype=np.int64)
    if num_clusters > 1:
        offsets[1:] = np.cumsum(sizes)[:-1]
    return RankingLayout(
        matrix=matrix,
        cluster_doc_ids=cluster_doc_ids,
        cluster_sizes=sizes,
        cluster_offsets=offsets,
        dim=dim,
    )


@dataclass
class RankingLayout:
    """The Fig. 3 matrix plus the bookkeeping to interpret its rows."""

    matrix: np.ndarray  # (max_cluster_size, dim * num_clusters), int64
    cluster_doc_ids: list[list[int]]
    cluster_sizes: np.ndarray
    cluster_offsets: np.ndarray  # start of each cluster in URL layout
    dim: int

    @property
    def num_clusters(self) -> int:
        return len(self.cluster_doc_ids)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    def position_of(self, cluster: int, row: int) -> int:
        """Global URL-layout position of a (cluster, row) pair."""
        if row >= self.cluster_sizes[cluster]:
            raise IndexError("row beyond the cluster's real size")
        return int(self.cluster_offsets[cluster]) + row

    def doc_id_of(self, cluster: int, row: int) -> int:
        """Ground-truth document id (evaluation only; not client data)."""
        return self.cluster_doc_ids[cluster][row]


@dataclass(frozen=True)
class ClientMetadata:
    """What a client downloads before its first query (SS3.2).

    At paper scale this is the 68 MiB "cluster centroids and associated
    metadata"; its byte size here is counted the same way.
    """

    centroids: np.ndarray
    cluster_sizes: np.ndarray
    cluster_offsets: np.ndarray
    dim: int
    url_batch_size: int
    num_url_batches: int
    results_per_query: int
    quantization_gain: float = 1.0

    def download_bytes(self, compressed: bool = False) -> int:
        per_value = 1 if compressed else 4
        return int(
            self.centroids.size * per_value + self.cluster_sizes.size * 4
        )


@dataclass
class TiptoeIndex:
    """Everything the batch jobs produce for one corpus snapshot."""

    config: TiptoeConfig
    embedder: object
    pca: PcaReducer | None
    clusters: ClusterIndex
    layout: RankingLayout
    url_batches: list[UrlBatch]
    url_db: PackedDatabase
    ranking_scheme: DoubleLheScheme
    url_scheme: DoubleLheScheme
    ranking_prep: object
    url_prep: object
    token_factory: TokenFactory
    build_ledger: CostLedger
    embeddings: np.ndarray = field(repr=False, default=None)
    url_position_map: np.ndarray | None = field(repr=False, default=None)
    quantization_gain: float = 1.0
    #: Sidecar metadata (plan parameters keyed by service) when this
    #: index was loaded from a ``repro.index/v2`` artifact with a
    #: validated ``precompute.npz``; None otherwise.
    precompute: dict | None = field(repr=False, default=None)
    #: Margin threshold of the streaming boundary rule (ingest-built
    #: indexes).  None for the one-shot batch build, whose boundary
    #: duplication uses the corpus-global budget rule instead.
    boundary_threshold: float | None = None
    #: Per-document SHA-256 content digests, shape (num_docs, 32)
    #: uint8 (ingest-built indexes).  The delta reindex diffs a new
    #: corpus snapshot against these to find changed documents.
    doc_digests: np.ndarray | None = field(repr=False, default=None)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        texts: list[str],
        urls: list[str],
        config: TiptoeConfig,
        embedder=None,
        embeddings: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> "TiptoeIndex":
        """Run the full data-loading pipeline over a corpus."""
        if len(texts) != len(urls):
            raise ValueError("need exactly one URL per document")
        if not texts:
            raise ValueError("cannot index an empty corpus")
        rng = sampling.resolve_rng(rng, fallback_seed=0)
        ledger = CostLedger()

        # 1. Embed.
        if embeddings is None:
            if embedder is None:
                embedder = LsaEmbedder.fit(texts, dim=config.embedding_dim)
            embeddings = embedder.embed_batch(texts)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.shape != (len(texts), config.embedding_dim):
            raise ValueError(
                f"embeddings have shape {embeddings.shape}, expected"
                f" ({len(texts)}, {config.embedding_dim})"
            )
        ledger.add("embed", embeddings.size)
        pca = None
        if config.pca_dim is not None and config.pca_dim < config.embedding_dim:
            pca = PcaReducer.fit(embeddings, config.pca_dim)
            embeddings = pca.transform(embeddings)
            ledger.add("pca", embeddings.size * config.embedding_dim)

        # 2. Cluster.
        target = config.cluster_size_for(len(texts))
        clusters = ClusterIndex.build(
            embeddings,
            target_cluster_size=target,
            rng=rng,
            boundary_fraction=config.boundary_fraction,
            sample_size=config.cluster_sample_size,
        )
        ledger.add(
            "cluster", len(texts) * clusters.num_clusters * embeddings.shape[1]
        )

        # 3. Ranking matrix + URL layout.  A server-chosen gain
        # spreads the embedding entries over the fixed-precision range
        # (published to clients with the metadata).  Quantization runs
        # per row-chunk through one bounded scratch buffer instead of
        # materializing a gained float64 copy of the whole corpus next
        # to the int64 result.
        gain = auto_gain(embeddings)
        quantized = quantize_gained(embeddings, gain, config.quantization())
        layout = cls._build_layout(quantized, clusters)
        batcher = UrlBatcher(batch_size=config.url_batch_size)
        layout_urls = [
            urls[doc]
            for members in layout.cluster_doc_ids
            for doc in members
        ]
        url_position_map = None
        if not config.group_urls_by_content:
            # Fig. 9 step-3-only ablation: scatter URLs across batches
            # so a fetched batch shares no topical structure with the
            # top result.  The permutation becomes (bulky) client
            # metadata; that bulk is exactly why the paper groups by
            # content instead.
            perm = rng.permutation(len(layout_urls))
            scattered = [""] * len(layout_urls)
            for i, target in enumerate(perm):
                scattered[target] = layout_urls[i]
            layout_urls = scattered
            url_position_map = perm
        url_batches = batcher.build_positional_batches(layout_urls)

        # 4. Cryptographic preprocessing.  Both A-seeds derive from the
        # build RNG (ranking first, then URL), so a seeded build is
        # fully deterministic end to end -- which is also what lets a
        # delta rebuild reuse per-cluster hint contributions.
        ranking_scheme = ranking_scheme_for(
            config, layout.matrix.shape[1], a_seed=rng.bytes(32)
        )
        url_db, url_scheme = url_side_for(
            url_batches, config, a_seed=rng.bytes(32)
        )
        ranking_prep = ranking_scheme.preprocess(layout.matrix)
        url_prep = url_scheme.preprocess(url_db.matrix)
        ledger.add(
            "crypto",
            ranking_scheme.inner.preprocess_word_ops(layout.rows)
            + url_scheme.inner.preprocess_word_ops(url_db.num_rows),
        )
        token_factory = TokenFactory()
        token_factory.register("ranking", ranking_scheme, ranking_prep)
        token_factory.register("url", url_scheme, url_prep)
        return cls(
            config=config,
            embedder=embedder,
            pca=pca,
            clusters=clusters,
            layout=layout,
            url_batches=url_batches,
            url_db=url_db,
            ranking_scheme=ranking_scheme,
            url_scheme=url_scheme,
            ranking_prep=ranking_prep,
            url_prep=url_prep,
            token_factory=token_factory,
            build_ledger=ledger,
            embeddings=embeddings,
            url_position_map=url_position_map,
            quantization_gain=gain,
        )

    @staticmethod
    def _build_layout(
        quantized: np.ndarray, clusters: ClusterIndex
    ) -> RankingLayout:
        dim = quantized.shape[1]
        members = clusters.assignments
        sizes = np.array([len(m) for m in members], dtype=np.int64)
        max_size = int(sizes.max())
        matrix = np.zeros((max_size, dim * len(members)), dtype=np.int64)
        for c, docs in enumerate(members):
            block = slice(c * dim, (c + 1) * dim)
            matrix[: len(docs), block] = quantized[docs]
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        return RankingLayout(
            matrix=matrix,
            cluster_doc_ids=[list(m) for m in members],
            cluster_sizes=sizes,
            cluster_offsets=offsets,
            dim=dim,
        )

    @staticmethod
    def _build_url_side(
        url_batches: list[UrlBatch],
        config: TiptoeConfig,
        a_seed: bytes | None = None,
    ) -> tuple[PackedDatabase, DoubleLheScheme]:
        return url_side_for(url_batches, config, a_seed=a_seed)

    # -- persistence ---------------------------------------------------------

    def save(self, path, *, precompute: bool = False) -> None:
        """Persist the build outputs (see :mod:`repro.core.artifacts`).

        A later ``TiptoeIndex.load(path)`` -- typically in a
        ``python -m repro serve`` process -- reconstructs an index
        whose searches are bit-identical to this one's.  With
        ``precompute=True`` the artifact also gets the
        ``precompute.npz`` sidecar, which removes the hint NTTs and
        plan scans from serve cold-start.
        """
        from repro.core.artifacts import save_index

        save_index(self, path, precompute=precompute)

    @classmethod
    def load(cls, path) -> "TiptoeIndex":
        """Load an index previously written by :meth:`save`."""
        from repro.core.artifacts import load_index

        return load_index(path)

    # -- accessors -----------------------------------------------------------

    @property
    def num_docs(self) -> int:
        return len(self.clusters.doc_to_clusters)

    def client_metadata(self) -> ClientMetadata:
        return ClientMetadata(
            centroids=self.clusters.centroids,
            cluster_sizes=self.layout.cluster_sizes,
            cluster_offsets=self.layout.cluster_offsets,
            dim=self.layout.dim,
            url_batch_size=self.config.url_batch_size,
            num_url_batches=len(self.url_batches),
            results_per_query=self.config.results_per_query,
            quantization_gain=self.quantization_gain,
        )

    def model_bytes(self) -> int:
        """Client download size of the embedding model + PCA map."""
        total = 0
        if hasattr(self.embedder, "model_bytes"):
            total += self.embedder.model_bytes()
        if self.pca is not None:
            total += self.pca.projection_bytes()
        return total

    def index_storage_bytes(self) -> int:
        """Server-side index size (embeddings + URL database)."""
        # 4-bit entries: two per byte, as the paper stores them.
        ranking = self.layout.matrix.size // 2
        return int(ranking + self.url_db.storage_bytes())
