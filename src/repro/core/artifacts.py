"""Versioned persistence for TiptoeIndex build outputs.

The batch jobs (SS3.2) are expensive -- embedding, clustering, and the
cryptographic preprocessing all scale with the corpus -- so a
deployment runs them once and serves from the result.  This module
writes everything :class:`~repro.core.indexer.TiptoeIndex` produced
into a directory, and loads it back *bit-identically*: searches
against a loaded index return exactly the bytes the original index
would have (the regression suite asserts this).

Layout of an artifact directory (schema ``repro.index/v2``)::

    manifest.json   -- schema tag, config, scheme parameters (with the
                       public A-seeds), database scalars, build ledger
    vocab.json      -- the LSA embedder's term dictionary
    arrays.npz      -- every numpy array: ranking layout, centroids,
                       hints (raw + modulus-switched), the packed URL
                       database, embeddings, PCA/LSA projections
    blobs.bin       -- the compressed URL batches, u32-length-prefixed
    precompute.npz  -- OPTIONAL sidecar: the plaintext-side hint NTT
                       tables of both services plus serialized
                       StackedPlan metadata, keyed to arrays.npz by
                       SHA-256 digest (see below)

Ragged structures (cluster membership lists, per-batch doc ids) are
stored flattened next to an offsets array.  Floats ride through JSON
losslessly (``repr`` round-trips IEEE doubles exactly), and the LWE
``A`` matrices are regenerated from their stored seeds, which is why
bit-identical reloads are possible at all.

``v2`` extends ``v1`` with the optional precompute sidecar; a ``v2``
build still loads ``v1`` directories (the sidecar is simply absent).
The sidecar is pure derived data -- every array in it is a
deterministic function of arrays.npz -- so loading it changes no
answer bytes, only cold-start time.  Its members are written
uncompressed and load memory-mapped read-only; a digest mismatch
(sidecar from a different arrays.npz) is rejected with
:class:`ArtifactError` rather than silently serving stale tables.

Both versions persist indexes whose embedder is the in-repo
:class:`~repro.embeddings.lsa.LsaEmbedder` (or none, for the
precomputed-embeddings path); foreign embedder objects are rejected
with a clear error rather than pickled.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.cluster import ClusterIndex
from repro.core.config import TiptoeConfig
from repro.core.costs import CostLedger
from repro.corpus.urls import UrlBatch
from repro.embeddings.lsa import LsaEmbedder
from repro.embeddings.pca import PcaReducer
from repro.embeddings.vocab import Vocabulary
from repro.homenc.double import (
    DoubleLheParams,
    DoubleLheScheme,
    PreprocessedMatrix,
)
from repro.homenc.token import TokenFactory
from repro.lwe.params import LweParams, SecurityLevel
from repro.obs import runtime as obs
from repro.pir.database import PackedDatabase

SCHEMA = "repro.index/v2"
#: Schemas this build can load; v1 directories simply lack the sidecar.
COMPATIBLE_SCHEMAS = ("repro.index/v1", SCHEMA)
#: Schema tag of the precompute sidecar itself.
PRECOMPUTE_SCHEMA = "repro.precompute/v1"

_MANIFEST = "manifest.json"
_VOCAB = "vocab.json"
_ARRAYS = "arrays.npz"
_BLOBS = "blobs.bin"
_PRECOMPUTE = "precompute.npz"

_BLOB_LEN = struct.Struct("<I")


class ArtifactError(RuntimeError):
    """The directory does not hold a loadable index artifact."""


# -- ragged helpers -----------------------------------------------------------


def _flatten(lists) -> tuple[np.ndarray, np.ndarray]:
    """(flat values, offsets) for a list of int lists; offsets has one
    entry per list plus a final sentinel, so list i is
    ``flat[offsets[i]:offsets[i + 1]]``."""
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    for i, members in enumerate(lists):
        offsets[i + 1] = offsets[i] + len(members)
    flat = np.fromiter(
        (x for members in lists for x in members),
        dtype=np.int64,
        count=int(offsets[-1]),
    )
    return flat, offsets


def _unflatten(flat: np.ndarray, offsets: np.ndarray) -> list[list[int]]:
    return [
        [int(x) for x in flat[offsets[i] : offsets[i + 1]]]
        for i in range(len(offsets) - 1)
    ]


# -- scheme (de)serialization -------------------------------------------------


def _scheme_manifest(scheme: DoubleLheScheme) -> dict:
    params = scheme.params
    inner = params.inner
    return {
        "inner": {
            "n": inner.n,
            "q_bits": inner.q_bits,
            "p": inner.p,
            "sigma": inner.sigma,
            "m": inner.m,
        },
        "outer_n": params.outer_n,
        "outer_prime_bits": params.outer_prime_bits,
        "outer_num_primes": params.outer_num_primes,
        "outer_sigma": params.outer_sigma,
        "switch_modulus": params.switch_modulus,
        "a_seed": scheme.inner.a_seed.hex(),
    }


def _scheme_from_manifest(entry: dict) -> DoubleLheScheme:
    return DoubleLheScheme(
        DoubleLheParams(
            inner=LweParams(**entry["inner"]),
            outer_n=entry["outer_n"],
            outer_prime_bits=entry["outer_prime_bits"],
            outer_num_primes=entry["outer_num_primes"],
            outer_sigma=entry["outer_sigma"],
            switch_modulus=entry["switch_modulus"],
        ),
        a_seed=bytes.fromhex(entry["a_seed"]),
    )


def _config_manifest(config: TiptoeConfig) -> dict:
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        out[f.name] = value.value if f.name == "security" else value
    return out


#: Config fields since retired.  Manifests written before then still
#: record them; they are dropped on load.
_RETIRED_CONFIG_KEYS = frozenset(
    {
        "num_workers",
        "precompute_sidecar",
        "token_pool_depth",
        "token_pool_batch",
        "token_prefetch_depth",
    }
)


def _config_from_manifest(entry: dict) -> TiptoeConfig:
    entry = {k: v for k, v in entry.items() if k not in _RETIRED_CONFIG_KEYS}
    unknown = sorted(set(entry) - {f.name for f in fields(TiptoeConfig)})
    if unknown:
        raise ArtifactError(
            f"manifest config has unknown key(s): {', '.join(unknown)}"
        )
    entry["security"] = SecurityLevel(entry["security"])
    return TiptoeConfig(**entry)


# -- the precompute sidecar ---------------------------------------------------


def _file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes (what keys the sidecar to arrays.npz)."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


#: Length of a generation tag: the tagged wire name ``ranking@<tag>``
#: must fit the 16-byte service field of the socket frame, and
#: ``ranking@`` is 8 bytes already.
GENERATION_TAG_LEN = 8


def artifact_digest(path: str | Path) -> str:
    """SHA-256 of an artifact directory's ``arrays.npz``.

    This is the identity of an index generation: two artifacts with the
    same digest serve bit-identical answers.
    """
    arrays_path = Path(path) / _ARRAYS
    if not arrays_path.is_file():
        raise ArtifactError(f"no {_ARRAYS} in {path}; not an index artifact")
    return _file_digest(arrays_path)


def generation_tag(path: str | Path) -> str:
    """The short generation tag for an artifact (8-hex digest prefix).

    Used to pin a client session to one index generation across a
    rolling fleet swap (see :mod:`repro.core.fleet`).
    """
    return artifact_digest(path)[:GENERATION_TAG_LEN]


def write_precompute_sidecar(
    index, path: str | Path, *, kernel_plan: dict | None = None
) -> Path:
    """Write ``precompute.npz`` next to an already-saved artifact.

    The sidecar holds each service's plaintext-side hint NTT table
    (shape ``(n_chunks, k, n_inner, n_outer)``), the serialized
    stacked-plan metadata for the ranking and URL matrices, and
    (optionally) the autotuned ``kernel_plan`` record -- all keyed to
    the exact ``arrays.npz`` it was derived from by SHA-256 digest.
    Everything in it is derived data: a ``serve`` without the sidecar
    computes the same values itself (untuned), redoing the hint NTTs on
    every mint.

    ``kernel_plan`` is a ``{"ranking": ..., "url": ...}`` record from
    :func:`repro.lwe.backends.tune_index`; when None and the index
    config sets ``kernel_autotune``, the tuner runs here.
    """
    from repro.lwe import backends as kernel_backends

    path = Path(path)
    arrays_path = path / _ARRAYS
    if not arrays_path.is_file():
        raise ArtifactError(
            f"no {_ARRAYS} in {path}; save the index before its sidecar"
        )
    reference = kernel_backends.get_backend("reference")
    ranking_plan = reference.plan(
        index.layout.matrix, index.ranking_scheme.params.inner.q_bits
    )
    url_plan = reference.plan(
        index.url_db.matrix, index.url_scheme.params.inner.q_bits
    )
    if kernel_plan is None and getattr(index.config, "kernel_autotune", False):
        kernel_plan = kernel_backends.tune_index(index)
    meta = {
        "schema": PRECOMPUTE_SCHEMA,
        "arrays_digest": _file_digest(arrays_path),
        "plans": {
            "ranking": ranking_plan.metadata(),
            "url": url_plan.metadata(),
        },
    }
    if kernel_plan is not None:
        meta["kernel_plan"] = kernel_plan
    arrays = {
        "ranking_hint_ntt": index.ranking_scheme.hint_ntt_table(
            index.ranking_prep
        ),
        "url_hint_ntt": index.url_scheme.hint_ntt_table(index.url_prep),
        "meta_json": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
    }
    # np.savez (not _compressed): ZIP_STORED members are what the
    # memory-mapped loader requires.
    with (path / _PRECOMPUTE).open("wb") as fh:
        np.savez(fh, **arrays)
    return path / _PRECOMPUTE


def _mmap_npz(npz_path: Path) -> dict[str, np.ndarray]:
    """Memory-map every member of an uncompressed ``.npz`` read-only.

    ``np.load(mmap_mode=...)`` cannot map zip members, so this walks
    the zip directory itself: each member of an ``np.savez`` archive is
    a stored (uncompressed) ``.npy`` file at a knowable offset, which
    ``np.memmap`` can map directly.  Arrays come back read-only.
    """
    out: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(npz_path) as zf:
        infos = list(zf.infolist())
    with npz_path.open("rb") as fh:
        for info in infos:
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            if info.compress_type != zipfile.ZIP_STORED:
                raise ArtifactError(
                    f"{npz_path.name}: member {name!r} is compressed and"
                    " cannot be memory-mapped"
                )
            # Local file header: fixed 30 bytes, then name and extra
            # fields, then the member's data (the .npy stream).
            fh.seek(info.header_offset)
            local = fh.read(30)
            if local[:4] != b"PK\x03\x04":
                raise ArtifactError(
                    f"{npz_path.name}: corrupt local header for {name!r}"
                )
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            fh.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                raise ArtifactError(
                    f"{npz_path.name}: unsupported npy version {version}"
                    f" for member {name!r}"
                )
            out[name] = np.memmap(
                npz_path,
                dtype=dtype,
                mode="r",
                offset=fh.tell(),
                shape=shape,
                order="F" if fortran else "C",
            )
    return out


def load_precompute_sidecar(path: str | Path) -> tuple[dict, dict] | None:
    """Load and validate ``precompute.npz`` if present.

    Returns ``(meta, arrays)`` with the big NTT tables memory-mapped
    read-only, or ``None`` when the directory has no sidecar.  Raises
    :class:`ArtifactError` when the sidecar exists but was derived from
    a different ``arrays.npz`` (digest mismatch) or carries an unknown
    schema.
    """
    path = Path(path)
    sidecar_path = path / _PRECOMPUTE
    if not sidecar_path.is_file():
        return None
    arrays = _mmap_npz(sidecar_path)
    if "meta_json" not in arrays:
        raise ArtifactError(f"{_PRECOMPUTE}: missing meta_json member")
    meta = json.loads(bytes(np.asarray(arrays.pop("meta_json"))).decode("utf-8"))
    if meta.get("schema") != PRECOMPUTE_SCHEMA:
        raise ArtifactError(
            f"{_PRECOMPUTE}: schema is {meta.get('schema')!r}, this build"
            f" reads {PRECOMPUTE_SCHEMA!r}"
        )
    actual = _file_digest(path / _ARRAYS)
    if meta.get("arrays_digest") != actual:
        raise ArtifactError(
            f"{_PRECOMPUTE}: derived from a different {_ARRAYS}"
            f" (sidecar digest {meta.get('arrays_digest')}, actual"
            f" {actual}); rebuild the sidecar"
        )
    return meta, arrays


# -- save ---------------------------------------------------------------------


def save_index(index, path: str | Path, *, precompute: bool = False) -> Path:
    """Write one index into ``path`` (created if needed)."""
    from repro.core.indexer import TiptoeIndex  # noqa: F401 (docs anchor)

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    embedder = index.embedder
    if embedder is not None and not isinstance(embedder, LsaEmbedder):
        raise ArtifactError(
            f"schema {SCHEMA} persists LsaEmbedder-based indexes only;"
            f" got embedder of type {type(embedder).__name__}"
            " (rebuild from embeddings, or keep the embedder external)"
        )

    arrays: dict[str, np.ndarray] = {
        "layout_matrix": index.layout.matrix,
        "cluster_sizes": index.layout.cluster_sizes,
        "cluster_offsets": index.layout.cluster_offsets,
        "centroids": index.clusters.centroids,
        "url_db_matrix": index.url_db.matrix,
        "ranking_hint": index.ranking_prep.hint,
        "ranking_switched_hint": index.ranking_prep.switched_hint,
        "url_hint": index.url_prep.hint,
        "url_switched_hint": index.url_prep.switched_hint,
        "embeddings": index.embeddings,
    }
    (
        arrays["cluster_docs_flat"],
        arrays["cluster_docs_offsets"],
    ) = _flatten(index.clusters.assignments)
    (
        arrays["doc_clusters_flat"],
        arrays["doc_clusters_offsets"],
    ) = _flatten(index.clusters.doc_to_clusters)
    (
        arrays["batch_doc_ids_flat"],
        arrays["batch_doc_ids_offsets"],
    ) = _flatten([b.doc_ids for b in index.url_batches])
    if index.url_position_map is not None:
        arrays["url_position_map"] = index.url_position_map
    if index.doc_digests is not None:
        arrays["doc_digests"] = index.doc_digests
    if index.pca is not None:
        arrays["pca_mean"] = index.pca.mean
        arrays["pca_components"] = index.pca.components
        arrays["pca_evr"] = index.pca.explained_variance_ratio
    if embedder is not None:
        arrays["lsa_projection"] = embedder.projection

    manifest = {
        "schema": SCHEMA,
        "config": _config_manifest(index.config),
        "quantization_gain": index.quantization_gain,
        "build_ledger": index.build_ledger.word_ops,
        "schemes": {
            "ranking": _scheme_manifest(index.ranking_scheme),
            "url": _scheme_manifest(index.url_scheme),
        },
        "url_db": {
            "p": index.url_db.p,
            "bits_per_digit": index.url_db.bits_per_digit,
            "num_records": index.url_db.num_records,
            "record_bytes": index.url_db.record_bytes,
            "records_per_column": index.url_db.records_per_column,
            "slot_digits": index.url_db.slot_digits,
        },
        "layout_dim": index.layout.dim,
        # Streaming-ingest metadata (None for one-shot builds): the
        # per-document boundary-rule threshold the delta reindex pins.
        "boundary_threshold": index.boundary_threshold,
        "embedder": None
        if embedder is None
        else {"kind": "lsa", "dim": embedder.dim},
        "prep_rows": {
            "ranking": index.ranking_prep.rows,
            "url": index.url_prep.rows,
        },
    }

    with (path / _ARRAYS).open("wb") as fh:
        np.savez(fh, **arrays)
    with (path / _BLOBS).open("wb") as fh:
        for batch in index.url_batches:
            fh.write(_BLOB_LEN.pack(len(batch.payload)))
            fh.write(batch.payload)
    if embedder is not None:
        vocab = embedder.vocab
        (path / _VOCAB).write_text(
            json.dumps(
                {
                    "term_to_id": vocab.term_to_id,
                    "doc_freq": vocab.doc_freq,
                    "num_docs": vocab.num_docs,
                }
            )
        )
    (path / _MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    if precompute:
        write_precompute_sidecar(index, path)
    return path


# -- load ---------------------------------------------------------------------


def _read_blobs(path: Path) -> list[bytes]:
    data = path.read_bytes()
    blobs = []
    cursor = 0
    while cursor < len(data):
        if cursor + _BLOB_LEN.size > len(data):
            raise ArtifactError(f"{path.name}: truncated blob length prefix")
        (length,) = _BLOB_LEN.unpack_from(data, cursor)
        cursor += _BLOB_LEN.size
        if cursor + length > len(data):
            raise ArtifactError(
                f"{path.name}: blob declares {length} bytes but only"
                f" {len(data) - cursor} remain"
            )
        blobs.append(data[cursor : cursor + length])
        cursor += length
    return blobs


def _read_manifest(path: Path) -> dict:
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise ArtifactError(f"no {_MANIFEST} in {path}")
    manifest = json.loads(manifest_path.read_text())
    schema = manifest.get("schema")
    if schema not in COMPATIBLE_SCHEMAS:
        raise ArtifactError(
            f"artifact schema is {schema!r}, this build reads {SCHEMA!r}"
            f" (compatible: {', '.join(COMPATIBLE_SCHEMAS)})"
        )
    return manifest


def num_clusters(path: str | Path) -> int:
    """How many ranking clusters a saved index has, from its manifest
    alone -- the most shards a fleet can cut it into."""
    manifest = _read_manifest(Path(path))
    width = manifest["schemes"]["ranking"]["inner"]["m"]
    return int(width) // int(manifest["layout_dim"])


def load_index(path: str | Path):
    """Load an index saved by :func:`save_index`."""
    import time

    from repro.core.indexer import RankingLayout, TiptoeIndex

    start = time.perf_counter()
    path = Path(path)
    manifest = _read_manifest(path)

    with np.load(path / _ARRAYS) as npz:
        arrays = {name: npz[name] for name in npz.files}

    config = _config_from_manifest(manifest["config"])

    cluster_docs = _unflatten(
        arrays["cluster_docs_flat"], arrays["cluster_docs_offsets"]
    )
    clusters = ClusterIndex(
        centroids=arrays["centroids"],
        assignments=cluster_docs,
        doc_to_clusters=_unflatten(
            arrays["doc_clusters_flat"], arrays["doc_clusters_offsets"]
        ),
    )
    layout = RankingLayout(
        matrix=arrays["layout_matrix"],
        cluster_doc_ids=[list(m) for m in cluster_docs],
        cluster_sizes=arrays["cluster_sizes"],
        cluster_offsets=arrays["cluster_offsets"],
        dim=int(manifest["layout_dim"]),
    )

    payloads = _read_blobs(path / _BLOBS)
    batch_ids = _unflatten(
        arrays["batch_doc_ids_flat"], arrays["batch_doc_ids_offsets"]
    )
    if len(payloads) != len(batch_ids):
        raise ArtifactError(
            f"{len(payloads)} URL payloads but {len(batch_ids)} id lists"
        )
    url_batches = [
        UrlBatch(payload=payload, doc_ids=tuple(ids))
        for payload, ids in zip(payloads, batch_ids)
    ]

    db_meta = manifest["url_db"]
    url_db = PackedDatabase(
        matrix=arrays["url_db_matrix"],
        p=db_meta["p"],
        bits_per_digit=db_meta["bits_per_digit"],
        num_records=db_meta["num_records"],
        record_bytes=db_meta["record_bytes"],
    )
    url_db.records_per_column = db_meta["records_per_column"]
    url_db.slot_digits = db_meta["slot_digits"]

    ranking_scheme = _scheme_from_manifest(manifest["schemes"]["ranking"])
    url_scheme = _scheme_from_manifest(manifest["schemes"]["url"])

    sidecar = load_precompute_sidecar(path)
    precompute_meta = None
    ranking_hint_ntt = None
    url_hint_ntt = None
    if sidecar is not None:
        precompute_meta, side_arrays = sidecar
        ranking_hint_ntt = side_arrays["ranking_hint_ntt"]
        url_hint_ntt = side_arrays["url_hint_ntt"]

    ranking_prep = PreprocessedMatrix(
        hint=arrays["ranking_hint"],
        switched_hint=arrays["ranking_switched_hint"],
        rows=int(manifest["prep_rows"]["ranking"]),
        hint_ntt=ranking_hint_ntt,
    )
    url_prep = PreprocessedMatrix(
        hint=arrays["url_hint"],
        switched_hint=arrays["url_switched_hint"],
        rows=int(manifest["prep_rows"]["url"]),
        hint_ntt=url_hint_ntt,
    )
    token_factory = TokenFactory()
    token_factory.register("ranking", ranking_scheme, ranking_prep)
    token_factory.register("url", url_scheme, url_prep)

    embedder = None
    if manifest["embedder"] is not None:
        if manifest["embedder"]["kind"] != "lsa":
            raise ArtifactError(
                f"unknown embedder kind {manifest['embedder']['kind']!r}"
            )
        vocab_meta = json.loads((path / _VOCAB).read_text())
        embedder = LsaEmbedder(
            dim=int(manifest["embedder"]["dim"]),
            vocab=Vocabulary(
                term_to_id=vocab_meta["term_to_id"],
                doc_freq=vocab_meta["doc_freq"],
                num_docs=vocab_meta["num_docs"],
            ),
            projection=arrays["lsa_projection"],
        )

    pca = None
    if "pca_components" in arrays:
        pca = PcaReducer(
            mean=arrays["pca_mean"],
            components=arrays["pca_components"],
            explained_variance_ratio=arrays["pca_evr"],
        )

    ledger = CostLedger()
    for component, ops in manifest["build_ledger"].items():
        ledger.add(component, ops)

    index = TiptoeIndex(
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
        embeddings=arrays["embeddings"],
        url_position_map=arrays.get("url_position_map"),
        quantization_gain=float(manifest["quantization_gain"]),
        precompute=precompute_meta,
        boundary_threshold=manifest.get("boundary_threshold"),
        doc_digests=arrays.get("doc_digests"),
    )
    obs.observe("artifacts.load_seconds", time.perf_counter() - start)
    return index
