"""The artifact plane: versioned save/load of a built index, and the
bit-identity of searches served from a cold start."""

import json
import shutil

import numpy as np
import pytest

from repro import TiptoeEngine
from repro.core.artifacts import (
    PRECOMPUTE_SCHEMA,
    SCHEMA,
    ArtifactError,
    load_index,
    load_precompute_sidecar,
    save_index,
    write_precompute_sidecar,
)
from repro.core.indexer import TiptoeIndex


@pytest.fixture(scope="module")
def saved(engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts")
    engine.index.save(path)
    return path


class TestRoundTrip:
    def test_search_is_bit_identical_after_reload(self, engine, saved):
        reloaded = TiptoeEngine(TiptoeIndex.load(saved))
        for text in ("alpha beta", "gamma", "delta epsilon zeta"):
            a = engine.search(text, rng=np.random.default_rng(42))
            b = reloaded.search(text, rng=np.random.default_rng(42))
            assert b.cluster == a.cluster
            assert [(r.position, r.score, r.url) for r in b.results] == [
                (r.position, r.score, r.url) for r in a.results
            ]
        reloaded.close()

    def test_traffic_shape_survives_reload(self, engine, saved):
        reloaded = TiptoeEngine(TiptoeIndex.load(saved))
        a = engine.search("theta iota", rng=np.random.default_rng(1))
        b = reloaded.search("theta iota", rng=np.random.default_rng(1))
        assert b.traffic.total_bytes() == a.traffic.total_bytes()
        reloaded.close()

    def test_core_arrays_match_exactly(self, engine, saved):
        index = engine.index
        reloaded = load_index(saved)
        np.testing.assert_array_equal(
            reloaded.layout.matrix, index.layout.matrix
        )
        np.testing.assert_array_equal(
            reloaded.url_db.matrix, index.url_db.matrix
        )
        np.testing.assert_array_equal(
            reloaded.ranking_prep.hint, index.ranking_prep.hint
        )
        np.testing.assert_array_equal(
            reloaded.url_prep.hint, index.url_prep.hint
        )
        np.testing.assert_array_equal(
            reloaded.clusters.centroids, index.clusters.centroids
        )
        assert reloaded.config == index.config
        assert reloaded.quantization_gain == index.quantization_gain

    def test_schemes_regenerate_the_same_public_matrix(self, engine, saved):
        reloaded = load_index(saved)
        np.testing.assert_array_equal(
            reloaded.ranking_scheme.inner.a,
            engine.index.ranking_scheme.inner.a,
        )
        assert (
            reloaded.url_scheme.inner.a_seed
            == engine.index.url_scheme.inner.a_seed
        )

    def test_vocabulary_and_batches_survive(self, engine, saved):
        index, reloaded = engine.index, load_index(saved)
        assert (
            reloaded.embedder.vocab.term_to_id
            == index.embedder.vocab.term_to_id
        )
        assert len(reloaded.url_batches) == len(index.url_batches)
        assert reloaded.url_batches[0].payload == index.url_batches[0].payload
        assert (
            reloaded.url_batches[-1].doc_ids == index.url_batches[-1].doc_ids
        )


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            load_index(tmp_path)

    @staticmethod
    def _copy_with_edited_manifest(saved, dest, edit):
        for name in ("manifest.json", "vocab.json", "arrays.npz", "blobs.bin"):
            (dest / name).write_bytes((saved / name).read_bytes())
        manifest = json.loads((dest / "manifest.json").read_text())
        edit(manifest)
        (dest / "manifest.json").write_text(json.dumps(manifest))

    def test_schema_mismatch(self, saved, tmp_path):
        self._copy_with_edited_manifest(
            saved, tmp_path, lambda m: m.update(schema="repro.index/v999")
        )
        with pytest.raises(ArtifactError, match="v999") as info:
            load_index(tmp_path)
        assert SCHEMA in str(info.value)  # tells the reader what *would* load

    def test_manifest_of_an_earlier_build_still_loads(self, saved, tmp_path):
        """A manifest written before ``num_workers`` was retired records
        it; the key is dropped, the index serves as saved."""
        assert "num_workers" not in json.loads(
            (saved / "manifest.json").read_text()
        )["config"]
        self._copy_with_edited_manifest(
            saved, tmp_path, lambda m: m["config"].update(num_workers=4)
        )
        assert load_index(tmp_path).config == load_index(saved).config

    def test_retired_token_keys_still_load(self, engine, saved, tmp_path):
        """Manifests from before the ahead-of-time knobs and the kernel
        tuner left the config record them; they are dropped and answers
        stay bit-identical."""
        self._copy_with_edited_manifest(
            saved,
            tmp_path,
            lambda m: m["config"].update(
                token_pool_depth=0,
                token_pool_batch=4,
                token_prefetch_depth=0,
                precompute_sidecar=False,
                kernel_autotune=True,
            ),
        )
        assert load_index(tmp_path).config == engine.index.config
        old = TiptoeEngine(TiptoeIndex.load(tmp_path))
        a = engine.search("alpha beta", rng=np.random.default_rng(7))
        b = old.search("alpha beta", rng=np.random.default_rng(7))
        old.close()
        assert b.cluster == a.cluster
        assert [(r.position, r.score, r.url) for r in b.results] == [
            (r.position, r.score, r.url) for r in a.results
        ]

    def test_unknown_config_key_is_named(self, saved, tmp_path):
        self._copy_with_edited_manifest(
            saved, tmp_path, lambda m: m["config"].update(num_gizmos=2)
        )
        with pytest.raises(ArtifactError, match="num_gizmos"):
            load_index(tmp_path)

    def test_truncated_blobs(self, saved, tmp_path):
        for name in ("manifest.json", "vocab.json", "arrays.npz"):
            (tmp_path / name).write_bytes((saved / name).read_bytes())
        blobs = (saved / "blobs.bin").read_bytes()
        (tmp_path / "blobs.bin").write_bytes(blobs[: len(blobs) - 7])
        with pytest.raises(ArtifactError, match="remain"):
            load_index(tmp_path)

    def test_non_lsa_embedder_is_rejected_clearly(self, engine, tmp_path):
        import dataclasses

        class Exotic:
            def embed(self, text):  # pragma: no cover - never called
                raise NotImplementedError

        weird = dataclasses.replace(engine.index, embedder=Exotic())
        with pytest.raises(ArtifactError, match="LsaEmbedder"):
            save_index(weird, tmp_path)

    def test_save_returns_the_directory_and_is_rerunnable(
        self, engine, tmp_path
    ):
        out = save_index(engine.index, tmp_path / "idx")
        assert (out / "manifest.json").exists()
        again = save_index(engine.index, tmp_path / "idx")  # overwrite ok
        assert again == out


@pytest.fixture(scope="module")
def saved_warm(engine, tmp_path_factory):
    """The same index saved with the precompute sidecar."""
    path = tmp_path_factory.mktemp("artifacts_warm")
    save_index(engine.index, path, precompute=True)
    return path


def _copy_with_edited_sidecar_meta(saved_warm, dest, edit):
    """Copy a warm artifact, rewriting its sidecar's meta with ``edit``."""
    for item in saved_warm.iterdir():
        shutil.copy(item, dest / item.name)
    with np.load(dest / "precompute.npz") as z:
        arrays = {name: z[name] for name in z.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
    edit(meta)
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with (dest / "precompute.npz").open("wb") as fh:
        np.savez(fh, **arrays)


class TestPrecomputeSidecar:
    def test_sidecar_is_written_and_validates(self, saved_warm):
        assert (saved_warm / "precompute.npz").is_file()
        meta, arrays = load_precompute_sidecar(saved_warm)
        assert meta["schema"] == PRECOMPUTE_SCHEMA
        assert set(meta["plans"]) == {"ranking", "url"}
        assert set(arrays) == {"ranking_hint_ntt", "url_hint_ntt"}

    def test_plain_save_has_no_sidecar(self, saved):
        assert not (saved / "precompute.npz").exists()
        assert load_precompute_sidecar(saved) is None
        assert load_index(saved).precompute is None

    def test_tables_load_memory_mapped_read_only(self, saved_warm):
        _, arrays = load_precompute_sidecar(saved_warm)
        for table in arrays.values():
            assert isinstance(table, np.memmap)
            assert not table.flags.writeable

    def test_sidecar_tables_match_lazy_recompute(self, engine, saved_warm):
        """Bit-identity of the persisted NTT tables with what the lazy
        path computes on demand."""
        index = engine.index
        _, arrays = load_precompute_sidecar(saved_warm)
        np.testing.assert_array_equal(
            arrays["ranking_hint_ntt"],
            index.ranking_scheme.hint_ntt_table(index.ranking_prep),
        )
        np.testing.assert_array_equal(
            arrays["url_hint_ntt"],
            index.url_scheme.hint_ntt_table(index.url_prep),
        )

    def test_load_attaches_tables_and_plans(self, saved_warm):
        index = load_index(saved_warm)
        assert index.precompute is not None
        assert index.ranking_prep.hint_ntt is not None
        assert index.url_prep.hint_ntt is not None
        for plan in index.precompute["plans"].values():
            assert plan["entry_bound"] >= 0
            assert plan["limb_bits"] >= 1

    def test_warm_serve_runs_no_hint_ntt_before_its_first_mint(
        self, saved, saved_warm, monkeypatch
    ):
        """What the sidecar buys a cold start: a serve loaded with it
        computes no plaintext-side hint NTT while it starts (the
        ``a``-products) or for its first mint.  The same index loaded
        without the sidecar computes them (the control)."""
        from repro.homenc.double import DoubleLheScheme

        computed = []
        real = DoubleLheScheme._chunk_c_ntts

        def counting(self, prep, chunk_idx, start):
            computed.append(chunk_idx)
            return real(self, prep, chunk_idx, start)

        monkeypatch.setattr(DoubleLheScheme, "_chunk_c_ntts", counting)
        for path, expect_ntts in ((saved_warm, False), (saved, True)):
            computed.clear()
            with TiptoeEngine(TiptoeIndex.load(path)) as served:
                served.mint_token(np.random.default_rng(29))
            assert bool(computed) == expect_ntts, path

    def test_cold_start_equivalence(self, engine, saved, saved_warm):
        """A warm serve answers bit-identically to a cache-less one."""
        cold = TiptoeEngine(TiptoeIndex.load(saved))
        warm = TiptoeEngine(TiptoeIndex.load(saved_warm))
        for text in ("alpha beta", "gamma", "delta epsilon zeta"):
            a = cold.search(text, rng=np.random.default_rng(17))
            b = warm.search(text, rng=np.random.default_rng(17))
            assert b.cluster == a.cluster
            assert [(r.position, r.score, r.url) for r in b.results] == [
                (r.position, r.score, r.url) for r in a.results
            ]
        cold.close()
        warm.close()

    def test_token_mint_equivalence(self, engine, saved_warm):
        """Minting against the persisted tables is bit-identical."""
        warm = TiptoeEngine(TiptoeIndex.load(saved_warm))
        a = engine.mint_token(np.random.default_rng(23))
        b = warm.mint_token(np.random.default_rng(23))
        for name in ("ranking", "url"):
            np.testing.assert_array_equal(
                a.hint_products[name], b.hint_products[name]
            )
        warm.close()

    def test_digest_mismatch_is_rejected(self, saved_warm, tmp_path):
        """A sidecar keyed to a different arrays.npz must not load."""
        for item in saved_warm.iterdir():
            shutil.copy(item, tmp_path / item.name)
        # Re-serialize the same arrays compressed: identical content,
        # different bytes, so the recorded digest no longer matches.
        with np.load(tmp_path / "arrays.npz") as z:
            arrays = {name: z[name] for name in z.files}
            with (tmp_path / "arrays.npz").open("wb") as fh:
                np.savez_compressed(fh, **arrays)
        with pytest.raises(ArtifactError, match="different"):
            load_precompute_sidecar(tmp_path)
        with pytest.raises(ArtifactError, match="rebuild the sidecar"):
            load_index(tmp_path)

    def test_unknown_sidecar_schema_is_rejected(self, saved_warm, tmp_path):
        _copy_with_edited_sidecar_meta(
            saved_warm,
            tmp_path,
            lambda m: m.update(schema="repro.precompute/v999"),
        )
        with pytest.raises(ArtifactError, match="v999"):
            load_precompute_sidecar(tmp_path)

    def test_sidecar_requires_saved_arrays(self, engine, tmp_path):
        with pytest.raises(ArtifactError, match="save the index"):
            write_precompute_sidecar(engine.index, tmp_path)


class TestLegacyKernelRecord:
    def test_sidecar_with_a_kernel_record_serves_on_reference(
        self, engine, saved_warm, tmp_path
    ):
        """Sidecars written while the build-time kernel tuner existed
        carry a ``kernel_plan`` record in their meta.  It is ignored:
        the index loads, serves on the reference backend, and answers
        bit-identically."""
        tuned = {"limb_bits": 17, "chunk_rows": 0, "workers": 2}
        record = {
            "ranking": {"backend": "multiprocess", **tuned},
            "url": {"backend": "cnative", **tuned},
        }
        _copy_with_edited_sidecar_meta(
            saved_warm, tmp_path, lambda m: m.update(kernel_plan=record)
        )
        old = TiptoeEngine(TiptoeIndex.load(tmp_path))
        try:
            a = engine.search("alpha beta", rng=np.random.default_rng(7))
            b = old.search("alpha beta", rng=np.random.default_rng(7))
            for service in (old.ranking_service, old.url_service):
                health = service.health()
                assert health["kernel_backend"] == "reference"
                assert health["kernel_effective"] == "reference"
        finally:
            old.close()
        assert b.cluster == a.cluster
        assert [(r.position, r.score, r.url) for r in b.results] == [
            (r.position, r.score, r.url) for r in a.results
        ]
