"""The kernel backend seam: registry, lifecycle, tuning, selection.

Bit-identity across backends is covered by the property suite in
``test_batch_apply.py``; this file tests the machinery around the
kernels -- how backends are named and resolved, how the shared-memory
pool lives and dies, how a tuned :class:`KernelPlan` round-trips
through its sidecar dict form, and how ``resolve_kernel_selection``
arbitrates between the config and the sidecar record.
"""

import numpy as np
import pytest

from repro.core.config import TiptoeConfig
from repro.core.services import resolve_kernel_selection
from repro.lwe import backends as kernel_backends
from repro.lwe import modular
from repro.lwe.backends import (
    KernelPlan,
    KernelUnavailable,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    tune_matrix,
)
from repro.lwe.backends.shm import SharedMemoryBackend
from repro.lwe.sampling import seeded_rng


@pytest.fixture
def small_matrix():
    rng = seeded_rng(21)
    return rng.integers(-8, 9, size=(12, 10))


class TestRegistry:
    def test_shipped_backends_are_registered(self):
        names = backend_names()
        for expected in ("reference", "multiprocess", "cnative"):
            assert expected in names

    def test_default_and_auto_resolve_to_reference(self):
        assert get_backend(None).name == "reference"
        assert get_backend("auto").name == "reference"

    def test_unknown_backend_is_a_clear_error(self):
        with pytest.raises(ValueError, match="reference"):
            get_backend("cuda")

    def test_unavailable_backend_falls_back_to_reference(self):
        class Unavailable:
            name = "test-unavailable"
            available = False

            def plan(self, *a, **k):  # pragma: no cover - never called
                raise AssertionError

        register_backend(Unavailable())
        try:
            assert get_backend("test-unavailable").name == "reference"
            assert "test-unavailable" not in available_backends()
            assert not kernel_backends.backend_available("test-unavailable")
        finally:
            with kernel_backends._REGISTRY_LOCK:
                kernel_backends._REGISTRY.pop("test-unavailable")

    def test_backend_available_probes_one_backend(self):
        assert kernel_backends.backend_available("reference")
        assert not kernel_backends.backend_available("no-such-backend")


class TestSharedMemoryLifecycle:
    def test_close_is_idempotent_and_final(self, small_matrix):
        plan = SharedMemoryBackend().plan(small_matrix, 32, workers=2)
        stacked = modular.to_ring(np.ones((10, 2), dtype=np.int64), 32)
        assert plan.matmul(stacked).shape == (12, 2)
        plan.close()
        plan.close()  # second close must not raise
        with pytest.raises(KernelUnavailable):
            plan.matmul(stacked)

    def test_context_manager_closes(self, small_matrix):
        with SharedMemoryBackend().plan(small_matrix, 32, workers=2) as plan:
            pass
        with pytest.raises(KernelUnavailable):
            plan.matmul(modular.to_ring(np.ones((10, 1), dtype=np.int64), 32))

    def test_shape_mismatch_rejected(self, small_matrix):
        with SharedMemoryBackend().plan(small_matrix, 32, workers=2) as plan:
            with pytest.raises(ValueError):
                plan.matmul(
                    modular.to_ring(np.ones((7, 2), dtype=np.int64), 32)
                )

    def test_metadata_matches_reference(self, small_matrix):
        ref = get_backend("reference").plan(small_matrix, 32)
        with SharedMemoryBackend().plan(small_matrix, 32, workers=2) as mp:
            try:
                assert mp.metadata() == ref.metadata()
                assert mp.backend_name == "multiprocess"
            finally:
                ref.close()

    def test_empty_batch_short_circuits(self, small_matrix):
        with SharedMemoryBackend().plan(small_matrix, 32, workers=2) as plan:
            got = plan.matmul(
                modular.to_ring(np.empty((10, 0), dtype=np.int64), 32)
            )
            assert got.shape == (12, 0)


class TestKernelPlanRecord:
    def test_round_trips_through_dict(self):
        record = KernelPlan(
            backend="multiprocess",
            limb_bits=17,
            chunk_rows=1024,
            workers=4,
            batch_size=16,
            seconds=0.25,
            throughput=64.0,
        )
        assert KernelPlan.from_dict(record.to_dict()) == record

    def test_from_dict_tolerates_missing_measurements(self):
        plan = KernelPlan.from_dict(
            {"backend": "reference", "limb_bits": 0, "chunk_rows": 0,
             "workers": 0}
        )
        assert plan.backend == "reference"
        assert plan.throughput == 0.0

    def test_malformed_record_is_a_clean_value_error(self):
        # A sidecar from a different schema era: missing keys and
        # non-numeric fields must surface as ValueError, not
        # KeyError/TypeError, so the serving layer can catch-and-warn.
        with pytest.raises(ValueError, match="malformed"):
            KernelPlan.from_dict({"backend": "reference"})
        with pytest.raises(ValueError, match="malformed"):
            KernelPlan.from_dict(
                {"backend": "reference", "limb_bits": "wide",
                 "chunk_rows": 0, "workers": 0}
            )

    def test_plan_kwargs_drop_zero_limb(self):
        tuned = KernelPlan.from_dict(
            {"backend": "reference", "limb_bits": 0, "chunk_rows": 512,
             "workers": 2}
        )
        kwargs = tuned.plan_kwargs()
        assert kwargs["limb_bits"] is None
        assert kwargs["chunk_rows"] == 512
        assert kwargs["workers"] == 2


class TestAutotuner:
    def test_picks_an_exact_backend(self, small_matrix):
        best = tune_matrix(small_matrix, 32, batch_size=4, repeats=1)
        assert best.backend in backend_names()
        assert best.throughput > 0
        assert best.seconds > 0
        assert best.batch_size == 4

    def test_restricting_backends_restricts_the_winner(self, small_matrix):
        best = tune_matrix(
            small_matrix, 32, batch_size=2, repeats=1,
            backends=["reference"],
        )
        assert best.backend == "reference"

    def test_candidate_grid_is_deduped_and_core_bounded(self, monkeypatch):
        from repro.lwe.backends import autotune

        monkeypatch.setattr(autotune.os, "cpu_count", lambda: 2)
        grid = autotune._candidates(
            17, 2048, ["reference", "multiprocess", "cnative"]
        )
        assert len(grid) == len(set(grid)), "grid has duplicates"
        cores = 2
        for name, _limb, _chunk, workers in grid:
            if name in ("multiprocess", "cnative"):
                assert 1 <= workers <= cores, (name, workers)

    def test_single_core_host_still_gets_parallel_candidates(
        self, monkeypatch
    ):
        from repro.lwe.backends import autotune

        monkeypatch.setattr(autotune.os, "cpu_count", lambda: 1)
        grid = autotune._candidates(
            17, 100, ["reference", "multiprocess", "cnative"]
        )
        # The hygiene filter must degrade parallel backends to one
        # worker, not drop them from the race entirely.
        assert ("multiprocess", 17, 0, 1) in grid
        assert ("cnative", 17, 0, 1) in grid

    def test_max_seconds_zero_still_produces_a_plan(self, small_matrix):
        best = tune_matrix(
            small_matrix, 32, batch_size=2, repeats=1, max_seconds=0.0
        )
        # The budget was spent before the sweep began; the guaranteed
        # first candidate (a reference default) still ran and won.
        assert best.backend == "reference"
        assert best.throughput > 0

    def test_winner_options_rebuild_an_exact_plan(self, small_matrix):
        best = tune_matrix(small_matrix, 32, batch_size=4, repeats=1)
        rng = seeded_rng(5)
        stacked = modular.to_ring(
            rng.integers(0, 1 << 31, size=(10, 4)), 32
        )
        ring = modular.to_ring(small_matrix, 32)
        plan = get_backend(best.backend).plan(
            small_matrix, 32, **best.plan_kwargs()
        )
        try:
            assert np.array_equal(
                plan.matmul(stacked), modular.matmul(ring, stacked, 32)
            )
        finally:
            plan.close()


class TestResolveKernelSelection:
    RECORD = {
        "kernel_plan": {
            "ranking": {
                "backend": "multiprocess",
                "limb_bits": 17,
                "chunk_rows": 0,
                "workers": 2,
            }
        }
    }

    def test_auto_without_record_is_reference_defaults(self):
        config = TiptoeConfig()
        assert resolve_kernel_selection(config, None, "ranking") == (
            None,
            {},
        )
        assert resolve_kernel_selection(config, {}, "url") == (None, {})

    def test_auto_with_record_uses_the_tuned_plan(self):
        config = TiptoeConfig()
        backend, opts = resolve_kernel_selection(
            config, self.RECORD, "ranking"
        )
        assert backend == "multiprocess"
        assert opts == {"limb_bits": 17, "chunk_rows": 0, "workers": 2}

    def test_explicit_backend_overrides_the_record(self):
        config = TiptoeConfig(kernel_backend="reference")
        backend, opts = resolve_kernel_selection(
            config, self.RECORD, "ranking"
        )
        assert backend == "reference"
        assert opts == {}  # tuned for multiprocess; not transferable

    def test_explicit_backend_keeps_matching_tuned_options(self):
        config = TiptoeConfig(kernel_backend="multiprocess")
        backend, opts = resolve_kernel_selection(
            config, self.RECORD, "ranking"
        )
        assert backend == "multiprocess"
        assert opts["workers"] == 2

    def test_record_for_the_other_matrix_does_not_apply(self):
        config = TiptoeConfig()
        assert resolve_kernel_selection(config, self.RECORD, "url") == (
            None,
            {},
        )

    def test_empty_backend_is_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            TiptoeConfig(kernel_backend="")

    @pytest.mark.parametrize("name", ["cuda-h100", "numba"])
    def test_record_naming_unknown_backend_falls_back(self, caplog, name):
        """Tuned-with-compiler, served-without: a sidecar whose backend
        does not exist here -- or, like ``numba``, no longer exists in
        any build -- must warn and serve reference defaults, not refuse
        to cold-start."""
        record = {
            "kernel_plan": {
                "ranking": {
                    "backend": name,
                    "limb_bits": 17,
                    "chunk_rows": 0,
                    "workers": 4,
                }
            }
        }
        with caplog.at_level("WARNING", logger="repro.core.services"):
            got = resolve_kernel_selection(TiptoeConfig(), record, "ranking")
        assert got == (None, {})
        assert any(name in r.message for r in caplog.records)

    def test_malformed_record_falls_back_under_auto(self, caplog):
        record = {"kernel_plan": {"ranking": {"backend": "reference"}}}
        with caplog.at_level("WARNING", logger="repro.core.services"):
            got = resolve_kernel_selection(TiptoeConfig(), record, "ranking")
        assert got == (None, {})
        assert any("malformed" in r.message for r in caplog.records)

    def test_malformed_record_keeps_explicit_backend(self, caplog):
        """An explicit config choice survives a rotten record: the
        backend is honored, only the tuned options are dropped."""
        record = {
            "kernel_plan": {"ranking": {"backend": "multiprocess"}}
        }
        config = TiptoeConfig(kernel_backend="multiprocess")
        with caplog.at_level("WARNING", logger="repro.core.services"):
            backend, opts = resolve_kernel_selection(
                config, record, "ranking"
            )
        assert backend == "multiprocess"
        assert opts == {}
        assert any("malformed" in r.message for r in caplog.records)
