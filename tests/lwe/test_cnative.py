"""The native compiled backend: build cache, fallback, lifecycle.

Bit-identity of the C kernel across the Hypothesis case space lives in
``test_batch_apply.py`` (cnative is a registered backend, so the
cross-backend property suite covers it automatically).  This file
tests what is unique to a *compiled* backend: the content-hashed build
cache, the no-compiler / failed-build degradation to reference (a host
without ``cc`` must pass the whole suite), the forced-off environment
switch, and the plan lifecycle around a dlopen-ed library.

Everything here runs on compiler-less hosts too: tests that need a
working extension first check ``available`` and skip cleanly.
"""

import numpy as np
import pytest

from repro.lwe import modular
from repro.lwe.backends import KernelUnavailable, get_backend, register_backend
from repro.lwe.backends import cnative as cnative_mod
from repro.lwe.backends.cnative import CNativeBackend
from repro.lwe.sampling import seeded_rng


@pytest.fixture
def small_matrix():
    rng = seeded_rng(31)
    return rng.integers(-8, 9, size=(12, 10))


def _native_or_skip() -> CNativeBackend:
    backend = CNativeBackend()
    if not backend.available:
        pytest.skip(f"no native toolchain here: {backend.build_error}")
    return backend


class TestAvailabilityFallback:
    def test_disable_env_forces_unavailable(self, monkeypatch):
        monkeypatch.setenv(cnative_mod.DISABLE_ENV, "1")
        backend = CNativeBackend()
        assert not backend.available
        assert cnative_mod.DISABLE_ENV in (backend.build_error or "")
        with pytest.raises(KernelUnavailable):
            backend.plan(np.ones((2, 2), dtype=np.int64), 32)

    def test_registry_falls_back_to_reference(
        self, monkeypatch, small_matrix
    ):
        """The serving path on a host where the build cannot happen:
        ``get_backend("cnative")`` must hand back the reference backend
        and the answer bits must not change."""
        monkeypatch.setenv(cnative_mod.DISABLE_ENV, "1")
        original = get_backend("cnative")
        register_backend(CNativeBackend())  # fresh, sees the env switch
        try:
            backend = get_backend("cnative")
            assert backend.name == "reference"
            with backend.plan(small_matrix, 32) as plan:
                stacked = modular.to_ring(
                    np.ones((10, 3), dtype=np.int64), 32
                )
                want = modular.matmul(
                    modular.to_ring(small_matrix, 32), stacked, 32
                )
                assert np.array_equal(plan.matmul(stacked), want)
        finally:
            register_backend(original)

    def test_no_compiler_degrades_not_crashes(self, monkeypatch, tmp_path):
        """CC pointing at nothing + a cold cache: the build must fail
        as KernelUnavailable with an actionable message, never an
        ImportError or a distutils traceback."""
        monkeypatch.delenv(cnative_mod.DISABLE_ENV, raising=False)
        monkeypatch.setenv("CC", "no-such-compiler-anywhere")
        monkeypatch.setenv(cnative_mod.CACHE_ENV, str(tmp_path / "cold"))
        backend = CNativeBackend(cache_root=tmp_path / "cold")
        assert not backend.available
        assert "compiler" in backend.build_error
        with pytest.raises(KernelUnavailable, match="unavailable"):
            backend.plan(np.ones((2, 2), dtype=np.int64), 32)

    def test_memoized_outcome_is_per_instance(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", "no-such-compiler-anywhere")
        broken = CNativeBackend(cache_root=tmp_path / "cold2")
        assert not broken.available
        assert not broken.available  # second probe: memoized, no rebuild


class TestBuildCache:
    def test_second_build_reuses_the_cached_object(self, tmp_path):
        _native_or_skip()
        root = tmp_path / "cache"
        cnative_mod.build_native_module(root)
        key_dir = root / cnative_mod._module_key()
        built = sorted(p.name for p in key_dir.glob("*.so"))
        assert len(built) == 1
        mtime = (key_dir / built[0]).stat().st_mtime_ns
        cnative_mod.build_native_module(root)  # must load, not rebuild
        assert (key_dir / built[0]).stat().st_mtime_ns == mtime

    def test_key_is_stable_within_a_process(self):
        assert cnative_mod._module_key() == cnative_mod._module_key()


class TestPlanLifecycle:
    def test_close_is_idempotent_and_final(self, small_matrix):
        backend = _native_or_skip()
        plan = backend.plan(small_matrix, 32, workers=2)
        stacked = modular.to_ring(np.ones((10, 2), dtype=np.int64), 32)
        assert plan.matmul(stacked).shape == (12, 2)
        plan.close()
        plan.close()
        with pytest.raises(KernelUnavailable):
            plan.matmul(stacked)
        with pytest.raises(KernelUnavailable):
            plan.matmul(stacked[:, :1])

    def test_metadata_matches_reference(self, small_matrix):
        backend = _native_or_skip()
        ref = get_backend("reference").plan(small_matrix, 32)
        try:
            with backend.plan(small_matrix, 32) as plan:
                assert plan.metadata() == ref.metadata()
                assert plan.backend_name == "cnative"
        finally:
            ref.close()

    def test_shape_mismatch_rejected(self, small_matrix):
        backend = _native_or_skip()
        with backend.plan(small_matrix, 32) as plan:
            with pytest.raises(ValueError):
                plan.matmul(
                    modular.to_ring(np.ones((7, 2), dtype=np.int64), 32)
                )
            with pytest.raises(ValueError):
                plan.matmul(modular.to_ring(np.ones(10, dtype=np.int64), 32))

    def test_empty_batch_short_circuits(self, small_matrix):
        backend = _native_or_skip()
        with backend.plan(small_matrix, 32) as plan:
            got = plan.matmul(
                modular.to_ring(np.empty((10, 0), dtype=np.int64), 32)
            )
            assert got.shape == (12, 0)

    def test_non_contiguous_column_slice_is_exact(self):
        """The fleet path: RankingWorker plans over ``matrix[:, lo:hi]``
        column views, which are not C-contiguous."""
        backend = _native_or_skip()
        rng = seeded_rng(33)
        full = modular.to_ring(rng.integers(-8, 9, size=(24, 40)), 32)
        view = full[:, 8:28]
        assert not view.flags.c_contiguous
        stacked = modular.to_ring(rng.integers(0, 1 << 31, size=(20, 4)), 32)
        want = modular.matmul(view, stacked, 32)
        with backend.plan(view, 32, workers=3) as plan:
            assert np.array_equal(plan.matmul(stacked), want)

    @pytest.mark.parametrize("q_bits", [32, 64])
    def test_more_threads_than_rows_stays_exact(self, q_bits):
        backend = _native_or_skip()
        rng = seeded_rng(34)
        matrix = rng.integers(-8, 9, size=(5, 16))
        ring = modular.to_ring(matrix, q_bits)
        stacked = modular.to_ring(
            rng.integers(0, 1 << 31, size=(16, 3)), q_bits
        )
        want = modular.matmul(ring, stacked, q_bits)
        with backend.plan(matrix, q_bits, workers=16) as plan:
            assert np.array_equal(plan.matmul(stacked), want)

    def test_sidecar_metadata_skips_the_entry_scan(self, small_matrix):
        """The precompute path: plan built from persisted metadata must
        equal the scan-derived plan bit for bit."""
        backend = _native_or_skip()
        scanned = backend.plan(small_matrix, 32)
        meta = scanned.metadata()
        restored = backend.plan(small_matrix, 32, metadata=meta)
        stacked = modular.to_ring(
            seeded_rng(35).integers(0, 1 << 31, size=(10, 4)), 32
        )
        try:
            assert restored.limb_bits == scanned.limb_bits
            assert np.array_equal(
                restored.matmul(stacked), scanned.matmul(stacked)
            )
        finally:
            scanned.close()
            restored.close()
