"""The kernel backend seam: registry, lifecycle, selection.

Bit-identity across backends is covered by the property suite in
``test_batch_apply.py``; this file tests the machinery around the
kernels -- how backends are named and resolved, how the shared-memory
pool lives and dies, and how ``resolve_kernel_selection`` turns the
config knob into the backend the services plan on.
"""

import numpy as np
import pytest

from repro.core.config import TiptoeConfig
from repro.core.services import resolve_kernel_selection
from repro.lwe import backends as kernel_backends
from repro.lwe import modular
from repro.lwe.backends import (
    KernelUnavailable,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
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


class TestResolveKernelSelection:
    def test_auto_without_record_is_reference_defaults(self):
        backend = resolve_kernel_selection(TiptoeConfig())
        assert backend is None
        assert get_backend(backend).name == "reference"

    def test_explicit_backend_is_passed_through(self):
        # An unavailable backend is still named here; get_backend serves
        # it on reference (TestRegistry).
        for name in ("reference", "multiprocess", "cnative"):
            config = TiptoeConfig(kernel_backend=name)
            assert resolve_kernel_selection(config) == name

    def test_empty_backend_is_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            TiptoeConfig(kernel_backend="")
