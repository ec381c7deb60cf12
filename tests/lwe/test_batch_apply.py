"""Property tests for the stacked GEMM kernels.

The kernel contract is one sentence: a plan's stacked product is
bit-identical to the plain integer ``modular.matmul`` product of the
same operands, whichever path (integer, float64 limbs, threads,
processes) executes it.  Equality is exact -- these tests assert
``array_equal``, never ``allclose`` -- over random shapes, moduli,
entry bounds, and batch widths including Q=1 and ragged tails.  The
layer x backend x Q x q_bits matrix lives in
``tests/core/test_batch_matrix.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lwe import LweParams, modular
from repro.lwe import backends as kernel_backends
from repro.lwe.regev import RegevScheme, stack_ciphertexts
from repro.lwe.sampling import seeded_rng


@st.composite
def stacked_cases(draw):
    q_bits = draw(st.sampled_from([32, 64]))
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(1, 24))
    batch = draw(st.integers(1, 7))
    bound = draw(st.sampled_from([1, 8, 255]))
    seed = draw(st.integers(0, 2**32 - 1))
    return q_bits, rows, cols, batch, bound, seed


class TestStackedPlan:
    @given(stacked_cases())
    @settings(max_examples=40, deadline=None)
    def test_columns_match_sequential_matmul(self, case):
        q_bits, rows, cols, batch, bound, seed = case
        rng = seeded_rng(seed)
        matrix = rng.integers(-bound, bound + 1, size=(rows, cols))
        stacked = modular.to_ring(
            rng.integers(0, 1 << 31, size=(cols, batch)), q_bits
        )
        plan = modular.StackedPlan(matrix, q_bits)
        got = plan.matmul(stacked)
        assert got.shape == (rows, batch)
        assert got.dtype == modular.dtype_for(q_bits)
        for i in range(batch):
            want = modular.matmul(
                modular.to_ring(matrix, q_bits), stacked[:, i], q_bits
            )
            assert np.array_equal(got[:, i], want)

    @given(stacked_cases())
    @settings(max_examples=20, deadline=None)
    def test_helper_equals_plan(self, case):
        q_bits, rows, cols, batch, bound, seed = case
        rng = seeded_rng(seed)
        matrix = rng.integers(-bound, bound + 1, size=(rows, cols))
        stacked = modular.to_ring(
            rng.integers(0, 1 << 31, size=(cols, batch)), q_bits
        )
        plan = modular.StackedPlan(matrix, q_bits)
        assert np.array_equal(
            modular.stacked_matmul(matrix, stacked, q_bits),
            plan.matmul(stacked),
        )

    def test_large_entries_fall_back_to_integer_path(self):
        """Entries too big for exact float limbs: correct, just slower."""
        rng = seeded_rng(3)
        matrix = rng.integers(0, 1 << 63, size=(5, 64), dtype=np.uint64)
        plan = modular.StackedPlan(matrix, 64)
        assert not plan.uses_blas
        stacked = rng.integers(0, 1 << 63, size=(64, 3), dtype=np.uint64)
        got = plan.matmul(stacked)
        for i in range(3):
            want = modular.matmul(matrix, stacked[:, i], 64)
            assert np.array_equal(got[:, i], want)

    def test_small_entries_take_the_blas_path(self):
        """Ranking-shaped entries (4-bit quantized) must hit BLAS."""
        rng = seeded_rng(4)
        matrix = rng.integers(-8, 9, size=(100, 512))
        plan = modular.StackedPlan(matrix, 32)
        assert plan.uses_blas
        assert plan.limb_bits >= modular.MIN_LIMB_BITS

    def test_rejects_non_matrix_plan(self):
        with pytest.raises(ValueError):
            modular.StackedPlan(np.arange(4), 32)

    def test_rejects_mismatched_stack(self):
        plan = modular.StackedPlan(np.ones((3, 4), dtype=np.int64), 32)
        with pytest.raises(ValueError):
            plan.matmul(modular.to_ring(np.ones((5, 2), dtype=np.int64), 32))
        with pytest.raises(ValueError):
            plan.matmul(modular.to_ring(np.ones(4, dtype=np.int64), 32))


class TestBackendBitIdentity:
    """Every registered backend computes *the same bits* as
    ``modular.matmul`` -- the seam contract that makes backend choice a
    pure deployment knob (DESIGN.md, "Kernel plane")."""

    @given(stacked_cases())
    @settings(max_examples=8, deadline=None)
    def test_all_backends_match_sequential(self, case):
        q_bits, rows, cols, batch, bound, seed = case
        rng = seeded_rng(seed)
        matrix = modular.to_ring(
            rng.integers(-bound, bound + 1, size=(rows, cols)), q_bits
        )
        stacked = modular.to_ring(
            rng.integers(0, 1 << 31, size=(cols, batch)), q_bits
        )
        want = modular.matmul(matrix, stacked, q_bits)
        for name in kernel_backends.backend_names():
            plan = kernel_backends.get_backend(name).plan(
                matrix, q_bits, workers=2
            )
            try:
                got = plan.matmul(stacked)
            finally:
                plan.close()
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", ["reference", "multiprocess", "cnative"])
    def test_integer_fallback_regime(self, name):
        """Entries ~2^45 defeat exact float limbs; every backend must
        detect that and stay exact on the integer path."""
        rng = seeded_rng(11)
        matrix = rng.integers(0, 1 << 45, size=(6, 32), dtype=np.uint64)
        stacked = rng.integers(0, 1 << 63, size=(32, 4), dtype=np.uint64)
        want = modular.matmul(matrix, stacked, 64)
        plan = kernel_backends.get_backend(name).plan(matrix, 64, workers=2)
        try:
            assert np.array_equal(plan.matmul(stacked), want)
        finally:
            plan.close()

    @pytest.mark.parametrize("batch", [1, 3, 5])
    def test_ragged_batches_through_multiprocess(self, batch):
        rng = seeded_rng(12)
        matrix = rng.integers(-8, 9, size=(33, 20))
        ring = modular.to_ring(matrix, 32)
        stacked = modular.to_ring(
            rng.integers(0, 1 << 31, size=(20, batch)), 32
        )
        plan = kernel_backends.get_backend("multiprocess").plan(
            matrix, 32, workers=2
        )
        try:
            got = plan.matmul(stacked)
        finally:
            plan.close()
        assert np.array_equal(got, modular.matmul(ring, stacked, 32))

    @pytest.mark.parametrize("batch", [1, 3, 5])
    def test_ragged_batches_through_cnative(self, batch):
        """Batch widths that do not divide the thread count -- the C
        kernel's row partition must stay exact on every shape.  On a
        compiler-less host ``get_backend`` hands back reference, and
        the assertion still holds (the seam contract)."""
        rng = seeded_rng(14)
        matrix = rng.integers(-8, 9, size=(33, 20))
        ring = modular.to_ring(matrix, 32)
        stacked = modular.to_ring(
            rng.integers(0, 1 << 31, size=(20, batch)), 32
        )
        plan = kernel_backends.get_backend("cnative").plan(
            matrix, 32, workers=3
        )
        try:
            got = plan.matmul(stacked)
        finally:
            plan.close()
        assert np.array_equal(got, modular.matmul(ring, stacked, 32))


@pytest.fixture(scope="module")
def regev():
    params = LweParams(n=16, q_bits=32, p=256, sigma=3.2, m=40)
    scheme = RegevScheme(params=params, a_seed=b"B" * 32)
    rng = seeded_rng(0)
    sk = scheme.gen_secret(rng)
    msgs = [rng.integers(0, 256, size=40) for _ in range(6)]
    cts = [scheme.encrypt(sk, msg, rng) for msg in msgs]
    matrix = rng.integers(-8, 9, size=(30, 40))
    return scheme, sk, matrix, cts, msgs


class TestRegevApplyBatch:
    @pytest.mark.parametrize("batch", [1, 2, 5, 6])
    def test_bit_identical_to_integer_product(self, regev, batch):
        """Every batch width, including Q=1 and the ragged tail."""
        scheme, _, matrix, cts, _ = regev
        got = scheme.apply_batch(matrix, cts[:batch])
        assert got.shape == (30, batch)
        want = modular.matmul(
            modular.to_ring(matrix, 32), stack_ciphertexts(cts[:batch]), 32
        )
        assert np.array_equal(got, want)

    def test_accepts_prestacked_matrix_and_plan(self, regev):
        scheme, _, matrix, cts, _ = regev
        plan = scheme.batch_plan(matrix)
        stacked = stack_ciphertexts(cts)
        got = scheme.apply_batch(None, stacked, plan=plan)
        assert np.array_equal(got, scheme.apply_batch(matrix, cts))

    def test_batch_answers_decrypt_to_the_plaintext_product(self, regev):
        scheme, sk, matrix, cts, msgs = regev
        hint = scheme.preprocess(matrix)
        got = scheme.apply_batch(matrix, cts)
        for i, msg in enumerate(msgs):
            assert np.array_equal(
                scheme.decrypt(sk, hint, got[:, i]), (matrix @ msg) % 256
            )

    def test_empty_batch_evaluates_to_no_columns(self, regev):
        scheme, _, matrix, _, _ = regev
        got = scheme.apply_batch(matrix, [])
        assert got.shape == (30, 0)
        assert got.dtype == np.uint32

    def test_requires_matrix_or_plan(self, regev):
        scheme, _, _, cts, _ = regev
        with pytest.raises(ValueError):
            scheme.apply_batch(None, cts)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            stack_ciphertexts([])

    def test_mixed_params_rejected(self, regev):
        scheme, _, _, cts, _ = regev
        other_params = LweParams(n=16, q_bits=64, p=256, sigma=3.2, m=40)
        other = RegevScheme(params=other_params, a_seed=b"C" * 32)
        rng = seeded_rng(9)
        alien = other.encrypt(
            other.gen_secret(rng), rng.integers(0, 256, size=40), rng
        )
        with pytest.raises(ValueError):
            stack_ciphertexts([cts[0], alien])
