"""Tests for RNS ring arithmetic."""

import numpy as np
import pytest

from repro.rlwe.ntt import find_ntt_primes, negacyclic_convolve_reference
from repro.rlwe.poly import RnsContext


@pytest.fixture(scope="module")
def ring():
    return RnsContext(32, find_ntt_primes(32, 28, 2))


class TestRepresentation:
    def test_int_round_trip(self, ring):
        rng = np.random.default_rng(0)
        coeffs = [int(x) for x in rng.integers(0, ring.q, size=ring.n)]
        assert ring.to_ints(ring.from_ints(coeffs)) == coeffs

    def test_signed_round_trip(self, ring):
        coeffs = np.array([-3, -1, 0, 1, 5] + [0] * (ring.n - 5))
        centered = ring.to_centered_ints(ring.from_signed(coeffs))
        assert centered == list(coeffs)

    def test_distinct_primes_enforced(self):
        p = find_ntt_primes(32, 28, 1)[0]
        with pytest.raises(ValueError):
            RnsContext(32, (p, p))


class TestArithmetic:
    def test_add_sub_match_integers(self, ring):
        rng = np.random.default_rng(1)
        a = [int(x) for x in rng.integers(0, ring.q, size=ring.n)]
        b = [int(x) for x in rng.integers(0, ring.q, size=ring.n)]
        got = ring.to_ints(ring.add(ring.from_ints(a), ring.from_ints(b)))
        assert got == [(x + y) % ring.q for x, y in zip(a, b)]
        got = ring.to_ints(ring.sub(ring.from_ints(a), ring.from_ints(b)))
        assert got == [(x - y) % ring.q for x, y in zip(a, b)]

    def test_neg(self, ring):
        a = ring.from_ints([1] + [0] * (ring.n - 1))
        assert ring.to_ints(ring.neg(a))[0] == ring.q - 1

    def test_scalar_mul(self, ring):
        a = ring.from_ints([2] + [0] * (ring.n - 1))
        out = ring.to_ints(ring.scalar_mul(a, ring.q - 1))  # times -1
        assert out[0] == ring.q - 2

    def test_multiply_matches_reference_per_prime(self, ring):
        rng = np.random.default_rng(2)
        a = [int(x) for x in rng.integers(0, 1000, size=ring.n)]
        b = [int(x) for x in rng.integers(0, 1000, size=ring.n)]
        got = ring.multiply(ring.from_ints(a), ring.from_ints(b))
        for i, p in enumerate(ring.primes):
            want = negacyclic_convolve_reference(
                np.array(a, dtype=np.uint64) % np.uint64(p),
                np.array(b, dtype=np.uint64) % np.uint64(p),
                p,
            )
            assert np.array_equal(got[i], want)


class TestStacks:
    def test_stacked_lift_and_ntt_match_per_element(self, ring):
        rng = np.random.default_rng(6)
        coeffs = rng.integers(-50, 50, size=(5, ring.n))
        stacked = ring.to_ntt(ring.from_signed(coeffs))
        assert stacked.shape == (5, ring.k, ring.n)
        for row, got in zip(coeffs, stacked):
            np.testing.assert_array_equal(got, ring.to_ntt(ring.from_signed(row)))

    def test_expand_uniform_is_a_function_of_the_seed(self, ring):
        a = ring.expand_uniform(b"s" * 32, 4)
        np.testing.assert_array_equal(a, ring.expand_uniform(b"s" * 32, 4))
        assert not np.array_equal(a, ring.expand_uniform(b"t" * 32, 4))
        assert a.shape == (4, ring.k, ring.n)
        for i, p in enumerate(ring.primes):
            assert a[:, i].max() < p


class TestSmallTransform:
    """``to_ntt_small`` (one exact float64 GEMM per prime) against the
    butterfly NTT of the lifted stack, which stays the oracle."""

    @pytest.fixture(scope="class", params=[64, 256, 2048])
    def big_ring(self, request):
        n = request.param
        return RnsContext(n, find_ntt_primes(n, 30, 3))

    @staticmethod
    def _oracle(ring, x):
        return ring.to_ntt(ring.from_signed(x))

    def test_bound_is_the_float64_exactness_limit(self, big_ring):
        assert big_ring.small_bound == (1 << 23) // big_ring.n

    @pytest.mark.parametrize("kind", ["gaussian", "ternary"])
    def test_matches_the_butterfly_ntt(self, big_ring, kind):
        rng = np.random.default_rng(big_ring.n)
        rows = 3 if big_ring.n == 2048 else 9
        if kind == "gaussian":
            x = big_ring.sample_gaussian_signed(rng, 3.2, rows)
        else:
            x = rng.integers(-1, 2, size=(rows, big_ring.n))
        got = big_ring.to_ntt_small(x)
        assert got.shape == (rows, big_ring.k, big_ring.n)
        np.testing.assert_array_equal(got, self._oracle(big_ring, x))

    def test_exact_at_the_largest_allowed_coefficients(self, big_ring):
        """Every coefficient at +-(bound - 1): the largest dot products
        the float64 product must still hold exactly."""
        top = big_ring.small_bound - 1
        rng = np.random.default_rng(1)
        signs = rng.choice([-1, 1], size=(2, big_ring.n))
        x = np.stack([np.full(big_ring.n, top), np.full(big_ring.n, -top)])
        x = np.concatenate([x, signs * top])
        np.testing.assert_array_equal(
            big_ring.to_ntt_small(x), self._oracle(big_ring, x)
        )

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rejects_coefficients_at_the_bound(self, big_ring, sign):
        x = np.zeros((2, big_ring.n), dtype=np.int64)
        x[1, 5] = sign * big_ring.small_bound
        with pytest.raises(ValueError, match="strictly within"):
            big_ring.to_ntt_small(x)

    def test_constants_and_addend_join_the_reduction(self, ring):
        rng = np.random.default_rng(7)
        x = rng.integers(-20, 20, size=(2, 4, ring.n))
        constants = np.stack(
            [rng.integers(0, p, size=(2, 4)) for p in ring.primes], axis=-1
        ).astype(np.uint64)
        a = np.stack(
            [rng.integers(0, p, size=(2, 4, ring.n)) for p in ring.primes],
            axis=-2,
        ).astype(np.uint64)
        s = ring.to_ntt(ring.from_signed(rng.integers(-1, 2, size=ring.n)))
        got = ring.to_ntt_small(x, constants=constants, addend=a * s)
        lifted = ring.from_signed(x)
        primes = np.array(ring.primes, dtype=np.uint64)
        lifted[..., 0] = (lifted[..., 0] + constants) % primes
        want = ring.add(ring.mul_pointwise(a, s), ring.to_ntt(lifted))
        np.testing.assert_array_equal(got, want)

    def test_rejects_a_wrong_ring_dimension(self, ring):
        with pytest.raises(ValueError, match="coefficients"):
            ring.to_ntt_small(np.zeros((2, ring.n + 1), dtype=np.int64))


class TestSampling:
    def test_uniform_covers_range(self, ring):
        rng = np.random.default_rng(3)
        poly = ring.sample_uniform(rng)
        assert poly.shape == (ring.k, ring.n)
        for i, p in enumerate(ring.primes):
            assert poly[i].max() < p

    def test_ternary_values(self, ring):
        rng = np.random.default_rng(4)
        vals = set(ring.to_centered_ints(ring.sample_ternary(rng)))
        assert vals <= {-1, 0, 1}

    def test_gaussian_is_small(self, ring):
        rng = np.random.default_rng(5)
        vals = ring.to_centered_ints(ring.sample_gaussian(rng, 3.2))
        assert max(abs(v) for v in vals) < 40
