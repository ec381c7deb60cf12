"""Statistical validation of the noise-budget analysis (Appendix C).

The parameter selection promises 2^-40 per-entry correctness failure;
we cannot observe 2^-40 events, but the *model* behind it -- answer
noise is Gaussian-ish with std sigma * entry_bound * sqrt(m/3) -- is
directly checkable, as is the failure cliff when parameters violate
the budget.
"""

import numpy as np

from repro.lwe import LweParams, RegevScheme
from repro.lwe.params import max_plaintext_modulus, noise_bound
from repro.lwe.sampling import seeded_rng


def measured_noise(scheme, sk, matrix, msg, rng):
    """Exact per-entry noise of one Apply: (a - H s) - Delta * (M v)."""
    ct = scheme.encrypt(sk, msg, rng)
    hint = scheme.preprocess(matrix)
    answer = scheme.apply(matrix, ct)
    noisy = scheme.decrypt_noisy(sk, hint, answer).astype(np.int64)
    q = scheme.params.q
    expected = (matrix.astype(object) @ msg.astype(object)) % scheme.params.p
    encoded = (np.array(expected, dtype=object) * scheme.params.delta) % q
    diff = (noisy.astype(object) - encoded) % q
    return np.array(
        [int(d) - q if int(d) >= q // 2 else int(d) for d in diff],
        dtype=np.float64,
    )


class TestNoiseModel:
    def test_measured_noise_matches_predicted_std(self):
        params = LweParams(n=64, q_bits=64, p=2**16, sigma=40.0, m=256)
        scheme = RegevScheme(params=params, a_seed=b"N" * 32)
        rng = seeded_rng(0)
        sk = scheme.gen_secret(rng)
        samples = []
        for trial in range(6):
            matrix = rng.integers(0, 8, size=(64, params.m))
            msg = rng.integers(0, params.p, params.m)
            samples.append(measured_noise(scheme, sk, matrix, msg, rng))
        noise = np.concatenate(samples)
        # Predicted std for entries uniform in [0, 8): sigma*sqrt(m*E[d^2]).
        predicted = params.sigma * np.sqrt(params.m * np.mean(
            np.arange(8) ** 2
        ))
        assert 0.5 * predicted < noise.std() < 1.6 * predicted

    def test_no_failures_within_budget(self):
        params = LweParams(n=64, q_bits=32, p=256, sigma=6.4, m=128)
        scheme = RegevScheme(params=params, a_seed=b"O" * 32)
        rng = seeded_rng(1)
        sk = scheme.gen_secret(rng)
        for trial in range(10):
            matrix = rng.integers(0, params.p, size=(32, params.m))
            msg = rng.integers(0, params.p, params.m)
            ct = scheme.encrypt(sk, msg, rng)
            got = scheme.decrypt(
                sk, scheme.preprocess(matrix), scheme.apply(matrix, ct)
            )
            want = (matrix @ msg) % params.p
            assert np.array_equal(got, want)

    def test_violating_the_budget_causes_failures(self):
        """Blow way past the Table 11 noise budget: decryption breaks."""
        m = 128
        p_max = max_plaintext_modulus(m, 32, 6.4)
        # A plaintext modulus ~64x beyond the budget.
        p_bad = 1 << (int(p_max).bit_length() + 5)
        params = LweParams(n=64, q_bits=32, p=p_bad, sigma=6.4, m=m)
        scheme = RegevScheme(params=params, a_seed=b"P" * 32)
        rng = seeded_rng(2)
        sk = scheme.gen_secret(rng)
        failures = 0
        for trial in range(5):
            matrix = rng.integers(0, p_bad, size=(32, m))
            msg = rng.integers(0, p_bad, m)
            ct = scheme.encrypt(sk, msg, rng)
            got = scheme.decrypt(
                sk, scheme.preprocess(matrix), scheme.apply(matrix, ct)
            )
            failures += int(not np.array_equal(got, (matrix @ msg) % p_bad))
        assert failures > 0

    def test_noise_bound_formula_is_conservative(self):
        """The analytic bound should upper-bound observed maxima."""
        params = LweParams(n=64, q_bits=64, p=2**16, sigma=20.0, m=256)
        scheme = RegevScheme(params=params, a_seed=b"Q" * 32)
        rng = seeded_rng(3)
        sk = scheme.gen_secret(rng)
        bound = noise_bound(params.m, params.sigma, entry_bound=8.0)
        worst = 0.0
        for trial in range(5):
            matrix = rng.integers(-8, 8, size=(64, params.m))
            msg = rng.integers(0, params.p, params.m)
            worst = max(
                worst,
                np.abs(measured_noise(scheme, sk, matrix, msg, rng)).max(),
            )
        assert worst < bound


class TestModSwitchNoise:
    def test_switch_noise_is_sublinear_in_dimension(self):
        """Mod-switch adds at most ~(n+1)/2 worst-case error (SS6.2)."""
        from repro.lwe import modular

        rng = seeded_rng(4)
        n = 256
        t = 4294967291
        hint = rng.integers(0, 1 << 63, size=(200, n), dtype=np.uint64)
        s = rng.integers(-1, 2, n).astype(np.int64)
        exact = (
            (hint.astype(object) @ s.astype(object)) % (1 << 64)
        )
        switched_hint = modular.mod_switch(hint, 64, t)
        switched_product = (
            switched_hint.astype(object) @ s.astype(object)
        ) % t
        # Scale the exact product and compare.
        want = [
            round(int(x) * t / (1 << 64)) % t for x in exact
        ]
        diffs = []
        for got, expect in zip(switched_product, want):
            d = (int(got) - int(expect)) % t
            d = d - t if d >= t // 2 else d
            diffs.append(abs(d))
        assert max(diffs) <= (n + 1)
