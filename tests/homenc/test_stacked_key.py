"""The stacked, seed-compressed encrypted key against the per-component
oracle (``key_oracle.py``) and against plaintext ``H' s mod T``; the
limb-split hint evaluation against the per-prime oracle loop."""

import hashlib

import numpy as np
import pytest

from repro.core.indexer import _OUTER_N
from repro.homenc import DoubleLheParams, DoubleLheScheme
from repro.homenc.double import (
    KEY_SEED_BYTES,
    EncryptedKey,
    PreprocessedMatrix,
)
from repro.lwe.params import SecurityLevel, select_params
from repro.lwe.sampling import seeded_rng
from repro.rlwe.bfv import BfvCiphertext
from tests.homenc.key_oracle import (
    encrypt_key_per_component,
    evaluate_hint_per_prime,
)

#: The ranking scheme runs at q = 2^64, the URL scheme at q = 2^32.
SERVICES = {"ranking": 64, "url": 32}


def scheme_for(level: SecurityLevel, service: str) -> DoubleLheScheme:
    """The double-LHE shape a ``level`` deployment gives ``service``."""
    return DoubleLheScheme(
        DoubleLheParams(
            inner=select_params(SERVICES[service], 64, level),
            outer_n=_OUTER_N[level],
        ),
        a_seed=service.encode().ljust(32, b"."),
    )


def switched_prep(switched: np.ndarray) -> PreprocessedMatrix:
    """A preprocessed matrix with a given switched hint (two chunks or
    more for random hints); only the outer layer reads it."""
    return PreprocessedMatrix(
        hint=switched, switched_hint=switched, rows=switched.shape[0]
    )


def clear_product(scheme, keys, prep) -> np.ndarray:
    t = scheme.params.switch_modulus
    s = keys.inner.signed().astype(object)
    return (prep.switched_hint.astype(object) @ s) % t


@pytest.fixture(scope="module", params=[SecurityLevel.TOY, SecurityLevel.LIGHT])
def level(request):
    return request.param


class TestBitIdentity:
    @pytest.mark.parametrize("service", sorted(SERVICES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_and_oracle_decrypt_to_the_clear_product(
        self, level, service, seed
    ):
        scheme = scheme_for(level, service)
        rng = seeded_rng(seed)
        keys = scheme.gen_keys(rng)
        t = scheme.params.switch_modulus
        rows = scheme.params.outer_n + 5
        switched = rng.integers(0, t, size=(rows, scheme.params.inner.n))
        prep = switched_prep(switched.astype(np.uint64))

        products = [
            scheme.decrypt_hint_product(keys, scheme.evaluate_hint(key, prep))
            for key in (
                scheme.encrypt_key(keys, rng),
                encrypt_key_per_component(scheme, keys, rng),
            )
        ]
        np.testing.assert_array_equal(products[0], products[1])
        assert np.array_equal(
            products[0].astype(object), clear_product(scheme, keys, prep)
        )


class TestGolden:
    """``z_b`` for a pinned rng is fixed: these digests were taken from
    the butterfly-NTT encryption that :meth:`RnsContext.to_ntt_small`
    replaced, so the GEMM transform must reproduce it bit for bit."""

    DIGESTS = {
        (SecurityLevel.TOY, "ranking"): "075a4629a047f3f52a30d3d373ee4c8aa2aa71c529a4685201716ea5c6823fc0",
        (SecurityLevel.TOY, "url"): "e5f9332a3f481fb1814a0f6f87975387073bfddac15c6da572819b56fe9b10af",
        (SecurityLevel.LIGHT, "ranking"): "08059aa971110bb462db94383377dea89699609f317195127ed65af8e22467f0",
        (SecurityLevel.LIGHT, "url"): "a945c3aa883a92ce3a3d0c1f6d89a61882baf16cdf38c04055a24fab23e70d8c",
    }

    @pytest.mark.parametrize("service", sorted(SERVICES))
    def test_z_b_digest_is_pinned(self, level, service):
        scheme = scheme_for(level, service)
        rng = seeded_rng(11)
        key = scheme.encrypt_key(scheme.gen_keys(rng), rng)
        digest = hashlib.sha256(key.z_b.tobytes()).hexdigest()
        assert digest == self.DIGESTS[level, service]


class TestHintEvaluation:
    @pytest.mark.parametrize("service", sorted(SERVICES))
    @pytest.mark.parametrize("sidecar", [False, True])
    def test_limb_sums_match_the_per_prime_loop(self, level, service, sidecar):
        """A batch of three keys over a hint of three chunks, with and
        without the precomputed NTT table: every ciphertext word equals
        the oracle's."""
        scheme = scheme_for(level, service)
        rng = seeded_rng(9)
        t = scheme.params.switch_modulus
        rows = 2 * scheme.params.outer_n + 3
        prep = switched_prep(
            rng.integers(0, t, size=(rows, scheme.params.inner.n)).astype(
                np.uint64
            )
        )
        if sidecar:
            prep = scheme.with_hint_ntt(prep)
        keys = [scheme.encrypt_key(scheme.gen_keys(rng), rng) for _ in range(3)]
        for key, got in zip(keys, scheme.evaluate_hint_batch(keys, prep)):
            want = evaluate_hint_per_prime(scheme, key, prep)
            assert got.rows == want.rows
            assert len(got.chunks) == len(want.chunks) == 3
            for g, w in zip(got.chunks, want.chunks):
                np.testing.assert_array_equal(g.b, w.b)
                np.testing.assert_array_equal(g.a, w.a)

    def test_worst_case_residues_do_not_overflow(self):
        """Every key and hint-NTT word at p - 1: the largest limb sums
        the uint64 accumulation can see."""
        scheme = scheme_for(SecurityLevel.LIGHT, "ranking")
        ring = scheme.outer.ring
        top = np.array(ring.primes, dtype=np.uint64).reshape(-1, 1) - 1
        z_b = np.broadcast_to(top, (scheme.params.inner.n, ring.k, ring.n))
        key = EncryptedKey(z_b=z_b.copy(), a_seed=b"w" * KEY_SEED_BYTES)
        table = np.broadcast_to(
            top[None, :, :, None], (1, ring.k, scheme.params.inner.n, ring.n)
        )
        prep = PreprocessedMatrix(
            hint=None, switched_hint=None, rows=ring.n, hint_ntt=table
        )
        (got,) = scheme.evaluate_hint(key, prep).chunks
        (want,) = evaluate_hint_per_prime(scheme, key, prep).chunks
        np.testing.assert_array_equal(got.b, want.b)
        np.testing.assert_array_equal(got.a, want.a)


class TestSeed:
    def test_client_and_server_expand_the_same_a(self, level):
        """The server's ``z_a`` is the client's ``a``: each ``(z_b[i],
        z_a[i])`` pair decrypts to the constant ``s_i``."""
        scheme = scheme_for(level, "url")
        rng = seeded_rng(3)
        keys = scheme.gen_keys(rng)
        key = scheme.encrypt_key(keys, rng)
        z_a = scheme.expand_z_a(key)
        np.testing.assert_array_equal(z_a, scheme.expand_z_a(key))
        t = scheme.params.switch_modulus
        for i, s_i in enumerate(keys.inner.signed()):
            ct = BfvCiphertext(b=key.z_b[i], a=z_a[i])
            assert scheme.outer.decrypt(keys.outer, ct, length=1)[0] == s_i % t

    def test_seed_is_fresh_per_rng_and_replays_per_seed(self):
        scheme = scheme_for(SecurityLevel.TOY, "ranking")
        keys = scheme.gen_keys(seeded_rng(4))
        a = scheme.encrypt_key(keys, seeded_rng(5))
        b = scheme.encrypt_key(keys, seeded_rng(5))
        c = scheme.encrypt_key(keys, seeded_rng(6))
        assert len(a.a_seed) == KEY_SEED_BYTES
        assert a.a_seed == b.a_seed
        np.testing.assert_array_equal(a.z_b, b.z_b)
        assert a.a_seed != c.a_seed


class TestOuterNoise:
    """The outer layer at its worst switched hint: every entry T - 1, so
    each output coefficient sums ``n_inner`` maximal products of hint
    and key error."""

    KEYS = 200

    def _budgets(self, scheme, encrypt, rng):
        t = scheme.params.switch_modulus
        n_outer, n_inner = scheme.params.outer_n, scheme.params.inner.n
        worst = np.full((n_outer, n_inner), t - 1, dtype=np.uint64)
        prep = switched_prep(worst)
        keyset = [scheme.gen_keys(rng) for _ in range(self.KEYS)]
        enc = [encrypt(keys, rng) for keys in keyset]
        budgets = []
        for keys, hint in zip(keyset, scheme.evaluate_hint_batch(enc, prep)):
            want = clear_product(scheme, keys, prep)
            got = scheme.decrypt_hint_product(keys, hint)
            assert np.array_equal(got.astype(object), want)
            (chunk,) = hint.chunks
            budgets.append(
                scheme.outer.noise_budget_bits(
                    keys.outer, chunk, np.array(want, dtype=np.int64)
                )
            )
        return budgets

    def test_stacked_keys_decrypt_exactly_with_the_oracle_budget(self):
        scheme = scheme_for(SecurityLevel.TOY, "ranking")
        stacked = self._budgets(scheme, scheme.encrypt_key, seeded_rng(7))
        oracle = self._budgets(
            scheme,
            lambda keys, rng: encrypt_key_per_component(scheme, keys, rng),
            seeded_rng(8),
        )
        assert min(stacked) > 0
        assert abs(min(stacked) - min(oracle)) <= 1.0
