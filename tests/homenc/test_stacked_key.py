"""The stacked encrypted key under the public outer ``A`` against the
fresh-seed oracle (``key_oracle.py``) and against plaintext ``H' s mod
T``; the limb-split key products against the per-prime oracle loop."""

import hashlib

import numpy as np
import pytest

from repro.core.indexer import _OUTER_N
from repro.homenc import DoubleLheParams, DoubleLheScheme, TokenFactory
from repro.homenc.double import (
    OUTER_A_DOMAIN,
    EncryptedKey,
    PreprocessedMatrix,
)
from repro.homenc.token import make_client_keys, request_token
from repro.lwe.params import SecurityLevel, select_params
from repro.lwe.sampling import seeded_rng
from repro.rlwe.bfv import BfvCiphertext
from tests.homenc.key_oracle import (
    adopt_own_a_product,
    encrypt_key_fresh_seed,
    hint_product_fresh_seed,
    key_products_per_prime,
)

#: The ranking scheme runs at q = 2^64, the URL scheme at q = 2^32.
SERVICES = {"ranking": 64, "url": 32}


def scheme_for(
    level: SecurityLevel, service: str, a_seed: bytes | None = None
) -> DoubleLheScheme:
    """The double-LHE shape a ``level`` deployment gives ``service``."""
    return DoubleLheScheme(
        DoubleLheParams(
            inner=select_params(SERVICES[service], 64, level),
            outer_n=_OUTER_N[level],
        ),
        a_seed=a_seed or service.encode().ljust(32, b"."),
    )


def switched_prep(switched: np.ndarray) -> PreprocessedMatrix:
    """A preprocessed matrix with a given switched hint (two chunks or
    more for random hints); only the outer layer reads it."""
    return PreprocessedMatrix(
        hint=switched, switched_hint=switched, rows=switched.shape[0]
    )


def random_prep(scheme, rng, rows) -> PreprocessedMatrix:
    t = scheme.params.switch_modulus
    switched = rng.integers(0, t, size=(rows, scheme.params.inner.n))
    return switched_prep(switched.astype(np.uint64))


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
        """``b`` halves paired with the shared ``a``-product decrypt to
        exactly what the fresh-seed ``(z_b, z_a)`` path and the
        plaintext give."""
        scheme = scheme_for(level, service)
        rng = seeded_rng(seed)
        keys = scheme.gen_keys(rng)
        prep = random_prep(scheme, rng, scheme.params.outer_n + 5)
        a_product = adopt_own_a_product(scheme, prep)
        stacked = scheme.decrypt_hint_product(
            keys,
            scheme.evaluate_hint(scheme.encrypt_key(keys, rng), prep, a_product),
        )
        z_b, z_a = encrypt_key_fresh_seed(scheme, keys, rng)
        oracle = hint_product_fresh_seed(scheme, keys, z_b, z_a, prep)
        np.testing.assert_array_equal(stacked, oracle)
        assert np.array_equal(
            stacked.astype(object), clear_product(scheme, keys, prep)
        )

    def test_minted_tokens_match_the_oracle_and_the_clear_product(self, level):
        """Through the factory: ranking and URL share one key, encrypted
        under the ranking scheme's ``A``, and both services' products
        come out exact."""
        rng = seeded_rng(3)
        schemes = {name: scheme_for(level, name) for name in SERVICES}
        factory = TokenFactory()
        for name, scheme in schemes.items():
            factory.register(
                name, scheme, random_prep(scheme, rng, scheme.params.outer_n + 7)
            )
        token = request_token(schemes, factory, rng)
        keys, products = token.consume()
        for name, scheme in schemes.items():
            prep = factory.service(name).prep
            want = clear_product(scheme, keys[name], prep)
            assert np.array_equal(products[name].astype(object), want)
            z_b, z_a = encrypt_key_fresh_seed(scheme, keys[name], rng)
            oracle = hint_product_fresh_seed(scheme, keys[name], z_b, z_a, prep)
            np.testing.assert_array_equal(products[name], oracle)


class TestGolden:
    """Pinned digests for a pinned rng.  ``encrypt_constants`` for a
    given ``A`` and rng is fixed: its digests were taken from the
    seed-taking version it replaced, with ``A = expand_uniform(b"g" *
    32, n_inner)``.  The ``z_b`` digests are that same encryption under
    the scheme's hash-derived ``A``, with no per-key seed drawn from
    the rng first."""

    Z_B = {
        (SecurityLevel.TOY, "ranking"): "1ef7aa8229f2b7a36d626f5f82329c2d9a367a327529e5bf033063cf09e4b279",
        (SecurityLevel.TOY, "url"): "07b4a44c84a16b65d637a1c0528ab24bd4b445f7cfa35ba54cab454af337aefc",
        (SecurityLevel.LIGHT, "ranking"): "0f8ce03fecf9d77e1c760130371fc17c395186ff32f70aeeedce6270b686280a",
        (SecurityLevel.LIGHT, "url"): "064f11f15171c57c285bfe72e2b087ab3c9d538635aa3dbec373adb9057489d3",
    }
    CONSTANTS = {
        (SecurityLevel.TOY, "ranking"): "2c4e9a3fb497ebf95d2a86b7998723e822ca69d47a5f82d09a26821130e65a5b",
        (SecurityLevel.TOY, "url"): "46f1600adca512c0017473b4c1b1e82504fd00a0cc0d3cb738eb7d447c140e12",
        (SecurityLevel.LIGHT, "ranking"): "a10313c8e2c7f5889673f40a4d48a2a81d43e97d59e478ffd823b15b6ac7515e",
        (SecurityLevel.LIGHT, "url"): "e6b1eb8d7c60c5f125ef71e3b93ca86906ea75ce43ee5cf7b16350fdddef3daa",
    }

    @pytest.mark.parametrize("service", sorted(SERVICES))
    def test_z_b_digest_is_pinned(self, level, service):
        scheme = scheme_for(level, service)
        rng = seeded_rng(11)
        key = scheme.encrypt_key(scheme.gen_keys(rng), rng)
        digest = hashlib.sha256(key.z_b.tobytes()).hexdigest()
        assert digest == self.Z_B[level, service]

    @pytest.mark.parametrize("service", sorted(SERVICES))
    def test_encrypt_constants_digest_is_pinned(self, level, service):
        scheme = scheme_for(level, service)
        rng = seeded_rng(11)
        keys = scheme.gen_keys(rng)
        a = scheme.outer.ring.expand_uniform(b"g" * 32, scheme.params.inner.n)
        z_b = scheme.outer.encrypt_constants(
            keys.outer, keys.inner.signed(), a, rng
        )
        digest = hashlib.sha256(z_b.tobytes()).hexdigest()
        assert digest == self.CONSTANTS[level, service]


class TestHintEvaluation:
    @pytest.mark.parametrize("service", sorted(SERVICES))
    @pytest.mark.parametrize("sidecar", [False, True])
    def test_limb_sums_match_the_per_prime_loop(self, level, service, sidecar):
        """A batch of three keys over a hint of three chunks, with and
        without the precomputed NTT table: every ``b`` word and every
        ``a``-product word equals the oracle's."""
        scheme = scheme_for(level, service)
        rng = seeded_rng(9)
        prep = random_prep(scheme, rng, 2 * scheme.params.outer_n + 3)
        if sidecar:
            prep = scheme.with_hint_ntt(prep)
        a_product = scheme.a_product(prep)
        np.testing.assert_array_equal(
            a_product.words, key_products_per_prime(scheme, scheme.outer_a, prep)
        )
        keys = [scheme.encrypt_key(scheme.gen_keys(rng), rng) for _ in range(3)]
        hints = scheme.evaluate_hint_batch(keys, prep, a_product)
        for key, got in zip(keys, hints):
            assert got.rows == prep.rows
            assert got.a_digest == a_product.digest
            assert got.b.shape[0] == 3
            np.testing.assert_array_equal(
                got.b, key_products_per_prime(scheme, key.z_b, prep)
            )

    def test_worst_case_residues_do_not_overflow(self):
        """Every key, ``A`` and hint-NTT word at p - 1: the largest limb
        sums the uint64 accumulation can see."""
        scheme = scheme_for(SecurityLevel.LIGHT, "ranking")
        ring = scheme.outer.ring
        top = np.array(ring.primes, dtype=np.uint64).reshape(-1, 1) - 1
        z_b = np.broadcast_to(top, (scheme.params.inner.n, ring.k, ring.n))
        key = EncryptedKey(z_b=z_b.copy())
        table = np.broadcast_to(
            top[None, :, :, None], (1, ring.k, scheme.params.inner.n, ring.n)
        )
        prep = PreprocessedMatrix(
            hint=None, switched_hint=None, rows=ring.n, hint_ntt=table
        )
        want = key_products_per_prime(scheme, key.z_b, prep)
        a_product = scheme.a_product(prep, outer_a=key.z_b)
        np.testing.assert_array_equal(a_product.words, want)
        np.testing.assert_array_equal(
            scheme.evaluate_hint(key, prep, a_product).b, want
        )


class TestSeed:
    def test_client_and_server_expand_the_same_a(self, level):
        """The server's ``A`` is the client's: each ``(z_b[i], A_i)``
        pair decrypts to the constant ``s_i``, and a scheme built
        elsewhere from the same public seed expands the same ``A``."""
        scheme = scheme_for(level, "url")
        rng = seeded_rng(3)
        keys = scheme.gen_keys(rng)
        key = scheme.encrypt_key(keys, rng)
        server = scheme_for(level, "url")
        np.testing.assert_array_equal(server.outer_a, scheme.outer_a)
        t = scheme.params.switch_modulus
        for i, s_i in enumerate(keys.inner.signed()):
            ct = BfvCiphertext(b=key.z_b[i], a=server.outer_a[i])
            assert scheme.outer.decrypt(keys.outer, ct, length=1)[0] == s_i % t

    def test_outer_a_is_a_function_of_the_scheme_seed(self):
        """Same seed, same ``A``; another seed, another ``A``; never the
        plain expansion of the seed (domain-separated), and read-only."""
        a = scheme_for(SecurityLevel.TOY, "ranking", b"x" * 32)
        b = scheme_for(SecurityLevel.TOY, "ranking", b"x" * 32)
        c = scheme_for(SecurityLevel.TOY, "ranking", b"y" * 32)
        np.testing.assert_array_equal(a.outer_a, b.outer_a)
        assert not np.array_equal(a.outer_a, c.outer_a)
        plain = a.outer.ring.expand_uniform(b"x" * 32, a.params.inner.n)
        assert not np.array_equal(a.outer_a, plain)
        seed = hashlib.sha256(OUTER_A_DOMAIN + b"x" * 32).digest()
        np.testing.assert_array_equal(
            a.outer_a, a.outer.ring.expand_uniform(seed, a.params.inner.n)
        )
        assert a.outer_a.shape == (a.params.inner.n, a.outer.ring.k, a.outer.ring.n)
        with pytest.raises(ValueError):
            a.outer_a[0, 0, 0] = 1

    def test_a_halves_inside_one_token_are_distinct(self, level):
        """The ``A_i`` of one key are pairwise distinct ring elements, so
        no two components of one token share an ``a``."""
        for service in SERVICES:
            a = scheme_for(level, service).outer_a
            flat = a.reshape(a.shape[0], -1)
            assert len(np.unique(flat, axis=0)) == a.shape[0]

    def test_keys_share_no_secret_across_tokens(self):
        """Two tokens' keys under the same ``A`` carry independent outer
        secrets, so their ``z_b`` differ everywhere but by chance."""
        schemes = {n: scheme_for(SecurityLevel.TOY, n) for n in SERVICES}
        k1, e1, _ = make_client_keys(schemes, seeded_rng(1))
        k2, e2, _ = make_client_keys(schemes, seeded_rng(2))
        assert not np.array_equal(
            k1["ranking"].outer.s_signed, k2["ranking"].outer.s_signed
        )
        assert (e1["ranking"].z_b != e2["ranking"].z_b).mean() > 0.99


class TestOuterNoise:
    """The outer layer at its worst switched hint: every entry T - 1, so
    each output coefficient sums ``n_inner`` maximal products of hint
    and key error."""

    KEYS = 200

    def _budgets(self, scheme, encrypt, rng):
        """Noise budgets of ``KEYS`` hints; ``encrypt(keys, rng)``
        returns a key's ``(z_b, z_a)``."""
        t = scheme.params.switch_modulus
        n_outer, n_inner = scheme.params.outer_n, scheme.params.inner.n
        worst = np.full((n_outer, n_inner), t - 1, dtype=np.uint64)
        prep = switched_prep(worst)
        a_product = adopt_own_a_product(scheme, prep)
        budgets = []
        for _ in range(self.KEYS):
            keys = scheme.gen_keys(rng)
            z_b, z_a = encrypt(keys, rng)
            want = clear_product(scheme, keys, prep)
            if z_a is scheme.outer_a:
                hint = scheme.evaluate_hint(EncryptedKey(z_b=z_b), prep, a_product)
                got = scheme.decrypt_hint_product(keys, hint)
                assert np.array_equal(got.astype(object), want)
                (b,), (a,) = hint.b, a_product.words
            else:
                (b,) = key_products_per_prime(scheme, z_b, prep)
                (a,) = key_products_per_prime(scheme, z_a, prep)
            budgets.append(
                scheme.outer.noise_budget_bits(
                    keys.outer,
                    BfvCiphertext(b=b, a=a),
                    np.array(want, dtype=np.int64),
                )
            )
        return budgets

    def test_stacked_keys_decrypt_exactly_with_the_oracle_budget(self):
        scheme = scheme_for(SecurityLevel.TOY, "ranking")
        stacked = self._budgets(
            scheme,
            lambda keys, rng: (
                scheme.encrypt_key(keys, rng).z_b,
                scheme.outer_a,
            ),
            seeded_rng(7),
        )
        oracle = self._budgets(
            scheme,
            lambda keys, rng: encrypt_key_fresh_seed(scheme, keys, rng),
            seeded_rng(8),
        )
        assert min(stacked) > 0
        assert abs(min(stacked) - min(oracle)) <= 1.0
