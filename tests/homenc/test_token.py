"""Tests for query-token minting and single-use enforcement."""

import numpy as np
import pytest

from repro.homenc import (
    AProduct,
    DoubleLheParams,
    DoubleLheScheme,
    EncryptedKey,
    GenerationMismatchError,
    TokenFactory,
    TokenReuseError,
)
from repro.homenc.double import CompressedHint
from repro.homenc.token import make_client_keys, request_token
from repro.lwe import LweParams
from repro.lwe.sampling import seeded_rng


def make_service(q_bits, p, m, n_inner=32, seed=b"S" * 32):
    inner = LweParams(n=n_inner, q_bits=q_bits, p=p, sigma=6.4, m=m)
    return DoubleLheScheme(
        DoubleLheParams(
            inner=inner, outer_n=64, outer_prime_bits=30, outer_num_primes=3
        ),
        a_seed=seed,
    )


@pytest.fixture(scope="module")
def two_services():
    rng = seeded_rng(0)
    ranking = make_service(64, 2**12, 40, seed=b"R" * 32)
    url = make_service(32, 2**8, 24, seed=b"U" * 32)
    rank_matrix = rng.integers(-8, 8, size=(30, 40))
    url_matrix = rng.integers(0, 2**8, size=(20, 24))
    factory = TokenFactory()
    factory.register("ranking", ranking, ranking.preprocess(rank_matrix))
    factory.register("url", url, url.preprocess(url_matrix))
    schemes = {"ranking": ranking, "url": url}
    return schemes, factory, rank_matrix, url_matrix


class TestSharedKeys:
    def test_same_dimension_services_share_one_upload(self, two_services):
        schemes, _, _, _ = two_services
        keys, enc_keys, upload = make_client_keys(schemes, seeded_rng(1))
        assert enc_keys["ranking"] is enc_keys["url"]
        assert upload == schemes["ranking"].key_upload_bytes()
        s_rank = keys["ranking"].inner.signed()
        s_url = keys["url"].inner.signed()
        assert np.array_equal(s_rank, s_url)

    def test_different_dimensions_get_separate_uploads(self):
        a = make_service(64, 2**12, 16, n_inner=32, seed=b"a" * 32)
        b = make_service(64, 2**12, 16, n_inner=16, seed=b"b" * 32)
        _, enc_keys, upload = make_client_keys(
            {"a": a, "b": b}, seeded_rng(2)
        )
        assert enc_keys["a"] is not enc_keys["b"]
        assert upload == a.key_upload_bytes() + b.key_upload_bytes()


class TestTokenLifecycle:
    def test_token_supports_one_correct_query_per_service(self, two_services):
        schemes, factory, rank_matrix, url_matrix = two_services
        token = request_token(schemes, factory, seeded_rng(3))
        keys, hint_products = token.consume()
        rng = seeded_rng(4)

        msg = rng.integers(-8, 8, 40)
        ct = schemes["ranking"].encrypt(keys["ranking"], msg, rng)
        answer = schemes["ranking"].apply(rank_matrix, ct)
        got = schemes["ranking"].decrypt_centered(
            keys["ranking"], answer, hint_products["ranking"]
        )
        assert np.array_equal(got, rank_matrix @ msg)

        sel = np.zeros(24, dtype=int)
        sel[7] = 1
        ct = schemes["url"].encrypt(keys["url"], sel, rng)
        answer = schemes["url"].apply(url_matrix, ct)
        got = schemes["url"].decrypt(keys["url"], answer, hint_products["url"])
        assert np.array_equal(got, url_matrix[:, 7] % 2**8)

    def test_token_is_single_use(self, two_services):
        schemes, factory, _, _ = two_services
        token = request_token(schemes, factory, seeded_rng(5))
        token.consume()
        with pytest.raises(TokenReuseError):
            token.consume()

    def test_token_byte_accounting(self, two_services):
        schemes, factory, _, _ = two_services
        token = request_token(schemes, factory, seeded_rng(6))
        assert token.upload_bytes == schemes["ranking"].key_upload_bytes()
        assert token.download_bytes > 0

    def test_two_tokens_use_independent_keys(self, two_services):
        schemes, factory, _, _ = two_services
        t1 = request_token(schemes, factory, seeded_rng(7))
        t2 = request_token(schemes, factory, seeded_rng(8))
        s1 = t1.keys["ranking"].inner.signed()
        s2 = t2.keys["ranking"].inner.signed()
        assert not np.array_equal(s1, s2)


def assert_hints_equal(a, b):
    """Bit-identity of two CompressedHint payloads."""
    assert a.rows == b.rows
    assert a.a_digest == b.a_digest
    np.testing.assert_array_equal(a.b, b.b)


class TestMintMany:
    def test_batch_is_bit_identical_to_sequential_mints(self, two_services):
        """The mint_many stacking only amortizes NTTs: payload i equals
        what a lone mint of client i's keys returns."""
        schemes, factory, _, _ = two_services
        enc_keys_list = [
            make_client_keys(schemes, seeded_rng(30 + i))[1]
            for i in range(3)
        ]
        batched = factory.mint_many(enc_keys_list)
        assert len(batched) == 3
        for enc_keys, payload in zip(enc_keys_list, batched):
            lone = factory.mint(enc_keys)
            for name in ("ranking", "url"):
                assert_hints_equal(payload.hints[name], lone.hints[name])

    def test_lone_mint_decrypts_to_the_clear_hint_product(self, two_services):
        """``mint`` is ``mint_many`` of one, so it is checked against
        the plaintext: each hint decrypts to ``H' s mod T``."""
        schemes, factory, _, _ = two_services
        keys, enc_keys, _ = make_client_keys(schemes, seeded_rng(40))
        payload = factory.mint(enc_keys)
        for name, scheme in schemes.items():
            scheme.adopt_a_product(
                factory.a_products()[name], factory.service(name).prep.rows
            )
            got = scheme.decrypt_hint_product(keys[name], payload.hints[name])
            want = (
                factory.service(name).prep.switched_hint.astype(object)
                @ keys[name].inner.signed().astype(object)
            ) % scheme.params.switch_modulus
            assert np.array_equal(got.astype(object), want)

    def test_empty_batch_mints_nothing(self, two_services):
        _, factory, _, _ = two_services
        assert factory.mint_many([]) == []

    def test_missing_service_keys_rejected(self, two_services):
        schemes, factory, _, _ = two_services
        good = make_client_keys(schemes, seeded_rng(41))[1]
        bad = make_client_keys(
            {"ranking": schemes["ranking"]}, seeded_rng(42)
        )[1]
        with pytest.raises(ValueError):
            factory.mint_many([good, bad])


class TestSingleUseUnderThreads:
    def test_exactly_one_thread_wins_consume(self, two_services):
        """The single-use check is a locked check-and-set: N racing
        consumers yield one success and N-1 TokenReuseErrors."""
        import threading

        schemes, factory, _, _ = two_services
        token = request_token(schemes, factory, seeded_rng(50))
        outcomes = []
        outcomes_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def consume():
            barrier.wait()
            try:
                token.consume()
                result = "ok"
            except TokenReuseError:
                result = "reused"
            with outcomes_lock:
                outcomes.append(result)

        threads = [threading.Thread(target=consume) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 1
        assert outcomes.count("reused") == 7


class TestFactoryValidation:
    def test_duplicate_registration_rejected(self):
        svc = make_service(64, 2**12, 16)
        factory = TokenFactory()
        prep = svc.preprocess(np.zeros((4, 16), dtype=int))
        factory.register("x", svc, prep)
        with pytest.raises(ValueError):
            factory.register("x", svc, prep)

    def test_mint_requires_all_services(self, two_services):
        schemes, factory, _, _ = two_services
        _, enc_keys, _ = make_client_keys(
            {"ranking": schemes["ranking"]}, seeded_rng(9)
        )
        with pytest.raises(ValueError):
            factory.mint(enc_keys)

    def test_unserved_service_rejected(self, two_services):
        """A key for a service this mint does not serve is an error, not
        silently ignored."""
        schemes, factory, _, _ = two_services
        good = make_client_keys(schemes, seeded_rng(10))[1]
        extra = dict(good, extra=good["url"])
        with pytest.raises(ValueError, match=r"client 1: .*\['extra'\]"):
            factory.mint_many([good, extra])

    def test_a_products_are_computed_once(self, two_services):
        schemes, factory, _, _ = two_services
        first = factory.a_products()
        assert factory.a_products() is first
        assert set(first) == {"ranking", "url"}
        for name, a_product in first.items():
            assert a_product.rows == factory.service(name).prep.rows


def _reshaped(z_b, how):
    """``z_b`` with one axis cut down or grown by one entry."""
    axis = {"n_inner": 0, "k": 1, "n_outer": 2}[how[0]]
    if how[1] == "one":
        return np.take(z_b, [0], axis=axis)
    if how[1] == "-1":
        return np.delete(z_b, -1, axis=axis)
    return np.concatenate([z_b, np.take(z_b, [0], axis=axis)], axis=axis)


class TestMalformedKeys:
    """A key whose shape, seed or residues do not fit the registered
    scheme is refused before evaluation -- it would otherwise broadcast
    into a silently wrong token."""

    @pytest.mark.parametrize(
        "how",
        [
            ("n_inner", "one"),
            ("n_inner", "+1"),
            ("k", "-1"),
            ("k", "+1"),
            ("n_outer", "-1"),
        ],
        ids=lambda how: "-".join(how),
    )
    def test_wrong_shape_names_service_and_both_shapes(self, two_services, how):
        schemes, factory, _, _ = two_services
        _, enc_keys, _ = make_client_keys(schemes, seeded_rng(60))
        good = enc_keys["ranking"]
        bad = EncryptedKey(z_b=_reshaped(good.z_b, how))
        with pytest.raises(ValueError) as info:
            factory.mint({"ranking": bad, "url": good})
        message = str(info.value)
        assert "'ranking'" in message
        assert str(bad.z_b.shape) in message
        assert str(good.z_b.shape) in message

    def test_residue_at_or_above_its_prime_rejected(self, two_services):
        schemes, factory, _, _ = two_services
        _, enc_keys, _ = make_client_keys(schemes, seeded_rng(61))
        good = enc_keys["url"]
        z_b = good.z_b.copy()
        z_b[3, 1, 5] = schemes["url"].outer.ring.primes[1]
        bad = EncryptedKey(z_b=z_b)
        with pytest.raises(ValueError, match="service 'url'.*outside"):
            factory.mint({"ranking": good, "url": bad})

    def test_one_bad_client_fails_the_whole_batch(self, two_services):
        schemes, factory, _, _ = two_services
        good = make_client_keys(schemes, seeded_rng(63))[1]
        key = good["url"]
        bad = EncryptedKey(z_b=key.z_b[:1])
        with pytest.raises(ValueError, match="client 1"):
            factory.mint_many([good, {"ranking": bad, "url": bad}])


class TestMalformedHints:
    """``check_hint`` refuses a compressed hint the client cannot decrypt
    into the right rows, and ``check_a_product`` an ``a``-product it
    cannot pair with one -- each case would otherwise decrypt silently
    into a wrong hint product."""

    @pytest.fixture()
    def minted(self, two_services):
        schemes, factory, _, _ = two_services
        _, enc_keys, _ = make_client_keys(schemes, seeded_rng(70))
        hint = factory.mint(enc_keys).hints["ranking"]
        rows = factory.service("ranking").prep.rows
        return schemes["ranking"], hint, rows, factory.a_products()["ranking"]

    @staticmethod
    def _check_with(scheme, hint, a_product, rows, half, words):
        """Check the hint (half ``b``) or the a-product (half ``a``) with
        its words replaced by ``words``."""
        if half == "b":
            bad = CompressedHint(b=words, rows=hint.rows, a_digest=hint.a_digest)
            scheme.check_hint(bad, rows)
        else:
            scheme.check_a_product(AProduct(words=words, rows=a_product.rows), rows)

    def test_a_minted_hint_passes(self, minted):
        scheme, hint, rows, a_product = minted
        scheme.check_hint(hint, rows)
        scheme.check_a_product(a_product, rows)

    def test_rows_other_than_the_services_rejected(self, minted):
        scheme, hint, rows, a_product = minted
        inflated = CompressedHint(b=hint.b, rows=5000, a_digest=hint.a_digest)
        with pytest.raises(ValueError, match="5000 rows"):
            scheme.check_hint(inflated, rows)
        with pytest.raises(ValueError, match="5000 rows"):
            scheme.check_a_product(AProduct(words=a_product.words, rows=5000), rows)

    def test_missing_chunk_rejected(self, minted):
        scheme, hint, rows, _ = minted
        empty = CompressedHint(b=hint.b[:0], rows=rows, a_digest=hint.a_digest)
        with pytest.raises(ValueError, match=r"\(0, 3, 64\), expected"):
            scheme.check_hint(empty, rows)

    @pytest.mark.parametrize("half", ["b", "a"])
    @pytest.mark.parametrize("cut", ["k", "n_outer"])
    def test_wrong_chunk_shape_rejected(self, minted, half, cut):
        scheme, hint, rows, a_product = minted
        words = hint.b if half == "b" else a_product.words
        short = words[:, :-1] if cut == "k" else words[:, :, :-1]
        with pytest.raises(ValueError, match=r"is uint64 \(1, "):
            self._check_with(scheme, hint, a_product, rows, half, short)

    @pytest.mark.parametrize("value", ["p", "2^40"])
    def test_residue_at_or_above_its_prime_rejected(self, minted, value):
        scheme, hint, rows, a_product = minted
        p = scheme.outer.ring.primes[2]
        for half, words in (("b", hint.b), ("a", a_product.words)):
            words = words.copy()
            words[0, 2, 7] = p if value == "p" else 1 << 40
            with pytest.raises(ValueError, match="has residues outside"):
                self._check_with(scheme, hint, a_product, rows, half, words)


class TestGenerationPairing:
    """A token's ``b`` halves pair only with the ``a``-product they were
    minted against: another generation's is a typed error."""

    @staticmethod
    def _generation(seed):
        rng = seeded_rng(80)
        scheme = make_service(64, 2**12, 40, seed=seed)
        factory = TokenFactory()
        matrix = rng.integers(-8, 8, size=(30, 40))
        factory.register("ranking", scheme, scheme.preprocess(matrix))
        return scheme, factory

    def test_hint_of_another_generation_is_a_typed_error(self):
        old, old_factory = self._generation(b"g" * 32)
        new, new_factory = self._generation(b"h" * 32)
        old.adopt_a_product(old_factory.a_products()["ranking"], 30)
        keys, enc_keys, _ = make_client_keys({"ranking": old}, seeded_rng(81))
        hint = new_factory.mint(enc_keys).hints["ranking"]
        old.check_hint(hint, 30)  # same shape: only the pairing can tell
        with pytest.raises(GenerationMismatchError, match="another index"):
            old.decrypt_hint_product(keys["ranking"], hint)
        own = old_factory.mint(enc_keys).hints["ranking"]
        old.decrypt_hint_product(keys["ranking"], own)

    def test_no_a_product_held_is_an_error(self):
        scheme, factory = self._generation(b"i" * 32)
        keys, enc_keys, _ = make_client_keys({"ranking": scheme}, seeded_rng(82))
        hint = factory.mint(enc_keys).hints["ranking"]
        with pytest.raises(ValueError, match="no a-product held"):
            scheme.decrypt_hint_product(keys["ranking"], hint)
