"""The inner mask ``A s + e`` made with the keys, and the one-add
online encryption that uses it."""

import numpy as np
import pytest

from repro import TiptoeClient
from repro.homenc import (
    DoubleLheParams,
    DoubleLheScheme,
    TokenFactory,
    TokenReuseError,
)
from repro.homenc.token import QueryToken, make_client_keys, request_token
from repro.lwe import LweParams, modular
from repro.lwe.params import TAIL_CUT_2_NEG_40
from repro.lwe.sampling import seeded_rng


def make_service(q_bits, p, m, seed):
    inner = LweParams(n=32, q_bits=q_bits, p=p, sigma=6.4, m=m)
    return DoubleLheScheme(
        DoubleLheParams(
            inner=inner, outer_n=64, outer_prime_bits=30, outer_num_primes=3
        ),
        a_seed=seed,
    )


def mask_noise(scheme, keys):
    """``mask - A s`` as signed integers."""
    q_bits = scheme.params.inner.q_bits
    a_s = modular.matvec(scheme.inner.a, keys.inner.s, q_bits)
    noise = modular.sub(keys.mask, a_s, q_bits)
    return modular.centered(noise, q_bits).astype(np.int64)


@pytest.fixture(scope="module")
def services():
    rng = seeded_rng(0)
    ranking = make_service(64, 2**12, 40, b"R" * 32)
    url = make_service(32, 2**8, 24, b"U" * 32)
    rank_matrix = rng.integers(-8, 8, size=(30, 40))
    url_matrix = rng.integers(0, 2**8, size=(20, 24))
    factory = TokenFactory()
    factory.register("ranking", ranking, ranking.preprocess(rank_matrix))
    factory.register("url", url, url.preprocess(url_matrix))
    return {"ranking": ranking, "url": url}, factory, rank_matrix, url_matrix


class TestMask:
    @pytest.mark.parametrize("q_bits,p", [(64, 2**12), (32, 2**8)])
    def test_mask_is_a_s_plus_small_noise(self, q_bits, p):
        scheme = make_service(q_bits, p, 40, b"M" * 32)
        keys = scheme.gen_keys(seeded_rng(1))
        noise = mask_noise(scheme, keys)
        bound = TAIL_CUT_2_NEG_40 * scheme.params.inner.sigma
        assert np.abs(noise).max() <= bound
        assert np.abs(noise).max() > 0  # noise was drawn at all

    def test_ciphertext_minus_message_is_the_mask(self):
        scheme = make_service(64, 2**12, 40, b"M" * 32)
        keys = scheme.gen_keys(seeded_rng(2))
        msg = seeded_rng(3).integers(-8, 8, 40)
        ct = scheme.encrypt(keys, msg)
        q_bits = scheme.params.inner.q_bits
        encoded = modular.encode_message(msg, q_bits, scheme.params.inner.p)
        assert np.array_equal(modular.sub(ct.c, encoded, q_bits), keys.mask)

    def test_token_keys_carry_each_services_mask(self, services):
        schemes, _, _, _ = services
        keys, _, _ = make_client_keys(schemes, seeded_rng(4))
        for name, scheme in schemes.items():
            assert keys[name].mask.shape == (scheme.params.inner.m,)
            bound = TAIL_CUT_2_NEG_40 * scheme.params.inner.sigma
            assert np.abs(mask_noise(scheme, keys[name])).max() <= bound

    def test_mask_draws_leave_the_key_stream_alone(self):
        """The mask noise comes from a child generator: the keys and
        every later draw are what the caller's rng gives without it."""
        scheme = make_service(64, 2**12, 40, b"M" * 32)
        rng = seeded_rng(5)
        keys = scheme.gen_keys(rng)
        bare = seeded_rng(5)
        inner = scheme.inner.gen_secret(bare)
        outer = scheme.outer.gen_secret(bare)
        assert np.array_equal(keys.inner.s, inner.s)
        assert np.array_equal(keys.outer.s_signed, outer.s_signed)
        assert rng.integers(0, 1 << 62) == bare.integers(0, 1 << 62)

    def test_mask_stays_out_of_repr_and_equality(self):
        scheme = make_service(64, 2**12, 40, b"M" * 32)
        keys = scheme.gen_keys(seeded_rng(6))
        assert "mask" not in repr(keys)
        twin = type(keys)(inner=keys.inner, outer=keys.outer, mask=keys.mask + 1)
        assert twin == keys

    def test_wrong_length_mask_is_refused(self):
        scheme = make_service(64, 2**12, 40, b"M" * 32)
        keys = scheme.gen_keys(seeded_rng(7))
        with pytest.raises(ValueError, match="mask has shape"):
            scheme.inner.encrypt_with_mask(keys.mask[:-1], np.zeros(40, int))


class TestDecryption:
    def test_decryptions_match_a_fresh_mask(self, services):
        """The precomputed mask decrypts exactly as the per-query
        ``A s + e`` encryption it replaced, for pinned seeds."""
        schemes, factory, rank_matrix, url_matrix = services
        token = request_token(schemes, factory, seeded_rng(8))
        keys, hint_products = token.consume()
        rng = seeded_rng(9)
        cases = [
            ("ranking", rank_matrix, rng.integers(-8, 8, 40), True),
            ("url", url_matrix, np.eye(24, dtype=int)[7], False),
        ]
        for name, matrix, msg, centered in cases:
            scheme = schemes[name]
            decrypt = scheme.decrypt_centered if centered else scheme.decrypt
            masked = scheme.encrypt(keys[name], msg)
            fresh = scheme.inner.encrypt(keys[name].inner, msg, seeded_rng(10))
            got = [
                decrypt(keys[name], scheme.apply(matrix, ct), hint_products[name])
                for ct in (masked, fresh)
            ]
            assert not np.array_equal(masked.c, fresh.c)  # noise differs
            assert np.array_equal(got[0], got[1])
            want = matrix @ msg
            if not centered:
                want = want % scheme.params.inner.p
            assert np.array_equal(got[0], want)

    def test_reused_token_still_raises(self, services):
        schemes, factory, _, _ = services
        token = request_token(schemes, factory, seeded_rng(11))
        token.consume()
        with pytest.raises(TokenReuseError):
            token.consume()


class _ReplayTokens:
    """An engine whose tokens are rebuilt from one minted token's keys
    and hint products alone, as the benchmark's replay engine does."""

    def __init__(self, engine, token):
        self._engine = engine
        self._token = token

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def mint_token(self, rng=None):
        return QueryToken(
            keys=self._token.keys, hint_products=self._token.hint_products
        )


def test_rebuilt_token_searches_correctly(engine, corpus):
    minted = engine.mint_token(seeded_rng(12))
    replay = TiptoeClient(_ReplayTokens(engine, minted), seeded_rng(13))
    direct = engine.new_client(seeded_rng(14))
    for doc in corpus.documents[:3]:
        got = replay.search(doc.text)
        want = direct.search(doc.text)
        assert got.cluster == want.cluster
        assert [(r.position, r.score, r.url) for r in got.results] == [
            (r.position, r.score, r.url) for r in want.results
        ]
