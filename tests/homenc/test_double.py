"""Tests for the double-layer compression scheme."""

import numpy as np
import pytest

from repro.homenc import DoubleLheParams, DoubleLheScheme
from repro.lwe import LweParams
from repro.lwe.sampling import seeded_rng
from tests.homenc.key_oracle import adopt_own_a_product


def toy_params(q_bits=64, p=2**12, m=48, n_inner=32, n_outer=64):
    inner = LweParams(n=n_inner, q_bits=q_bits, p=p, sigma=6.4, m=m)
    return DoubleLheParams(
        inner=inner, outer_n=n_outer, outer_prime_bits=30, outer_num_primes=3
    )


@pytest.fixture(scope="module")
def scheme():
    return DoubleLheScheme(toy_params(), a_seed=b"D" * 32)


@pytest.fixture(scope="module")
def keyed(scheme):
    rng = seeded_rng(42)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    return keys, enc_key


class TestHintOutsourcing:
    def test_hint_product_matches_direct_computation(self, scheme, keyed):
        keys, enc_key = keyed
        rng = seeded_rng(1)
        matrix = rng.integers(-8, 8, size=(20, scheme.params.inner.m))
        prep = scheme.preprocess(matrix)
        compressed = scheme.evaluate_hint(
            enc_key, prep, adopt_own_a_product(scheme, prep)
        )
        got = scheme.decrypt_hint_product(keys, compressed)
        t = scheme.params.switch_modulus
        want = (
            prep.switched_hint.astype(object) @ keys.inner.signed().astype(object)
        ) % t
        assert np.array_equal(got.astype(object), want)

    def test_multi_chunk_hint(self, scheme, keyed):
        keys, enc_key = keyed
        rng = seeded_rng(2)
        rows = scheme.params.outer_n * 2 + 5  # forces three chunks
        matrix = rng.integers(-8, 8, size=(rows, scheme.params.inner.m))
        prep = scheme.preprocess(matrix)
        compressed = scheme.evaluate_hint(
            enc_key, prep, adopt_own_a_product(scheme, prep)
        )
        assert compressed.b.shape[0] == 3
        got = scheme.decrypt_hint_product(keys, compressed)
        assert got.shape == (rows,)


class TestEndToEnd:
    def test_full_pipeline_matches_plaintext(self, scheme, keyed):
        keys, enc_key = keyed
        rng = seeded_rng(3)
        msg = rng.integers(-8, 8, scheme.params.inner.m)
        matrix = rng.integers(-8, 8, size=(30, scheme.params.inner.m))
        prep = scheme.preprocess(matrix)
        hint_product = scheme.decrypt_hint_product(
            keys, scheme.evaluate_hint(
                enc_key, prep, adopt_own_a_product(scheme, prep)
            )
        )
        ct = scheme.encrypt(keys, msg, rng)
        answer = scheme.apply(matrix, ct)
        got = scheme.decrypt_centered(keys, answer, hint_product)
        assert np.array_equal(got, matrix @ msg)

    def test_pipeline_with_32_bit_inner(self):
        scheme32 = DoubleLheScheme(
            toy_params(q_bits=32, p=2**8, m=40), a_seed=b"E" * 32
        )
        rng = seeded_rng(4)
        keys = scheme32.gen_keys(rng)
        enc_key = scheme32.encrypt_key(keys, rng)
        msg = rng.integers(0, 2, scheme32.params.inner.m)
        matrix = rng.integers(0, 8, size=(16, scheme32.params.inner.m))
        prep = scheme32.preprocess(matrix)
        hint_product = scheme32.decrypt_hint_product(
            keys, scheme32.evaluate_hint(
                enc_key, prep, adopt_own_a_product(scheme32, prep)
            )
        )
        ct = scheme32.encrypt(keys, msg, rng)
        got = scheme32.decrypt(keys, scheme32.apply(matrix, ct), hint_product)
        assert np.array_equal(got, (matrix @ msg) % scheme32.params.inner.p)

    def test_boundary_messages(self, scheme, keyed):
        keys, enc_key = keyed
        rng = seeded_rng(5)
        p = scheme.params.inner.p
        # Top-of-range plaintexts wrap through the negative half of T.
        msg = np.full(scheme.params.inner.m, p - 1)
        eye = np.eye(scheme.params.inner.m, dtype=np.int64)
        prep = scheme.preprocess(eye)
        hint_product = scheme.decrypt_hint_product(
            keys, scheme.evaluate_hint(
                enc_key, prep, adopt_own_a_product(scheme, prep)
            )
        )
        ct = scheme.encrypt(keys, msg, rng)
        got = scheme.decrypt(keys, scheme.apply(eye, ct), hint_product)
        assert np.array_equal(got, msg)


class TestCompression:
    def test_compressed_hint_is_much_smaller_than_hint(self, scheme):
        rows = 500
        raw = scheme.inner.hint_bytes(rows)
        compressed = scheme.compressed_hint_bytes(rows)
        assert compressed < raw / 2

    def test_key_upload_accounting(self, scheme, keyed):
        from repro.net import wire

        _, enc_key = keyed
        assert enc_key.wire_bytes() == scheme.key_upload_bytes()
        blob = wire.encode_encrypted_key(enc_key)
        assert len(blob) == enc_key.wire_bytes() + wire._KEY_HEADER.size

    def test_key_upload_carries_no_a_half(self, scheme):
        """The upload is one RNS element per inner component, 4 bytes a
        residue -- half of n_inner full ciphertexts, and no seed."""
        full = scheme.params.inner.n * scheme.outer.params.ciphertext_bytes()
        assert scheme.key_upload_bytes() == full // 2
        n_outer, ring = scheme.params.outer_n, scheme.outer.ring
        assert full // 2 == scheme.params.inner.n * ring.k * n_outer * 4

    def test_token_download_carries_no_a_half(self, scheme, keyed):
        """A minted hint is one ``b`` element per chunk, 4 bytes a
        residue; the ``a`` halves are fetched once per generation."""
        _, enc_key = keyed
        rows = 2 * scheme.params.outer_n + 1
        matrix = seeded_rng(6).integers(-8, 8, size=(rows, scheme.params.inner.m))
        prep = scheme.preprocess(matrix)
        a_product = scheme.a_product(prep)
        hint = scheme.evaluate_hint(enc_key, prep, a_product)
        chunk = scheme.outer.params.ciphertext_bytes()
        assert hint.wire_bytes() == scheme.compressed_hint_bytes(rows)
        assert hint.wire_bytes() == 3 * chunk // 2
        assert a_product.wire_bytes() == 3 * chunk // 2


class TestValidation:
    def test_even_switch_modulus_rejected(self):
        inner = LweParams(n=16, q_bits=32, p=16, sigma=6.4, m=8)
        with pytest.raises(ValueError):
            DoubleLheParams(inner=inner, switch_modulus=1 << 20)

    def test_outer_primes_wider_than_u32_rejected(self):
        inner = LweParams(n=16, q_bits=32, p=16, sigma=6.4, m=8)
        with pytest.raises(ValueError, match="u32"):
            DoubleLheParams(inner=inner, outer_prime_bits=33)

    def test_oversized_switch_modulus_rejected(self):
        inner = LweParams(n=16, q_bits=32, p=16, sigma=6.4, m=8)
        with pytest.raises(ValueError):
            DoubleLheParams(inner=inner, switch_modulus=(1 << 32) + 1)
