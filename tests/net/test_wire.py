"""Tests for wire serialization and byte-accounting honesty."""

import numpy as np
import pytest

from repro.lwe import LweParams, RegevScheme
from repro.lwe.sampling import seeded_rng
from repro.net import wire
from repro.rlwe import BfvParams, BfvScheme


@pytest.fixture(scope="module")
def regev_ct():
    params = LweParams(n=32, q_bits=64, p=256, sigma=6.4, m=20)
    scheme = RegevScheme(params=params, a_seed=b"Z" * 32)
    rng = seeded_rng(0)
    sk = scheme.gen_secret(rng)
    return scheme, sk, scheme.encrypt(sk, np.arange(20) % 256, rng)


class TestInnerCiphertext:
    def test_round_trip(self, regev_ct):
        scheme, sk, ct = regev_ct
        blob = wire.encode_ciphertext(ct)
        back = wire.decode_ciphertext(blob, scheme.params)
        assert np.array_equal(back.c, ct.c)

    def test_declared_size_matches_encoding(self, regev_ct):
        _, _, ct = regev_ct
        blob = wire.encode_ciphertext(ct)
        assert len(blob) == ct.upload_bytes + wire.HEADER_BYTES

    def test_modulus_mismatch_rejected(self, regev_ct):
        scheme, _, ct = regev_ct
        blob = wire.encode_ciphertext(ct)
        other = LweParams(n=32, q_bits=32, p=256, sigma=6.4, m=20)
        with pytest.raises(ValueError):
            wire.decode_ciphertext(blob, other)

    def test_decoded_ciphertext_still_decrypts(self, regev_ct):
        scheme, sk, ct = regev_ct
        back = wire.decode_ciphertext(
            wire.encode_ciphertext(ct), scheme.params
        )
        eye = np.eye(scheme.params.m, dtype=np.int64)
        out = scheme.decrypt(sk, scheme.preprocess(eye), scheme.apply(eye, back))
        assert np.array_equal(out, np.arange(20) % 256)


class TestAnswer:
    @pytest.mark.parametrize("q_bits", [32, 64])
    def test_round_trip(self, q_bits):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 2**31, size=50).astype(
            np.uint32 if q_bits == 32 else np.uint64
        )
        back, got_bits = wire.decode_answer(wire.encode_answer(values, q_bits))
        assert got_bits == q_bits
        assert np.array_equal(back, values)

    def test_size_matches_accounting(self):
        values = np.zeros(10, dtype=np.uint64)
        blob = wire.encode_answer(values, 64)
        assert len(blob) == 10 * 8 + wire.HEADER_BYTES


class TestRlwe:
    def test_round_trip_and_size(self):
        scheme = BfvScheme(BfvParams.create(n=32, t=65537, num_primes=2))
        rng = seeded_rng(2)
        sk = scheme.gen_secret(rng)
        ct = scheme.encrypt(sk, np.arange(32), rng)
        blob = wire.encode_rlwe(ct)
        assert len(blob) == ct.wire_bytes() + wire.RLWE_HEADER_BYTES
        back = wire.decode_rlwe(blob)
        assert np.array_equal(scheme.decrypt(sk, back), np.arange(32))


@pytest.fixture(scope="module")
def key_scheme():
    from repro.homenc import DoubleLheParams, DoubleLheScheme

    inner = LweParams(n=16, q_bits=64, p=256, sigma=6.4, m=8)
    return DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=32), a_seed=b"K" * 32
    )


@pytest.fixture(scope="module")
def enc_key(key_scheme):
    rng = seeded_rng(6)
    return key_scheme.encrypt_key(key_scheme.gen_keys(rng), rng)


@pytest.fixture(scope="module")
def token_payload(key_scheme, enc_key):
    """A minted two-service token, each hint two chunks long."""
    from repro.homenc import TokenFactory

    factory = TokenFactory()
    matrix = seeded_rng(7).integers(0, 256, size=(40, 8))
    for name in ("ranking", "url"):
        factory.register(name, key_scheme, key_scheme.preprocess(matrix))
    return factory.mint({"ranking": enc_key, "url": enc_key})


class TestEncryptedKey:
    def test_mint_request_layout(self, enc_key):
        """One unique key, then the service map: ``[u16 1][u32 len][key]
        [u16 2]`` and per service ``[u8 len][name][u16 0]``."""
        import struct

        key = bytes(wire.encode_encrypted_key(enc_key))
        want = (
            struct.pack("<HI", 1, len(key))
            + key
            + struct.pack("<H", 2)
            + b"\x07ranking\x00\x00"
            + b"\x03url\x00\x00"
        )
        blob = wire.encode_mint_request({"ranking": enc_key, "url": enc_key})
        assert bytes(blob) == want
        back = wire.decode_mint_request(blob)
        assert back["ranking"] is back["url"]
        np.testing.assert_array_equal(back["url"].z_b, enc_key.z_b)

    def test_round_trip_and_size(self, enc_key):
        blob = wire.encode_encrypted_key(enc_key)
        assert len(blob) == enc_key.wire_bytes() + wire._KEY_HEADER.size
        back = wire.decode_encrypted_key(bytes(blob))
        np.testing.assert_array_equal(back.z_b, enc_key.z_b)
        assert back.a_seed == enc_key.a_seed
        back.z_b[0, 0, 0] += 1  # a fresh writable copy


class TestTruncationHardening:
    """Malformed blobs fail with a clear size message, never a numpy
    reshape traceback, and decoders hand back writable arrays."""

    def test_ciphertext_truncated_header(self, regev_ct):
        scheme, _, _ = regev_ct
        with pytest.raises(ValueError, match="expected at least"):
            wire.decode_ciphertext(b"\x01", scheme.params)

    def test_ciphertext_truncated_body_names_both_sizes(self, regev_ct):
        scheme, _, ct = regev_ct
        blob = wire.encode_ciphertext(ct)
        with pytest.raises(ValueError, match=r"payload is .* expected"):
            wire.decode_ciphertext(blob[:-3], scheme.params)

    def test_answer_truncated_and_bad_modulus(self):
        blob = wire.encode_answer(np.zeros(4, dtype=np.uint64), 64)
        with pytest.raises(ValueError, match="expected"):
            wire.decode_answer(blob[:-1])
        with pytest.raises(ValueError, match="modulus"):
            wire.decode_answer(b"\x07" + blob[1:])

    def test_matrix_truncated(self):
        blob = wire.encode_matrix(np.arange(12, dtype=np.uint64).reshape(3, 4), 64)
        with pytest.raises(ValueError, match="expected"):
            wire.decode_matrix(blob[: len(blob) - 8])

    def test_rlwe_truncated(self):
        from repro.rlwe import BfvParams, BfvScheme

        scheme = BfvScheme(BfvParams.create(n=32, t=65537, num_primes=2))
        rng = seeded_rng(5)
        ct = scheme.encrypt(scheme.gen_secret(rng), np.arange(32), rng)
        blob = wire.encode_rlwe(ct)
        with pytest.raises(ValueError, match="expected"):
            wire.decode_rlwe(blob[:-5])

    def test_encrypted_key_truncated_header(self, enc_key):
        blob = wire.encode_encrypted_key(enc_key)
        with pytest.raises(ValueError, match="expected at least"):
            wire.decode_encrypted_key(blob[: wire._KEY_HEADER.size - 1])

    def test_encrypted_key_truncated_seed(self, enc_key):
        blob = wire.encode_encrypted_key(enc_key)
        with pytest.raises(ValueError, match="for the seed"):
            wire.decode_encrypted_key(blob[: wire._KEY_HEADER.size + 31])

    def test_encrypted_key_truncated_words(self, enc_key):
        blob = wire.encode_encrypted_key(enc_key)
        with pytest.raises(ValueError, match=r"payload is .* expected"):
            wire.decode_encrypted_key(blob[:-8])

    def test_encrypted_key_trailing_bytes_rejected(self, enc_key):
        blob = bytes(wire.encode_encrypted_key(enc_key)) + b"\0"
        with pytest.raises(ValueError, match="1 trailing bytes"):
            wire.decode_encrypted_key(blob)

    def test_encrypted_key_inflated_word_count_rejected(self, enc_key):
        blob = bytearray(wire.encode_encrypted_key(enc_key))
        n_inner, k, n_outer = enc_key.z_b.shape
        wire._KEY_HEADER.pack_into(blob, 0, n_inner + 1, k, n_outer)
        with pytest.raises(ValueError, match="expected"):
            wire.decode_encrypted_key(bytes(blob))

    def test_encrypted_key_short_seed_not_encoded(self, enc_key):
        from repro.homenc import EncryptedKey

        short = EncryptedKey(z_b=enc_key.z_b, a_seed=enc_key.a_seed[:31])
        with pytest.raises(ValueError, match="31 bytes"):
            wire.encode_encrypted_key(short)

    def test_compressed_hint_trailing_bytes_rejected(self, token_payload):
        blob = wire.encode_compressed_hint(token_payload.hints["ranking"])
        with pytest.raises(ValueError, match="compressed hint: 1 trailing"):
            wire.decode_compressed_hint(blob + b"\0")

    def test_token_payload_trailing_bytes_rejected(self, token_payload):
        blob = wire.encode_token_payload(token_payload)
        with pytest.raises(ValueError, match="token payload: 3 trailing"):
            wire.decode_token_payload(blob + b"\0\0\0")

    def test_decoded_arrays_are_writable(self, regev_ct):
        scheme, _, ct = regev_ct
        back = wire.decode_ciphertext(
            wire.encode_ciphertext(ct), scheme.params
        )
        back.c[0] += 1  # must not raise "read-only"
        values, _ = wire.decode_answer(
            wire.encode_answer(np.zeros(4, dtype=np.uint64), 64)
        )
        values[0] = 9


class TestQueryBatch:
    """Stacked query/answer batch codecs for the batch plane."""

    def _batch(self, regev_ct, count=3):
        from repro.core.ranking import RankingBatch, RankingQuery

        scheme, sk, _ = regev_ct
        rng = seeded_rng(11)
        queries = [
            RankingQuery(
                ciphertext=scheme.encrypt(sk, np.arange(20) % 256, rng)
            )
            for _ in range(count)
        ]
        return RankingBatch.from_queries(queries)

    def test_round_trip(self, regev_ct):
        scheme, _, _ = regev_ct
        batch = self._batch(regev_ct)
        back = wire.decode_batch(wire.encode_batch(batch), scheme.params)
        assert np.array_equal(back.stacked, batch.stacked)
        assert back.size == batch.size

    def test_declared_size_matches_encoding(self, regev_ct):
        batch = self._batch(regev_ct)
        blob = wire.encode_batch(batch)
        assert len(blob) == batch.wire_bytes() + wire._BATCH_HEADER.size

    def test_modulus_mismatch_rejected(self, regev_ct):
        batch = self._batch(regev_ct)
        other = LweParams(n=32, q_bits=32, p=256, sigma=6.4, m=20)
        with pytest.raises(ValueError, match="modulus"):
            wire.decode_batch(wire.encode_batch(batch), other)

    def test_truncated_batch_rejected(self, regev_ct):
        scheme, _, _ = regev_ct
        blob = wire.encode_batch(self._batch(regev_ct))
        with pytest.raises(ValueError, match="expected"):
            wire.decode_batch(blob[:-4], scheme.params)
        with pytest.raises(ValueError, match="expected at least"):
            wire.decode_batch(b"\x40", scheme.params)

    def test_zero_query_batch_rejected(self, regev_ct):
        scheme, _, _ = regev_ct
        blob = wire._BATCH_HEADER.pack(scheme.params.q_bits, 20, 0)
        with pytest.raises(ValueError, match="zero queries"):
            wire.decode_batch(blob, scheme.params)


class TestBatchAnswer:
    def _answer(self, q_bits=64, rows=6, count=3):
        from repro.core.ranking import RankingBatchAnswer

        rng = np.random.default_rng(12)
        stacked = rng.integers(0, 2**31, size=(rows, count)).astype(
            np.uint32 if q_bits == 32 else np.uint64
        )
        return RankingBatchAnswer(stacked=stacked, bytes_per_element=q_bits // 8)

    @pytest.mark.parametrize("q_bits", [32, 64])
    def test_round_trip(self, q_bits):
        answer = self._answer(q_bits)
        blob = wire.encode_batch_answer(answer, q_bits)
        back, got_bits = wire.decode_batch_answer(blob)
        assert got_bits == q_bits
        assert np.array_equal(back, answer.stacked)

    def test_size_matches_accounting(self):
        answer = self._answer(64)
        blob = wire.encode_batch_answer(answer, 64)
        assert len(blob) == answer.wire_bytes() + wire._BATCH_HEADER.size

    def test_truncated_and_bad_modulus_rejected(self):
        blob = wire.encode_batch_answer(self._answer(64), 64)
        with pytest.raises(ValueError, match="expected"):
            wire.decode_batch_answer(blob[:-1])
        with pytest.raises(ValueError, match="modulus"):
            wire.decode_batch_answer(b"\x07" + blob[1:])

    def test_zero_query_answer_rejected(self):
        blob = wire._BATCH_HEADER.pack(64, 6, 0)
        with pytest.raises(ValueError, match="zero queries"):
            wire.decode_batch_answer(blob)

    def test_split_columns_are_the_queries_answers(self):
        answer = self._answer(64, rows=4, count=3)
        parts = answer.split()
        assert len(parts) == 3
        for i, part in enumerate(parts):
            assert np.array_equal(part.values, answer.stacked[:, i])
