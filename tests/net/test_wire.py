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
def token_factory(key_scheme):
    """A two-service mint whose hints are two chunks long."""
    from repro.homenc import TokenFactory

    factory = TokenFactory()
    matrix = seeded_rng(7).integers(0, 256, size=(40, 8))
    for name in ("ranking", "url"):
        factory.register(name, key_scheme, key_scheme.preprocess(matrix))
    return factory


@pytest.fixture(scope="module")
def token_payload(token_factory, enc_key):
    """A minted two-service token."""
    return token_factory.mint({"ranking": enc_key, "url": enc_key})


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
        assert back.z_b.dtype == np.uint64
        back.z_b[0, 0, 0] += 1  # a fresh writable copy

    def test_residues_travel_as_u32(self, enc_key):
        """Narrowed once on encode: the body is the u32 residues."""
        blob = bytes(wire.encode_encrypted_key(enc_key))
        assert enc_key.wire_bytes() == enc_key.z_b.size * 4
        body = blob[wire._KEY_HEADER.size :]
        assert body == enc_key.z_b.astype("<u4").tobytes()


class TestMintRequestHardening:
    """The mint-request decoder refuses a request it would otherwise
    half-read: bytes after the map, a service named twice, an upload no
    service references."""

    @staticmethod
    def _request(keys: list[bytes], services: list[tuple[bytes, int]]) -> bytes:
        import struct

        parts = [struct.pack("<H", len(keys))]
        parts += [struct.pack("<I", len(k)) + k for k in keys]
        parts.append(struct.pack("<H", len(services)))
        parts += [
            bytes([len(name)]) + name + struct.pack("<H", idx)
            for name, idx in services
        ]
        return b"".join(parts)

    def test_trailing_bytes_rejected(self, enc_key):
        blob = wire.encode_mint_request({"ranking": enc_key, "url": enc_key})
        with pytest.raises(ValueError, match="mint request: 7 trailing"):
            wire.decode_mint_request(blob + b"garbage")

    def test_service_listed_twice_rejected(self, enc_key):
        key = bytes(wire.encode_encrypted_key(enc_key))
        blob = self._request([key], [(b"url", 0), (b"url", 0)])
        with pytest.raises(ValueError, match="'url' listed twice"):
            wire.decode_mint_request(blob)

    def test_unreferenced_key_rejected_before_decoding(self, enc_key):
        key = bytes(wire.encode_encrypted_key(enc_key))
        # The second upload is not even a valid key: it must be refused
        # for being unreferenced, never decoded.
        blob = self._request([key, b"junk"], [(b"url", 0)])
        with pytest.raises(ValueError, match=r"keys \[1\] are referenced by no"):
            wire.decode_mint_request(blob)

    def test_well_formed_request_round_trips(self, enc_key):
        key = bytes(wire.encode_encrypted_key(enc_key))
        back = wire.decode_mint_request(self._request([key], [(b"url", 0)]))
        np.testing.assert_array_equal(back["url"].z_b, enc_key.z_b)


class TestHintCodecs:
    """Hints carry ``b`` halves and the digest of their ``a``-product;
    the ``a``-products travel once, both as u32 residues."""

    def test_hint_round_trip_and_size(self, token_payload):
        hint = token_payload.hints["ranking"]
        blob = wire.encode_compressed_hint(hint)
        assert len(blob) == hint.wire_bytes() + wire._HINT_HEADER.size
        back = wire.decode_compressed_hint(bytes(blob))
        np.testing.assert_array_equal(back.b, hint.b)
        assert back.b.dtype == np.uint64
        assert (back.rows, back.a_digest) == (hint.rows, hint.a_digest)

    def test_a_products_round_trip(self, token_factory):
        products = token_factory.a_products()
        back = wire.decode_a_products(wire.encode_a_products(products))
        assert set(back) == set(products)
        for name, a_product in products.items():
            np.testing.assert_array_equal(back[name].words, a_product.words)
            assert back[name].rows == a_product.rows
            assert back[name].digest == a_product.digest

    def test_a_product_size(self, token_factory):
        a_product = token_factory.a_products()["url"]
        blob = wire.encode_a_product(a_product)
        assert len(blob) == a_product.wire_bytes() + wire._STACK_HEADER.size

    def test_truncated_and_trailing_rejected(self, token_factory, token_payload):
        hint = bytes(wire.encode_compressed_hint(token_payload.hints["url"]))
        products = token_factory.a_products()
        a_product = bytes(wire.encode_a_product(products["url"]))
        for decode, blob, what in (
            (wire.decode_compressed_hint, hint, "compressed hint"),
            (wire.decode_a_product, a_product, "a-product"),
        ):
            with pytest.raises(ValueError, match=f"{what}: payload is"):
                decode(blob[:-4])
            with pytest.raises(ValueError, match=f"{what}: 4 trailing"):
                decode(blob + b"\0" * 4)

    def test_wrong_chunk_count_rejected(self, key_scheme, token_payload):
        """A header declaring another chunk count: the body no longer
        fits, or -- body and all -- the scheme's check refuses it."""
        hint = token_payload.hints["url"]
        blob = bytearray(wire.encode_compressed_hint(hint))
        chunks, rows, k, n, digest = wire._HINT_HEADER.unpack_from(blob)
        wire._HINT_HEADER.pack_into(blob, 0, chunks + 1, rows, k, n, digest)
        with pytest.raises(ValueError, match="expected"):
            wire.decode_compressed_hint(bytes(blob))
        from repro.homenc.double import CompressedHint

        grown = CompressedHint(
            b=np.concatenate([hint.b, hint.b[:1]]), rows=rows, a_digest=digest
        )
        blob = bytes(wire.encode_compressed_hint(grown))
        back = wire.decode_compressed_hint(blob)
        with pytest.raises(ValueError, match=r"\(3, 3, 32\), expected"):
            key_scheme.check_hint(back, rows)

    def test_residue_at_or_above_p_decodes_but_is_refused(
        self, key_scheme, token_factory, token_payload, enc_key
    ):
        """u32 words can carry a residue >= p; the scheme checks stay."""
        p = key_scheme.outer.ring.primes[0]
        hint = bytearray(wire.encode_compressed_hint(token_payload.hints["url"]))
        first = wire._HINT_HEADER.size
        hint[first : first + 4] = p.to_bytes(4, "little")
        back = wire.decode_compressed_hint(bytes(hint))
        with pytest.raises(ValueError, match="residues outside"):
            key_scheme.check_hint(back, back.rows)
        products = token_factory.a_products()
        a_product = bytearray(wire.encode_a_product(products["url"]))
        a_product[-4:] = (2**32 - 1).to_bytes(4, "little")
        back = wire.decode_a_product(bytes(a_product))
        with pytest.raises(ValueError, match="residues outside"):
            key_scheme.check_a_product(back, back.rows)
        key = bytearray(wire.encode_encrypted_key(enc_key))
        key[-4:] = p.to_bytes(4, "little")
        with pytest.raises(ValueError, match="residues outside"):
            key_scheme.check_key(wire.decode_encrypted_key(bytes(key)))


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

    def test_encrypted_key_truncated_words(self, enc_key):
        blob = wire.encode_encrypted_key(enc_key)
        with pytest.raises(ValueError, match=r"payload is .* expected"):
            wire.decode_encrypted_key(blob[:-4])

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
