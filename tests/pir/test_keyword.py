"""Tests for keyword PIR."""

import numpy as np
import pytest

from repro.pir.keyword import KeywordPir, bucket_of, _frame, _unframe
from tests.homenc.key_oracle import adopt_own_a_product


class TestFraming:
    def test_round_trip(self):
        entries = [("alpha", b"1"), ("beta", b"\x00\xff"), ("c", b"")]
        assert _unframe(_frame(entries)) == dict(entries)

    def test_empty(self):
        assert _unframe(_frame([])) == {}

    def test_tolerates_zero_padding(self):
        blob = _frame([("k", b"v")]) + b"\x00" * 10
        assert _unframe(blob) == {"k": b"v"}


class TestBucketing:
    def test_stable(self):
        assert bucket_of("ph1234567890", 16) == bucket_of("ph1234567890", 16)

    def test_in_range(self):
        for key in ("a", "b", "some-longer-key"):
            assert 0 <= bucket_of(key, 7) < 7

    def test_spreads_keys(self):
        buckets = {bucket_of(f"key-{i}", 8) for i in range(100)}
        assert len(buckets) == 8


@pytest.fixture(scope="module")
def store():
    table = {f"ph{1000000000 + i}": f"doc-{i}".encode() for i in range(60)}
    return KeywordPir.build(table, a_seed=b"W" * 32), table


class TestKeywordPir:
    def test_hit_returns_value(self, store):
        pir, table = store
        rng = np.random.default_rng(0)
        for key in list(table)[:5]:
            assert pir.lookup_with_hint(key, rng) == table[key]

    def test_miss_returns_none(self, store):
        pir, _ = store
        assert pir.lookup_with_hint("ph9999999999", np.random.default_rng(1)) is None

    def test_compressed_mode_lookup(self, store):
        pir, table = store
        rng = np.random.default_rng(2)
        scheme = pir.scheme()
        keys = scheme.gen_keys(rng)
        enc_key = scheme.encrypt_key(keys, rng)
        hint_product = scheme.decrypt_hint_product(
            keys, scheme.evaluate_hint(
                enc_key, pir.server.prep, adopt_own_a_product(scheme, pir.server.prep)
            )
        )
        key = list(table)[7]
        assert pir.lookup(key, keys, hint_product, rng) == table[key]

    def test_bucket_count_defaults_to_sqrt(self, store):
        pir, table = store
        assert pir.num_buckets == int(len(table) ** 0.5)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            KeywordPir.build({})
