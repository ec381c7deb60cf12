"""Tests for the grid (multi-record-per-column) PIR layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.homenc.double import DoubleLheParams, DoubleLheScheme
from repro.lwe.params import LweParams
from repro.lwe.sampling import seeded_rng
from repro.pir.database import PackedDatabase
from tests.homenc.key_oracle import adopt_own_a_product


class TestGridLayout:
    def test_round_trip_every_record(self):
        records = [f"record-{i}".encode() * (i % 3 + 1) for i in range(17)]
        db = PackedDatabase.from_records_grid(records, 256, records_per_column=4)
        for i, rec in enumerate(records):
            col = db.column_of(i)
            got = db.decode_grid_column(db.matrix[:, col], col)
            assert got[i % 4] == rec

    def test_column_count(self):
        db = PackedDatabase.from_records_grid([b"x"] * 10, 256, 3)
        assert db.num_cols == 4  # ceil(10 / 3)
        assert db.num_records == 10

    def test_last_column_partial(self):
        records = [b"a", b"b", b"c", b"d", b"e"]
        db = PackedDatabase.from_records_grid(records, 256, 2)
        last = db.decode_grid_column(db.matrix[:, 2], 2)
        assert last == [b"e"]

    def test_grid_changes_aspect_ratio(self):
        records = [b"data" * 10] * 40
        tall = PackedDatabase.from_records_grid(records, 256, 8)
        wide = PackedDatabase.from_records(records, 256)
        assert tall.aspect_ratio() < wide.aspect_ratio()

    def test_validation(self):
        with pytest.raises(ValueError):
            PackedDatabase.from_records_grid([b"x"], 256, 0)
        with pytest.raises(ValueError):
            PackedDatabase.from_records_grid([], 256, 2)
        with pytest.raises(ValueError):
            PackedDatabase.from_records_grid([b"x"], 100, 2)


class TestGridThroughPir:
    def test_private_grid_retrieval(self):
        """A PIR fetch of one grid column yields all its records --
        the amortization behind SimplePIR's balanced layouts."""
        records = [f"url-{i}".encode() for i in range(12)]
        db = PackedDatabase.from_records_grid(records, 256, 3)
        inner = LweParams(n=64, q_bits=32, p=256, sigma=6.4, m=db.num_cols)
        scheme = DoubleLheScheme(
            DoubleLheParams(inner=inner, outer_n=64), a_seed=b"G" * 32
        )
        prep = scheme.preprocess(db.matrix)
        rng = seeded_rng(0)
        keys = scheme.gen_keys(rng)
        enc_key = scheme.encrypt_key(keys, rng)
        hint_product = scheme.decrypt_hint_product(
            keys, scheme.evaluate_hint(
                enc_key, prep, adopt_own_a_product(scheme, prep)
            )
        )
        target = 7
        col = db.column_of(target)
        sel = np.zeros(db.num_cols, dtype=np.int64)
        sel[col] = 1
        ct = scheme.encrypt(keys, sel)
        digits = scheme.decrypt(keys, scheme.apply(db.matrix, ct), hint_product)
        got = db.decode_grid_column(digits, col)
        assert got == records[col * 3 : col * 3 + 3]


@given(
    st.lists(st.binary(min_size=0, max_size=30), min_size=1, max_size=20),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_grid_round_trip_property(records, rpc):
    db = PackedDatabase.from_records_grid(records, 256, rpc)
    for i, rec in enumerate(records):
        col = db.column_of(i)
        assert db.decode_grid_column(db.matrix[:, col], col)[i % rpc] == rec
