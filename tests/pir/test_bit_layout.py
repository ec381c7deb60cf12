"""The NumPy digit packing against the big-int loops it replaced."""

import numpy as np
import pytest

from repro.pir.database import PackedDatabase, _pack_bits, _unpack_bits
from tests.pir import bits_oracle


@pytest.mark.parametrize("bits", range(1, 17))
def test_unpack_matches_big_int_loop(bits):
    """Every record length 1-800 at ``ceil(8 * bytes / bits)`` digits."""
    rng = np.random.default_rng(bits)
    for num_bytes in range(1, 801):
        num_digits = -(-8 * num_bytes // bits)
        digits = rng.integers(0, 1 << bits, num_digits, dtype=np.int64)
        assert _unpack_bits(digits, bits, num_bytes) == bits_oracle.unpack_bits(
            digits, bits, num_bytes
        )


@pytest.mark.parametrize("bits", range(1, 17))
def test_pack_matches_big_int_loop(bits):
    rng = np.random.default_rng(100 + bits)
    for num_bytes in (1, 2, 3, 7, 64, 333):
        data = rng.bytes(num_bytes)
        framed = np.frombuffer(data, dtype=np.uint8)
        got = _pack_bits(framed, bits)
        assert got.dtype == np.int64
        assert got.tolist() == bits_oracle.pack_bits(data, bits)
        assert _unpack_bits(got, bits, num_bytes) == data


def test_short_digit_run_zero_pads():
    """Fewer digits than bytes decode to a zero-padded record, as the
    big-int ``to_bytes`` did."""
    digits = np.array([0xAB, 0xCD], dtype=np.int64)
    assert _unpack_bits(digits, 8, 5) == bits_oracle.unpack_bits(digits, 8, 5)


@pytest.mark.parametrize("p", [2, 16, 256, 1024, 1 << 16])
@pytest.mark.parametrize("records_per_column", [1, 3])
def test_packed_matrix_is_bit_identical(p, records_per_column):
    rng = np.random.default_rng(p + records_per_column)
    # More records than one packing block, with empty grid slots left.
    records = [
        rng.bytes(int(rng.integers(0, 90))) for _ in range(3 * 256 + 5)
    ]
    if records_per_column == 1:
        db = PackedDatabase.from_records(records, p)
    else:
        db = PackedDatabase.from_records_grid(records, p, records_per_column)
    want = bits_oracle.packed_matrix(records, p, records_per_column)
    assert db.matrix.dtype == want.dtype
    assert db.matrix.shape == want.shape
    assert np.array_equal(db.matrix, want)
    for i in (0, 257, len(records) - 1):
        col = db.column_of(i)
        got = db.decode_grid_column(db.matrix[:, col], col)
        assert got[i % records_per_column] == records[i]


def test_corrupt_length_prefix_still_refused():
    records = [b"abc", b"defgh"]
    db = PackedDatabase.from_records(records, 16)
    bad = db.matrix[:, 1].copy()
    bad[:8] = 15  # a 0xffffffff length prefix
    with pytest.raises(ValueError, match="bad length prefix"):
        db.decode_column(bad)
