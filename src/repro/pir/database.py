"""Packing byte records into a PIR plaintext matrix.

SimplePIR serves a matrix over Z_p; a PIR query selects one column.
Each record therefore occupies one column: its bytes are
length-prefixed, bit-packed into base-p digits (p a power of two),
and padded to the tallest record.  The resulting matrix has one row
per digit and one column per record, so the answer to a query is
exactly the digits of the requested record.

The paper "unbalances" the matrix so it is roughly 10x wider than
tall (Appendix C); :func:`PackedDatabase.aspect_ratio` exposes the
shape so callers can check that property in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LENGTH_PREFIX = 4

#: Records bit-packed per pass of :func:`_pack_records`: bounds the
#: transient bit-stream arrays to a few MB whatever the database size.
_PACK_BLOCK = 256


def _pack_bits(framed: np.ndarray, bits_per_digit: int) -> np.ndarray:
    """Split byte records into base-2^bits digits (little-endian).

    ``framed`` is a uint8 array whose last axis holds one record's
    bytes.  Bit j of a record (bit ``j % 8`` of byte ``j // 8``) is bit
    ``j % bits`` of digit ``j // bits``; the last axis of the result is
    the record's ``ceil(8 * bytes / bits)`` digits, the top one
    zero-padded.
    """
    framed = np.asarray(framed, dtype=np.uint8)
    num_digits = -(-framed.shape[-1] * 8 // bits_per_digit)
    stream = np.unpackbits(
        framed, axis=-1, count=num_digits * bits_per_digit, bitorder="little"
    ).reshape(framed.shape[:-1] + (num_digits, bits_per_digit))
    digits = np.zeros(stream.shape[:-1], dtype=np.int64)
    for shift in range(bits_per_digit):
        digits |= stream[..., shift].astype(np.int64) << shift
    return digits


def _unpack_bits(digits: np.ndarray, bits_per_digit: int, num_bytes: int) -> bytes:
    """Inverse of :func:`_pack_bits` for one record's digits, each in
    ``[0, 2^bits)``: the first ``num_bytes`` bytes of the bit stream,
    zero-padded when the digits carry fewer."""
    digits = np.asarray(digits, dtype=np.int64)
    stream = (digits[:, None] >> np.arange(bits_per_digit)) & 1
    packed = np.packbits(stream.astype(np.uint8), bitorder="little")
    return packed[:num_bytes].tobytes().ljust(num_bytes, b"\0")


def _pack_records(
    records: list[bytes], bits: int, records_per_column: int
) -> tuple[np.ndarray, int, int]:
    """The digit matrix of length-prefixed records, ``records_per_column``
    stacked per column: record ``i`` fills rows ``[s * d, (s + 1) * d)``
    of column ``i // records_per_column``, ``s = i % records_per_column``
    and ``d`` the digits per record.  Returns the matrix, the framed
    record size in bytes and ``d``."""
    record_bytes = _LENGTH_PREFIX + max(len(r) for r in records)
    num_cols = -(-len(records) // records_per_column)
    # Empty slots of the last column are all-zero records.
    empty = b"\0" * (record_bytes * (num_cols * records_per_column - len(records)))
    blob = b"".join(
        (len(r).to_bytes(_LENGTH_PREFIX, "little") + r).ljust(
            record_bytes, b"\0"
        )
        for r in records
    ) + empty
    framed = np.frombuffer(blob, dtype=np.uint8).reshape(-1, record_bytes)
    slot_digits = -(-record_bytes * 8 // bits)
    matrix = np.empty((slot_digits * records_per_column, num_cols), np.int64)
    # [slot, digit, column]: a view, so each block lands in place.
    slots = matrix.reshape(records_per_column, slot_digits, num_cols)
    block_cols = max(1, _PACK_BLOCK // records_per_column)
    for col in range(0, num_cols, block_cols):
        cols = min(block_cols, num_cols - col)
        rows = framed[col * records_per_column : (col + cols) * records_per_column]
        slots[:, :, col : col + cols] = (
            _pack_bits(rows, bits)
            .reshape(cols, records_per_column, slot_digits)
            .transpose(1, 2, 0)
        )
    return matrix, record_bytes, slot_digits


@dataclass
class PackedDatabase:
    """A byte-record database packed into a Z_p matrix for PIR."""

    matrix: np.ndarray
    p: int
    bits_per_digit: int
    num_records: int
    record_bytes: int

    @classmethod
    def from_records(cls, records: list[bytes], p: int) -> "PackedDatabase":
        """Pack records, one per column, with a length prefix each."""
        if p < 2 or p & (p - 1) != 0:
            raise ValueError("plaintext modulus must be a power of two >= 2")
        if not records:
            raise ValueError("cannot pack an empty database")
        bits = p.bit_length() - 1
        matrix, record_bytes, _ = _pack_records(records, bits, 1)
        return cls(
            matrix=matrix,
            p=p,
            bits_per_digit=bits,
            num_records=len(records),
            record_bytes=record_bytes,
        )

    @classmethod
    def from_records_grid(
        cls, records: list[bytes], p: int, records_per_column: int
    ) -> "PackedDatabase":
        """Pack several records per column (the general SimplePIR grid).

        SimplePIR balances the matrix aspect ratio by stacking records
        vertically: one query still retrieves a whole column, so the
        client gets ``records_per_column`` records per fetch -- which
        is how per-record retrieval amortizes when records are small.
        Record ``i`` lives in column ``i // records_per_column`` at
        slot ``i % records_per_column``.
        """
        if records_per_column < 1:
            raise ValueError("records_per_column must be positive")
        if not records:
            raise ValueError("cannot pack an empty database")
        if p < 2 or p & (p - 1) != 0:
            raise ValueError("plaintext modulus must be a power of two >= 2")
        bits = p.bit_length() - 1
        matrix, record_bytes, slot_digits = _pack_records(
            records, bits, records_per_column
        )
        db = cls(
            matrix=matrix,
            p=p,
            bits_per_digit=bits,
            num_records=len(records),
            record_bytes=record_bytes,
        )
        db.records_per_column = records_per_column
        db.slot_digits = slot_digits
        return db

    #: Grid-layout attributes (set by :meth:`from_records_grid`).
    records_per_column: int = 1
    slot_digits: int | None = None

    def column_of(self, index: int) -> int:
        """The column a PIR query must select for a record."""
        if not 0 <= index < self.num_records:
            raise IndexError(f"record index {index} out of range")
        return index // self.records_per_column

    def decode_grid_column(self, digits: np.ndarray, column: int) -> list[bytes]:
        """All records stored in one fetched grid column."""
        if self.slot_digits is None:
            return [self.decode_column(digits)]
        occupied = min(
            self.records_per_column,
            self.num_records - column * self.records_per_column,
        )
        out = []
        for slot in range(occupied):
            chunk = digits[
                slot * self.slot_digits : (slot + 1) * self.slot_digits
            ]
            framed = _unpack_bits(chunk, self.bits_per_digit, self.record_bytes)
            length = int.from_bytes(framed[:_LENGTH_PREFIX], "little")
            if length > self.record_bytes - _LENGTH_PREFIX:
                raise ValueError("corrupt record: bad length prefix")
            out.append(framed[_LENGTH_PREFIX : _LENGTH_PREFIX + length])
        return out

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_cols(self) -> int:
        return self.matrix.shape[1]

    def aspect_ratio(self) -> float:
        """width / height of the packed matrix."""
        return self.num_cols / self.num_rows

    def selection_vector(self, index: int) -> np.ndarray:
        """The all-zero vector with a single 1 at the record's column."""
        if not 0 <= index < self.num_records:
            raise IndexError(f"record index {index} out of range")
        sel = np.zeros(self.num_cols, dtype=np.int64)
        sel[index] = 1
        return sel

    def decode_column(self, digits: np.ndarray) -> bytes:
        """Recover the record bytes from a column of Z_p digits."""
        if len(digits) != self.num_rows:
            raise ValueError("column has wrong number of digits")
        framed = _unpack_bits(digits, self.bits_per_digit, self.record_bytes)
        length = int.from_bytes(framed[:_LENGTH_PREFIX], "little")
        if length > self.record_bytes - _LENGTH_PREFIX:
            raise ValueError("corrupt record: bad length prefix")
        return framed[_LENGTH_PREFIX : _LENGTH_PREFIX + length]

    def record(self, index: int) -> bytes:
        """Direct (non-private) record access, for tests and baselines."""
        return self.decode_column(self.matrix[:, index])

    def storage_bytes(self) -> int:
        """Server-side plaintext storage for this database."""
        return self.num_rows * self.num_cols * self.bits_per_digit // 8
