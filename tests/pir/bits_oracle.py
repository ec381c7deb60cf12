"""The big-int digit packing, kept as a test oracle.

``repro.pir.database`` packs and unpacks records with NumPy bit
arrays.  These are the loops they replaced: a record is one Python
integer, shifted and masked one digit at a time.  Both layouts must
agree byte for byte, and the packed matrices bit for bit.
"""

import numpy as np

LENGTH_PREFIX = 4


def pack_bits(data: bytes, bits_per_digit: int) -> list[int]:
    """Split a byte string into base-2^bits digits (little-endian)."""
    value = int.from_bytes(data, "little")
    total_bits = len(data) * 8
    mask = (1 << bits_per_digit) - 1
    digits = []
    for shift in range(0, total_bits, bits_per_digit):
        digits.append((value >> shift) & mask)
    return digits


def unpack_bits(digits, bits_per_digit: int, num_bytes: int) -> bytes:
    """Inverse of :func:`pack_bits`."""
    value = 0
    for i, d in enumerate(digits):
        value |= int(d) << (i * bits_per_digit)
    return value.to_bytes(
        max(num_bytes, 1) + bits_per_digit // 8 + 1, "little"
    )[:num_bytes]


def packed_matrix(records: list[bytes], p: int, records_per_column: int = 1):
    """The digit matrix of ``PackedDatabase.from_records_grid``, one
    record at a time (``records_per_column=1``: ``from_records``)."""
    bits = p.bit_length() - 1
    record_bytes = LENGTH_PREFIX + max(len(r) for r in records)
    slot_digits = -(-record_bytes * 8 // bits)
    num_cols = -(-len(records) // records_per_column)
    matrix = np.zeros(
        (slot_digits * records_per_column, num_cols), dtype=np.int64
    )
    for i, record in enumerate(records):
        col, slot = divmod(i, records_per_column)
        framed = len(record).to_bytes(LENGTH_PREFIX, "little") + record
        digits = pack_bits(framed.ljust(record_bytes, b"\0"), bits)
        matrix[slot * slot_digits : slot * slot_digits + len(digits), col] = digits
    return matrix
