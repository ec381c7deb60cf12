"""Wire serialization for protocol messages.

The byte counts the evaluation reports (`wire_bytes`) correspond to
real serialized formats; this module provides those formats and lets
the tests verify the accounting is honest: every message's declared
size equals the length of its encoding.

Formats are little-endian and self-describing enough for a fixed
protocol version:

* ciphertext vectors: [u8 q_bits][u32 length][length words]
* PIR / ranking answers: same layout
* RLWE ciphertexts: [u16 k][u32 n][k*n u64 b][k*n u64 a]

Every decoder validates declared lengths against the actual payload
*before* touching ``np.frombuffer`` and raises a ``ValueError`` that
names both sizes -- a truncated or corrupted frame (from a flaky
transport, a crashed peer, or a malicious server) fails loudly instead
of surfacing as an opaque numpy error or, worse, a misshaped array.
Decoded arrays are always fresh writable copies, never read-only views
into the network buffer.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.lwe.modular import dtype_for
from repro.lwe.params import LweParams
from repro.lwe.regev import Ciphertext
from repro.rlwe.bfv import BfvCiphertext

_HEADER = struct.Struct("<BI")
_RLWE_HEADER = struct.Struct("<HI")


def _require_header(blob: bytes, header: struct.Struct, what: str) -> None:
    if len(blob) < header.size:
        raise ValueError(
            f"{what}: payload is {len(blob)} bytes, expected at least"
            f" {header.size} for the header"
        )


def _require_words(
    blob: bytes, offset: int, count: int, word_bytes: int, what: str
) -> None:
    """Check a declared word count fits in the remaining payload."""
    expected = count * word_bytes
    available = len(blob) - offset
    if available < expected:
        raise ValueError(
            f"{what}: payload is {available} bytes after the header,"
            f" expected {expected} ({count} x {word_bytes}-byte words)"
        )


def _require_end(blob: bytes, pos: int, what: str) -> None:
    """Reject bytes left over after the last declared field."""
    if pos != len(blob):
        raise ValueError(
            f"{what}: {len(blob) - pos} trailing bytes after the last field"
        )


def encode_ciphertext(ct: Ciphertext) -> bytes:
    """Serialize an inner-layer ciphertext vector."""
    q_bits = ct.params.q_bits
    body = np.ascontiguousarray(ct.c, dtype=dtype_for(q_bits)).tobytes()
    return _HEADER.pack(q_bits, len(ct.c)) + body


def decode_ciphertext(blob: bytes, params: LweParams) -> Ciphertext:
    _require_header(blob, _HEADER, "ciphertext")
    q_bits, length = _HEADER.unpack_from(blob)
    if q_bits != params.q_bits:
        raise ValueError(
            f"wire modulus 2^{q_bits} does not match parameters"
            f" (2^{params.q_bits})"
        )
    _require_words(blob, _HEADER.size, length, q_bits // 8, "ciphertext")
    body = np.frombuffer(
        blob, dtype=dtype_for(q_bits), offset=_HEADER.size, count=length
    )
    return Ciphertext(c=body.copy(), params=params)


def encode_answer(values: np.ndarray, q_bits: int) -> bytes:
    """Serialize an evaluated ciphertext (server answer)."""
    body = np.ascontiguousarray(values, dtype=dtype_for(q_bits)).tobytes()
    return _HEADER.pack(q_bits, len(values)) + body


def decode_answer(blob: bytes) -> tuple[np.ndarray, int]:
    _require_header(blob, _HEADER, "answer")
    q_bits, length = _HEADER.unpack_from(blob)
    if q_bits not in (32, 64):
        raise ValueError(f"answer declares unsupported modulus 2^{q_bits}")
    _require_words(blob, _HEADER.size, length, q_bits // 8, "answer")
    values = np.frombuffer(
        blob, dtype=dtype_for(q_bits), offset=_HEADER.size, count=length
    )
    return values.copy(), q_bits


_BATCH_HEADER = struct.Struct("<BIH")


def encode_batch(batch) -> bytes:
    """Serialize a stacked query batch: [u8 q_bits][u32 m][u16 Q][m*Q words].

    Words are C-order over the (m, Q) stack, so the columns (queries)
    interleave; the count is validated on decode before any reshape.
    """
    q_bits = batch.params.q_bits
    m, q = batch.stacked.shape
    body = np.ascontiguousarray(
        batch.stacked, dtype=dtype_for(q_bits)
    ).tobytes()
    return _BATCH_HEADER.pack(q_bits, m, q) + body


def decode_batch(blob: bytes, params: LweParams):
    from repro.core.ranking import RankingBatch

    _require_header(blob, _BATCH_HEADER, "query batch")
    q_bits, m, q = _BATCH_HEADER.unpack_from(blob)
    if q_bits != params.q_bits:
        raise ValueError(
            f"wire modulus 2^{q_bits} does not match parameters"
            f" (2^{params.q_bits})"
        )
    if q == 0:
        raise ValueError("query batch declares zero queries")
    _require_words(blob, _BATCH_HEADER.size, m * q, q_bits // 8, "query batch")
    words = np.frombuffer(
        blob, dtype=dtype_for(q_bits), offset=_BATCH_HEADER.size, count=m * q
    )
    return RankingBatch(stacked=words.reshape(m, q).copy(), params=params)


def encode_batch_answer(answer, q_bits: int) -> bytes:
    """Serialize a stacked answer: [u8 q_bits][u32 rows][u16 Q][rows*Q words]."""
    rows, q = answer.stacked.shape
    body = np.ascontiguousarray(
        answer.stacked, dtype=dtype_for(q_bits)
    ).tobytes()
    return _BATCH_HEADER.pack(q_bits, rows, q) + body


def decode_batch_answer(blob: bytes) -> tuple[np.ndarray, int]:
    """Decode a stacked answer into the (rows, Q) matrix and q_bits."""
    _require_header(blob, _BATCH_HEADER, "batch answer")
    q_bits, rows, q = _BATCH_HEADER.unpack_from(blob)
    if q_bits not in (32, 64):
        raise ValueError(
            f"batch answer declares unsupported modulus 2^{q_bits}"
        )
    if q == 0:
        raise ValueError("batch answer declares zero queries")
    _require_words(
        blob, _BATCH_HEADER.size, rows * q, q_bits // 8, "batch answer"
    )
    words = np.frombuffer(
        blob, dtype=dtype_for(q_bits), offset=_BATCH_HEADER.size, count=rows * q
    )
    return words.reshape(rows, q).copy(), q_bits


_MATRIX_HEADER = struct.Struct("<BII")


def encode_matrix(matrix: np.ndarray, q_bits: int) -> bytes:
    """Serialize a Z_q matrix (e.g., a raw SimplePIR hint)."""
    rows, cols = matrix.shape
    body = np.ascontiguousarray(matrix, dtype=dtype_for(q_bits)).tobytes()
    return _MATRIX_HEADER.pack(q_bits, rows, cols) + body


def decode_matrix(blob: bytes) -> tuple[np.ndarray, int]:
    _require_header(blob, _MATRIX_HEADER, "matrix")
    q_bits, rows, cols = _MATRIX_HEADER.unpack_from(blob)
    if q_bits not in (32, 64):
        raise ValueError(f"matrix declares unsupported modulus 2^{q_bits}")
    _require_words(
        blob, _MATRIX_HEADER.size, rows * cols, q_bits // 8, "matrix"
    )
    values = np.frombuffer(
        blob,
        dtype=dtype_for(q_bits),
        offset=_MATRIX_HEADER.size,
        count=rows * cols,
    )
    return values.reshape(rows, cols).copy(), q_bits


def encode_rlwe(ct: BfvCiphertext) -> bytes:
    """Serialize an outer-layer (RLWE) ciphertext in RNS form."""
    k, n = ct.b.shape
    return (
        _RLWE_HEADER.pack(k, n)
        + np.ascontiguousarray(ct.b, dtype=np.uint64).tobytes()
        + np.ascontiguousarray(ct.a, dtype=np.uint64).tobytes()
    )


def decode_rlwe(blob: bytes) -> BfvCiphertext:
    _require_header(blob, _RLWE_HEADER, "RLWE ciphertext")
    k, n = _RLWE_HEADER.unpack_from(blob)
    _require_words(blob, _RLWE_HEADER.size, 2 * k * n, 8, "RLWE ciphertext")
    words = np.frombuffer(
        blob, dtype=np.uint64, offset=_RLWE_HEADER.size, count=2 * k * n
    )
    b = words[: k * n].reshape(k, n).copy()
    a = words[k * n :].reshape(k, n).copy()
    return BfvCiphertext(b=b, a=a)


#: Fixed framing overhead per inner-layer message.
HEADER_BYTES = _HEADER.size
RLWE_HEADER_BYTES = _RLWE_HEADER.size

_KEY_HEADER = struct.Struct("<III")
_HINT_HEADER = struct.Struct("<II")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _pack_str(name: str) -> bytes:
    data = name.encode()
    return _U8.pack(len(data)) + data


def _unpack_str(blob: bytes, pos: int) -> tuple[str, int]:
    if len(blob) - pos < _U8.size:
        raise ValueError(
            f"string field: payload is {len(blob) - pos} bytes at offset"
            f" {pos}, expected at least {_U8.size}"
        )
    (length,) = _U8.unpack_from(blob, pos)
    pos += _U8.size
    if len(blob) - pos < length:
        raise ValueError(
            f"string field: payload is {len(blob) - pos} bytes,"
            f" expected {length}"
        )
    return blob[pos : pos + length].decode(), pos + length


def _pack_blob(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _unpack_blob(blob: bytes, pos: int) -> tuple[bytes, int]:
    if len(blob) - pos < _U32.size:
        raise ValueError(
            f"blob field: payload is {len(blob) - pos} bytes at offset"
            f" {pos}, expected at least {_U32.size}"
        )
    (length,) = _U32.unpack_from(blob, pos)
    pos += _U32.size
    if len(blob) - pos < length:
        raise ValueError(
            f"blob field: payload is {len(blob) - pos} bytes,"
            f" expected {length}"
        )
    return blob[pos : pos + length], pos + length


def encode_mint_request(enc_keys: dict) -> bytes:
    """Serialize a token-mint request.

    Shared keys (Appendix A.3) are uploaded once: the format lists the
    unique encrypted keys, then maps each service name to one of them.
    """
    unique: list = []
    key_index: dict[int, int] = {}
    for key in enc_keys.values():
        if id(key) not in key_index:
            key_index[id(key)] = len(unique)
            unique.append(key)
    parts = [_U16.pack(len(unique))]
    parts += [_pack_blob(encode_encrypted_key(k)) for k in unique]
    parts.append(_U16.pack(len(enc_keys)))
    for name, key in enc_keys.items():
        parts.append(_pack_str(name))
        parts.append(_U16.pack(key_index[id(key)]))
    return b"".join(parts)


def decode_mint_request(blob: bytes) -> dict:
    _require_header(blob, _U16, "mint request")
    (num_unique,) = _U16.unpack_from(blob)
    pos = _U16.size
    unique = []
    for _ in range(num_unique):
        data, pos = _unpack_blob(blob, pos)
        unique.append(decode_encrypted_key(data))
    if len(blob) - pos < _U16.size:
        raise ValueError("mint request: truncated service count")
    (num_services,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    out = {}
    for _ in range(num_services):
        name, pos = _unpack_str(blob, pos)
        if len(blob) - pos < _U16.size:
            raise ValueError("mint request: truncated key index")
        (idx,) = _U16.unpack_from(blob, pos)
        pos += _U16.size
        if idx >= len(unique):
            raise ValueError(
                f"mint request: service {name!r} references key {idx},"
                f" but only {len(unique)} keys are present"
            )
        out[name] = unique[idx]
    return out


def _pack_many(blobs: list[bytes]) -> bytes:
    """[u16 count] then each blob length-prefixed: the batched-mint
    framing, identical in both directions."""
    return b"".join([_U16.pack(len(blobs)), *map(_pack_blob, blobs)])


def _unpack_many(blob: bytes, what: str) -> list[bytes]:
    _require_header(blob, _U16, what)
    (count,) = _U16.unpack_from(blob)
    pos = _U16.size
    out = []
    for _ in range(count):
        data, pos = _unpack_blob(blob, pos)
        out.append(data)
    if pos != len(blob):
        raise ValueError(
            f"{what}: {len(blob) - pos} trailing bytes after {count} clients"
        )
    return out


def encode_mint_many_request(requests: list[bytes]) -> bytes:
    """Serialize a batched token-mint request (K clients' key uploads).

    Each element is one client's already-encoded single-mint request
    (:func:`encode_mint_request`); the batch adds only a u16 client
    count and a length prefix per client.
    """
    return _pack_many(requests)


def decode_mint_many_request(blob: bytes) -> list[dict]:
    return [
        decode_mint_request(data)
        for data in _unpack_many(blob, "mint-many request")
    ]


def encode_mint_many_payload(payloads: list) -> bytes:
    """Serialize the minted tokens for a batched request, in order."""
    return _pack_many([encode_token_payload(p) for p in payloads])


def split_mint_many_payload(blob: bytes) -> list[bytes]:
    """The per-client token payloads of a batched response, in order,
    each still encoded exactly as a single ``mint`` response body."""
    return _unpack_many(blob, "mint-many payload")


def encode_token_payload(payload) -> bytes:
    """Serialize a minted token (per-service compressed hints)."""
    parts = [_U16.pack(len(payload.hints))]
    for name, hint in payload.hints.items():
        parts.append(_pack_str(name))
        parts.append(_pack_blob(encode_compressed_hint(hint)))
    return b"".join(parts)


def decode_token_payload(blob: bytes):
    from repro.homenc.token import TokenPayload

    _require_header(blob, _U16, "token payload")
    (count,) = _U16.unpack_from(blob)
    pos = _U16.size
    hints = {}
    for _ in range(count):
        name, pos = _unpack_str(blob, pos)
        data, pos = _unpack_blob(blob, pos)
        hints[name] = decode_compressed_hint(data)
    _require_end(blob, pos, "token payload")
    return TokenPayload(hints=hints)


def encode_encrypted_key(enc_key) -> bytearray:
    """Serialize the ahead-of-time encrypted-key upload (SS6.3):
    [u32 n_inner][u32 k][u32 n_outer][32-byte seed][n_inner*k*n_outer
    u64 z_b].

    ``z_b`` is written once, straight into the preallocated buffer.
    """
    from repro.homenc.double import KEY_SEED_BYTES

    if len(enc_key.a_seed) != KEY_SEED_BYTES:
        raise ValueError(
            f"encrypted key seed is {len(enc_key.a_seed)} bytes,"
            f" expected {KEY_SEED_BYTES}"
        )
    z_b = enc_key.z_b
    body = _KEY_HEADER.size + KEY_SEED_BYTES
    out = bytearray(body + z_b.size * 8)
    _KEY_HEADER.pack_into(out, 0, *z_b.shape)
    out[_KEY_HEADER.size : body] = enc_key.a_seed
    np.frombuffer(out, dtype=np.uint64, offset=body).reshape(z_b.shape)[...] = z_b
    return out


def decode_encrypted_key(blob: bytes):
    from repro.homenc.double import KEY_SEED_BYTES, EncryptedKey

    _require_header(blob, _KEY_HEADER, "encrypted key")
    n_inner, k, n_outer = _KEY_HEADER.unpack_from(blob)
    body = _KEY_HEADER.size + KEY_SEED_BYTES
    if len(blob) < body:
        raise ValueError(
            f"encrypted key: payload is {len(blob) - _KEY_HEADER.size} bytes"
            f" after the header, expected at least {KEY_SEED_BYTES} for the"
            " seed"
        )
    count = n_inner * k * n_outer
    _require_words(blob, body, count, 8, "encrypted key")
    if len(blob) != body + count * 8:
        raise ValueError(
            f"encrypted key: {len(blob) - body - count * 8} trailing bytes"
            f" after {count} words"
        )
    words = np.frombuffer(blob, dtype=np.uint64, offset=body, count=count)
    return EncryptedKey(
        z_b=words.reshape(n_inner, k, n_outer).copy(),
        a_seed=bytes(blob[_KEY_HEADER.size : body]),
    )


def encode_compressed_hint(hint) -> bytes:
    """Serialize one service's compressed-hint token chunk list."""
    parts = [_HINT_HEADER.pack(len(hint.chunks), hint.rows)]
    for chunk in hint.chunks:
        parts.append(encode_rlwe(chunk))
    return b"".join(parts)


def decode_compressed_hint(blob: bytes):
    from repro.homenc.double import CompressedHint

    _require_header(blob, _HINT_HEADER, "compressed hint")
    num_chunks, rows = _HINT_HEADER.unpack_from(blob)
    chunks = []
    pos = _HINT_HEADER.size
    for i in range(num_chunks):
        if len(blob) - pos < _RLWE_HEADER.size:
            raise ValueError(
                f"compressed hint: payload ends at chunk {i} of"
                f" {num_chunks}"
            )
        k, n = _RLWE_HEADER.unpack_from(blob, pos)
        size = _RLWE_HEADER.size + 2 * k * n * 8
        chunks.append(decode_rlwe(blob[pos : pos + size]))
        pos += size
    _require_end(blob, pos, "compressed hint")
    return CompressedHint(chunks=tuple(chunks), rows=rows)
