"""Wire serialization for protocol messages.

The byte counts the evaluation reports (`wire_bytes`) correspond to
real serialized formats; this module provides those formats and lets
the tests verify the accounting is honest: every message's declared
size equals the length of its encoding.

Formats are little-endian and self-describing enough for a fixed
protocol version:

* ciphertext vectors: [u8 q_bits][u32 length][length words]
* PIR / ranking answers: same layout
* RLWE ciphertexts: [u16 k][u32 n][k*n u32 b][k*n u32 a]

Outer (RLWE) residues are below their < 2^31 NTT primes, so they
travel as u32: encoders narrow once, straight into the buffer that is
sent, and decoders widen once into the uint64 arrays the kernels use
-- except an encrypted key, which the server checks and multiplies as
the u32 words it arrived as.

Every decoder validates declared lengths against the actual payload
*before* touching ``np.frombuffer`` and raises a ``ValueError`` that
names both sizes -- a truncated or corrupted frame (from a flaky
transport, a crashed peer, or a malicious server) fails loudly instead
of surfacing as an opaque numpy error or, worse, a misshaped array.
Decoded arrays are fresh writable copies, with one exception: an
encrypted key's ``z_b`` is a read-only u32 view into the request
buffer -- the largest upload of the protocol is never copied.
Length-prefixed fields are sliced out as ``memoryview``s, never
copied.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.lwe.modular import dtype_for
from repro.lwe.params import LweParams
from repro.lwe.regev import Ciphertext
from repro.rlwe.bfv import BfvCiphertext

_HEADER = struct.Struct("<BI")
_RLWE_HEADER = struct.Struct("<HI")

#: Outer residues on the wire (``repro.rlwe.bfv.RESIDUE_BYTES`` each).
_RESIDUE = np.dtype("<u4")


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


def _put_residues(out: bytearray, offset: int, words: np.ndarray) -> None:
    """Narrow uint64 residues (< 2^32) into ``out`` at ``offset``."""
    np.frombuffer(out, dtype=_RESIDUE, offset=offset, count=words.size)[
        ...
    ] = words.ravel()


def _residue_blob(header: bytes, words: np.ndarray) -> bytearray:
    """``header`` then ``words`` as u32, written once into one buffer."""
    out = bytearray(len(header) + words.size * _RESIDUE.itemsize)
    out[: len(header)] = header
    _put_residues(out, len(header), words)
    return out


def _residue_view(
    blob, offset: int, shape: tuple[int, ...], what: str
) -> np.ndarray:
    """The u32 residues of a ``shape`` stack at ``offset``, as a
    read-only view of ``blob``; the stack must end the payload
    exactly."""
    count = math.prod(shape)
    _require_words(blob, offset, count, _RESIDUE.itemsize, what)
    _require_end(blob, offset + count * _RESIDUE.itemsize, what)
    words = np.frombuffer(blob, dtype=_RESIDUE, offset=offset, count=count)
    words.flags.writeable = False
    return words.reshape(shape)


def _get_residues(
    blob, offset: int, shape: tuple[int, ...], what: str
) -> np.ndarray:
    """:func:`_residue_view` widened into a fresh uint64 array."""
    return _residue_view(blob, offset, shape, what).astype(np.uint64)


def encode_rlwe(ct: BfvCiphertext) -> bytearray:
    """Serialize an outer-layer (RLWE) ciphertext in RNS form."""
    k, n = ct.b.shape
    return _residue_blob(_RLWE_HEADER.pack(k, n), np.stack([ct.b, ct.a]))


def decode_rlwe(blob: bytes) -> BfvCiphertext:
    _require_header(blob, _RLWE_HEADER, "RLWE ciphertext")
    k, n = _RLWE_HEADER.unpack_from(blob)
    b, a = _get_residues(blob, _RLWE_HEADER.size, (2, k, n), "RLWE ciphertext")
    return BfvCiphertext(b=b, a=a)


#: Fixed framing overhead per inner-layer message.
HEADER_BYTES = _HEADER.size
RLWE_HEADER_BYTES = _RLWE_HEADER.size

_KEY_HEADER = struct.Struct("<III")
#: ``[u32 chunks][u32 rows][u16 k][u32 n]`` of a stack of chunk residues.
_STACK_HEADER = struct.Struct("<IIHI")
#: A hint adds the 8-byte digest of the a-product it pairs with.
_HINT_HEADER = struct.Struct("<IIHI8s")
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
    return str(blob[pos : pos + length], "utf-8"), pos + length


def _blob_parts(data) -> list:
    """A length-prefixed blob field, ``[u32 len][data]``, as parts for
    one ``b"".join``: ``data`` is copied once, into the joined buffer."""
    return [_U32.pack(len(data)), data]


def _unpack_blob(blob, pos: int) -> tuple[memoryview, int]:
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
    return memoryview(blob)[pos : pos + length], pos + length


def encode_mint_request(enc_keys: dict) -> bytearray:
    """Serialize a token-mint request.

    Shared keys (Appendix A.3) are uploaded once: the format lists the
    unique encrypted keys, then maps each service name to one of them.
    Each key's residues are narrowed once, straight into the one
    buffer the request is sent from.
    """
    unique: list = []
    key_index: dict[int, int] = {}
    for key in enc_keys.values():
        if id(key) not in key_index:
            key_index[id(key)] = len(unique)
            unique.append(key)
    service_map = [_U16.pack(len(enc_keys))]
    for name, key in enc_keys.items():
        service_map.append(_pack_str(name))
        service_map.append(_U16.pack(key_index[id(key)]))
    tail = b"".join(service_map)
    sizes = [_encrypted_key_bytes(key.z_b) for key in unique]
    out = bytearray(_U16.size + sum(_U32.size + n for n in sizes) + len(tail))
    _U16.pack_into(out, 0, len(unique))
    pos = _U16.size
    for key, size in zip(unique, sizes):
        _U32.pack_into(out, pos, size)
        pos = _put_encrypted_key(out, pos + _U32.size, key.z_b)
    out[pos:] = tail
    return out


def decode_mint_request(blob: bytes) -> dict:
    """Decode a mint request: every key is referenced by exactly the
    services that name it, each service is named once, and nothing
    follows the service map.  Keys are decoded only after the map has
    been checked -- an unreferenced upload is refused, never decoded --
    and a malformed one is refused naming the services that use it.
    Each key's ``z_b`` is a read-only view of ``blob``
    (:func:`decode_encrypted_key`)."""
    _require_header(blob, _U16, "mint request")
    (num_unique,) = _U16.unpack_from(blob)
    pos = _U16.size
    uploads = []
    for _ in range(num_unique):
        data, pos = _unpack_blob(blob, pos)
        uploads.append(data)
    if len(blob) - pos < _U16.size:
        raise ValueError("mint request: truncated service count")
    (num_services,) = _U16.unpack_from(blob, pos)
    pos += _U16.size
    refs: dict[str, int] = {}
    for _ in range(num_services):
        name, pos = _unpack_str(blob, pos)
        if len(blob) - pos < _U16.size:
            raise ValueError("mint request: truncated key index")
        (idx,) = _U16.unpack_from(blob, pos)
        pos += _U16.size
        if name in refs:
            raise ValueError(f"mint request: service {name!r} listed twice")
        if idx >= len(uploads):
            raise ValueError(
                f"mint request: service {name!r} references key {idx},"
                f" but only {len(uploads)} keys are present"
            )
        refs[name] = idx
    _require_end(blob, pos, "mint request")
    unused = sorted(set(range(len(uploads))) - set(refs.values()))
    if unused:
        raise ValueError(
            f"mint request: keys {unused} are referenced by no service"
        )
    keys = []
    for idx, data in enumerate(uploads):
        try:
            keys.append(decode_encrypted_key(data))
        except ValueError as exc:
            names = sorted(name for name, ref in refs.items() if ref == idx)
            raise ValueError(
                f"mint request: key {idx} for services {names}: {exc}"
            ) from None
    return {name: keys[idx] for name, idx in refs.items()}


def _pack_many(blobs: list) -> bytes:
    """[u16 count] then each blob length-prefixed: the batched-mint
    framing, identical in both directions."""
    parts = [_U16.pack(len(blobs))]
    for data in blobs:
        parts += _blob_parts(data)
    return b"".join(parts)


def _unpack_many(blob, what: str) -> list[memoryview]:
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


def encode_mint_many_request(requests: list) -> bytes:
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


def split_mint_many_payload(blob) -> list[memoryview]:
    """The per-client token payloads of a batched response, in order,
    each still encoded exactly as a single ``mint`` response body."""
    return _unpack_many(blob, "mint-many payload")


def _pack_named(blobs: dict) -> bytes:
    """[u16 count] then per entry [u8 len][name][u32 len][blob]."""
    parts = [_U16.pack(len(blobs))]
    for name, data in blobs.items():
        parts.append(_pack_str(name))
        parts += _blob_parts(data)
    return b"".join(parts)


def _unpack_named(blob, what: str) -> dict[str, memoryview]:
    _require_header(blob, _U16, what)
    (count,) = _U16.unpack_from(blob)
    pos = _U16.size
    out = {}
    for _ in range(count):
        name, pos = _unpack_str(blob, pos)
        if name in out:
            raise ValueError(f"{what}: service {name!r} listed twice")
        out[name], pos = _unpack_blob(blob, pos)
    _require_end(blob, pos, what)
    return out


def encode_token_payload(payload) -> bytes:
    """Serialize a minted token (per-service compressed hints)."""
    return _pack_named(
        {
            name: encode_compressed_hint(hint)
            for name, hint in payload.hints.items()
        }
    )


def decode_token_payload(blob: bytes):
    from repro.homenc.token import TokenPayload

    blobs = _unpack_named(blob, "token payload")
    return TokenPayload(
        hints={name: decode_compressed_hint(data) for name, data in blobs.items()}
    )


def encode_a_products(products: dict) -> bytes:
    """Serialize every service's per-generation a-product (the token
    service's ``a_products`` response)."""
    return _pack_named(
        {name: encode_a_product(ap) for name, ap in products.items()}
    )


def decode_a_products(blob: bytes) -> dict:
    blobs = _unpack_named(blob, "a-products")
    return {name: decode_a_product(data) for name, data in blobs.items()}


def _encrypted_key_bytes(z_b: np.ndarray) -> int:
    return _KEY_HEADER.size + z_b.size * _RESIDUE.itemsize


def _put_encrypted_key(out: bytearray, pos: int, z_b: np.ndarray) -> int:
    """Write one encrypted key at ``pos``; return where it ends."""
    _KEY_HEADER.pack_into(out, pos, *z_b.shape)
    _put_residues(out, pos + _KEY_HEADER.size, z_b)
    return pos + _encrypted_key_bytes(z_b)


def encode_encrypted_key(enc_key) -> bytearray:
    """Serialize the ahead-of-time encrypted-key upload (SS6.3):
    [u32 n_inner][u32 k][u32 n_outer][n_inner*k*n_outer u32 z_b].

    ``z_b`` is narrowed once, straight into the preallocated buffer.
    """
    out = bytearray(_encrypted_key_bytes(enc_key.z_b))
    _put_encrypted_key(out, 0, enc_key.z_b)
    return out


def decode_encrypted_key(blob):
    """An encrypted key whose ``z_b`` is a read-only u32 view of
    ``blob``: the upload is checked and multiplied where it arrived
    (:meth:`~repro.homenc.double.DoubleLheScheme.check_key`)."""
    from repro.homenc.double import EncryptedKey

    _require_header(blob, _KEY_HEADER, "encrypted key")
    shape = _KEY_HEADER.unpack_from(blob)
    return EncryptedKey(
        z_b=_residue_view(blob, _KEY_HEADER.size, shape, "encrypted key")
    )


def encode_a_product(a_product) -> bytearray:
    """Serialize one service's a-product: [u32 chunks][u32 rows][u16 k]
    [u32 n][chunks*k*n u32 words]."""
    chunks, k, n = a_product.words.shape
    header = _STACK_HEADER.pack(chunks, a_product.rows, k, n)
    return _residue_blob(header, a_product.words)


def decode_a_product(blob: bytes):
    from repro.homenc.double import AProduct

    _require_header(blob, _STACK_HEADER, "a-product")
    chunks, rows, k, n = _STACK_HEADER.unpack_from(blob)
    words = _get_residues(blob, _STACK_HEADER.size, (chunks, k, n), "a-product")
    return AProduct(words=words, rows=rows)


def encode_compressed_hint(hint) -> bytearray:
    """Serialize one service's hint: [u32 chunks][u32 rows][u16 k]
    [u32 n][8-byte a-product digest][chunks*k*n u32 b halves]."""
    chunks, k, n = hint.b.shape
    header = _HINT_HEADER.pack(chunks, hint.rows, k, n, hint.a_digest)
    return _residue_blob(header, hint.b)


def decode_compressed_hint(blob: bytes):
    from repro.homenc.double import CompressedHint

    _require_header(blob, _HINT_HEADER, "compressed hint")
    chunks, rows, k, n, digest = _HINT_HEADER.unpack_from(blob)
    b = _get_residues(blob, _HINT_HEADER.size, (chunks, k, n), "compressed hint")
    return CompressedHint(b=b, rows=rows, a_digest=digest)
