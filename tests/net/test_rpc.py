"""Tests for the RPC layer and the token wire format."""

import numpy as np
import pytest

from repro.net import wire
from repro.net.rpc import (
    FRAME_BYTES,
    MAX_METHOD_BYTES,
    RpcChannel,
    ServiceEndpoint,
    frame,
    unframe,
)
from repro.net.transport import LoopbackTransport, TrafficLog


class TestFraming:
    def test_round_trip(self):
        method, payload = unframe(frame("answer", b"\x01\x02"))
        assert method == "answer" and payload == b"\x01\x02"

    def test_truncated_frame_rejected(self):
        blob = frame("answer", b"\x01\x02\x03")
        with pytest.raises(ValueError):
            unframe(blob[:-1])

    def test_header_shorter_than_fixed_fields_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            unframe(b"\x00" * (FRAME_BYTES - 1))

    def test_oversized_method_name_raises(self):
        """Regression: frame() used to silently truncate to 16 bytes,
        so two distinct long method names could alias on the wire."""
        with pytest.raises(ValueError, match="16"):
            frame("a" * (MAX_METHOD_BYTES + 1), b"")

    def test_max_length_method_name_round_trips(self):
        name = "m" * MAX_METHOD_BYTES
        method, payload = unframe(frame(name, b"xy"))
        assert method == name and payload == b"xy"

    def test_non_ascii_method_counted_in_bytes(self):
        # 9 chars but 18 UTF-8 bytes: the byte length is what must fit.
        with pytest.raises(ValueError):
            frame("é" * 9, b"")

    def test_trailing_garbage_rejected(self):
        """Regression: unframe() used to ignore bytes past the declared
        payload length, silently accepting corrupted frames."""
        blob = frame("answer", b"\x01\x02") + b"\x99"
        with pytest.raises(ValueError, match="trailing"):
            unframe(blob)


class TestEndpoint:
    def test_dispatch(self):
        ep = ServiceEndpoint("echo")
        ep.register("upper", lambda b: bytes(b).upper())
        method, body = unframe(ep.dispatch(frame("upper", b"abc")))
        assert (method, body) == ("upper", b"ABC")

    def test_unknown_method(self):
        ep = ServiceEndpoint("x")
        with pytest.raises(KeyError):
            ep.dispatch(frame("nope", b""))

    def test_duplicate_registration(self):
        ep = ServiceEndpoint("x")
        ep.register("m", lambda b: b)
        with pytest.raises(ValueError):
            ep.register("m", lambda b: b)


class TestChannel:
    def test_logs_real_wire_sizes(self):
        ep = ServiceEndpoint("svc")
        ep.register("m", lambda b: bytes(b) * 2)
        log = TrafficLog()
        channel = RpcChannel(log, LoopbackTransport({"svc": ep}))
        out = channel.call("svc", "phase", "m", b"1234")
        assert out == b"12341234"
        assert log.bytes_up("phase") == 4 + FRAME_BYTES
        assert log.bytes_down("phase") == 8 + FRAME_BYTES


class TestTokenWire:
    def test_mint_request_round_trip_with_shared_key(self, engine):
        from repro.homenc.token import make_client_keys

        schemes = {
            "ranking": engine.index.ranking_scheme,
            "url": engine.index.url_scheme,
        }
        _, enc_keys, upload = make_client_keys(
            schemes, np.random.default_rng(0)
        )
        blob = wire.encode_mint_request(enc_keys)
        back = wire.decode_mint_request(blob)
        assert set(back) == {"ranking", "url"}
        assert np.array_equal(back["ranking"].z_b, enc_keys["ranking"].z_b)
        # Shared keys encoded once: the request is barely larger than
        # one key upload.
        assert len(blob) < upload * 1.01 + 100

    def test_token_payload_round_trip(self, engine):
        token_payload_bytes_before = None
        from repro.homenc.token import make_client_keys

        schemes = {
            "ranking": engine.index.ranking_scheme,
            "url": engine.index.url_scheme,
        }
        keys, enc_keys, _ = make_client_keys(schemes, np.random.default_rng(1))
        minted = engine.index.token_factory.mint(enc_keys)
        blob = wire.encode_token_payload(minted)
        back = wire.decode_token_payload(blob)
        for name in ("ranking", "url"):
            product_direct = schemes[name].decrypt_hint_product(
                keys[name], minted.hints[name]
            )
            product_wire = schemes[name].decrypt_hint_product(
                keys[name], back.hints[name]
            )
            assert np.array_equal(product_direct, product_wire)

    def test_search_traffic_uses_real_encodings(self, engine, corpus):
        result = engine.search(
            corpus.documents[2].text, np.random.default_rng(2)
        )
        inner = engine.index.ranking_scheme.params.inner
        expected_up = (
            inner.ciphertext_bytes(inner.m) + wire.HEADER_BYTES + FRAME_BYTES
        )
        assert result.traffic.bytes_up("ranking") == expected_up
