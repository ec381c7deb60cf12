"""The service plane: the build_services roster, health reporting,
and the equivalence of the wire handlers with direct service calls."""

import numpy as np
import pytest

from repro import TiptoeEngine
from repro.core.services import build_services
from repro.net import wire
from repro.net.rpc import RpcChannel, frame, unframe
from repro.net.transport import LoopbackTransport, TrafficLog


class TestRoster:
    def test_all_four_services_present(self, engine):
        assert set(engine.services) == {"ranking", "url", "token", "hint"}

    def test_names_match_the_service_objects(self, engine):
        for name, service in engine.services.items():
            assert service.service_name == name
            assert service.endpoint.name == name

    def test_build_services_is_independent_of_the_engine(self, engine):
        services = build_services(engine.index)
        assert set(services) == {"ranking", "url", "token", "hint"}
        for service in services.values():
            service.close()


class TestHealth:
    def test_every_service_reports_ok(self, engine):
        for name, service in engine.services.items():
            report = service.health()
            assert report["service"] == name
            assert report["status"] == "ok"

    def test_ranking_health_reports_its_shard(self, engine):
        report = engine.services["ranking"].health()
        assert (report["shard"], report["num_shards"]) == (0, 1)

    def test_url_health_reports_rows(self, engine):
        report = engine.services["url"].health()
        assert report["rows"] == engine.index.url_db.num_rows


class TestWireHandlersMatchDirectCalls:
    """The endpoint path (decode -> service -> encode) must produce
    byte-for-byte what a direct in-process call would."""

    def test_hint_endpoint_serves_the_exact_hint(self, engine):
        index = engine.index
        ep = engine.services["hint"].endpoint
        _, body = unframe(ep.dispatch(frame("ranking", b"")))
        served, _ = wire.decode_matrix(body)
        np.testing.assert_array_equal(served, index.ranking_prep.hint)
        _, body = unframe(ep.dispatch(frame("url", b"")))
        served, _ = wire.decode_matrix(body)
        np.testing.assert_array_equal(served, index.url_prep.hint)

    def test_channel_routes_to_the_same_bytes(self, engine):
        """RpcChannel over loopback returns exactly what the endpoint
        dispatches, and the traffic log sees both directions."""
        log = TrafficLog()
        channel = RpcChannel(log, engine.transport)
        body = channel.call("hint", "hint", "ranking", b"")
        ep = engine.services["hint"].endpoint
        _, direct = unframe(ep.dispatch(frame("ranking", b"")))
        assert body == direct
        assert log.bytes_up("hint") > 0
        assert log.bytes_down("hint") > 0

    def test_unknown_method_is_a_clear_error(self, engine):
        ep = engine.services["url"].endpoint
        with pytest.raises(KeyError):
            ep.dispatch(frame("nonsense", b""))


class TestMalformedKeyOverTcp:
    def test_malformed_key_is_a_remote_error_naming_the_service(self, engine):
        """The mint's key validation survives the socket: a key with the
        wrong number of inner components comes back as a typed error,
        not as a wrong token."""
        from repro.homenc import EncryptedKey
        from repro.homenc.token import make_client_keys
        from repro.net.tcp import ServerRunner, SocketTransport
        from repro.net.transport import RemoteCallError

        schemes = {
            "ranking": engine.index.ranking_scheme,
            "url": engine.index.url_scheme,
        }
        _, enc_keys, _ = make_client_keys(schemes, np.random.default_rng(0))
        good = enc_keys["url"]
        enc_keys["url"] = EncryptedKey(z_b=good.z_b[:1])
        with ServerRunner(build_services(engine.index).values(), port=0) as runner:
            host, port = runner.address
            transport = SocketTransport(host, port, timeout=30.0)
            try:
                channel = RpcChannel(TrafficLog(), transport)
                with pytest.raises(RemoteCallError) as info:
                    channel.call(
                        "token", "token", "mint",
                        wire.encode_mint_request(enc_keys),
                    )
            finally:
                transport.close()
        message = str(info.value)
        assert "'url'" in message
        assert str(good.z_b.shape) in message


class Tampering:
    """Loopback to the real services, with every ``token`` response body
    rewritten by ``edit``: a corrupted or malicious server."""

    def __init__(self, inner, edit):
        self.inner, self.edit = inner, edit

    def request(self, service, request, *, timeout=None):
        response = self.inner.request(service, request, timeout=timeout)
        if service != "token":
            return response
        method, body = unframe(response)
        return frame(method, self.edit(body))

    def close(self):
        pass


class TestMalformedHintPayload:
    """``mint_tokens`` checks every returned hint before decrypting it:
    a bad one raises, naming the service, instead of becoming a token
    whose hint product is silently wrong."""

    @staticmethod
    def _mint(engine, edit):
        remote = TiptoeEngine(
            engine.index, transport=Tampering(engine.transport, edit)
        )
        return remote.mint_token(np.random.default_rng(5))

    @staticmethod
    def _edit_url_hint(change):
        def edit(body):
            payload = wire.decode_token_payload(body)
            payload.hints["url"] = change(payload.hints["url"])
            return wire.encode_token_payload(payload)

        return edit

    def test_untampered_payload_mints(self, engine):
        token = self._mint(engine, lambda body: body)
        assert set(token.hint_products) == {"ranking", "url"}

    def test_inflated_rows_rejected(self, engine):
        from repro.homenc.double import CompressedHint

        edit = self._edit_url_hint(
            lambda hint: CompressedHint(
                b=hint.b, rows=5000, a_digest=hint.a_digest
            )
        )
        with pytest.raises(ValueError, match="service 'url'.*5000 rows"):
            self._mint(engine, edit)

    def test_oversized_residue_rejected(self, engine):
        from repro.homenc.double import CompressedHint

        p = engine.index.url_scheme.outer.ring.primes[0]

        def change(hint):
            b = hint.b.copy()
            b[0, 0, 0] = p
            return CompressedHint(b=b, rows=hint.rows, a_digest=hint.a_digest)

        with pytest.raises(ValueError, match="service 'url'.*outside"):
            self._mint(engine, self._edit_url_hint(change))

    def test_hint_of_another_generation_is_a_typed_error(self, engine):
        """A hint paired with another ``a``-product than the client's
        -- as after a swap to another generation -- never decrypts."""
        from repro.homenc import GenerationMismatchError
        from repro.homenc.double import CompressedHint

        def change(hint):
            other = bytes(x ^ 0xFF for x in hint.a_digest)
            return CompressedHint(b=hint.b, rows=hint.rows, a_digest=other)

        with pytest.raises(GenerationMismatchError, match="another index"):
            self._mint(engine, self._edit_url_hint(change))

    def test_missing_service_rejected(self, engine):
        def drop_url(body):
            payload = wire.decode_token_payload(body)
            del payload.hints["url"]
            return wire.encode_token_payload(payload)

        with pytest.raises(ValueError, match="service 'url'"):
            self._mint(engine, drop_url)

    def test_trailing_bytes_rejected(self, engine):
        with pytest.raises(ValueError, match="trailing bytes"):
            self._mint(engine, lambda body: bytes(body) + b"\0")


class TestEngineModes:
    def test_loopback_engine_owns_its_services(self, engine):
        assert isinstance(engine.transport, LoopbackTransport)
        assert engine.ranking_service is engine.services["ranking"]
        assert engine.url_service is engine.services["url"]

    def test_remote_engine_builds_no_services(self, engine):
        class Dead:
            def request(self, service, request, *, timeout=None):
                raise AssertionError("not called in this test")

            def close(self):
                pass

        remote = TiptoeEngine(engine.index, transport=Dead())
        assert remote.services == {}
        assert remote.ranking_service is None
        assert remote.url_service is None

    def test_endpoint_backcompat_properties(self, engine):
        assert engine.ranking_endpoint is engine.services["ranking"].endpoint
        assert engine.url_endpoint is engine.services["url"].endpoint
        assert engine.token_endpoint is engine.services["token"].endpoint
        assert engine.hint_endpoint is engine.services["hint"].endpoint


# -- the served mint: bit-identity, zero copies, and malformed frames ----------


def _token_factory(level, with_table: bool):
    """A two-service mint at ``level`` whose hints span two outer
    chunks; ``with_table`` attaches the precomputed hint-NTT table."""
    from repro.core.indexer import _OUTER_N
    from repro.homenc import DoubleLheParams, DoubleLheScheme, TokenFactory
    from repro.lwe.params import select_params
    from repro.lwe.sampling import seeded_rng

    rng = seeded_rng(40)
    factory = TokenFactory()
    schemes = {}
    for name, q_bits in (("ranking", 64), ("url", 32)):
        scheme = DoubleLheScheme(
            DoubleLheParams(
                inner=select_params(q_bits, 64, level),
                outer_n=_OUTER_N[level],
            ),
            a_seed=name.encode().ljust(32, b"."),
        )
        matrix = rng.integers(0, 16, size=(_OUTER_N[level] + 5, 64))
        prep = scheme.preprocess(matrix)
        if with_table:
            prep = scheme.with_hint_ntt(prep)
        factory.register(name, scheme, prep)
        schemes[name] = scheme
    return factory, schemes


class _ServedMint:
    """A :class:`TokenMintService` over ``factory`` on a live listener;
    ``connects`` counts the client's connections."""

    def __init__(self, factory):
        from repro.core.services import TokenMintService
        from repro.net.tcp import FrameConnection, ServerRunner, SocketTransport

        self.runner = ServerRunner([TokenMintService(factory)], port=0).start()
        host, port = self.runner.address
        self.connects = 0

        def connect():
            self.connects += 1
            return FrameConnection.open(host, port, 60.0)

        self.transport = SocketTransport(
            host, port, timeout=60.0, connect=connect
        )
        self.channel = RpcChannel(TrafficLog(), self.transport)

    def mint(self, request) -> memoryview:
        return self.channel.call("token", "token", "mint", request)

    def close(self):
        self.transport.close()
        self.runner.close()


def _assert_same_token(got, want):
    assert set(got.hints) == set(want.hints)
    for name, hint in want.hints.items():
        np.testing.assert_array_equal(got.hints[name].b, hint.b)
        assert got.hints[name].b.dtype == hint.b.dtype
        assert got.hints[name].rows == hint.rows
        assert got.hints[name].a_digest == hint.a_digest


class TestServedMintIdentity:
    """Over a live socket, ``mint`` and ``mint_many`` return hint
    products bit-identical to the in-process mint on the same uint64
    keys -- with and without the precomputed hint-NTT table."""

    @pytest.fixture(
        scope="class",
        params=[
            ("toy", False), ("toy", True), ("light", False), ("light", True)
        ],
        ids=lambda p: f"{p[0]}-{'table' if p[1] else 'no-table'}",
    )
    def served(self, request):
        from repro.lwe.params import SecurityLevel

        level, with_table = request.param
        factory, schemes = _token_factory(SecurityLevel(level), with_table)
        assert (factory.service("url").prep.hint_ntt is not None) == with_table
        server = _ServedMint(factory)
        yield factory, schemes, server
        server.close()

    def test_mint_matches_the_in_process_mint(self, served):
        from repro.homenc.token import make_client_keys
        from repro.lwe.sampling import seeded_rng

        factory, schemes, server = served
        _, enc_keys, _ = make_client_keys(schemes, seeded_rng(3))
        assert all(k.z_b.dtype == np.uint64 for k in enc_keys.values())
        body = server.mint(wire.encode_mint_request(enc_keys))
        _assert_same_token(
            wire.decode_token_payload(body), factory.mint(enc_keys)
        )

    def test_mint_many_matches_the_in_process_mint(self, served):
        from repro.homenc.token import make_client_keys
        from repro.lwe.sampling import seeded_rng

        factory, schemes, server = served
        keysets = [
            make_client_keys(schemes, seeded_rng(10 + i))[1] for i in range(3)
        ]
        body = server.channel.call(
            "token",
            "token",
            "mint_many",
            wire.encode_mint_many_request(
                [wire.encode_mint_request(k) for k in keysets]
            ),
        )
        bodies = wire.split_mint_many_payload(body)
        assert len(bodies) == 3
        for enc_keys, got in zip(keysets, bodies):
            _assert_same_token(
                wire.decode_token_payload(got), factory.mint(enc_keys)
            )


def test_received_key_is_a_read_only_view_of_the_frame():
    """The key upload is received in place and decoded without a copy:
    ``z_b`` is read-only u32 over the very buffer the frame landed in."""
    import socket

    from repro.homenc.token import make_client_keys
    from repro.lwe.params import SecurityLevel
    from repro.lwe.sampling import seeded_rng
    from repro.net.tcp import STATUS_OK, FrameConnection

    _, schemes = _token_factory(SecurityLevel.TOY, with_table=False)
    _, enc_keys, _ = make_client_keys(schemes, seeded_rng(4))
    left, right = socket.socketpair()
    try:
        FrameConnection(left).send_frame(
            1, "token", STATUS_OK, frame("mint", wire.encode_mint_request(enc_keys))
        )
        _, _, _, received = FrameConnection(right).recv_frame(timeout=10.0)
    finally:
        left.close()
        right.close()
    _, body = unframe(received)
    decoded = wire.decode_mint_request(body)
    buffer = np.frombuffer(received, dtype=np.uint8)
    for name, key in decoded.items():
        assert key.z_b.dtype == np.uint32
        assert not key.z_b.flags.writeable
        assert np.shares_memory(key.z_b, buffer)
        np.testing.assert_array_equal(key.z_b, enc_keys[name].z_b)


class TestMintFrameFuzz:
    """Malformed key uploads sent to a live mint: each is refused as a
    remote error naming the service whose key it is, the checks run on
    the u32 words as they arrived, and the same connection then mints a
    good token."""

    @pytest.fixture(scope="class")
    def served(self):
        from repro.homenc.token import make_client_keys
        from repro.lwe.params import SecurityLevel
        from repro.lwe.sampling import seeded_rng

        factory, schemes = _token_factory(SecurityLevel.TOY, with_table=True)
        _, enc_keys, _ = make_client_keys(schemes, seeded_rng(5))
        server = _ServedMint(factory)
        yield factory, schemes, enc_keys, server
        server.close()

    @staticmethod
    def _request(uploads: dict) -> bytes:
        """A mint request of one upload per service, built by hand so a
        single key's bytes can be malformed."""
        import struct

        parts = [struct.pack("<H", len(uploads))]
        parts += [struct.pack("<I", len(k)) + bytes(k) for k in uploads.values()]
        parts.append(struct.pack("<H", len(uploads)))
        for idx, name in enumerate(uploads):
            parts.append(bytes([len(name)]) + name.encode() + struct.pack("<H", idx))
        return b"".join(parts)

    @staticmethod
    def _malformed(case, key: bytes, scheme) -> bytes:
        import struct

        key = bytearray(key)
        header = wire._KEY_HEADER.size
        n_inner, k, n = struct.unpack_from("<III", key)
        if case == "residue-p":
            key[-4:] = scheme.outer.ring.primes[-1].to_bytes(4, "little")
        elif case == "residue-u32-max":
            key[header : header + 4] = (2**32 - 1).to_bytes(4, "little")
        elif case == "other-shape":
            struct.pack_into("<III", key, 0, n_inner * k, 1, n)
        elif case == "truncated":
            del key[-4:]
        elif case == "trailing":
            key += b"\0" * 4
        return bytes(key)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("residue-p", "residues outside"),
            ("residue-u32-max", "residues outside"),
            ("other-shape", "expected uint32 or uint64"),
            ("truncated", "expected"),
            ("trailing", "trailing bytes"),
        ],
    )
    def test_malformed_key_is_refused_and_the_connection_mints_on(
        self, served, case, message
    ):
        from repro.net.transport import RemoteCallError

        factory, schemes, enc_keys, server = served
        uploads = {
            name: bytes(wire.encode_encrypted_key(key))
            for name, key in enc_keys.items()
        }
        uploads["url"] = self._malformed(case, uploads["url"], schemes["url"])
        with pytest.raises(RemoteCallError) as info:
            server.mint(self._request(uploads))
        assert "'url'" in str(info.value)
        assert message in str(info.value)
        body = server.mint(wire.encode_mint_request(enc_keys))
        _assert_same_token(
            wire.decode_token_payload(body), factory.mint(enc_keys)
        )
        assert server.connects == 1
