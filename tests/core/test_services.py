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
        enc_keys["url"] = EncryptedKey(z_b=good.z_b[:1], a_seed=good.a_seed)
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
            lambda hint: CompressedHint(chunks=hint.chunks, rows=5000)
        )
        with pytest.raises(ValueError, match="service 'url'.*5000 rows"):
            self._mint(engine, edit)

    def test_oversized_residue_rejected(self, engine):
        from repro.homenc.double import CompressedHint
        from repro.rlwe.bfv import BfvCiphertext

        def change(hint):
            first = hint.chunks[0]
            a = first.a.copy()
            a[0, 0] = 1 << 40
            chunk = BfvCiphertext(b=first.b, a=a)
            return CompressedHint(
                chunks=(chunk,) + hint.chunks[1:], rows=hint.rows
            )

        with pytest.raises(ValueError, match="service 'url'.*outside"):
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
