"""The socket plane: framing, deadlines, duplicate rejection, and the
server runner, over both real sockets and scripted connections."""

import socket
import struct
import threading
import time

import pytest

from repro.net.rpc import ServiceEndpoint, frame, unframe
from repro.net.service import Service
from repro.net.tcp import (
    MAX_FRAME_PAYLOAD,
    STATUS_ERROR,
    STATUS_OK,
    FrameConnection,
    PooledSocketTransport,
    ServerRunner,
    SocketTransport,
    connect_transport,
)
from repro.net.transport import (
    RemoteCallError,
    TransportConnectionLost,
    TransportError,
    TransportTimeout,
)
from repro.obs.clock import ManualClock


class EchoService(Service):
    service_name = "echo"

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("upper", lambda b: bytes(b).upper())
        endpoint.register("boom", self._boom)

    def _boom(self, payload: bytes) -> bytes:
        raise ValueError("handler exploded")


@pytest.fixture()
def server():
    runner = ServerRunner([EchoService()], port=0)
    runner.start()
    yield runner
    runner.close()


class ByteSocket:
    """A socket double: ``sendmsg`` records what was sent, ``recv_into``
    delivers a single byte of ``incoming`` per call and then
    end-of-stream."""

    def __init__(self, incoming=b""):
        self.incoming = incoming
        self.wire = bytearray()
        self.recv_calls = 0

    def sendmsg(self, buffers):
        sent = 0
        for data in buffers:
            self.wire += data
            sent += len(data)
        return sent

    def recv_into(self, buf):
        self.recv_calls += 1
        chunk, self.incoming = self.incoming[:1], self.incoming[1:]
        buf[: len(chunk)] = chunk
        return len(chunk)

    def gettimeout(self):
        return None

    def settimeout(self, timeout):
        pass

    def close(self):
        pass


class RssProbeSocket(ByteSocket):
    """A :class:`ByteSocket` that samples the process's resident set
    size at the moment it reports end-of-stream."""

    def __init__(self, incoming):
        super().__init__(incoming)
        self.rss_at_close = None

    def recv_into(self, buf):
        if not self.incoming:
            self.rss_at_close = _vm_rss_mib()
        return super().recv_into(buf)


def _vm_rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line in /proc/self/status")


class TestFrameConnection:
    def test_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        a, b = FrameConnection(left), FrameConnection(right)
        a.send_frame(7, "echo", STATUS_OK, b"payload")
        rid, service, status, payload = b.recv_frame(timeout=2.0)
        assert (rid, service, status, payload) == (7, "echo", 0, b"payload")
        a.close()
        b.close()

    def test_peer_close_is_connection_lost(self):
        left, right = socket.socketpair()
        left.close()
        with pytest.raises(TransportConnectionLost):
            FrameConnection(right).recv_frame(timeout=2.0)

    def test_absurd_declared_length_is_rejected(self):
        left, right = socket.socketpair()
        import struct

        header = struct.Struct("<Q16sBI").pack(
            1, b"echo".ljust(16, b"\0"), 0, MAX_FRAME_PAYLOAD + 1
        )
        left.sendall(header)
        with pytest.raises(TransportError, match="maximum"):
            FrameConnection(right).recv_frame(timeout=2.0)

    def test_declared_length_is_not_committed_up_front(self):
        """A header declaring 512 MiB, then a close: the receive buffer
        pins no memory while it waits (``bytearray(1 << 30)`` would
        commit all of it)."""
        header = struct.Struct("<Q16sBI").pack(
            1, b"echo".ljust(16, b"\0"), 0, 512 << 20
        )
        sock = RssProbeSocket(header)
        before = _vm_rss_mib()
        with pytest.raises(TransportConnectionLost, match="closed by peer"):
            FrameConnection(sock).recv_frame(timeout=2.0)
        assert sock.rss_at_close is not None
        assert sock.rss_at_close - before < 64

    def test_send_deadline_covers_the_whole_frame(self):
        """A peer that never reads: a 32 MiB send times out once, within
        a few multiples of the socket's timeout."""
        left, right = socket.socketpair()
        left.settimeout(0.5)
        started = time.monotonic()
        with pytest.raises(TransportTimeout):
            FrameConnection(left).send_frame(
                1, "token", STATUS_OK, bytes(32 << 20)
            )
        assert time.monotonic() - started < 3 * 0.5
        left.close()
        right.close()

    def test_send_deadline_is_not_renewed_by_partial_sends(self):
        """A peer that drains slowly keeps every partial send moving;
        the frame still times out on one deadline, not one per send."""
        left, right = socket.socketpair()
        left.settimeout(0.5)
        stop = threading.Event()

        def trickle():
            while not stop.is_set():
                try:
                    right.recv(64 << 10)
                except OSError:
                    return
                time.sleep(0.02)

        reader = threading.Thread(target=trickle, daemon=True)
        reader.start()
        started = time.monotonic()
        try:
            with pytest.raises(TransportTimeout):
                FrameConnection(left).send_frame(
                    1, "token", STATUS_OK, bytes(32 << 20)
                )
            assert time.monotonic() - started < 3 * 0.5
        finally:
            stop.set()
            left.close()
            reader.join(timeout=5.0)
            right.close()

    def test_one_byte_per_recv_reassembles_byte_identically(self):
        payload = bytes(range(256)) * 41
        sender = ByteSocket()
        FrameConnection(sender).send_frame(9, "token", STATUS_OK, payload)
        receiver = ByteSocket(bytes(sender.wire))
        rid, service, status, got = FrameConnection(receiver).recv_frame(1.0)
        assert (rid, service, status) == (9, "token", STATUS_OK)
        assert got == payload
        assert receiver.recv_calls > len(payload)  # one byte at a time

    def test_empty_payload_round_trips(self):
        sender = ByteSocket()
        FrameConnection(sender).send_frame(3, "echo", STATUS_OK, b"")
        receiver = ByteSocket(bytes(sender.wire))
        assert FrameConnection(receiver).recv_frame(1.0) == (
            3, "echo", STATUS_OK, b""
        )

    def test_peer_closing_mid_frame_is_connection_lost(self):
        sender = ByteSocket()
        FrameConnection(sender).send_frame(1, "echo", STATUS_OK, b"x" * 100)
        cut = ByteSocket(bytes(sender.wire[:-40]))
        with pytest.raises(TransportConnectionLost, match="closed by peer"):
            FrameConnection(cut).recv_frame(1.0)

    def test_large_frame_over_a_socketpair(self):
        left, right = socket.socketpair()
        payload = bytearray(b"\xab" * (3 << 20))
        sent = threading.Thread(
            target=FrameConnection(left).send_frame,
            args=(5, "token", STATUS_OK, payload),
        )
        sent.start()
        try:
            _, _, _, got = FrameConnection(right).recv_frame(timeout=10.0)
        finally:
            sent.join(timeout=10.0)
        assert not sent.is_alive()
        assert got == payload
        left.close()
        right.close()

    def test_oversized_service_name_rejected_on_send(self):
        left, _ = socket.socketpair()
        with pytest.raises(ValueError, match="16"):
            FrameConnection(left).send_frame(1, "x" * 17, STATUS_OK, b"")


class TestSocketTransportAgainstServer:
    def test_request_response(self, server):
        host, port = server.address
        transport = SocketTransport(host, port, timeout=5.0)
        response = transport.request("echo", frame("upper", b"abc"))
        assert unframe(response) == ("upper", b"ABC")
        transport.close()

    def test_handler_error_becomes_remote_call_error(self, server):
        host, port = server.address
        transport = SocketTransport(host, port, timeout=5.0)
        with pytest.raises(RemoteCallError, match="handler exploded"):
            transport.request("echo", frame("boom", b""))
        transport.close()

    def test_unknown_service_is_a_remote_error(self, server):
        host, port = server.address
        transport = SocketTransport(host, port, timeout=5.0)
        with pytest.raises(RemoteCallError, match="no such service"):
            transport.request("nope", frame("m", b""))
        transport.close()

    def test_meta_health_reports_every_service(self, server):
        import json

        host, port = server.address
        transport = SocketTransport(host, port, timeout=5.0)
        response = transport.request("_meta", frame("health", b""))
        _, body = unframe(response)
        report = json.loads(bytes(body))
        assert report["echo"]["status"] == "ok"
        transport.close()

    def test_connect_transport_layers_retry(self, server):
        host, port = server.address
        transport = connect_transport(host, port, timeout=5.0)
        response = transport.request("echo", frame("upper", b"zz"))
        assert unframe(response) == ("upper", b"ZZ")
        transport.close()

    def test_sequential_requests_reuse_the_connection(self, server):
        host, port = server.address
        transport = SocketTransport(host, port, timeout=5.0)
        for i in range(5):
            payload = f"msg{i}".encode()
            response = transport.request("echo", frame("upper", payload))
            assert unframe(response) == ("upper", payload.upper())
        transport.close()


class FakeConnection:
    """A scripted FrameConnection double.

    ``script`` maps each incoming request id (in send order, 0-based)
    to the list of frames to enqueue when that request is sent; each
    entry is (rid_offset, status, payload) where the response's id is
    the request's id plus the offset (0 = correct reply).
    """

    def __init__(self, script):
        self.script = script
        self.sent = []
        self.queue = []

    def send_frame(self, request_id, service, status, payload):
        self.sent.append((request_id, service, payload))
        for rid_offset, st, body in self.script.get(len(self.sent) - 1, []):
            self.queue.append((request_id + rid_offset, service, st, body))

    def recv_frame(self, timeout=None):
        if not self.queue:
            raise TransportTimeout("scripted: nothing left to receive")
        return self.queue.pop(0)

    def close(self):
        pass


class TestDuplicateRejection:
    def test_stale_then_fresh_response_resolves_correctly(self):
        ok = frame("m", b"fresh")
        conn = FakeConnection(
            {0: [(-1, STATUS_OK, b"stale"), (0, STATUS_OK, ok)]}
        )
        transport = SocketTransport(connect=lambda: conn)
        assert transport.request("svc", b"req") == ok

    def test_duplicate_responses_are_skipped_not_returned(self):
        ok = frame("m", b"answer")
        conn = FakeConnection(
            {
                0: [
                    (-3, STATUS_OK, b"dup-a"),
                    (-3, STATUS_OK, b"dup-a-again"),
                    (0, STATUS_OK, ok),
                ]
            }
        )
        transport = SocketTransport(connect=lambda: conn)
        assert transport.request("svc", b"req") == ok

    def test_only_stale_responses_times_out(self):
        conn = FakeConnection({0: [(-1, STATUS_OK, b"stale")]})
        transport = SocketTransport(connect=lambda: conn, timeout=5.0)
        with pytest.raises(TransportTimeout):
            transport.request("svc", b"req")

    def test_deadline_uses_the_injected_clock(self):
        clock = ManualClock()

        class SlowConn(FakeConnection):
            def recv_frame(self, timeout=None):
                clock.advance(10.0)  # simulate a stall
                return super().recv_frame(timeout)

        conn = SlowConn({0: [(-1, STATUS_OK, b"stale")] * 3})
        transport = SocketTransport(connect=lambda: conn, clock=clock)
        with pytest.raises(TransportTimeout, match="deadline"):
            transport.request("svc", b"req", timeout=15.0)

    def test_request_ids_increase_per_call(self):
        conn = FakeConnection(
            {i: [(0, STATUS_OK, frame("m", b"x"))] for i in range(3)}
        )
        transport = SocketTransport(connect=lambda: conn)
        for _ in range(3):
            transport.request("svc", b"req")
        rids = [rid for rid, _, _ in conn.sent]
        assert rids == sorted(rids) and len(set(rids)) == 3


class TestDesyncDrop:
    """A transport error that can leave partial bytes in the stream
    must drop the connection; reusing it would misparse the leftovers
    as the next frame header."""

    def test_timeout_mid_frame_drops_the_connection(self):
        connects = []

        class MidPayloadTimeout(FakeConnection):
            """Times out mid-payload: the header arrived but the
            payload stalled, leaving partial bytes in the stream.  If
            the transport wrongly reuses this connection, the next
            request misparses the leftovers."""

            def recv_frame(self, timeout=None):
                raise TransportTimeout("timed out mid-payload")

        def connect():
            if not connects:
                conn = MidPayloadTimeout({})
            else:
                conn = FakeConnection(
                    {0: [(0, STATUS_OK, frame("m", b"clean"))]}
                )
            connects.append(conn)
            return conn

        transport = SocketTransport(connect=connect, timeout=5.0)
        with pytest.raises(TransportTimeout):
            transport.request("svc", b"req")
        # The desynced connection must not be reused: the next request
        # opens a fresh one and completes cleanly.
        assert transport.request("svc", b"req2") == frame("m", b"clean")
        assert len(connects) == 2
        assert isinstance(connects[1], FakeConnection)

    def test_protocol_violation_drops_the_connection(self):
        connects = []

        class CorruptLength(FakeConnection):
            def recv_frame(self, timeout=None):
                raise TransportError("frame declares absurd length")

        def connect():
            if not connects:
                conn = CorruptLength({})
            else:
                conn = FakeConnection(
                    {0: [(0, STATUS_OK, frame("m", b"ok"))]}
                )
            connects.append(conn)
            return conn

        transport = SocketTransport(connect=connect, timeout=5.0)
        with pytest.raises(TransportError):
            transport.request("svc", b"req")
        assert transport.request("svc", b"req2") == frame("m", b"ok")
        assert len(connects) == 2

    def test_remote_call_error_keeps_the_connection(self):
        # An error *frame* is a complete, aligned exchange: no desync,
        # so the connection stays attached and is reused.
        connects = []

        def connect():
            conn = FakeConnection(
                {
                    0: [(0, STATUS_ERROR, b"handler exploded")],
                    1: [(0, STATUS_OK, frame("m", b"fine"))],
                }
            )
            connects.append(conn)
            return conn

        transport = SocketTransport(connect=connect, timeout=5.0)
        with pytest.raises(RemoteCallError):
            transport.request("svc", b"req")
        assert transport.request("svc", b"req2") == frame("m", b"fine")
        assert len(connects) == 1


class RecordingService(Service):
    service_name = "recorder"

    def __init__(self, name="recorder"):
        self.service_name = name
        self.opened = 0
        self.closed = 0

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("ping", lambda b: b)

    def open(self) -> None:
        self.opened += 1

    def close(self) -> None:
        self.closed += 1


class PoisonedHealthService(Service):
    service_name = "poisoned"

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("ping", lambda b: b)

    def health(self) -> dict:
        raise RuntimeError("health probe exploded")


class TestServerRunnerRaces:
    def test_accept_loop_survives_close_nulling_the_listener(self):
        # close() nulls self._listener / self._pool from another
        # thread; the accept loop must not re-read them mid-loop or a
        # badly timed close kills the (daemon, hence silent) thread.
        runner = ServerRunner([EchoService()], port=0).start()
        thread = runner._accept_thread
        listener, pool = runner._listener, runner._pool
        runner._listener = None
        runner._pool = None
        # Longer than the 0.2s accept timeout: the loop takes at least
        # one full iteration with the attributes nulled.
        time.sleep(0.6)
        alive_during_race = thread.is_alive()
        runner._listener, runner._pool = listener, pool
        try:
            assert alive_during_race
            # The runner still serves after the window.
            host, port = listener.getsockname()[:2]
            transport = SocketTransport(host, port, timeout=5.0)
            response = transport.request("echo", frame("upper", b"ok"))
            assert unframe(response) == ("upper", b"OK")
            transport.close()
        finally:
            runner.close()

    def test_concurrent_start_close_cycles_never_crash_accept(self):
        for _ in range(5):
            runner = ServerRunner([EchoService()], port=0).start()
            thread = runner._accept_thread
            closer = threading.Thread(target=runner.close)
            closer.start()
            closer.join(timeout=10.0)
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_start_failure_closes_already_opened_services(self):
        # Occupy a port, then ask the runner to bind it: bind() raises
        # and every service opened before the failure must be closed.
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        port = blocker.getsockname()[1]
        first = RecordingService("first")
        second = RecordingService("second")
        runner = ServerRunner([first, second], port=port)
        try:
            with pytest.raises(OSError):
                runner.start()
        finally:
            blocker.close()
        assert first.opened == 1 and first.closed == 1
        assert second.opened == 1 and second.closed == 1

    def test_failed_start_leaves_runner_restartable(self):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        port = blocker.getsockname()[1]
        service = RecordingService()
        runner = ServerRunner([service], port=port)
        with pytest.raises(OSError):
            runner.start()
        blocker.close()
        runner.start()
        assert runner.address[1] == port
        runner.close()


class TestHealthIsolation:
    def test_one_poisoned_service_does_not_kill_the_meta_endpoint(self):
        import json

        runner = ServerRunner(
            [EchoService(), PoisonedHealthService()], port=0
        ).start()
        try:
            host, port = runner.address
            transport = SocketTransport(host, port, timeout=5.0)
            response = transport.request("_meta", frame("health", b""))
            _, body = unframe(response)
            report = json.loads(bytes(body))
            assert report["echo"]["status"] == "ok"
            assert report["poisoned"]["status"] == "error"
            assert "health probe exploded" in report["poisoned"]["error"]
            transport.close()
        finally:
            runner.close()


class ScriptedPoolTransport:
    """A Transport double for pool tests: scripted responses/errors."""

    def __init__(self, outcomes, created):
        self.outcomes = outcomes
        self.created = created
        self.closed = False

    def request(self, service, request, *, timeout=None):
        outcome = self.outcomes.pop(0) if self.outcomes else b"default"
        if isinstance(outcome, BaseException):
            raise outcome
        if callable(outcome):
            return outcome()
        return outcome

    def close(self):
        self.closed = True


class TestPooledSocketTransport:
    def make_pool(self, outcomes_per_conn, **kwargs):
        created = []

        def factory():
            outcomes = (
                list(outcomes_per_conn[len(created)])
                if len(created) < len(outcomes_per_conn)
                else []
            )
            transport = ScriptedPoolTransport(outcomes, created)
            created.append(transport)
            return transport

        pool = PooledSocketTransport(
            transport_factory=factory, **kwargs
        )
        return pool, created

    def test_sequential_requests_reuse_one_connection(self):
        pool, created = self.make_pool([[b"a", b"b", b"c"]])
        assert pool.request("svc", b"r1") == b"a"
        assert pool.request("svc", b"r2") == b"b"
        assert pool.request("svc", b"r3") == b"c"
        assert len(created) == 1
        assert pool.open_connections == 1
        pool.close()
        assert created[0].closed

    def test_retryable_failure_discards_the_connection(self):
        pool, created = self.make_pool(
            [[TransportConnectionLost("reset")], [b"fresh"]]
        )
        with pytest.raises(TransportConnectionLost):
            pool.request("svc", b"r1")
        assert created[0].closed
        assert pool.open_connections == 0
        assert pool.request("svc", b"r2") == b"fresh"
        assert len(created) == 2
        pool.close()

    def test_remote_call_error_keeps_the_connection_pooled(self):
        pool, created = self.make_pool(
            [[RemoteCallError("handler"), b"after"]]
        )
        with pytest.raises(RemoteCallError):
            pool.request("svc", b"r1")
        assert not created[0].closed
        assert pool.request("svc", b"r2") == b"after"
        assert len(created) == 1
        pool.close()

    def test_cap_blocks_until_a_slot_frees(self):
        release = threading.Event()
        entered = threading.Event()

        def slow():
            entered.set()
            release.wait(10.0)
            return b"slow"

        pool, created = self.make_pool(
            [[slow, b"reused"]], max_connections=1, timeout=10.0
        )
        results = {}

        def first():
            results["first"] = pool.request("svc", b"r1")

        t = threading.Thread(target=first)
        t.start()
        entered.wait(10.0)
        # The cap is 1 and the only connection is busy: this request
        # parks until the first one checks its transport back in.
        t2 = threading.Thread(
            target=lambda: results.update(
                second=pool.request("svc", b"r2")
            )
        )
        t2.start()
        release.set()
        t.join(10.0)
        t2.join(10.0)
        assert results == {"first": b"slow", "second": b"reused"}
        assert len(created) == 1
        pool.close()

    def test_cap_wait_times_out(self):
        release = threading.Event()
        entered = threading.Event()

        def slow():
            entered.set()
            release.wait(10.0)
            return b"slow"

        pool, _ = self.make_pool(
            [[slow]], max_connections=1, timeout=0.1
        )
        t = threading.Thread(target=lambda: pool.request("svc", b"r1"))
        t.start()
        entered.wait(10.0)
        with pytest.raises(TransportTimeout, match="pool slot"):
            pool.request("svc", b"r2")
        release.set()
        t.join(10.0)
        pool.close()

    def test_closed_pool_rejects_requests(self):
        pool, _ = self.make_pool([[b"x"]])
        pool.close()
        with pytest.raises(TransportError, match="closed"):
            pool.request("svc", b"r")

    def test_concurrent_requests_share_the_pool_against_a_server(self):
        runner = ServerRunner([EchoService()], port=0).start()
        try:
            host, port = runner.address
            pool = PooledSocketTransport(
                host, port, timeout=5.0, max_connections=4
            )
            errors = []

            def worker(i):
                try:
                    payload = f"m{i}".encode()
                    response = pool.request(
                        "echo", frame("upper", payload)
                    )
                    assert unframe(response) == (
                        "upper",
                        payload.upper(),
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
            assert not errors
            assert pool.open_connections <= 4
            pool.close()
        finally:
            runner.close()


class TestServerRunner:
    def test_duplicate_service_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ServerRunner([EchoService(), EchoService()])

    def test_needs_at_least_one_service(self):
        with pytest.raises(ValueError, match="at least one"):
            ServerRunner([])

    def test_close_is_idempotent_and_reports_address_only_when_up(self):
        runner = ServerRunner([EchoService()], port=0)
        with pytest.raises(RuntimeError):
            runner.address
        runner.start()
        assert runner.address[1] > 0
        runner.close()
        runner.close()

    def test_context_manager(self):
        with ServerRunner([EchoService()], port=0) as runner:
            host, port = runner.address
            transport = SocketTransport(host, port, timeout=5.0)
            response = transport.request("echo", frame("upper", b"cm"))
            assert unframe(response) == ("upper", b"CM")
            transport.close()
