"""The transport seam: loopback, retry policy, service lifecycle,
and the thread-safety of the traffic log."""

import threading

import pytest

from repro.net.rpc import RpcChannel, ServiceEndpoint, frame, unframe
from repro.net.service import Service
from repro.net.transport import (
    LoopbackTransport,
    RetryPolicy,
    RetryingTransport,
    RemoteCallError,
    TrafficLog,
    Transport,
    TransportError,
    TransportExhausted,
    TransportTimeout,
)


def echo_endpoint(name="echo"):
    ep = ServiceEndpoint(name)
    ep.register("upper", lambda b: bytes(b).upper())
    return ep


class TestLoopback:
    def test_routes_by_service_name(self):
        transport = LoopbackTransport({"echo": echo_endpoint()})
        response = transport.request("echo", frame("upper", b"hi"))
        assert unframe(response) == ("upper", b"HI")

    def test_unknown_service_raises(self):
        transport = LoopbackTransport({"echo": echo_endpoint()})
        with pytest.raises(TransportError, match="no such service"):
            transport.request("nope", b"")

    def test_satisfies_the_protocol(self):
        assert isinstance(LoopbackTransport({}), Transport)

    def test_is_bit_identical_to_direct_dispatch(self):
        ep = echo_endpoint()
        transport = LoopbackTransport({"echo": ep})
        request = frame("upper", b"payload")
        assert transport.request("echo", request) == ep.dispatch(request)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(
            max_attempts=6,
            base_backoff_s=0.1,
            backoff_multiplier=2.0,
            max_backoff_s=0.5,
        )
        waits = [policy.backoff(k) for k in range(4)]
        assert waits == [0.1, 0.2, 0.4, 0.5]  # capped at max_backoff_s

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(-1)


class FailNTimes:
    """A transport that fails transiently N times, then succeeds."""

    def __init__(self, failures, exc=TransportTimeout):
        self.failures = failures
        self.exc = exc
        self.attempts = 0

    def request(self, service, request, *, timeout=None):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise self.exc("transient")
        return frame("m", b"ok")

    def close(self):
        pass


class TestRetryingTransport:
    def test_retries_then_succeeds(self):
        inner = FailNTimes(2)
        sleeps = []
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=3), sleep=sleeps.append
        )
        assert transport.request("svc", b"req") == frame("m", b"ok")
        assert inner.attempts == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # backoff grew

    def test_attempts_are_bounded(self):
        inner = FailNTimes(100)
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=3), sleep=lambda s: None
        )
        with pytest.raises(TransportExhausted, match="3 attempts"):
            transport.request("svc", b"req")
        assert inner.attempts == 3

    def test_application_errors_are_not_retried(self):
        inner = FailNTimes(100, exc=RemoteCallError)
        transport = RetryingTransport(
            inner, RetryPolicy(max_attempts=5), sleep=lambda s: None
        )
        with pytest.raises(RemoteCallError):
            transport.request("svc", b"req")
        assert inner.attempts == 1


class TestServiceLifecycle:
    def test_endpoint_is_built_lazily_and_cached(self):
        class Echo(Service):
            service_name = "echo"
            built = 0

            def register_endpoint(self, endpoint):
                type(self).built += 1
                endpoint.register("upper", lambda b: bytes(b).upper())

        service = Echo()
        assert service.endpoint is service.endpoint
        assert Echo.built == 1
        assert service.endpoint.name == "echo"

    def test_default_health_and_context_manager(self):
        class Noop(Service):
            service_name = "noop"

            def register_endpoint(self, endpoint):
                pass

        with Noop() as service:
            assert service.health() == {"service": "noop", "status": "ok"}

    def test_register_endpoint_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Service().endpoint


class TestChannelTimeoutForwarding:
    def test_timeout_reaches_the_transport(self):
        seen = {}

        class Probe:
            def request(self, service, request, *, timeout=None):
                seen["timeout"] = timeout
                return frame("m", b"")

            def close(self):
                pass

        channel = RpcChannel(TrafficLog(), Probe())
        channel.call("svc", "phase", "m", b"", timeout=1.25)
        assert seen["timeout"] == 1.25


class TestTrafficLogThreadSafety:
    def test_concurrent_records_are_all_kept(self):
        log = TrafficLog()
        per_thread, num_threads = 200, 8

        def hammer():
            for _ in range(per_thread):
                log.record("ranking", "up", 3)
                log.record("ranking", "down", 5)

        threads = [
            threading.Thread(target=hammer) for _ in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = per_thread * num_threads
        assert log.bytes_up("ranking") == 3 * total
        assert log.bytes_down("ranking") == 5 * total
        assert len(log.message_sizes("ranking", "up")) == total

    def test_reads_during_writes_do_not_crash(self):
        log = TrafficLog()
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                log.record("p", "up", 1)

        def reader():
            try:
                while not stop.is_set():
                    log.total_bytes()
                    log.phases()
                    log.phase_summary()
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        stop_timer = threading.Timer(0.2, stop.set)
        stop_timer.start()
        for t in threads:
            t.join(timeout=5.0)
        stop_timer.cancel()
        assert not errors
