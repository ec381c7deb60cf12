"""Fault injection: a flaky transport that drops, delays, and
duplicates responses, and proof that the retry layer rides it out
without changing a single result bit."""

import numpy as np
import pytest

from repro import TiptoeEngine
from repro.net.rpc import frame, unframe
from repro.net.tcp import STATUS_OK, SocketTransport
from repro.net.transport import (
    LoopbackTransport,
    RetryPolicy,
    RetryingTransport,
    TransportConnectionLost,
    TransportExhausted,
    TransportTimeout,
)

DROP = "drop"  # response never arrives -> timeout
LOST = "lost"  # connection dies mid-call
OK = "ok"


class FlakyTransport:
    """Wraps a real transport; misbehaves per a scripted fault plan.

    ``faults`` is consumed one entry per request; once exhausted every
    call succeeds.  The wrapped transport still *serves* dropped
    requests (the server did the work; only the response is lost),
    mirroring how a real network failure interleaves with retries.
    """

    def __init__(self, inner, faults=()):
        self.inner = inner
        self.faults = list(faults)
        self.calls = 0

    def request(self, service, request, *, timeout=None):
        self.calls += 1
        fault = self.faults.pop(0) if self.faults else OK
        response = self.inner.request(service, request, timeout=timeout)
        if fault == DROP:
            raise TransportTimeout("injected: response dropped")
        if fault == LOST:
            raise TransportConnectionLost("injected: connection reset")
        return response

    def close(self):
        self.inner.close()


def flaky_engine(engine, faults, sleeps=None):
    """A remote-mode engine whose transport is the session engine's
    loopback wrapped in the fault injector + retry layer."""
    inner = LoopbackTransport(
        {name: svc.endpoint for name, svc in engine.services.items()}
    )
    transport = RetryingTransport(
        FlakyTransport(inner, faults),
        RetryPolicy(max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.1),
        sleep=(sleeps.append if sleeps is not None else lambda s: None),
    )
    return TiptoeEngine(engine.index, transport=transport)


class TestRetriesUnderFaults:
    def test_search_survives_drops_and_resets(self, engine):
        remote = flaky_engine(engine, [DROP, LOST, OK, DROP])
        result = remote.search("alpha beta", rng=np.random.default_rng(7))
        assert result.results  # it completed despite 3 injected faults

    def test_results_bit_identical_to_clean_loopback(self, engine):
        """Retries resend the same ciphertext, so a flaky network must
        not perturb scores, ranks, or traffic *payloads*."""
        text = "gamma delta epsilon"
        clean = engine.search(text, rng=np.random.default_rng(99))
        remote = flaky_engine(engine, [OK, DROP, DROP, LOST])
        flaky = remote.search(text, rng=np.random.default_rng(99))
        assert flaky.cluster == clean.cluster
        assert [r.position for r in flaky.results] == [
            r.position for r in clean.results
        ]
        np.testing.assert_array_equal(
            np.array([r.score for r in flaky.results]),
            np.array([r.score for r in clean.results]),
        )
        assert [r.url for r in flaky.results] == [
            r.url for r in clean.results
        ]

    def test_backoff_grows_between_attempts(self, engine):
        sleeps = []
        remote = flaky_engine(engine, [DROP, DROP], sleeps=sleeps)
        remote.search("zeta", rng=np.random.default_rng(3))
        assert len(sleeps) >= 2
        assert sleeps[1] > sleeps[0]

    def test_retries_are_bounded(self, engine):
        remote = flaky_engine(engine, [DROP] * 50)
        with pytest.raises(TransportExhausted, match="4 attempts"):
            remote.search("eta theta", rng=np.random.default_rng(5))
        flaky = remote.transport.inner
        assert flaky.calls <= 4  # the first failing call, retried 3x


class DuplicatingConnection:
    """Delivers every response twice, the duplicate first -- as a
    resend-happy network would after the client already moved on."""

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.queue = []
        self.last = None

    def send_frame(self, request_id, service, status, payload):
        response = self.endpoint.dispatch(payload)
        if self.last is not None:
            self.queue.append(self.last)  # stale duplicate of prior reply
        self.queue.append((request_id, service, STATUS_OK, response))
        self.last = (request_id, service, STATUS_OK, response)

    def recv_frame(self, timeout=None):
        return self.queue.pop(0)

    def close(self):
        pass


class TestDuplicateDelivery:
    def test_duplicated_responses_never_cross_requests(self):
        from repro.net.rpc import ServiceEndpoint

        calls = []

        def record(payload):
            calls.append(payload)
            return bytes(payload) + b"!"

        ep = ServiceEndpoint("svc")
        ep.register("m", record)
        conn = DuplicatingConnection(ep)
        transport = SocketTransport(connect=lambda: conn)
        for i in range(4):
            body = f"req-{i}".encode()
            response = transport.request("svc", frame("m", body))
            assert unframe(response) == ("m", body + b"!")
        assert calls == [b"req-0", b"req-1", b"req-2", b"req-3"]
