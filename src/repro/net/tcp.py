"""TCP transport and server: length-prefixed frames with request IDs.

The wire format wraps every RPC message (already framed by
:func:`repro.net.rpc.frame`) in one fixed-width socket header::

    [request_id: u64][service: 16s][status: u8][length: u32][payload]

* ``request_id`` matches a response to its request.  After a timeout
  the client retries with a *new* id, so a late or duplicated response
  to the old attempt is recognized and discarded -- duplicate
  responses can never be mistaken for the answer to a fresh request.
* ``service`` routes the frame to one registered service (same
  fixed-width convention as RPC method names).
* ``status`` is 0 for success; 1 marks a server-side handler error
  whose payload is a UTF-8 message (not retryable: the request arrived
  intact, so resending the same bytes would fail the same way).
* ``length`` is validated against :data:`MAX_FRAME_PAYLOAD` before any
  allocation, and the payload buffer's pages are committed only as
  bytes arrive, so a corrupt header cannot pin an absurd buffer.

:class:`SocketTransport` is the client side (per-call deadlines,
stale-response rejection); :class:`ServerRunner` binds any set of
:class:`~repro.net.service.Service` objects to a listener with a
worker-thread pool and a built-in ``_meta``/``health`` endpoint.
Retry policy is layered on top by
:class:`~repro.net.transport.RetryingTransport` (see
:func:`connect_transport`); a retry resends byte-identical ciphertext,
so the traffic shape stays query-independent.
"""

from __future__ import annotations

import itertools
import json
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

import numpy as np

from repro.net.rpc import ServiceEndpoint
from repro.net.service import Service
from repro.net.transport import (
    RemoteCallError,
    RetryingTransport,
    RetryPolicy,
    Transport,
    TransportConnectionLost,
    TransportError,
    TransportTimeout,
)
from repro.obs import runtime as obs
from repro.obs.clock import MONOTONIC, Clock

_SOCK_HEADER = struct.Struct("<Q16sBI")

#: Fixed socket framing overhead per message.
SOCKET_FRAME_BYTES = _SOCK_HEADER.size

#: Hard cap on one frame's payload; headers declaring more are corrupt.
MAX_FRAME_PAYLOAD = 1 << 30

#: Wire-visible service names share the RPC method-name width limit.
MAX_SERVICE_BYTES = 16

STATUS_OK = 0
STATUS_ERROR = 1


def _pack_service(service: str) -> bytes:
    name = service.encode()
    if len(name) > MAX_SERVICE_BYTES:
        raise ValueError(
            f"service name {service!r} encodes to {len(name)} bytes;"
            f" the frame header holds at most {MAX_SERVICE_BYTES}"
        )
    return name.ljust(MAX_SERVICE_BYTES, b"\0")


class FrameConnection:
    """Blocking framed I/O over one socket (or socket-like object).

    Translates OS-level failures into transport errors: a read/write
    timeout raises :class:`TransportTimeout`; a reset or half-closed
    connection raises :class:`TransportConnectionLost`.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock

    @classmethod
    def open(
        cls, host: str, port: int, timeout: float | None = None
    ) -> "FrameConnection":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise TransportConnectionLost(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    def send_frame(
        self, request_id: int, service: str, status: int, payload
    ) -> None:
        """Send one frame: header and ``payload`` (any bytes-like)
        scatter-gather, never concatenated.

        The socket's timeout bounds the whole frame, as it bounds one
        ``sendall``: whatever one ``sendmsg`` leaves unsent goes out
        under what is left of that deadline, not under a fresh one.
        """
        if len(payload) > MAX_FRAME_PAYLOAD:
            raise ValueError("frame payload exceeds the protocol maximum")
        header = _SOCK_HEADER.pack(
            request_id, _pack_service(service), status, len(payload)
        )
        try:
            self._send_parts(header, payload)
        except socket.timeout as exc:
            raise TransportTimeout("send timed out") from exc
        except (ConnectionError, BrokenPipeError, OSError) as exc:
            raise TransportConnectionLost(f"send failed: {exc}") from exc

    def _send_parts(self, header: bytes, payload) -> None:
        sock = self._sock
        timeout = sock.gettimeout()
        started = time.monotonic()
        sent = sock.sendmsg([header, payload])
        if sent == len(header) + len(payload):
            return
        try:
            for part in (memoryview(header), memoryview(payload)):
                if sent >= len(part):
                    sent -= len(part)
                    continue
                if timeout is not None:
                    left = timeout - (time.monotonic() - started)
                    if left <= 0:
                        raise socket.timeout("send deadline elapsed")
                    sock.settimeout(left)
                sock.sendall(part[sent:])
                sent = 0
        finally:
            sock.settimeout(timeout)

    def _recv_into(self, buf: memoryview) -> None:
        pos = 0
        while pos < len(buf):
            try:
                got = self._sock.recv_into(buf[pos:])
            except socket.timeout as exc:
                raise TransportTimeout("receive timed out") from exc
            except (ConnectionError, OSError) as exc:
                raise TransportConnectionLost(
                    f"receive failed: {exc}"
                ) from exc
            if not got:
                raise TransportConnectionLost("connection closed by peer")
            pos += got

    def recv_frame(
        self, timeout: float | None = None
    ) -> tuple[int, str, int, memoryview]:
        """One (request_id, service, status, payload) frame.

        The payload is received in place into one buffer and handed
        back as a read-only ``memoryview`` of it.  The buffer is
        ``np.empty``: the OS commits its pages only as bytes arrive, so
        a header that declares a large payload and then stalls or
        closes pins no memory.
        """
        self._sock.settimeout(timeout)
        header = bytearray(_SOCK_HEADER.size)
        self._recv_into(memoryview(header))
        request_id, service, status, length = _SOCK_HEADER.unpack(header)
        if length > MAX_FRAME_PAYLOAD:
            raise TransportError(
                f"frame declares {length} payload bytes, maximum is"
                f" {MAX_FRAME_PAYLOAD}"
            )
        payload = memoryview(np.empty(length, dtype=np.uint8))
        self._recv_into(payload)
        return (
            request_id,
            service.rstrip(b"\0").decode(),
            status,
            payload.toreadonly(),
        )

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # already gone; closing is best-effort
            pass


class SocketTransport:
    """Client side of the TCP transport.

    One connection, one in-flight request at a time (the Tiptoe client
    is sequential within a query; callers needing concurrency open one
    transport per thread).  Each call gets a fresh request id and a
    deadline; responses bearing any other id -- duplicates, or answers
    to attempts that already timed out -- are discarded, never
    returned.  ``connect`` is injectable so the fault-injection tests
    can substitute a scripted connection for a real socket.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 5.0,
        connect: Callable[[], FrameConnection] | None = None,
        clock: Clock | None = None,
    ):
        if timeout <= 0:
            raise ValueError("default timeout must be positive")
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connect = connect or (
            lambda: FrameConnection.open(host, port, timeout)
        )
        self._clock = clock if clock is not None else MONOTONIC
        self._conn: FrameConnection | None = None  # guarded-by: _lock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # requires-lock: _lock
    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def request(
        self, service: str, request: bytes, *, timeout: float | None = None
    ) -> bytes:
        budget = timeout if timeout is not None else self.timeout
        if budget <= 0:
            raise ValueError("per-call timeout must be positive")
        with self._lock:
            deadline = self._clock() + budget
            if self._conn is None:
                self._conn = self._connect()
            conn = self._conn
            request_id = next(self._ids)
            try:
                # tiptoe-lint: disable=lock-blocking-call -- by design: one in-flight request per transport; the lock IS the serialization, and send/recv are deadline-bounded
                conn.send_frame(request_id, service, STATUS_OK, request)
                while True:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        raise TransportTimeout(
                            f"deadline of {budget:.3f}s elapsed waiting for"
                            f" service {service!r}"
                        )
                    # tiptoe-lint: disable=lock-blocking-call -- by design: the receive wait is bounded by the remaining per-call deadline
                    got_id, _, status, payload = conn.recv_frame(remaining)
                    if got_id != request_id:
                        # A duplicate, or the answer to an attempt that
                        # already timed out: reject by request id.
                        obs.count("rpc.stale_responses")
                        continue
                    if status != STATUS_OK:
                        raise RemoteCallError(
                            str(payload, "utf-8", errors="replace")
                        )
                    return payload
            except RemoteCallError:
                # A complete, well-formed error frame: the stream is
                # still aligned on a frame boundary, so the connection
                # stays usable for the next request.
                raise
            except TransportError:
                # Anything else -- a timeout that may have struck
                # mid-frame in ``_recv_into``, a corrupt length field,
                # a reset -- can leave partial header/payload bytes in
                # the stream.  Reusing the connection would misparse
                # those leftovers as the next frame header, so drop it;
                # the next request reconnects cleanly.
                self._drop_connection()
                raise

    def close(self) -> None:
        with self._lock:
            self._drop_connection()


def connect_transport(
    host: str,
    port: int,
    *,
    timeout: float = 5.0,
    policy: RetryPolicy | None = None,
) -> RetryingTransport:
    """A ready-to-use client transport: sockets under a retry policy."""
    return RetryingTransport(
        SocketTransport(host, port, timeout=timeout), policy=policy
    )


class PooledSocketTransport:
    """Concurrent requests to one upstream over a bounded pool.

    :class:`SocketTransport` is deliberately one-in-flight-per-
    connection (the lock *is* the request/response serialization), so a
    caller with many concurrent requests to the same upstream -- the
    fleet router, fanning a whole front door's traffic onto each worker
    -- multiplexes across a pool of them instead: a request checks an
    idle transport out, opening a new one when none is idle and the
    pool is under ``max_connections``, and blocks for a free slot at
    the cap.  A transport that saw any desync-capable error has already
    dropped its connection, but it is discarded from the pool anyway so
    the slot count stays an honest bound on open sockets.

    ``transport_factory`` is injectable for tests (scripted
    connections instead of real sockets).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 5.0,
        max_connections: int = 8,
        transport_factory: Callable[[], Transport] | None = None,
    ):
        if max_connections < 1:
            raise ValueError("pool needs at least one connection")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_connections = max_connections
        self._factory = transport_factory or (
            lambda: SocketTransport(host, port, timeout=timeout)
        )
        self._lock = threading.Lock()
        self._free = threading.Condition(self._lock)
        self._idle: list[Transport] = []  # guarded-by: _lock
        self._total = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def _checkout(self) -> Transport:
        with self._free:
            while True:
                if self._closed:
                    raise TransportError("transport pool is closed")
                if self._idle:
                    return self._idle.pop()
                if self._total < self.max_connections:
                    self._total += 1
                    break
                # tiptoe-lint: disable=lock-blocking-call -- bounded wait for a pool slot; holders never take this lock while blocked on I/O
                if not self._free.wait(self.timeout):
                    raise TransportTimeout(
                        f"no pool slot freed within {self.timeout:.3f}s"
                        f" ({self.max_connections} connections busy)"
                    )
        # The handshake happens outside the lock, on first request.
        return self._factory()

    def _checkin(self, transport: Transport) -> None:
        with self._free:
            if not self._closed:
                self._idle.append(transport)
                self._free.notify()
                return
            self._total -= 1
        transport.close()

    def _discard(self, transport: Transport) -> None:
        with self._free:
            self._total -= 1
            self._free.notify()
        transport.close()

    @property
    def open_connections(self) -> int:
        with self._lock:
            return self._total

    def request(
        self, service: str, request: bytes, *, timeout: float | None = None
    ) -> bytes:
        transport = self._checkout()
        try:
            response = transport.request(service, request, timeout=timeout)
        except RemoteCallError:
            # The exchange completed; the connection is still good.
            self._checkin(transport)
            raise
        except BaseException:
            self._discard(transport)
            raise
        self._checkin(transport)
        return response

    def close(self) -> None:
        with self._free:
            self._closed = True
            idle, self._idle = self._idle, []
            self._total -= len(idle)
            self._free.notify_all()
        for transport in idle:
            transport.close()


class ServerRunner:
    """Binds a set of services to one TCP listener with a worker pool.

    The runner owns the services' lifecycle: ``start`` opens them and
    begins accepting, ``close`` stops the listener, drains the workers,
    and closes the services.  Each accepted connection is handled by
    one pool worker that loops frames until the peer disconnects, so a
    deployment is ``ServerRunner(build_services(index)).start()`` --
    which is exactly what ``python -m repro serve`` runs.

    A built-in ``_meta`` service exposes ``health`` returning the JSON
    of every service's :meth:`~repro.net.service.Service.health`.
    """

    def __init__(
        self,
        services: Iterable[Service],
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        fallback: Callable[[str, bytes], bytes] | None = None,
    ):
        #: Handler for service names with no registered endpoint --
        #: how the fleet router front-door intercepts worker-bound
        #: traffic (incl. ``@generation``-tagged names that can never
        #: be statically registered).  Exceptions become error frames.
        self._fallback = fallback
        self._services: dict[str, Service] = {}
        for service in services:
            name = service.service_name
            if name in self._services:
                raise ValueError(f"duplicate service name {name!r}")
            _pack_service(name)  # validate width up front
            self._services[name] = service
        if not self._services:
            raise ValueError("a server needs at least one service")
        self._endpoints = {
            name: service.endpoint
            for name, service in self._services.items()
        }
        self._endpoints["_meta"] = self._build_meta_endpoint()
        self.host = host
        self._requested_port = port
        self._listener: socket.socket | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._max_workers = max_workers

    def _build_meta_endpoint(self) -> ServiceEndpoint:
        endpoint = ServiceEndpoint("_meta")
        endpoint.register("health", self._handle_health)
        return endpoint

    def _handle_health(self, payload: memoryview) -> bytes:
        # Per-service isolation: one service whose health() raises must
        # not take down the whole endpoint -- the fleet router keys its
        # failover decisions on this report, so a half-sick worker has
        # to stay distinguishable from a dead one.
        report = {}
        for name, service in self._services.items():
            try:
                report[name] = service.health()
            except Exception as exc:
                report[name] = {
                    "service": name,
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
        return json.dumps(report, sort_keys=True).encode()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "ServerRunner":
        if self._listener is not None:
            return self
        opened: list[Service] = []
        listener: socket.socket | None = None
        try:
            for service in self._services.values():
                service.open()
                opened.append(service)
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self._requested_port))
            listener.listen()
        except Exception:
            # ``bind`` on an occupied port (or any service failing to
            # open) must not leak the services opened so far -- their
            # pools and refill workers would outlive the failed start.
            if listener is not None:
                listener.close()
            for service in opened:
                service.close()
            raise
        listener.settimeout(0.2)  # lets the accept loop see _stop
        self._listener = listener
        self._stop.clear()
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_workers,
            thread_name_prefix="repro-serve",
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        # ``close()`` nulls self._listener and self._pool from another
        # thread; re-reading either attribute mid-loop could raise
        # AttributeError and kill this (daemon, hence silent) thread.
        # Capture both locally at entry -- the listener stays valid to
        # accept on until its close() wakes us with an OSError.
        listener, pool = self._listener, self._pool
        while not self._stop.is_set():
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed during shutdown
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                pool.submit(self._serve_connection, FrameConnection(sock))
            except RuntimeError:  # pool shut down during close()
                sock.close()
                return

    def _serve_connection(self, conn: FrameConnection) -> None:
        try:
            while not self._stop.is_set():
                try:
                    request_id, service, _, payload = conn.recv_frame(
                        timeout=0.2
                    )
                except TransportTimeout:
                    continue  # idle; re-check the stop flag
                except (TransportConnectionLost, TransportError):
                    return
                obs.count("server.requests")
                status, response = self._dispatch(service, payload)
                try:
                    conn.send_frame(request_id, service, status, response)
                except TransportError:
                    return
        finally:
            conn.close()

    def _dispatch(self, service: str, payload: bytes) -> tuple[int, bytes]:
        endpoint = self._endpoints.get(service)
        if endpoint is None:
            if self._fallback is not None:
                try:
                    return STATUS_OK, self._fallback(service, payload)
                except Exception as exc:
                    obs.count("server.errors")
                    return (
                        STATUS_ERROR,
                        f"{type(exc).__name__}: {exc}".encode(),
                    )
            obs.count("server.errors")
            return STATUS_ERROR, f"no such service {service!r}".encode()
        try:
            return STATUS_OK, endpoint.dispatch(payload)
        except Exception as exc:  # handler errors become status frames
            obs.count("server.errors")
            return STATUS_ERROR, f"{type(exc).__name__}: {exc}".encode()

    def serve_forever(self) -> None:
        """Block until :meth:`close` is called (or the thread is
        interrupted); the accept loop runs in the background."""
        self.start()
        self._stop.wait()

    def close(self) -> None:
        """Stop accepting, drain workers, close every service."""
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for service in self._services.values():
            service.close()

    def __enter__(self) -> "ServerRunner":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
