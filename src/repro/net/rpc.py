"""The RPC layer with honest on-the-wire byte accounting.

The client and services exchange *serialized* messages through
:class:`RpcChannel`: every call encodes its request, hands the bytes
to a :class:`~repro.net.transport.Transport` (loopback by default, a
real socket in a deployment), decodes the serialized response, and
logs both sizes (plus framing) into the caller's
:class:`~repro.net.transport.TrafficLog`.  The traffic numbers the
evaluation reports are therefore lengths of real encodings, not
estimates.

The channel never touches a service object directly -- all request
bytes cross the transport seam (enforced by the ``net-dispatch`` lint
rule), which is what lets the same client code run in-process or
against ``python -m repro serve`` over TCP.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

from repro.net.transport import Transport, TrafficLog
from repro.obs import runtime as obs

_FRAME = struct.Struct("<16sI")

#: Hard cap on encoded method names; the frame header is fixed-width.
MAX_METHOD_BYTES = 16


def frame(method: str, payload) -> bytes:
    """Length-prefixed message framing: [method:16][len:4][payload].

    ``payload`` is any bytes-like object, copied once behind the
    header.  Method names longer than the 16-byte header field are
    rejected rather than truncated: silent truncation made two long
    names alias to the same handler on dispatch.
    """
    name = method.encode()
    if len(name) > MAX_METHOD_BYTES:
        raise ValueError(
            f"method name {method!r} encodes to {len(name)} bytes;"
            f" the frame header holds at most {MAX_METHOD_BYTES}"
        )
    return _FRAME.pack(name.ljust(MAX_METHOD_BYTES, b"\0"), len(payload)) + payload


def unframe(blob) -> tuple[str, memoryview]:
    """Parse one frame; the blob must be exactly header + payload.

    The payload comes back as a ``memoryview`` slice of ``blob``, never
    a copy.  Rejects both truncation (payload shorter than declared)
    and trailing garbage (payload longer than declared): a frame that
    round-trips is byte-identical to what ``frame`` produced.
    """
    view = memoryview(blob).cast("B")
    if len(view) < _FRAME.size:
        raise ValueError("truncated RPC frame")
    name, length = _FRAME.unpack_from(view)
    payload = view[_FRAME.size :]
    if len(payload) < length:
        raise ValueError("truncated RPC frame")
    if len(payload) > length:
        raise ValueError(
            f"RPC frame carries {len(payload) - length} trailing bytes"
            " beyond the declared payload length"
        )
    return name.rstrip(b"\0").decode(), payload


@dataclass
class ServiceEndpoint:
    """One service: a dispatch table of method -> handler(payload)->bytes.

    A handler gets its request payload as a ``memoryview``
    (:func:`unframe`): a slice of the buffer the request arrived in.
    """

    name: str
    handlers: dict[str, Callable[[memoryview], bytes]] = field(
        default_factory=dict
    )

    def register(
        self, method: str, handler: Callable[[memoryview], bytes]
    ) -> None:
        if method in self.handlers:
            raise ValueError(f"method {method!r} already registered")
        self.handlers[method] = handler

    def dispatch(self, request) -> bytes:
        method, payload = unframe(request)
        handler = self.handlers.get(method)
        if handler is None:
            raise KeyError(f"{self.name}: no such method {method!r}")
        with obs.span(
            "rpc.dispatch",
            service=self.name,
            method=method,
            request_bytes=len(request),
        ) as sp:
            response = frame(method, handler(payload))
            if sp is not None:
                sp.set(response_bytes=len(response))
        return response


@dataclass
class RpcChannel:
    """Client-side channel: serializes, transports, and counts bytes.

    ``call`` addresses services by *name*; the bound transport decides
    what that name means (an in-process endpoint for loopback, a TCP
    listener for sockets).  ``timeout`` is the per-call deadline in
    seconds, forwarded to transports that support one.
    """

    log: TrafficLog
    transport: Transport

    def call(
        self,
        service: str,
        phase: str,
        method: str,
        payload,
        timeout: float | None = None,
    ) -> memoryview:
        """Frame ``payload`` (bytes-like), send it and return the
        response body: a ``memoryview`` of the received frame."""
        request = frame(method, payload)
        with obs.span(
            "rpc.call", service=service, phase=phase, method=method
        ) as sp:
            self.log.record(phase, "up", len(request))
            response = self.transport.request(
                service, request, timeout=timeout
            )
            self.log.record(phase, "down", len(response))
            if sp is not None:
                sp.set(bytes_up=len(request), bytes_down=len(response))
            obs.count("rpc.calls")
            obs.count("rpc.bytes_up", len(request))
            obs.count("rpc.bytes_down", len(response))
        got_method, body = unframe(response)
        if got_method != method:
            raise ValueError(
                f"response method {got_method!r} does not match {method!r}"
            )
        return body


FRAME_BYTES = _FRAME.size
