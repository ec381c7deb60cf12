"""Process-global observability state -- off by default, cheap when off.

The serving stack calls the module-level helpers here (:func:`span`,
:func:`kernel_timer`, :func:`observe`, :func:`count`) instead of
holding tracer/registry references.  When observability is disabled
(the default) every helper returns a shared no-op object or returns
immediately: the cost is one global read and one branch, which keeps
the instrumented ranking scan within the <5% no-op overhead budget
(gated by ``tests/obs/test_runtime.py``).

Enable around a region of interest::

    from repro.obs import runtime as obs

    tracer, registry = obs.enable()
    try:
        ...  # run queries
        trace = tracer.last_trace()
    finally:
        obs.disable()
"""

from __future__ import annotations

import functools

from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, Tracer


class _NoopContext:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopContext()

_tracer: Tracer | None = None
_metrics: MetricsRegistry | None = None


def enable(
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    clock: Clock | None = None,
) -> tuple[Tracer, MetricsRegistry]:
    """Activate tracing and metrics (idempotent; replaces prior state)."""
    global _tracer, _metrics
    _tracer = tracer if tracer is not None else Tracer(clock=clock)
    _metrics = metrics if metrics is not None else MetricsRegistry(clock=clock)
    return _tracer, _metrics


def disable() -> None:
    """Back to the zero-instrumentation default."""
    global _tracer, _metrics
    _tracer = None
    _metrics = None


def enabled() -> bool:
    return _tracer is not None


def tracer() -> Tracer | None:
    return _tracer


def metrics() -> MetricsRegistry | None:
    return _metrics


def span(name: str, parent: Span | None = None, **attrs):
    """A span context manager on the active tracer, or a no-op.

    The body receives the :class:`Span` (``with obs.span(...) as sp``)
    when enabled and ``None`` when disabled -- guard attribute writes
    with ``if sp is not None``.
    """
    t = _tracer
    if t is None:
        return _NOOP
    return t.span(name, parent=parent, **attrs)


def current_span() -> Span | None:
    """The calling thread's innermost open span (None when disabled)."""
    t = _tracer
    return t.current() if t is not None else None


def kernel_timer(name: str):
    """Time a crypto kernel into ``kernel.<name>`` (no-op when off)."""
    m = _metrics
    if m is None:
        return _NOOP
    return m.timer(f"kernel.{name}")


def observe(name: str, value: float) -> None:
    """Record one sample into a histogram (no-op when off)."""
    m = _metrics
    if m is not None:
        m.histogram(name).observe(value)


def count(name: str, n: int = 1) -> None:
    """Bump a counter (no-op when off)."""
    m = _metrics
    if m is not None:
        m.counter(name).inc(n)


def gauge(name: str, value: float) -> None:
    """Set a gauge to its current value (no-op when off)."""
    m = _metrics
    if m is not None:
        m.gauge(name).set(value)


def traced(name: str | None = None):
    """Decorator form of :func:`span` for whole functions."""

    def decorate(fn):
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
