"""The global on/off switch and its no-op fast path, the span tree of
a served search, plus the report."""

import json
import time

import numpy as np
import pytest

from repro.obs import (
    TRACE_SCHEMA,
    ManualClock,
    MetricsRegistry,
    Tracer,
    dump_trace,
    render_report,
)
from repro.obs import runtime as obs


class TestDisabled:
    def test_disabled_is_the_default(self):
        assert not obs.enabled()
        assert obs.tracer() is None and obs.metrics() is None

    def test_span_is_a_noop_yielding_none(self):
        with obs.span("anything", rows=3) as sp:
            assert sp is None

    def test_noop_span_object_is_shared(self):
        # The disabled fast path allocates nothing per call.
        assert obs.span("a") is obs.span("b")

    def test_kernel_timer_counters_and_histograms_are_noops(self):
        with obs.kernel_timer("lwe.matmul"):
            pass
        obs.observe("h", 1.0)
        obs.count("c")
        assert obs.current_span() is None

    def test_noop_span_does_not_swallow_exceptions(self):
        with pytest.raises(KeyError):
            with obs.span("x"):
                raise KeyError("boom")


    def test_noop_instrumentation_overhead_is_under_5_percent(self):
        """Disabled obs costs < 5 % on the ranking scan kernel.

        Compares ``modular.matmul`` (which carries the kernel-timer call
        site) against the raw ``a @ b`` it wraps.  Each round times the
        two back to back, alternating which goes first, and the median
        of the per-round ratios is the estimate: host load drifts
        between rounds, not within one.  The disabled fast path is one
        module-global read plus one branch.
        """
        from repro.lwe import modular

        assert not obs.enabled()
        rng = np.random.default_rng(11)
        a = rng.integers(0, 2**63, size=(2000, 4096), dtype=np.uint64)
        v = rng.integers(0, 2**63, size=4096, dtype=np.uint64)

        def raw():
            with np.errstate(over="ignore"):
                return a @ v

        def wrapped():
            return modular.matmul(a, v, 64)

        def seconds(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        raw()  # warm caches / BLAS init
        ratios = []
        for i in range(21):
            if i % 2:
                w = seconds(wrapped)
                r = seconds(raw)
            else:
                r = seconds(raw)
                w = seconds(wrapped)
            ratios.append(w / r)
        overhead = float(np.median(ratios)) - 1.0
        assert overhead < 0.05, f"no-op overhead {overhead * 100:+.2f}%"


class TestEnabled:
    def test_enable_returns_live_tracer_and_registry(self):
        tracer, registry = obs.enable(clock=ManualClock())
        assert obs.enabled()
        assert obs.tracer() is tracer and obs.metrics() is registry

    def test_spans_flow_to_the_enabled_tracer(self):
        tracer, _ = obs.enable(clock=ManualClock())
        with obs.span("root") as root:
            assert obs.current_span() is root
            with obs.span("inner", n=2) as inner:
                assert inner.attrs == {"n": 2}
        assert tracer.last_trace() is root

    def test_metrics_flow_to_the_enabled_registry(self):
        _, registry = obs.enable(clock=ManualClock())
        obs.count("queries", 3)
        obs.observe("lat", 0.5)
        with obs.kernel_timer("ntt.forward"):
            pass
        assert registry.counter("queries").value == 3
        assert registry.histogram("lat").count == 1
        assert "kernel.ntt.forward" in registry.names()

    def test_enable_accepts_prebuilt_instances(self):
        clock = ManualClock()
        mine = Tracer(clock=clock)
        reg = MetricsRegistry(clock=clock)
        tracer, registry = obs.enable(tracer=mine, metrics=reg)
        assert tracer is mine and registry is reg

    def test_disable_restores_the_noop_path(self):
        obs.enable(clock=ManualClock())
        obs.disable()
        assert not obs.enabled()
        with obs.span("x") as sp:
            assert sp is None

    def test_traced_decorator_names_and_wraps(self):
        tracer, _ = obs.enable(clock=ManualClock())

        @obs.traced("my.op")
        def compute(x):
            """docstring survives"""
            return x + 1

        assert compute(1) == 2
        assert compute.__doc__ == "docstring survives"
        assert tracer.last_trace().name == "my.op"

    def test_traced_decorator_defaults_to_qualname(self):
        tracer, _ = obs.enable(clock=ManualClock())

        @obs.traced()
        def helper():
            return None

        helper()
        assert "helper" in tracer.last_trace().name


class TestServedSearchTrace:
    def test_search_yields_the_full_span_tree(self, engine, tmp_path):
        """A traced search is the paper's Figure-2 data path: token
        acquisition, embedding, the ranking scan (``ranking.answer`` is a
        leaf: the kernel runs directly under it, timed into the
        ``kernel.lwe.matmul`` histogram), then URL PIR."""
        tracer, registry = obs.enable()
        engine.search("private search", np.random.default_rng(9))
        root = tracer.last_trace()
        obs.disable()
        assert root is not None and root.name == "client.search"
        assert root.child_names() == ["token", "embed", "ranking", "url"]
        (answer,) = root.find("ranking.answer")
        assert answer.children == [] and "workers" not in answer.attrs
        snap = registry.snapshot()
        assert snap["histograms"]["kernel.lwe.matmul"]["count"] > 0
        doc = json.loads(dump_trace(root, tmp_path / "trace.json").read_text())
        assert doc["schema"] == TRACE_SCHEMA


class TestRenderReport:
    def test_report_renders_all_sections(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        registry = MetricsRegistry(clock=clock)
        with tracer.span("client.search"):
            clock.advance(0.25)
            with tracer.span("ranking", workers=2):
                clock.advance(0.5)
        registry.counter("rpc.calls").inc(4)
        registry.gauge("workers.alive").set(4)
        registry.histogram("kernel.lwe.matmul").observe(0.001)
        text = render_report(metrics=registry, trace=tracer.last_trace())
        assert "client.search" in text
        assert "ranking" in text and "workers=2" in text
        assert "kernel.lwe.matmul" in text
        assert "rpc.calls" in text
        assert "workers.alive" in text

    def test_report_with_nothing_enabled(self):
        assert isinstance(render_report(), str)
