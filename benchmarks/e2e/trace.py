"""The trace pass: step-wise drivers, in-memory spans, the layer budget.

End-to-end numbers come from the real ``TiptoeClient.search``.  For the
per-layer numbers each workload is driven again through the step-wise
operations below, which make the same public calls one by one with a
span around each -- the layers are measured from outside, nothing under
``src/`` is instrumented.  Spans stay in memory until the pass is over.
A layer's self time is its span minus its child spans; the mean self
times add up to the mean operation, the part no layer span covers is
the budget's residual, and the traced median latency against the
untraced one is the tracing overhead.
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from benchmarks.e2e.oracle import search_matches
from benchmarks.e2e.workloads import (
    HOST,
    Driver,
    ReplayEngine,
    batch_matches,
    build_batches,
    close_drivers,
)
from repro.core.client import ScoredResult, SearchResult
from repro.core.engine import TiptoeEngine
from repro.core.ranking import RankingAnswer, RankingQuery
from repro.homenc.token import QueryToken, make_client_keys
from repro.lwe.backends import backend_available
from repro.lwe.regev import Ciphertext
from repro.net import wire
from repro.net.rpc import RpcChannel, frame
from repro.net.transport import TrafficLog
from repro.pir.simplepir import PirAnswer
from repro.rlwe.ntt import ntt_context

PHASES = ("token", "embed", "ranking", "url", "")
KERNEL_BACKENDS = ("reference", "cnative", "multiprocess")
#: Raw spans of this many operations per client go into the trace file;
#: every operation goes into the aggregates.
RAW_OPS_KEPT = 8


class Span:
    """One timed interval; a context manager that files itself on exit."""

    __slots__ = ("tracer", "name", "phase", "op", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, phase: str):
        self.tracer, self.name, self.phase = tracer, name, phase

    def __enter__(self) -> "Span":
        stack = self.tracer.stack
        self.op = self.tracer.ops
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter_ns()
        self.tracer.stack.pop()
        self.tracer.spans.append(self)
        return False

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """The spans of one client thread (no sharing, so no locks)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.ops = 0

    def span(self, name: str, phase: str = "") -> Span:
        return Span(self, name, phase)

    def op(self) -> Span:
        """The root span of the next operation."""
        self.ops += 1
        return Span(self, "op", "")


# -- step-wise operations (same signature as workloads.OPS) ------------------


def _traced_mint(driver: Driver) -> QueryToken:
    """``TiptoeEngine.mint_token``, one public call per span."""
    tr, engine = driver.tracer, driver.engine
    schemes = {
        "ranking": engine.index.ranking_scheme,
        "url": engine.index.url_scheme,
    }
    with tr.span("client.keygen", "token"):
        keys, enc_keys, _ = make_client_keys(schemes, driver.client.rng)
    with tr.span("wire.encode", "token"):
        payload = wire.encode_mint_request(enc_keys)
    log = TrafficLog()
    with tr.span("rpc.token", "token"):
        body = RpcChannel(log, engine.transport).call(
            "token", "token", "mint", payload
        )
    with tr.span("wire.decode", "token"):
        minted = wire.decode_token_payload(body)
    with tr.span("client.hint_decrypt", "token"):
        hint_products = {
            name: schemes[name].decrypt_hint_product(
                keys[name], minted.hints[name]
            )
            for name in schemes
        }
    return QueryToken(
        keys=keys,
        hint_products=hint_products,
        upload_bytes=log.bytes_up("token"),
        download_bytes=log.bytes_down("token"),
    )


def _traced_search(
    driver: Driver, text: str, token: QueryToken, traffic: TrafficLog
) -> SearchResult:
    """``TiptoeClient.search`` after the token step, one call per span."""
    tr, client = driver.tracer, driver.client
    engine, meta = client.engine, client.metadata
    keys, hint_products = token.consume()
    with tr.span("client.embed", "embed"):
        vec, quantized = client.embed_query(text)
        cluster = int(np.argmax(meta.centroids @ vec))
    channel = RpcChannel(traffic, engine.transport)
    with tr.span("client.rank_encrypt", "ranking"):
        rank_query = client.ranking.build_query(
            keys["ranking"], quantized, cluster, client.rng
        )
    with tr.span("wire.encode", "ranking"):
        payload = wire.encode_ciphertext(rank_query.ciphertext)
    with tr.span("rpc.ranking", "ranking"):
        body = channel.call("ranking", "ranking", "answer", payload)
    with tr.span("wire.decode", "ranking"):
        values, q_bits = wire.decode_answer(body)
    with tr.span("client.rank_decrypt", "ranking"):
        scores = client.ranking.decode_scores(
            keys["ranking"],
            RankingAnswer(values=values, bytes_per_element=q_bits // 8),
            hint_products["ranking"],
        )
        scores = scores[: int(meta.cluster_sizes[cluster])]
        order = np.argsort(-scores, kind="stable")
        top_rows = [int(r) for r in order[: meta.results_per_query]]
    offset = int(meta.cluster_offsets[cluster])
    with tr.span("client.url_encrypt", "url"):
        best = engine.storage_position(offset + top_rows[0])
        url_query = client.url_client.build_query(
            keys["url"], client.url_client.batch_of_position(best), client.rng
        )
    with tr.span("wire.encode", "url"):
        payload = wire.encode_ciphertext(url_query.ciphertext)
    with tr.span("rpc.url", "url"):
        body = channel.call("url", "url", "answer", payload)
    with tr.span("wire.decode", "url"):
        values, q_bits = wire.decode_answer(body)
    with tr.span("client.url_recover", "url"):
        batch_urls = client.url_client.recover_batch(
            keys["url"],
            PirAnswer(values=values, bytes_per_element=q_bits // 8),
            hint_products["url"],
        )
    results = [
        ScoredResult(
            position=offset + row,
            cluster=cluster,
            row=row,
            score=int(scores[row]),
            url=batch_urls.get(engine.storage_position(offset + row)) or None,
        )
        for row in top_rows
    ]
    return SearchResult(
        query=text, cluster=cluster, results=results, traffic=traffic,
        perceived_latency=0.0, token_latency=0.0,
    )


def traced_full(driver: Driver) -> tuple[float, bool, int]:
    text, expected = driver.next_query()
    traffic = TrafficLog()
    with driver.tracer.op() as root:
        token = _traced_mint(driver)
        traffic.record("token", "up", token.upload_bytes)
        traffic.record("token", "down", token.download_bytes)
        result = _traced_search(driver, text, token, traffic)
    driver.traffic_of_full = traffic
    return root.seconds, search_matches(expected, result), traffic.total_bytes()


def traced_search(driver: Driver) -> tuple[float, bool, int]:
    text, expected = driver.next_query()
    traffic = TrafficLog()
    with driver.tracer.op() as root:
        token = driver.engine.mint_token()  # replayed: no token phase
        result = _traced_search(driver, text, token, traffic)
    return root.seconds, search_matches(expected, result), traffic.total_bytes()


def traced_batch16(driver: Driver) -> tuple[float, bool, int]:
    batch, tr = driver.next_batch(), driver.tracer
    traffic = TrafficLog()
    with tr.op() as root:
        with tr.span("wire.encode", "ranking"):
            payload = wire.encode_batch(batch.queries)
        with tr.span("rpc.batch16", "ranking"):
            body = RpcChannel(traffic, driver.engine.transport).call(
                "ranking", "ranking", "answer_batch", payload
            )
        with tr.span("wire.decode", "ranking"):
            stacked, q_bits = wire.decode_batch_answer(body)
        with tr.span("client.rank_decrypt", "ranking"):
            ok = batch_matches(driver.client, batch, stacked, q_bits)
    return root.seconds, ok, traffic.total_bytes()


TRACED_OPS = {
    "full": traced_full, "search": traced_search, "batch16": traced_batch16
}


# -- aggregation ---------------------------------------------------------------


def aggregate(tracers: list[Tracer]) -> dict:
    """Fold the spans of every traced operation into per-layer figures.

    ``rows`` is the budget: the *mean* self time per operation of each
    (phase, layer), because means add up -- the rows plus the root's own
    self time (``unattributed``) are exactly the mean operation.
    ``by_name_ms`` is the *median* per operation of each layer's summed
    span time, which is what the per-layer metrics report.  Failed
    operations leave spans too; they are few or none, and the
    correctness verdict is reported separately.
    """
    self_ms: dict = defaultdict(float)
    per_op_name: dict = defaultdict(lambda: defaultdict(float))
    total_ms = unattributed_ms = 0.0
    ops = 0
    for t, tracer in enumerate(tracers):
        child_ns: dict = defaultdict(int)
        for span in tracer.spans:
            if span.parent is not None:
                child_ns[id(span.parent)] += span.end - span.start
        for span in tracer.spans:
            duration = span.end - span.start
            own_ms = (duration - child_ns[id(span)]) / 1e6
            if span.parent is None:
                ops += 1
                total_ms += duration / 1e6
                unattributed_ms += own_ms
            else:
                self_ms[(span.phase, span.name)] += own_ms
                per_op_name[(t, span.op)][span.name] += duration / 1e6
    ops = max(ops, 1)
    names = {name for op in per_op_name.values() for name in op}
    return {
        "rows": [
            (phase, name, self_ms[(phase, name)] / ops)
            for phase, name in sorted(
                self_ms, key=lambda pl: (PHASES.index(pl[0]), pl[1])
            )
        ],
        "unattributed_ms": unattributed_ms / ops,
        "total_ms": total_ms / ops,
        "by_name_ms": {
            name: statistics.median(
                [op.get(name, 0.0) for op in per_op_name.values()]
            )
            for name in names
        },
        "ops": ops,
    }


def latency_tail(latencies_s: list[float]) -> tuple[float, float]:
    """(percentile, its value in ms): the highest standard percentile
    with at least ten samples beyond it; the median if there is none."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    if n == 0:
        return 50.0, 0.0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, ordered[int(n * pct / 100.0)] * 1e3
    return 50.0, statistics.median(ordered) * 1e3


def raw_spans(tracers: list[Tracer]) -> list[dict]:
    """The first few operations of every client, span by span."""
    out = []
    for t, tracer in enumerate(tracers):
        ids = {id(span): i for i, span in enumerate(tracer.spans)}
        for span in tracer.spans:
            if span.op > RAW_OPS_KEPT:
                break
            out.append(
                {
                    "client": t,
                    "op": span.op,
                    "id": ids[id(span)],
                    "parent": ids.get(id(span.parent)),
                    "name": span.name,
                    "phase": span.phase,
                    "start_ns": span.start,
                    "end_ns": span.end,
                }
            )
    return out


# -- the layer probe suite -------------------------------------------------------

PROBE_FULL_OPS = 5
PROBE_BATCH_OPS = 10


def _median_ms(fn, reps: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def _probe_in_path(probe: Driver, metrics: dict) -> Counter:
    """Full queries and 16-query batches, step by step, on an idle server.

    Every workload's trace pass runs this same suite on its own
    deployment, so each layer has a measured unit cost on every workload
    -- also the layers the workload's own operation never enters.
    """
    failures: Counter = Counter()
    by_name: dict = {}
    for op, reps, warmup in (
        (traced_full, PROBE_FULL_OPS, 1),
        (traced_batch16, PROBE_BATCH_OPS, 2),
    ):
        probe.tracer = Tracer()  # warm-up spans, discarded
        for _ in range(warmup):
            op(probe)
        probe.tracer = Tracer()
        for _ in range(reps):
            _, ok, _ = op(probe)
            failures["attempted"] += 1
            failures["failed"] += not ok
        for name, ms in aggregate([probe.tracer])["by_name_ms"].items():
            by_name.setdefault(name, ms)
    for name in (
        "client.keygen", "client.hint_decrypt", "client.embed",
        "client.rank_encrypt", "client.rank_decrypt", "client.url_encrypt",
        "client.url_recover", "wire.encode", "wire.decode",
        "rpc.token", "rpc.ranking", "rpc.url", "rpc.batch16",
    ):
        metrics[f"{name}_ms"] = by_name[name]
    return failures


def _probe_direct(index, probe: Driver, rng, metrics: dict) -> None:
    """Single layers timed in-process on a loopback engine over the
    same artifact: ranking and URL answers, every kernel backend, the
    token mint and one forward NTT."""
    query = probe.batches[0].queries
    one = RankingQuery(
        ciphertext=Ciphertext(c=query.stacked[:, 0].copy(), params=query.params)
    )
    url_query = probe.client.url_client.build_query(
        probe.engine.replay[0].keys["url"], 0, rng
    )
    configured = index.config
    try:
        for backend in (None,) + KERNEL_BACKENDS:
            if backend is not None:
                index.config = configured.with_(kernel_backend=backend)
            with TiptoeEngine(index) as engine:
                ranking = engine.ranking_service
                q1 = _median_ms(lambda: ranking.answer(one), 30)
                q16 = _median_ms(lambda: ranking.answer_stacked(query), 10)
                if backend is not None:
                    metrics[f"kernel.{backend}.q1_ms"] = q1
                    metrics[f"kernel.{backend}.q16_ms"] = q16
                    continue
                # The configuration the servers run (no --kernel-backend).
                metrics["ranking.answer_direct_ms"] = q1
                metrics["ranking.answer_batch16_direct_ms"] = q16
                metrics["ranking.gemm_words_per_s"] = (
                    index.layout.matrix.size * query.size / (q16 / 1e3)
                )
                metrics["url.answer_direct_ms"] = _median_ms(
                    lambda: engine.url_service.answer(url_query), 30
                )
    finally:
        index.config = configured

    schemes = {"ranking": index.ranking_scheme, "url": index.url_scheme}
    _, enc_keys, _ = make_client_keys(schemes, rng)
    metrics["token.mint_direct_ms"] = _median_ms(
        lambda: index.token_factory.mint(enc_keys), 3, warmup=1
    )
    outer = index.ranking_scheme.params.outer_params()
    context = ntt_context(outer.n, outer.primes[0])
    poly = rng.integers(0, outer.primes[0], size=outer.n, dtype=np.uint64)
    metrics["token.ntt_forward_us"] = (
        _median_ms(lambda: context.forward(poly), 200) * 1e3
    )


def probe_layers(index, drivers: list[Driver], port: int, seed: int):
    """Run the probe suite; returns (metrics, attempted, failed)."""
    rng = np.random.default_rng([seed, 0xD1EC7])
    metrics: dict = {}
    engine = ReplayEngine.connect(index, HOST, port)
    engine.load_tokens(2, rng)
    probe = Driver(
        engine=engine, client=engine.new_client(rng),
        queries=drivers[0].queries,
    )
    try:
        probe.batches = build_batches(probe, 2)
        counts = _probe_in_path(probe, metrics)
        for phase, (up, down) in probe.traffic_of_full.phase_summary().items():
            metrics[f"wire.up_bytes.{phase}"] = up
            metrics[f"wire.down_bytes.{phase}"] = down
        health = frame("health", b"")
        metrics["rpc.echo_ms"] = _median_ms(
            lambda: engine.transport.request("_meta", health), 50
        )
        _probe_direct(index, probe, rng, metrics)
    finally:
        close_drivers([probe])
    metrics["rpc.overhead_ms"] = (
        metrics["rpc.ranking_ms"] - metrics["ranking.answer_direct_ms"]
    )
    return metrics, counts["attempted"], counts["failed"]


def unavailable_backends() -> list[str]:
    """Kernel backends this host cannot really run (listed, not timed)."""
    missing = [b for b in KERNEL_BACKENDS if not backend_available(b)]
    if importlib.util.find_spec("numba") is None:
        missing.append("numba")  # registered, but delegates to reference
    return missing


# -- the budget table ------------------------------------------------------------


def budget_table(title: str, agg: dict) -> tuple[list[str], float]:
    """The printed Table-7-shaped budget, and the share of the mean
    operation that no layer span covers (the budget's residual)."""
    total = agg["total_ms"] or 1.0
    lines = [title, f"{'phase':8s} {'layer':24s} {'self_ms':>10s} {'share':>7s}"]
    rows = agg["rows"] + [("", "(unattributed)", agg["unattributed_ms"])]
    for phase, name, own_ms in rows:
        lines.append(f"{phase:8s} {name:24s} {own_ms:10.3f} {own_ms / total:7.1%}")
    lines.append(f"{'':8s} {'operation (mean)':24s} {agg['total_ms']:10.3f}")
    by_phase: dict = defaultdict(float)
    for phase, _, own_ms in agg["rows"]:
        by_phase[phase] += own_ms
    lines.append(
        "by phase: "
        + ", ".join(
            f"{phase} {by_phase[phase] / total:.1%}"
            for phase in PHASES
            if phase in by_phase
        )
    )
    return lines, agg["unattributed_ms"] / total
