"""One workload, start to finish: write path, cold starts, timed windows.

Every workload runs the same skeleton and differs only in its recipe
(:mod:`benchmarks.e2e.spec`)::

    ingest base -> reindex the 2 % edit -> K x cold start on the new
    generation -> connect clients, mint token pools -> warm up ->
    timed window (untraced), and/or the trace pass

so every end-to-end metric is a real measurement on every workload.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import trace
from benchmarks.e2e.deploy import Server
from benchmarks.e2e.oracle import Oracle, search_matches
from benchmarks.e2e.env import ROOT, WORK
from benchmarks.e2e.spec import FIXTURES, WORKLOADS, Profile
from benchmarks.e2e.workloads import (
    HOST,
    OPS,
    Window,
    close_drivers,
    make_drivers,
    make_queries,
    run_window,
)
from repro.core.engine import TiptoeEngine
from repro.core.indexer import TiptoeIndex

#: Shares of ``--seconds`` the trace pass spends on its untraced
#: reference window and on its traced window.
TRACE_REFERENCE_SHARE = 0.4
TRACE_WINDOW_SHARE = 0.6


def _source_hash() -> str:
    """Identity of the code that builds artifacts (keys the digest memo)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for path in files + [Path(__file__).with_name("spec.py")]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _digests_repeat(fixture: str, docs: int, report: dict) -> bool:
    """Same recipe, same code => bit-identical artifacts on every run.

    The first run of a recipe in this checkout records the base and
    delta digests; every later run must reproduce them exactly.
    """
    memo_path = WORK / "digests.json"
    try:
        memo = json.loads(memo_path.read_text())
    except (OSError, ValueError):
        memo = {}
    key = f"{fixture}:{docs}:{_source_hash()}"
    mine = [report["base_digest"]] + report["delta_digests"]
    if key in memo:
        return memo[key] == mine
    memo[key] = mine
    memo_path.write_text(json.dumps(memo, indent=1, sort_keys=True))
    return True


def _build(fixture: str, docs: int, reindexes: int, root: Path) -> dict:
    """Run the write path in a child process; its JSON report."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e.buildjob",
            fixture, str(docs), str(reindexes), str(root),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_start(artifact: Path, run_dir: Path, fleet: bool, text: str, rng):
    """Spawn the server(s), load the index, connect, run the first search.

    Returns ``(server, index, seconds, load_seconds, result)``; the
    server is left running and is the caller's to stop.
    """
    started = time.perf_counter()
    server = Server(artifact, run_dir, fleet=fleet)
    server.start()
    try:
        load_started = time.perf_counter()
        index = TiptoeIndex.load(artifact)
        load_s = time.perf_counter() - load_started
        with TiptoeEngine.connect(index, HOST, server.port) as engine:
            result = engine.search(text, rng)
        seconds = time.perf_counter() - started
    except BaseException:
        server.stop()
        raise
    return server, index, seconds, load_s, result


def _e2e_metrics(setup: dict, window: Window, queries_per_op: int) -> dict:
    if not window.correct:
        raise RuntimeError(
            f"no operation succeeded in the timed window: {dict(window.failures)}"
        )
    queries = window.correct * queries_per_op
    report = setup["report"]
    return {
        "setup_s": setup["setup_s"],
        "latency_p50_ms": statistics.median(window.latencies_s) * 1e3,
        "queries_per_s": queries / window.wall_s,
        "server_core_s_per_query": sum(window.server_cpu_s.values()) / queries,
        "client_cpu_s_per_query": window.client_cpu_s / queries,
        "bytes_per_query": statistics.median(window.op_bytes.elements())
        / queries_per_op,
        "ingest_docs_per_s": report["docs"] / report["ingest_s"],
        "reindex_delta_s": statistics.median(report["reindex_delta_s"]),
        "cold_start_s": statistics.median(setup["cold_start_s"]),
        "ingest_peak_rss_mb": report["ingest_peak_rss_mb"],
    }


def _trace_pass(
    workload, drivers, server, index, seconds: float, seed: int, setup: dict
) -> dict:
    """Reference window, traced window, probe suite -> per-layer metrics."""
    reference = run_window(
        drivers, OPS[workload.op], seconds * TRACE_REFERENCE_SHARE, server,
        min_ops=2,
    )
    for driver in drivers:
        driver.tracer = trace.Tracer()
    traced = run_window(
        drivers, trace.TRACED_OPS[workload.op], seconds * TRACE_WINDOW_SHARE,
        server, min_ops=2,
    )
    tracers = [driver.tracer for driver in drivers]
    agg = trace.aggregate(tracers)
    title = (
        f"layer budget: {workload.name} -- mean self time per operation,"
        f" {agg['ops']} traced operations, {workload.clients} client(s)"
    )
    budget, residual = trace.budget_table(title, agg)

    metrics, probe_attempted, probe_failed = trace.probe_layers(
        index, drivers, server.port, seed
    )
    queries = max(1, traced.correct * workload.queries_per_op)
    cpu = traced.server_cpu_s
    workers = [s for name, s in cpu.items() if name != "router"]
    total_cpu = sum(cpu.values())
    metrics["server.cpu_ms_per_query"] = total_cpu / queries * 1e3
    # The process that owns the listening socket: the fleet router, or
    # the single ``serve`` (which is then all of the server).
    front = cpu.get("router", total_cpu)
    metrics["server.frontdoor_cpu_share"] = front / total_cpu if total_cpu else 0.0
    metrics["server.shard_cpu_imbalance"] = (
        max(workers) / statistics.mean(workers) if sum(workers) else 1.0
    )
    untraced_p50 = statistics.median(reference.latencies_s)
    traced_p50 = statistics.median(traced.latencies_s)
    tail_pct, tail_ms = trace.latency_tail(traced.latencies_s)
    metrics.update(
        {
            "driver.trace_overhead_frac": traced_p50 / untraced_p50 - 1.0,
            "driver.budget_residual_frac": residual,
            "driver.samples": traced.correct,
            "driver.latency_tail_ms": tail_ms,
            "driver.latency_tail_pct": tail_pct,
        }
    )
    report = setup["report"]
    for stage, stage_s in report["stage_s"].items():
        metrics[f"ingest.stage_s.{stage}"] = stage_s
    metrics.update(
        {
            "ingest.spool_bytes": report["spool_bytes"],
            "ingest.artifact_bytes": report["artifact_bytes"],
            "reindex.docs_reembedded": report["docs_reembedded"],
            "reindex.clusters_reencrypted": report["clusters_reencrypted"],
            "artifacts.load_s": statistics.median(setup["load_s"]),
        }
    )
    budget += [
        f"server CPU per query: {metrics['server.cpu_ms_per_query']:.3f} ms"
        f" ({', '.join(f'{n} {s / queries * 1e3:.3f}' for n, s in cpu.items())})",
        f"untraced reference p50 {untraced_p50 * 1e3:.3f} ms ->"
        f" trace overhead {metrics['driver.trace_overhead_frac']:+.1%}",
    ]
    return {
        "metrics": metrics,
        "attempted": reference.attempted + traced.attempted + probe_attempted,
        "failed": reference.failed + traced.failed + probe_failed,
        "failures": dict(reference.failures + traced.failures),
        "budget": budget,
        "trace_file": {
            "workload": workload.name,
            "seed": seed,
            "clients": workload.clients,
            "operations": agg["ops"],
            "operation_mean_ms": agg["total_ms"],
            "unattributed_mean_ms": agg["unattributed_ms"],
            "layers": [
                {"phase": phase, "layer": name, "mean_self_ms": ms}
                for phase, name, ms in agg["rows"]
            ],
            "unavailable_backends": trace.unavailable_backends(),
            "spans": trace.raw_spans(tracers),
        },
    }


def run_workload(
    name: str, profile: Profile, seed: int, seconds: float,
    *, e2e: bool, traced: bool, work: Path, say,
) -> dict:
    """Set up, measure and tear down one workload; see the module doc."""
    workload = WORKLOADS[name]
    fixture = FIXTURES[workload.fixture]
    docs = profile.docs[workload.fixture]
    root = work / name
    rng = np.random.default_rng([seed, 0xC01D])

    say(f"{name}: ingest + reindex of {docs} docs ({fixture.name})")
    started = time.perf_counter()
    report = _build(fixture.name, docs, profile.reindexes, root)
    build_wall_s = time.perf_counter() - started
    digests_ok = _digests_repeat(fixture.name, docs, report)

    newest = root / f"delta{profile.reindexes - 1}"
    texts = make_queries(
        fixture, docs, seed, workload.clients * profile.queries_per_client
    )
    cold_s, load_s, cold_failed = [], [], 0
    server = None
    try:
        for attempt in range(profile.cold_starts):
            if server is not None:
                server.stop()
            server, index, seconds_taken, loaded_s, first = cold_start(
                newest, root / f"run{attempt}", workload.fleet, texts[0], rng
            )
            oracle = Oracle(index)
            cold_failed += not search_matches(oracle.expect(texts[0]), first)
            cold_s.append(seconds_taken)
            load_s.append(loaded_s)
        say(f"{name}: cold start {statistics.median(cold_s):.2f} s; connecting")

        started = time.perf_counter()
        drivers = make_drivers(
            workload, profile, index, oracle, server.port, seed, texts
        )
        try:
            clients_s = time.perf_counter() - started
            setup = {
                "report": report,
                "build_wall_s": build_wall_s,
                "cold_start_s": cold_s,
                "load_s": load_s,
                "clients_s": clients_s,
                "setup_s": build_wall_s + statistics.median(cold_s) + clients_s,
                "digests_repeat": digests_ok,
            }
            result = {
                "workload": name,
                "seed": seed,
                "seconds": seconds,
                "profile": profile.name,
                "setup": setup,
            }
            attempted, failed = profile.cold_starts, cold_failed
            run_window(
                drivers, OPS[workload.op], profile.warmup_s, server, min_ops=2
            )
            if e2e:
                say(
                    f"{name}: timed window, {seconds:g} s,"
                    f" {workload.clients} client(s)"
                )
                window = run_window(drivers, OPS[workload.op], seconds, server)
                tail_pct, tail_ms = trace.latency_tail(window.latencies_s)
                result["e2e"] = {
                    "metrics": _e2e_metrics(
                        setup, window, workload.queries_per_op
                    ),
                    "attempted": window.attempted,
                    "correct": window.correct,
                    "failed": window.failed,
                    "failures": dict(window.failures),
                    "distinct_op_sizes": len(window.op_bytes),
                    "latency_tail_pct": tail_pct,
                    "latency_tail_ms": tail_ms,
                }
                attempted += window.attempted
                failed += window.failed
            if traced:
                say(f"{name}: trace pass")
                result["trace"] = _trace_pass(
                    workload, drivers, server, index, seconds, seed, setup
                )
                attempted += result["trace"]["attempted"]
                failed += result["trace"]["failed"]
        finally:
            close_drivers(drivers)
    finally:
        if server is not None:
            server.stop()
    result.update(
        attempted=attempted,
        failed=failed,
        correct=failed == 0 and digests_ok,
    )
    return result
