"""Load generation: sustained query throughput (SS8.1, Table 7).

The paper measures throughput by simulating up to 19 clients against
each service until the servers saturate, then reports queries/second
per phase (text search: 0.5 q/s token generation, 2.9 q/s ranking,
5.0 q/s URL retrieval).  This module drives the simulated services the
same way: a batch of pre-built queries per phase, each timed
individually on the server side, so a run yields both throughput
(queries/second) and the latency distribution (p50/p95/p99).

Timing uses an injectable monotonic clock (``time.perf_counter`` by
default; tests inject :class:`repro.obs.ManualClock`) -- wall-clock
reads are banned in library code by the ``api-wallclock`` lint rule.
Results export to the versioned ``BENCH_throughput.json`` /
``BENCH_latency.json`` files (schema ``repro.obs.bench/v1``, see
EXPERIMENTS.md) so every PR leaves a machine-readable perf trajectory.
"""

from __future__ import annotations

import pathlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.ranking import RankingClient
from repro.embeddings.quantize import quantize
from repro.lwe import sampling
from repro.obs.clock import Clock
from repro.obs.export import write_bench_json
from repro.obs.metrics import MetricsRegistry, percentile


@dataclass(frozen=True)
class PhaseThroughput:
    """Measured throughput of one protocol phase."""

    phase: str
    queries: int
    wall_seconds: float
    latencies: tuple[float, ...] = field(default=())

    @property
    def queries_per_second(self) -> float:
        return self.queries / max(self.wall_seconds, 1e-12)

    def latency_quantile(self, q: float) -> float | None:
        """Exact per-query latency quantile, or None if not recorded."""
        if not self.latencies:
            return None
        return percentile(self.latencies, q)

    @property
    def p50(self) -> float | None:
        return self.latency_quantile(0.50)

    @property
    def p95(self) -> float | None:
        return self.latency_quantile(0.95)

    @property
    def p99(self) -> float | None:
        return self.latency_quantile(0.99)


@dataclass
class ThroughputReport:
    """Throughput of all three phases, Table 7 style."""

    token: PhaseThroughput
    ranking: PhaseThroughput
    url: PhaseThroughput

    def phases(self) -> tuple[PhaseThroughput, PhaseThroughput, PhaseThroughput]:
        return (self.token, self.ranking, self.url)

    def rows(self) -> list[tuple[str, float]]:
        return [(p.phase, p.queries_per_second) for p in self.phases()]

    def throughput_data(self) -> dict:
        """The ``data`` block of BENCH_throughput.json."""
        return {
            "phases": {
                p.phase: {
                    "queries": p.queries,
                    "wall_seconds": p.wall_seconds,
                    "queries_per_second": p.queries_per_second,
                }
                for p in self.phases()
            }
        }

    def latency_data(self) -> dict:
        """The ``data`` block of BENCH_latency.json."""
        out = {}
        for p in self.phases():
            lats = p.latencies
            out[p.phase] = {
                "count": len(lats),
                "mean_s": sum(lats) / len(lats) if lats else None,
                "min_s": min(lats) if lats else None,
                "max_s": max(lats) if lats else None,
                "p50_s": p.p50,
                "p95_s": p.p95,
                "p99_s": p.p99,
            }
        return {"phases": out}


def write_bench_files(
    report: ThroughputReport, out_dir
) -> tuple[pathlib.Path, pathlib.Path]:
    """Write BENCH_throughput.json + BENCH_latency.json; return paths."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    throughput = write_bench_json(
        out_dir / "BENCH_throughput.json",
        "throughput",
        report.throughput_data(),
    )
    latency = write_bench_json(
        out_dir / "BENCH_latency.json", "latency", report.latency_data()
    )
    return throughput, latency


def _timed_phase(
    phase: str,
    jobs,
    clock: Clock,
    registry: MetricsRegistry | None,
) -> PhaseThroughput:
    """Run the prepared thunks, timing each one individually."""
    latencies = []
    for job in jobs:
        start = clock()
        job()
        elapsed = clock() - start
        latencies.append(elapsed)
        if registry is not None:
            registry.histogram(f"loadgen.{phase}.seconds").observe(elapsed)
    return PhaseThroughput(
        phase=phase,
        queries=len(latencies),
        wall_seconds=sum(latencies),
        latencies=tuple(latencies),
    )


def measure_throughput(
    engine,
    num_queries: int = 8,
    rng: np.random.Generator | None = None,
    clock: Clock | None = None,
    registry: MetricsRegistry | None = None,
    via_rpc: bool = False,
) -> ThroughputReport:
    """Saturate each service with pre-built queries and time it.

    Client-side work (embedding, encryption, decryption) is excluded,
    matching the paper's server-throughput methodology.  Pass a
    ``registry`` to additionally stream per-query latencies into
    ``loadgen.<phase>.seconds`` histograms.

    With ``via_rpc=True`` every job crosses the engine's transport
    (``RpcChannel.call`` with wire encoding) instead of invoking the
    service objects directly, so the measurement includes serialization
    and -- against a socket transport -- the network itself.  This is
    also the only mode a remote-connected engine supports, since it
    holds no local service objects.
    """
    rng = sampling.resolve_rng(rng, fallback_seed=0)
    clock = clock if clock is not None else time.perf_counter
    index = engine.index
    if not via_rpc and engine.ranking_service is None:
        raise ValueError(
            "this engine is remote-connected; pass via_rpc=True"
        )
    if via_rpc:
        from repro.net import wire
        from repro.net.rpc import RpcChannel
        from repro.net.transport import TrafficLog

        channel = RpcChannel(TrafficLog(), engine.transport)

    # Phase 1: token generation (the coordinator's offline work).
    from repro.homenc.token import make_client_keys

    schemes = {
        "ranking": index.ranking_scheme,
        "url": index.url_scheme,
    }
    key_batches = [
        make_client_keys(schemes, rng)[1]
        for _ in range(max(2, num_queries // 4))
    ]
    if via_rpc:
        mint_blobs = [
            wire.encode_mint_request(enc_keys) for enc_keys in key_batches
        ]
        token_jobs = [
            (lambda blob=blob: channel.call("token", "token", "mint", blob))
            for blob in mint_blobs
        ]
    else:
        token_jobs = [
            (lambda enc_keys=enc_keys: index.token_factory.mint(enc_keys))
            for enc_keys in key_batches
        ]
    token = _timed_phase("token", token_jobs, clock, registry)

    # Phase 2: ranking answers.
    client = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    keys = index.ranking_scheme.gen_keys(rng)
    queries = [
        client.build_query(
            keys,
            quantize(
                index.embeddings[i % index.num_docs]
                * index.quantization_gain,
                index.config.quantization(),
            ),
            i % index.layout.num_clusters,
        )
        for i in range(num_queries)
    ]
    if via_rpc:
        rank_blobs = [
            wire.encode_ciphertext(query.ciphertext) for query in queries
        ]
        ranking_jobs = [
            (
                lambda blob=blob: channel.call(
                    "ranking", "ranking", "answer", blob
                )
            )
            for blob in rank_blobs
        ]
    else:
        ranking_jobs = [
            (lambda query=query: engine.ranking_service.answer(query))
            for query in queries
        ]
    ranking = _timed_phase("ranking", ranking_jobs, clock, registry)

    # Phase 3: URL answers.
    url_keys = index.url_scheme.gen_keys(rng)
    from repro.pir.simplepir import PirQuery

    url_queries = []
    for i in range(num_queries):
        sel = index.url_db.selection_vector(i % index.url_db.num_records)
        url_queries.append(
            PirQuery(ciphertext=index.url_scheme.encrypt(url_keys, sel))
        )
    if via_rpc:
        url_blobs = [
            wire.encode_ciphertext(query.ciphertext) for query in url_queries
        ]
        url_jobs = [
            (lambda blob=blob: channel.call("url", "url", "answer", blob))
            for blob in url_blobs
        ]
    else:
        url_jobs = [
            (lambda query=query: engine.url_service.answer(query))
            for query in url_queries
        ]
    url = _timed_phase("url", url_jobs, clock, registry)

    return ThroughputReport(token=token, ranking=ranking, url=url)


@dataclass(frozen=True)
class ConcurrentLoadReport:
    """Closed-loop multi-client ranking load, through the batcher."""

    clients: int
    queries: int
    wall_seconds: float
    latencies: tuple[float, ...]
    batches: int
    mean_batch_size: float
    largest_batch: int
    failed_queries: int

    @property
    def queries_per_second(self) -> float:
        return self.queries / max(self.wall_seconds, 1e-12)

    def latency_quantile(self, q: float) -> float | None:
        if not self.latencies:
            return None
        return percentile(self.latencies, q)

    def data(self) -> dict:
        """A ``repro.obs.bench/v1``-ready data block."""
        return {
            "clients": self.clients,
            "queries": self.queries,
            "wall_seconds": self.wall_seconds,
            "queries_per_second": self.queries_per_second,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "largest_batch": self.largest_batch,
            "failed_queries": self.failed_queries,
            "p50_s": self.latency_quantile(0.50),
            "p95_s": self.latency_quantile(0.95),
            "p99_s": self.latency_quantile(0.99),
        }


def measure_concurrent_ranking(
    engine,
    num_clients: int = 4,
    queries_per_client: int = 4,
    max_batch_size: int | None = None,
    max_batch_wait_ms: float = 2.0,
    rng: np.random.Generator | None = None,
    clock: Clock | None = None,
    registry: MetricsRegistry | None = None,
) -> ConcurrentLoadReport:
    """Closed-loop concurrent load: the mode that exercises the batcher.

    ``num_clients`` threads each submit ``queries_per_client`` ranking
    queries back-to-back (closed loop: a client sends its next query
    only after its previous answer arrives), all through one
    :class:`~repro.core.scheduler.BatchScheduler` in front of the
    engine's ranking coordinator.  Because clients block in
    ``submit``, concurrency is what fills batches -- exactly the
    serving-path shape, where transport worker threads park in the
    admission queue.

    Uses the coordinator's attached scheduler when one is running
    (i.e. the engine was built with ``max_batch_size > 1``); otherwise
    a temporary scheduler is started for the run and stopped after.
    Every answer is checked against nothing here -- bit-identity is the
    test suite's job -- but failures are counted, not swallowed.
    """
    if num_clients < 1:
        raise ValueError("need at least one client")
    if queries_per_client < 1:
        raise ValueError("need at least one query per client")
    rng = sampling.resolve_rng(rng, fallback_seed=0)
    clock = clock if clock is not None else time.perf_counter
    index = engine.index
    service = engine.ranking_service
    if service is None:
        raise ValueError(
            "concurrent ranking load needs a local ranking service"
        )

    client = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    keys = index.ranking_scheme.gen_keys(rng)
    per_client_queries = []
    for c in range(num_clients):
        per_client_queries.append(
            [
                client.build_query(
                    keys,
                    quantize(
                        index.embeddings[(c + i) % index.num_docs]
                        * index.quantization_gain,
                        index.config.quantization(),
                    ),
                    (c + i) % index.layout.num_clusters,
                )
                for i in range(queries_per_client)
            ]
        )

    from repro.core.scheduler import BatchScheduler

    attached = getattr(service, "scheduler", None)
    if attached is not None and attached.running:
        scheduler = attached
        own_scheduler = False
    else:
        scheduler = BatchScheduler(
            service,
            max_batch_size=(
                max_batch_size if max_batch_size is not None else num_clients
            ),
            max_batch_wait_ms=max_batch_wait_ms,
        )
        own_scheduler = True

    lock = threading.Lock()
    latencies: list[float] = []  # guarded-by: lock
    failures: list[BaseException] = []  # guarded-by: lock
    stats_before = (scheduler.stats.batches, scheduler.stats.queries)

    def run_client(qs) -> None:
        mine = []
        errs = []
        for query in qs:
            start = clock()
            try:
                scheduler.submit(query)
            except Exception as exc:  # count, keep the loop closed
                errs.append(exc)
                continue
            mine.append(clock() - start)
        with lock:
            latencies.extend(mine)
            failures.extend(errs)

    if own_scheduler:
        scheduler.start()
    try:
        threads = [
            threading.Thread(target=run_client, args=(qs,), daemon=True)
            for qs in per_client_queries
        ]
        wall_start = clock()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_seconds = clock() - wall_start
    finally:
        if own_scheduler:
            scheduler.stop()

    if registry is not None:
        hist = registry.histogram("loadgen.concurrent_ranking.seconds")
        for lat in latencies:
            hist.observe(lat)
    batches = scheduler.stats.batches - stats_before[0]
    answered = scheduler.stats.queries - stats_before[1]
    return ConcurrentLoadReport(
        clients=num_clients,
        queries=len(latencies),
        wall_seconds=wall_seconds,
        latencies=tuple(latencies),
        batches=batches,
        mean_batch_size=answered / batches if batches else 0.0,
        largest_batch=scheduler.stats.max_batch,
        failed_queries=len(failures),
    )
