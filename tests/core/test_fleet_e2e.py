"""Fleet integration: real shard worker subprocesses behind a real TCP
front door.  Covers the three ISSUE-level behaviors -- replica failover
under load with zero failed queries, rolling index swap with per-
generation bit-identity, and admission-control shedding -- plus the
``serve-fleet`` CLI hand-off.  Pure in-process fleet logic lives in
test_fleet.py."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.cluster_runtime import ShardedRankingService
from repro.core.fleet import (
    FleetConfig,
    FleetLauncher,
    FleetOverloaded,
    FleetRouter,
)
from repro.core.indexer import TiptoeIndex
from repro.core.ranking import RankingClient
from repro.embeddings.quantize import quantize
from repro.net import wire
from repro.net.rpc import RpcChannel
from repro.net.tcp import ServerRunner, connect_transport
from repro.net.transport import TrafficLog

REPO = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

NUM_QUERIES = 200
KILL_AT = 80


def run_cli(*argv, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=timeout,
        check=True,
    )


@pytest.fixture(scope="module")
def artifact_a(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet") / "index_a"
    run_cli(
        "build-index", str(out), "--docs", "120", "--seed", "0",
        "--precompute",
    )
    return out


@pytest.fixture(scope="module")
def artifact_b(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet") / "index_b"
    run_cli(
        "build-index", str(out), "--docs", "120", "--seed", "1",
        "--precompute",
    )
    return out


def build_queries(index, count, seed=11):
    """Pre-built ranking queries: the cheap loadgen unit (no token
    minting, no URL fetch) that still exercises the full crypto path."""
    rng = np.random.default_rng(seed)
    client = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    keys = index.ranking_scheme.gen_keys(rng)
    return [
        client.build_query(
            keys,
            quantize(
                index.embeddings[i % index.num_docs]
                * index.quantization_gain,
                index.config.quantization(),
            ),
            i % index.layout.num_clusters,
            rng,
        )
        for i in range(count)
    ]


def baseline_answers(index, queries):
    """Single-process ground truth the fleet must match bit-for-bit."""
    service = ShardedRankingService.build(
        index.ranking_scheme,
        index.layout.matrix,
        index.layout.dim,
    )
    try:
        return [service.answer(q).values for q in queries]
    finally:
        service.close()


class FrontDoor:
    """FleetRouter behind a real ServerRunner, like ``serve-fleet``."""

    def __init__(self, config=None):
        self.router = FleetRouter(config or FleetConfig())
        self.runner = ServerRunner([self.router], fallback=self.router.route)

    def __enter__(self):
        self.runner.start()
        self.host, self.port = self.runner.address
        return self

    def __exit__(self, *exc):
        self.runner.close()

    def channel(self, *, timeout=10.0):
        transport = connect_transport(self.host, self.port, timeout=timeout)
        return RpcChannel(TrafficLog(), transport)


class TestFailoverUnderLoad:
    def test_replica_kill_mid_loadgen_drops_zero_queries(
        self, artifact_a, tmp_path
    ):
        index = TiptoeIndex.load(artifact_a)
        queries = build_queries(index, NUM_QUERIES)
        expected = baseline_answers(index, queries)
        blobs = [wire.encode_ciphertext(q.ciphertext) for q in queries]

        with FleetLauncher(
            artifact_a, num_shards=3, replicas_per_shard=2
        ) as launcher:
            spec = launcher.start()
            with FrontDoor(FleetConfig(health_interval_s=0.1)) as front:
                front.router.add_generation(spec, make_current=True)
                front.router.warm_generation(spec.generation)
                channel = front.channel()
                failures = 0
                for i, blob in enumerate(blobs):
                    if i == KILL_AT:
                        launcher.kill_replica(1, 0)
                    try:
                        body = channel.call(
                            "ranking", "ranking", "answer", blob
                        )
                    except Exception:
                        failures += 1
                        continue
                    values, _ = wire.decode_answer(body)
                    assert np.array_equal(values, expected[i]), (
                        f"query {i} diverged from the single-process"
                        " baseline"
                    )
                assert failures == 0
                assert front.router.stats.failovers >= 1

                health = front.router.health()
                shard1 = health["generations"][spec.generation][1]
                assert shard1["live"] == 1

                # CI uploads this as the fleet-smoke artifact.
                out_dir = Path(
                    os.environ.get("FLEET_ARTIFACT_DIR", tmp_path)
                )
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / "fleet_health.json").write_text(
                    json.dumps(health, indent=2)
                )
                channel.transport.close()


class TestRollingSwap:
    def test_swap_serves_both_generations_bit_identically(
        self, artifact_a, artifact_b
    ):
        index_a = TiptoeIndex.load(artifact_a)
        index_b = TiptoeIndex.load(artifact_b)
        queries_a = build_queries(index_a, 24, seed=21)
        queries_b = build_queries(index_b, 24, seed=22)
        expected_a = baseline_answers(index_a, queries_a)
        expected_b = baseline_answers(index_b, queries_b)
        blobs_a = [wire.encode_ciphertext(q.ciphertext) for q in queries_a]
        blobs_b = [wire.encode_ciphertext(q.ciphertext) for q in queries_b]

        with FleetLauncher(
            artifact_a, num_shards=2, replicas_per_shard=1
        ) as launcher_a, FleetLauncher(
            artifact_b, num_shards=2, replicas_per_shard=1
        ) as launcher_b:
            spec_a = launcher_a.start()
            assert spec_a.generation != ""
            with FrontDoor(FleetConfig(health_interval_s=0.1)) as front:
                router = front.router
                router.add_generation(spec_a, make_current=True)
                router.warm_generation(spec_a.generation)
                channel = front.channel()

                def check(tag, blob, want):
                    service = "ranking" if tag is None else f"ranking@{tag}"
                    body = channel.call(service, "ranking", "answer", blob)
                    values, _ = wire.decode_answer(body)
                    assert np.array_equal(values, want)

                # Phase 1: generation A is current.
                for blob, want in zip(blobs_a[:8], expected_a[:8]):
                    check(None, blob, want)

                # Phase 2: B spawns and warms while A keeps serving --
                # the rolling part of the swap.
                spec_b = launcher_b.start()
                assert spec_b.generation != spec_a.generation
                router.add_generation(spec_b)
                for blob, want in zip(blobs_a[8:16], expected_a[8:16]):
                    check(None, blob, want)
                router.warm_generation(spec_b.generation)

                # Phase 3: cut over.  Untagged traffic moves to B;
                # clients pinned to A (tagged) still get A's answers.
                router.cut_over(spec_b.generation)
                for i in range(8):
                    check(None, blobs_b[i], expected_b[i])
                    check(
                        spec_a.generation,
                        blobs_a[16 + i],
                        expected_a[16 + i],
                    )
                    check(
                        spec_b.generation, blobs_b[8 + i], expected_b[8 + i]
                    )

                # Phase 4: retire A; B remains the only generation.
                router.retire_generation(spec_a.generation)
                for blob, want in zip(blobs_b[16:], expected_b[16:]):
                    check(None, blob, want)
                assert router.stats.swaps == 1
                assert router.health()["current"] == spec_b.generation
                channel.transport.close()


class TestLoadShedding:
    def test_burst_beyond_max_inflight_sheds_with_counter(self, artifact_a):
        index = TiptoeIndex.load(artifact_a)
        queries = build_queries(index, 4, seed=31)
        blob = wire.encode_ciphertext(queries[0].ciphertext)

        with FleetLauncher(
            artifact_a, num_shards=1, replicas_per_shard=1
        ) as launcher:
            spec = launcher.start()
            with FrontDoor(FleetConfig(max_inflight=1)) as front:
                front.router.add_generation(spec, make_current=True)
                front.router.warm_generation(spec.generation)
                start = threading.Barrier(8)
                outcomes = []
                lock = threading.Lock()

                from repro.net import rpc

                request = rpc.frame("answer", blob)

                def worker():
                    start.wait()
                    try:
                        for _ in range(8):
                            front.router.route("ranking", request)
                        result = "ok"
                    except FleetOverloaded:
                        result = "shed"
                    except Exception as exc:  # pragma: no cover
                        result = f"error:{type(exc).__name__}"
                    with lock:
                        outcomes.append(result)

                threads = [
                    threading.Thread(target=worker) for _ in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
                assert set(outcomes) <= {"ok", "shed"}
                assert "shed" in outcomes
                assert front.router.stats.shed >= 1


class TestServeFleetCli:
    def test_serve_fleet_hands_off_and_answers_queries(self, artifact_a):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-fleet",
                str(artifact_a), "--port", "0", "--shards", "2",
                "--replicas", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=ENV,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("fleet serving on "), (
                f"bad hand-off {line!r}: {proc.stderr.read()[:500]}"
            )
            rest = line.removeprefix("fleet serving on ")
            address, _, generation = rest.partition(" generation ")
            host, port = address.rsplit(":", 1)
            assert len(generation) == 8

            out = run_cli(
                "query", str(artifact_a), "alpha beta",
                "--host", host, "--port", port,
                "--generation", generation,
            ).stdout
            assert "score=" in out
        finally:
            proc.terminate()
            proc.wait(timeout=15)
