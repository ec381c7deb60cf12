"""Cross-query batching: queries/sec on the ranking scan vs batch size.

The paper's throughput claims (SS8.1, Table 7) assume the server
amortizes its linear scan across many concurrent clients.  This bench
measures exactly that lever: the same ranking fleet answers the same
query stream at batch sizes 1, 4, 16, and 64, and the emitted
``BENCH_batching.json`` records queries/sec per batch size.  Batch
size 1 is the sequential path (one matrix-vector product per query);
larger batches run one stacked GEMM per shard per batch.

Two assertions ride along: answers must stay bit-identical to the
sequential path at every batch size (exactness is the batch plane's
contract), and batch size 16 must deliver at least 3x the sequential
queries/sec -- the acceptance bar for the batching PR.
"""

import time

import numpy as np

from benchmarks.conftest import OUT_DIR, emit
from repro.core.cluster_runtime import ShardedRankingService
from repro.core.ranking import RankingClient
from repro.homenc.double import DoubleLheParams, DoubleLheScheme
from repro.lwe import LweParams
from repro.lwe.sampling import seeded_rng
from repro.obs.export import write_bench_json

BATCH_SIZES = (1, 4, 16, 64)
NUM_QUERIES = 64
REPEATS = 2


def _build_ranking():
    """A compute-bound ranking scan: 2000 rows x 8192 columns."""
    dim = 16
    clusters = 512
    rows = 2000
    inner = LweParams(
        n=64, q_bits=32, p=2**16, sigma=6.4, m=dim * clusters
    )
    scheme = DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=64), a_seed=b"Q" * 32
    )
    rng = seeded_rng(2)
    matrix = rng.integers(-8, 8, size=(rows, dim * clusters))
    service = ShardedRankingService.build(scheme, matrix, dim)
    client = RankingClient(scheme, dim=dim, num_clusters=clusters)
    keys = scheme.gen_keys(rng)
    embedding = rng.integers(-8, 8, size=dim)
    queries = [
        client.build_query(keys, embedding, i % clusters, rng)
        for i in range(NUM_QUERIES)
    ]
    return service, queries


def _time_batched(service, queries, batch_size) -> float:
    """Best-of-REPEATS seconds to answer all queries at one batch size."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        if batch_size == 1:
            for query in queries:
                service.answer(query)
        else:
            for lo in range(0, len(queries), batch_size):
                service.answer_batch(queries[lo : lo + batch_size])
        best = min(best, time.perf_counter() - start)
    return best


def test_batching_scales_ranking_throughput():
    service, queries = _build_ranking()

    # Exactness first: batched answers are bit-identical per column.
    want = [service.answer(q).values for q in queries[:16]]
    for batch_size in BATCH_SIZES[1:]:
        got = service.answer_batch(queries[:16])
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w)

    # Warm-up above also built the service's StackedPlan, so the timed
    # region measures the steady state a long-lived server runs in.
    results = {}
    for batch_size in BATCH_SIZES:
        seconds = _time_batched(service, queries, batch_size)
        results[batch_size] = {
            "batch_size": batch_size,
            "queries": len(queries),
            "seconds": seconds,
            "queries_per_second": len(queries) / seconds,
        }

    qps_1 = results[1]["queries_per_second"]
    lines = [f"{'batch':>6s} {'queries/s':>12s} {'speedup':>8s}"]
    for batch_size in BATCH_SIZES:
        qps = results[batch_size]["queries_per_second"]
        lines.append(f"{batch_size:6d} {qps:12.1f} {qps / qps_1:7.2f}x")
    emit("batching_throughput", lines)

    OUT_DIR.mkdir(exist_ok=True)
    write_bench_json(
        OUT_DIR / "BENCH_batching.json",
        "batching",
        {
            "phase": "ranking",
            "rows": 2000,
            "columns": 8192,
            "by_batch_size": {
                str(b): results[b] for b in BATCH_SIZES
            },
            "speedup_at_16": results[16]["queries_per_second"] / qps_1,
        },
    )

    # The acceptance bar: >= 3x queries/sec at batch 16 vs batch 1.
    assert results[16]["queries_per_second"] >= 3.0 * qps_1, (
        f"batch-16 speedup only "
        f"{results[16]['queries_per_second'] / qps_1:.2f}x"
    )
    service.close()
