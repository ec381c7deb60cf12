"""The ahead-of-time plane: serve cold-start and token-mint throughput.

Tiptoe's evaluation (SS6.3, Table 7) keeps the query-independent work
-- the server's hint-key products and the NTT tables behind them --
off the latency-critical path.  This bench measures the two levers
this repo's precompute plane adds:

* **Cold start**: seconds from artifacts-on-disk to a serve that has
  answered its first batch of mint requests, with and without the
  ``precompute.npz`` sidecar.  Without the sidecar every early mint
  re-runs the plaintext-side forward NTTs; with it the tables load
  memory-mapped and minting starts at steady-state cost.
* **Tokens/sec**: sequential ``mint`` vs batched ``mint_many`` vs the
  pipelined client stockpile (``TiptoeClient`` prefetched to depth,
  refill off-path).

Emits ``BENCH_precompute.json``.  Two acceptance bars ride along:
batched+pipelined minting must deliver >= 3x sequential tokens/sec,
and the sidecar must make cold start >= 2x faster.
"""

import time

import numpy as np

from benchmarks.conftest import OUT_DIR, emit
from repro import TiptoeConfig, TiptoeEngine
from repro.core.indexer import TiptoeIndex
from repro.homenc.token import make_client_keys
from repro.lwe.sampling import seeded_rng
from repro.obs.export import write_bench_json
from repro.rlwe.ntt import clear_ntt_registry

NUM_TOKENS = 16
FIRST_MINTS = 8  # early clients a fresh serve answers sequentially
REPEATS = 2


def _canned_requests(index, count, seed=300):
    """Pre-generated client mint requests (keygen is client-side work;
    the serve only ever sees the encrypted keys)."""
    schemes = {
        "ranking": index.ranking_scheme,
        "url": index.url_scheme,
    }
    return [
        make_client_keys(schemes, seeded_rng(seed + i))[1]
        for i in range(count)
    ]


def _cold_start_seconds(path, requests) -> float:
    """Artifacts-on-disk to first-clients-served, best of REPEATS.

    ``clear_ntt_registry`` drops every cached twiddle table first, so
    each measurement is a true process cold start.
    """
    best = float("inf")
    for _ in range(REPEATS):
        clear_ntt_registry()
        start = time.perf_counter()
        index = TiptoeIndex.load(path)
        engine = TiptoeEngine(index)
        for enc_keys in requests:
            index.token_factory.mint(enc_keys)
        best = min(best, time.perf_counter() - start)
        engine.close()
    return best


def test_precompute_plane(bench_corpus, tmp_path):
    index = TiptoeIndex.build(
        bench_corpus.texts(),
        bench_corpus.urls(),
        TiptoeConfig(),
        rng=np.random.default_rng(5),
    )
    index.save(tmp_path / "plain")
    index.save(tmp_path / "warm", precompute=True)
    requests = _canned_requests(index, NUM_TOKENS)

    # -- serve cold start: with vs without the sidecar -----------------------
    cold = _cold_start_seconds(tmp_path / "plain", requests[:FIRST_MINTS])
    warm = _cold_start_seconds(tmp_path / "warm", requests[:FIRST_MINTS])
    cold_speedup = cold / warm

    # -- tokens/sec: sequential vs mint_many vs pipelined --------------------
    # All three run against the sidecar-less index: the comparison
    # isolates what batching and pipelining buy on their own.
    factory = TiptoeIndex.load(tmp_path / "plain").token_factory

    best_seq = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for enc_keys in requests:
            factory.mint(enc_keys)
        best_seq = min(best_seq, time.perf_counter() - start)

    best_many = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        factory.mint_many(requests)
        best_many = min(best_many, time.perf_counter() - start)

    # Pipelined: a client prefetched to depth off-path hands tokens out
    # in O(1); the timed region is what a request-path taker perceives.
    engine = TiptoeEngine(TiptoeIndex.load(tmp_path / "plain"))
    with engine.new_client(seeded_rng(1), prefetch_depth=NUM_TOKENS) as client:
        deadline = time.monotonic() + 60
        while (
            client.tokens_available() < NUM_TOKENS
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert client.tokens_available() == NUM_TOKENS, (
            "prefetcher never reached target depth"
        )
        start = time.perf_counter()
        for _ in range(NUM_TOKENS):
            client._take_token()
        pipelined_seconds = time.perf_counter() - start
    engine.close()

    seq_tps = NUM_TOKENS / best_seq
    many_tps = NUM_TOKENS / best_many
    pipe_tps = NUM_TOKENS / pipelined_seconds

    lines = [
        f"{'mode':>24s} {'tokens/s':>12s} {'speedup':>8s}",
        f"{'sequential mint':>24s} {seq_tps:12.1f} {1.0:7.2f}x",
        f"{'mint_many (16)':>24s} {many_tps:12.1f} {many_tps / seq_tps:7.2f}x",
        f"{'prefetched client':>24s} {pipe_tps:12.1f} {pipe_tps / seq_tps:7.2f}x",
        "",
        f"cold start (no sidecar):   {cold:.3f}s",
        f"cold start (with sidecar): {warm:.3f}s  ({cold_speedup:.2f}x)",
    ]
    emit("precompute_plane", lines)

    OUT_DIR.mkdir(exist_ok=True)
    write_bench_json(
        OUT_DIR / "BENCH_precompute.json",
        "precompute",
        {
            "tokens": NUM_TOKENS,
            "first_mints": FIRST_MINTS,
            "tokens_per_second": {
                "sequential": seq_tps,
                "mint_many": many_tps,
                "pipelined": pipe_tps,
            },
            "mint_many_speedup": many_tps / seq_tps,
            "pipelined_speedup": pipe_tps / seq_tps,
            "cold_start_seconds": {
                "without_sidecar": cold,
                "with_sidecar": warm,
            },
            "cold_start_speedup": cold_speedup,
        },
    )

    # The acceptance bars: >= 3x tokens/sec batched and pipelined, and
    # >= 2x faster serve cold-start with the sidecar.
    assert many_tps >= 3.0 * seq_tps, (
        f"mint_many speedup only {many_tps / seq_tps:.2f}x"
    )
    assert pipe_tps >= 3.0 * seq_tps, (
        f"pipelined speedup only {pipe_tps / seq_tps:.2f}x"
    )
    assert cold_speedup >= 2.0, (
        f"sidecar cold-start speedup only {cold_speedup:.2f}x"
    )
