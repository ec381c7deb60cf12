"""SS6 ablation: token mode vs classic hint download over a session.

SS6.1-6.2: plain SimplePIR amortizes a huge one-time hint download
("99.9% of this download" reusable) but at web scale the hint is
~0.75 GiB and changes with every corpus update; the double layer
removes it "at the cost of increasing the per-query communication by
roughly 4x".  This bench runs a multi-query session in both modes over
the same index and reports the cumulative-traffic crossover, plus the
client-storage difference (Table 6's 0.3 GiB vs 48 GiB contrast in
miniature).
"""

import numpy as np

from benchmarks.conftest import emit
from repro import TiptoeConfig, TiptoeEngine
from repro.core.classic import ClassicTiptoeClient

SESSION_QUERIES = 5


def run_session(bench_corpus):
    engine = TiptoeEngine.build(
        bench_corpus.texts()[:500],
        bench_corpus.urls()[:500],
        TiptoeConfig(),
        rng=np.random.default_rng(0),
    )
    queries = [bench_corpus.documents[i].text for i in range(SESSION_QUERIES)]

    token_client = engine.new_client(np.random.default_rng(1))
    token_cumulative = []
    total = 0
    for q in queries:
        total += token_client.search(q).traffic.total_bytes()
        token_cumulative.append(total)

    classic_client = ClassicTiptoeClient(engine, np.random.default_rng(2))
    classic_client.fetch_hints()
    classic_cumulative = []
    total = classic_client.hint_traffic.total_bytes()
    for q in queries:
        total += classic_client.search(q).traffic.total_bytes()
        classic_cumulative.append(total)
    return engine, classic_client, token_cumulative, classic_cumulative


def test_session_amortization(benchmark, bench_corpus):
    engine, classic_client, token_cum, classic_cum = benchmark.pedantic(
        run_session, args=(bench_corpus,), rounds=1, iterations=1
    )
    lines = [f"{'query #':>8s} {'token mode B':>14s} {'classic mode B':>15s}"]
    for i, (t, c) in enumerate(zip(token_cum, classic_cum)):
        lines.append(f"{i + 1:8d} {t:14,d} {c:15,d}")
    token_per_query = token_cum[0]
    classic_steady = classic_cum[-1] - classic_cum[-2]
    # The paper's "roughly 4x" is a *paper-scale* statement: per-query
    # token traffic vs the online-only traffic an amortized hint
    # leaves.  At paper parameters the model reproduces it directly.
    from repro.evalx.costmodel import TiptoeCostModel

    model = TiptoeCostModel()
    paper_ratio = model.total_bytes(364_000_000) / model.online_bytes(
        364_000_000
    )
    lines += [
        "",
        f"client hint storage (classic): {classic_client.hint_storage_bytes():,} B"
        " -- token mode stores ~0",
        f"steady-state per-query: token {token_per_query:,} B vs"
        f" classic {classic_steady:,} B",
        f"paper-scale per-query overhead of token mode:"
        f" {paper_ratio:.1f}x (SS6: 'roughly 4x');"
        " at toy lattice dimensions the hint is disproportionately"
        " small, so the measured ratio is larger",
    ]
    emit("session_amortization", lines)

    # Classic mode's steady-state per-query traffic is lower; the hint
    # download and storage are the costs it pays for that.
    token_steady = token_cum[-1] - token_cum[-2]
    assert classic_steady < token_steady
    assert classic_client.hint_storage_bytes() > 0
    assert classic_cum[0] > classic_steady * 5  # the first-query cliff
    # The paper's 4x claim, from the calibrated model.
    assert 3.0 < paper_ratio < 5.0
