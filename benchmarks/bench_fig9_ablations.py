"""Figure 9: the impact of each optimization on quality and cost.

Paper ladder (MRR@100 / total comm / server compute), cumulative:
  1. no optimizations      ~0.45 of emb. quality, ~10 GiB, ~1M core-s
  2. + clustering           -0.2 MRR, comm / 20
  3. + URL batches           -0.04 MRR, URL comm & compute / 4
  4. + content grouping      +0.04 MRR, free
  5. + boundary duplication  +0.015 MRR, index x1.2
  6. + PCA (full Tiptoe)     -0.02 MRR, bandwidth & compute / ~2

Net effect: communication improves by two orders of magnitude and
computation by one, at ~0.2 MRR@100.
"""

from benchmarks.conftest import emit
from repro.core.config import TiptoeConfig
from repro.evalx.ablation import run_ablation_ladder


def test_fig9_ablation_ladder(benchmark, bench_corpus, bench_queries):
    config = TiptoeConfig(
        embedding_dim=64,
        pca_dim=24,
        target_cluster_size=8,
        url_batch_size=10,
    )
    ladder = benchmark.pedantic(
        run_ablation_ladder,
        args=(bench_corpus, bench_queries, config),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{'step':>4s} {'configuration':26s} {'MRR@100':>8s}"
        f" {'comm MiB':>12s} {'core-s':>10s}"
    ]
    for p in ladder:
        lines.append(
            f"{p.step:4d} {p.label:26s} {p.mrr:8.3f} {p.comm_mib:12.1f}"
            f" {p.core_seconds:10.1f}"
        )
    first, last = ladder[0], ladder[-1]
    lines += [
        "",
        f"communication improvement: {first.comm_mib / last.comm_mib:,.0f}x"
        " (paper: two orders of magnitude)",
        f"computation improvement: {first.core_seconds / last.core_seconds:,.0f}x"
        " (paper: one order of magnitude)",
        f"quality cost: {first.mrr - last.mrr:+.3f} MRR@100 (paper: ~0.2)",
    ]
    from repro.evalx.figures import ascii_chart

    lines.append("")
    lines.append(
        ascii_chart(
            {
                f"{p.step}": [(p.comm_mib, p.mrr)] for p in ladder
            },
            width=60,
            height=12,
            x_label="total comm MiB (log)",
            y_label="MRR@100",
            log_x=True,
        )
    )
    emit("fig9_ablations", lines)

    # The paper's two headline ratios.
    assert first.comm_mib / last.comm_mib > 100
    assert first.core_seconds / last.core_seconds > 10
    # Clustering is the big quality cliff; grouping recovers some.
    assert ladder[1].mrr < ladder[0].mrr
    assert ladder[3].mrr >= ladder[2].mrr
    # Full Tiptoe keeps most of the no-optimization quality.
    assert last.mrr > first.mrr - 0.3
