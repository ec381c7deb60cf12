"""Table 7: the per-phase cost breakdown of a Tiptoe query.

Two panels:

* *measured* -- the simulated deployment runs a real private query and
  reports its per-phase traffic and modeled latency;
* *paper scale* -- the calibrated analytic model reproduces the
  communication/latency/throughput columns of Table 7 for both the
  text (364M docs) and image (400M docs) deployments.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import TiptoeConfig, TiptoeEngine
from repro.evalx.costmodel import PaperScaleModel

PAPER_TEXT = {
    "up_token_mib": 32.4,
    "up_ranking_mib": 11.6,
    "up_url_mib": 2.4,
    "down_token_mib": 9.8,
    "down_ranking_mib": 0.5,
    "down_url_mib": 0.1,
    "perceived_latency_s": 2.7,
    "token_latency_s": 6.5,
}
PAPER_IMAGE = {
    "up_token_mib": 32.4,
    "up_ranking_mib": 16.2,
    "up_url_mib": 3.2,
    "down_token_mib": 17.4,
    "down_ranking_mib": 1.0,
    "down_url_mib": 0.2,
    "perceived_latency_s": 3.5,
    "token_latency_s": 8.7,
}


def run_measured(bench_corpus):
    engine = TiptoeEngine.build(
        bench_corpus.texts()[:500],
        bench_corpus.urls()[:500],
        TiptoeConfig(),
        rng=np.random.default_rng(0),
    )
    result = engine.search(
        bench_corpus.documents[3].text, np.random.default_rng(1)
    )
    ledger = engine.ranking_service.ledger
    ledger.merge(engine.url_service.ledger)
    return engine, result, ledger


def test_table7_measured_breakdown(benchmark, bench_corpus):
    engine, result, ledger = benchmark.pedantic(
        run_measured, args=(bench_corpus,), rounds=1, iterations=1
    )
    lines = [f"{'phase':10s} {'up bytes':>12s} {'down bytes':>12s}"]
    for phase, (up, down) in result.traffic.phase_summary().items():
        lines.append(f"{phase:10s} {up:12,d} {down:12,d}")
    lines += [
        "",
        f"model download: {engine.index.model_bytes():,} bytes",
        f"centroid metadata: {engine.index.client_metadata().download_bytes():,} bytes",
        f"index storage: {engine.index.index_storage_bytes():,} bytes",
        f"server word ops (online): {ledger.total_ops():,}",
        f"perceived latency: {result.perceived_latency:.3f} s",
        f"token latency: {result.token_latency:.3f} s",
    ]
    emit("table7_measured", lines)

    summary = result.traffic.phase_summary()
    # >70% of traffic happens before the query exists (SS8.3).
    offline = sum(summary["token"])
    total = result.traffic.total_bytes()
    assert offline / total > 0.7
    # The ranking download is 8 bytes per candidate score (SS3.1),
    # plus the fixed wire/RPC framing.
    from repro.net import rpc, wire

    rows = engine.index.layout.rows
    framing = wire.HEADER_BYTES + rpc.FRAME_BYTES
    assert summary["ranking"][1] == rows * 8 + framing


def test_table7_paper_scale_columns(benchmark):
    model = PaperScaleModel()
    text, image = benchmark.pedantic(
        lambda: (
            model.text.summary(364_000_000),
            model.image.summary(400_000_000, ranking_vcpus=320, url_vcpus=32),
        ),
        rounds=1,
        iterations=1,
    )
    lines = [f"{'metric':24s} {'text':>9s} {'paper':>7s} {'image':>9s} {'paper':>7s}"]
    for key in PAPER_TEXT:
        lines.append(
            f"{key:24s} {text[key]:9.2f} {PAPER_TEXT[key]:7.1f}"
            f" {image[key]:9.2f} {PAPER_IMAGE[key]:7.1f}"
        )
    lines.append(
        f"{'total_mib':24s} {text['total_mib']:9.2f} {56.9:7.1f}"
        f" {image['total_mib']:9.2f} {71.0:7.1f}"
    )
    emit("table7_paper_scale", lines)

    for key, paper in PAPER_TEXT.items():
        assert text[key] == pytest.approx(paper, rel=0.5), key
    assert image["total_mib"] > text["total_mib"]
    assert image["down_token_mib"] > text["down_token_mib"]
