"""Command-line interface: ``python -m repro <command>``.

Commands
--------
demo
    Build a synthetic deployment and run one private query.
plan
    Print the analytic cost plan for a corpus size (SS8.5).
quality
    Quick search-quality evaluation (a small Fig. 4).
params
    Print the LWE parameter table for a ciphertext modulus.
obs-report
    Run instrumented queries and print the observability report
    (span tree, kernel latency histograms, cost/traffic totals).
build-index
    Run the batch jobs over a synthetic corpus and persist the index
    artifacts to a directory.
serve
    Cold-start the full service roster from saved artifacts and listen
    on TCP (the deployment entry point).  With ``--shard`` /
    ``--num-shards`` the process serves one ranking shard of a fleet.
serve-fleet
    Spawn N shard worker processes (x replicas) and serve through the
    :class:`~repro.core.fleet.FleetRouter` front door: admission
    control, replica failover, rolling index swap.
query
    Run private searches against a running ``serve`` or ``serve-fleet``
    over TCP (optionally pinned to one index generation).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import TiptoeConfig, TiptoeEngine
    from repro.corpus import SyntheticCorpus, SyntheticCorpusConfig

    corpus = SyntheticCorpus.generate(
        SyntheticCorpusConfig(num_docs=args.docs, seed=args.seed)
    )
    engine = TiptoeEngine.build(
        corpus.texts(),
        corpus.urls(),
        TiptoeConfig(),
        rng=np.random.default_rng(args.seed),
    )
    query = args.query or corpus.documents[0].text[:60]
    result = engine.search(query, np.random.default_rng(args.seed + 1))
    print(f"query: {query!r}")
    for r in result.results[:args.top]:
        print(f"  score={r.score:6d}  {r.url or '(outside fetched batch)'}")
    up, down = result.traffic.bytes_up(), result.traffic.bytes_down()
    print(f"traffic: {up:,} B up / {down:,} B down"
          f"  latency: {result.perceived_latency:.2f} s")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.evalx.costmodel import TiptoeCostModel

    model = TiptoeCostModel(dim=args.dim)
    row = model.summary(args.docs)
    for key, value in row.items():
        print(f"{key:24s} {value:,.3f}" if isinstance(value, float)
              else f"{key:24s} {value:,}")
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.core.config import TiptoeConfig
    from repro.corpus import QueryBenchmark, SyntheticCorpus, SyntheticCorpusConfig
    from repro.embeddings import TfidfRetriever
    from repro.evalx.quality import TiptoeQualitySim, evaluate_systems

    corpus = SyntheticCorpus.generate(
        SyntheticCorpusConfig(
            num_docs=args.docs, num_topics=max(6, args.docs // 50),
            vocab_size=max(600, args.docs), seed=args.seed,
        )
    )
    bench = QueryBenchmark.generate(
        corpus, args.queries, np.random.default_rng(args.seed)
    )
    tiptoe = TiptoeQualitySim.build(
        corpus.texts(), corpus.urls(),
        TiptoeConfig(target_cluster_size=max(6, args.docs // 80)),
        rng=np.random.default_rng(args.seed),
    )
    report = evaluate_systems(
        bench,
        {"tiptoe": tiptoe, "tfidf": TfidfRetriever(corpus.texts())},
    )
    for name in report.ordering():
        print(f"{name:10s} MRR@100 = {report.mrr[name]:.3f}")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    from repro.lwe.params import (
        PAPER_TABLE_11,
        PAPER_TABLE_12,
        max_plaintext_modulus,
    )

    table = PAPER_TABLE_11 if args.q_bits == 32 else PAPER_TABLE_12
    print(f"{'m':>10s} {'p (ours)':>10s} {'p (paper)':>10s}")
    for m in sorted(table):
        p_paper, _, sigma = table[m]
        print(f"{m:10,d} {max_plaintext_modulus(m, args.q_bits, sigma):10,d}"
              f" {p_paper:10,d}")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from repro import TiptoeConfig, TiptoeEngine, obs
    from repro.core.costs import CostLedger
    from repro.corpus import SyntheticCorpus, SyntheticCorpusConfig
    from repro.obs.export import dump_trace, metrics_to_dict

    corpus = SyntheticCorpus.generate(
        SyntheticCorpusConfig(num_docs=args.docs, seed=args.seed)
    )
    tracer, registry = obs.enable()
    try:
        with TiptoeEngine.build(
            corpus.texts(),
            corpus.urls(),
            TiptoeConfig(),
            rng=np.random.default_rng(args.seed),
        ) as engine:
            result = None
            for i in range(args.queries):
                query = corpus.documents[i % len(corpus.documents)].text[:60]
                result = engine.search(
                    query, np.random.default_rng(args.seed + 1 + i)
                )
            ledger = CostLedger()
            ledger.merge(engine.ranking_service.ledger)
            ledger.merge(engine.url_service.ledger)
            trace = tracer.last_trace()
            if args.json:
                print(json.dumps(metrics_to_dict(registry), indent=2))
            else:
                print(
                    obs.render_report(
                        metrics=registry,
                        trace=trace,
                        ledger=ledger,
                        traffic=result.traffic if result else None,
                    )
                )
            if args.trace_out and trace is not None:
                path = dump_trace(trace, args.trace_out)
                print(f"trace written to {path}")
    finally:
        obs.disable()
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    from repro.core.config import TiptoeConfig
    from repro.core.indexer import TiptoeIndex
    from repro.corpus import SyntheticCorpus, SyntheticCorpusConfig

    corpus = SyntheticCorpus.generate(
        SyntheticCorpusConfig(num_docs=args.docs, seed=args.seed)
    )
    # --precompute also runs the kernel autotuner: the sidecar then
    # carries a KernelPlan record and serve cold-starts tuned.
    config = TiptoeConfig(
        kernel_autotune=bool(args.precompute and not args.no_kernel_autotune)
    )
    index = TiptoeIndex.build(
        corpus.texts(),
        corpus.urls(),
        config,
        rng=np.random.default_rng(args.seed),
    )
    index.save(args.out, precompute=args.precompute)
    print(f"index over {args.docs} documents written to {args.out}")
    return 0


def _cmd_tune_kernels(args: argparse.Namespace) -> int:
    from repro.core import artifacts
    from repro.core.indexer import TiptoeIndex
    from repro.lwe import backends as kernel_backends

    index = TiptoeIndex.load(args.artifacts)
    record = kernel_backends.tune_index(
        index,
        batch_size=args.batch,
        repeats=args.repeats,
        max_seconds=args.max_seconds,
    )
    artifacts.write_precompute_sidecar(
        index, args.artifacts, kernel_plan=record
    )
    for which, entry in record.items():
        print(
            f"{which}: backend={entry['backend']}"
            f" limb_bits={entry['limb_bits']}"
            f" chunk_rows={entry['chunk_rows']}"
            f" workers={entry['workers']}"
            f" throughput={entry['throughput']:.1f} q/s"
        )
    print(f"kernel plan written to {args.artifacts}/precompute.npz")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.indexer import TiptoeIndex
    from repro.core.services import build_services
    from repro.net.tcp import ServerRunner

    index = TiptoeIndex.load(args.artifacts)
    if args.kernel_backend is not None:
        index.config = index.config.with_(kernel_backend=args.kernel_backend)
    runner = ServerRunner(
        build_services(
            index, shard=args.shard, num_shards=args.num_shards
        ).values(),
        host=args.host,
        port=args.port,
        max_workers=args.workers,
    )
    runner.start()
    host, port = runner.address
    # The bound port line is the hand-off contract with `query`, the
    # fleet launcher, and the CI smoke test: printed first and flushed
    # immediately.
    print(f"serving on {host}:{port}", flush=True)
    try:
        runner.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        runner.close()
    return 0


def _write_fleet_pidfiles(run_dir, launcher) -> list:
    """Drop one pidfile per process under the run directory.

    ``router.pid`` is this process; ``shard<i>-replica<j>.pid`` are the
    worker subprocesses.  Process managers watch these instead of
    scraping stdout; they live under ``--run-dir`` (a tempdir unless
    overridden) so a killed fleet never litters the working tree.
    """
    import os

    written = []
    pids = [("router", os.getpid())]
    for shard, row in enumerate(launcher.procs):
        for replica, proc in enumerate(row):
            pids.append((f"shard{shard}-replica{replica}", proc.pid))
    for name, pid in pids:
        path = run_dir / f"{name}.pid"
        path.write_text(f"{pid}\n")
        written.append(path)
    return written


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.core import artifacts
    from repro.core.fleet import FleetConfig, FleetLauncher, FleetRouter
    from repro.net.tcp import ServerRunner

    launcher = FleetLauncher(
        args.artifacts,
        num_shards=args.shards,
        replicas_per_shard=args.replicas,
        host=args.host,
    )
    router = FleetRouter(
        FleetConfig(
            max_inflight=args.max_inflight,
            rpc_timeout_s=args.rpc_timeout,
        )
    )
    runner = ServerRunner(
        [router],
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        fallback=router.route,
    )
    # SIGTERM must run the finally below, or the worker subprocesses
    # outlive the front door as orphans (`kill <pid>` is how process
    # managers stop us).
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    if args.run_dir is not None:
        run_dir = Path(args.run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
    else:
        run_dir = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
    pidfiles: list = []
    try:
        spec = launcher.start()
        pidfiles = _write_fleet_pidfiles(run_dir, launcher)
        router.add_generation(spec, make_current=True)
        runner.start()
        router.warm_generation(spec.generation)
        host, port = runner.address
        # Hand-off contract, fleet flavor: first line carries the bound
        # front-door address and the serving index generation tag.
        print(
            f"fleet serving on {host}:{port}"
            f" generation {spec.generation}",
            flush=True,
        )
        print(
            f"  {args.shards} shard(s) x {args.replicas} replica(s),"
            f" artifact {artifacts.artifact_digest(args.artifacts)[:12]}...,"
            f" pidfiles in {run_dir}",
            flush=True,
        )
        runner.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        runner.close()
        launcher.stop()
        for path in pidfiles:
            path.unlink(missing_ok=True)
    return 0


def _ingest_source(args: argparse.Namespace):
    from repro.corpus.source import (
        MutatedDocumentSource,
        SyntheticDocumentSource,
        TrecDocumentSource,
    )
    from repro.corpus.synthetic import SyntheticCorpusConfig

    if args.trec is not None:
        source = TrecDocumentSource(args.trec, batch_size=args.batch_size)
    else:
        source = SyntheticDocumentSource(
            SyntheticCorpusConfig(num_docs=args.docs, seed=args.seed),
            batch_size=args.batch_size,
        )
    if getattr(args, "mutate_fraction", 0.0):
        source = MutatedDocumentSource(
            source, args.mutate_fraction, mutate_seed=args.mutate_seed
        )
    return source


def _cmd_ingest(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.config import TiptoeConfig
    from repro.ingest import IngestConfig, run_ingest

    out = Path(args.out)
    spool = Path(args.spool) if args.spool else out.with_suffix(".spool")
    report = run_ingest(
        _ingest_source(args),
        TiptoeConfig(),
        out,
        spool_dir=spool,
        ingest=IngestConfig(batch_size=args.batch_size, workers=args.workers),
        precompute=True,
    )
    for stage in report.stages:
        counters = " ".join(f"{k}={v}" for k, v in sorted(stage.counters.items()))
        print(f"  {stage.name:8s} {stage.status:8s} {counters}")
    print(
        f"index over {report.num_docs} documents"
        f" ({report.num_clusters} clusters) written to {out};"
        f" generation {report.generation_tag}, spool {spool}"
    )
    return 0


def _cmd_reindex(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.updates import reindex
    from repro.ingest import IngestConfig

    prev = Path(args.artifacts)
    spool = Path(args.spool) if args.spool else prev.with_suffix(".spool")
    report = reindex(
        prev,
        _ingest_source(args),
        args.out,
        spool_dir=spool,
        ingest=IngestConfig(batch_size=args.batch_size, workers=args.workers),
        full=args.full,
    )
    mode = "full rebuild" if report.full else "delta"
    print(
        f"{mode}: {report.docs_embedded} docs embedded"
        f" / {report.docs_reused} reused;"
        f" {report.clusters_encrypted} clusters re-encrypted"
        f" / {report.clusters_reused} reused"
    )
    print(
        f"snapshot over {report.num_docs} documents written to"
        f" {report.out_dir}; generation {report.generation_tag}"
        f" (swap-ready for serve-fleet)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.engine import TiptoeEngine
    from repro.core.indexer import TiptoeIndex

    index = TiptoeIndex.load(args.artifacts)
    engine = TiptoeEngine.connect(
        index, args.host, args.port, generation=args.generation
    )
    try:
        result = engine.search(args.query, np.random.default_rng(args.seed))
        for r in result.results[: args.top]:
            print(f"  score={r.score:6d}  {r.url or '(outside fetched batch)'}")
        up, down = result.traffic.bytes_up(), result.traffic.bytes_down()
        print(f"traffic: {up:,} B up / {down:,} B down")
    finally:
        engine.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tiptoe private-search reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one private query")
    demo.add_argument("--docs", type=int, default=400)
    demo.add_argument("--query", type=str, default=None)
    demo.add_argument("--top", type=int, default=5)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)

    plan = sub.add_parser("plan", help="analytic cost plan (SS8.5)")
    plan.add_argument("docs", type=int)
    plan.add_argument("--dim", type=int, default=192)
    plan.set_defaults(func=_cmd_plan)

    quality = sub.add_parser("quality", help="quick quality evaluation")
    quality.add_argument("--docs", type=int, default=500)
    quality.add_argument("--queries", type=int, default=50)
    quality.add_argument("--seed", type=int, default=0)
    quality.set_defaults(func=_cmd_quality)

    params = sub.add_parser("params", help="LWE parameter table")
    params.add_argument("--q-bits", type=int, choices=(32, 64), default=32)
    params.set_defaults(func=_cmd_params)

    obs_report = sub.add_parser(
        "obs-report", help="instrumented query run + observability report"
    )
    obs_report.add_argument("--docs", type=int, default=400)
    obs_report.add_argument("--queries", type=int, default=3)
    obs_report.add_argument("--seed", type=int, default=0)
    obs_report.add_argument(
        "--trace-out", type=str, default=None,
        help="write the last query's trace as JSON to this path",
    )
    obs_report.add_argument(
        "--json", action="store_true",
        help="dump the metrics snapshot as JSON instead of the text report",
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    build_index = sub.add_parser(
        "build-index", help="run the batch jobs and persist the artifacts"
    )
    build_index.add_argument("out", type=str, help="artifact directory")
    build_index.add_argument("--docs", type=int, default=400)
    build_index.add_argument("--seed", type=int, default=0)
    build_index.add_argument(
        "--precompute", action="store_true",
        help="also write the precompute.npz sidecar (hint NTT tables +"
        " plan metadata + autotuned kernel plan) so serve cold-starts"
        " without forward NTTs and straight into the tuned kernel",
    )
    build_index.add_argument(
        "--no-kernel-autotune", action="store_true",
        help="with --precompute: skip the kernel autotuner (the sidecar"
        " then carries no KernelPlan record and serve uses defaults)",
    )
    build_index.set_defaults(func=_cmd_build_index)

    tune_kernels = sub.add_parser(
        "tune-kernels",
        help="benchmark kernel backends against saved index matrices and"
        " persist the winning KernelPlan in the precompute sidecar",
    )
    tune_kernels.add_argument("artifacts", type=str, help="artifact directory")
    tune_kernels.add_argument(
        "--batch", type=int, default=16,
        help="stacked batch width the tuner optimizes for",
    )
    tune_kernels.add_argument(
        "--repeats", type=int, default=3,
        help="timed repetitions per candidate (more = less noise)",
    )
    tune_kernels.add_argument(
        "--max-seconds", type=float, default=None,
        help="total tuning budget; once spent, remaining candidates are"
        " skipped (a reference default always runs, so a plan is"
        " always produced) -- keeps CI tuning bounded",
    )
    tune_kernels.set_defaults(func=_cmd_tune_kernels)

    serve = sub.add_parser(
        "serve", help="serve saved index artifacts over TCP"
    )
    serve.add_argument("artifacts", type=str, help="artifact directory")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; the bound port is printed)",
    )
    serve.add_argument("--workers", type=int, default=8)
    serve.add_argument(
        "--shard", type=int, default=0,
        help="serve only this ranking shard (fleet worker mode);"
        " answers are partial sums the fleet router aggregates",
    )
    serve.add_argument(
        "--num-shards", type=int, default=1,
        help="total ranking shards in the fleet (with --shard)",
    )
    serve.add_argument(
        "--kernel-backend", type=str, default=None,
        choices=("auto", "reference", "multiprocess", "cnative"),
        help="kernel backend for the hot GEMMs (default: the index"
        " config's knob -- 'auto' uses the sidecar's tuned plan)",
    )
    serve.set_defaults(func=_cmd_serve)

    serve_fleet = sub.add_parser(
        "serve-fleet",
        help="spawn shard worker processes and serve through the"
        " fleet router front door",
    )
    serve_fleet.add_argument(
        "artifacts", type=str, help="artifact directory"
    )
    serve_fleet.add_argument("--host", type=str, default="127.0.0.1")
    serve_fleet.add_argument(
        "--port", type=int, default=0,
        help="front-door TCP port (0 picks a free one)",
    )
    serve_fleet.add_argument(
        "--shards", type=int, default=3,
        help="ranking shards (worker processes per replica set)",
    )
    serve_fleet.add_argument(
        "--replicas", type=int, default=1,
        help="replicas per shard (failover capacity)",
    )
    serve_fleet.add_argument("--workers", type=int, default=8)
    serve_fleet.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission-control cap before load shedding",
    )
    serve_fleet.add_argument("--rpc-timeout", type=float, default=5.0)
    serve_fleet.add_argument(
        "--run-dir", type=str, default=None,
        help="directory for router/worker pidfiles (default: a fresh"
        " tempdir, so nothing lands in the working tree)",
    )
    serve_fleet.set_defaults(func=_cmd_serve_fleet)

    ingest = sub.add_parser(
        "ingest",
        help="streaming staged index build (bounded memory, resumable)",
    )
    ingest.add_argument("out", type=str, help="artifact directory")
    ingest.add_argument("--docs", type=int, default=400)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--trec", type=str, default=None,
        help="stream a docs.tsv export instead of the synthetic corpus",
    )
    ingest.add_argument(
        "--batch-size", type=int, default=512,
        help="documents per streamed batch (the memory knob)",
    )
    ingest.add_argument(
        "--workers", type=int, default=0,
        help="embedding worker processes (0 = inline)",
    )
    ingest.add_argument(
        "--spool", type=str, default=None,
        help="stage checkpoint directory (default: <out>.spool);"
        " a rerun resumes from the last completed stage",
    )
    ingest.add_argument("--mutate-fraction", type=float, default=0.0)
    ingest.add_argument("--mutate-seed", type=int, default=0)
    ingest.set_defaults(func=_cmd_ingest)

    reindex_p = sub.add_parser(
        "reindex",
        help="incremental delta rebuild against a new corpus snapshot",
    )
    reindex_p.add_argument(
        "artifacts", type=str, help="previous snapshot's artifact directory"
    )
    reindex_p.add_argument("out", type=str, help="new artifact directory")
    reindex_p.add_argument("--docs", type=int, default=400)
    reindex_p.add_argument("--seed", type=int, default=0)
    reindex_p.add_argument("--trec", type=str, default=None)
    reindex_p.add_argument("--batch-size", type=int, default=512)
    reindex_p.add_argument("--workers", type=int, default=0)
    reindex_p.add_argument(
        "--spool", type=str, default=None,
        help="the BASE build's spool directory (default:"
        " <artifacts>.spool) -- the delta's hint cache lives there",
    )
    reindex_p.add_argument(
        "--mutate-fraction", type=float, default=0.0,
        help="seeded fraction of documents to mutate (snapshot-change"
        " simulator for the synthetic corpus)",
    )
    reindex_p.add_argument("--mutate-seed", type=int, default=0)
    reindex_p.add_argument(
        "--full", action="store_true",
        help="rebuild from scratch under the same pinned models"
        " (bit-identity check against the delta path)",
    )
    reindex_p.set_defaults(func=_cmd_reindex)

    query = sub.add_parser(
        "query", help="run a private search against a running serve"
    )
    query.add_argument("artifacts", type=str, help="artifact directory")
    query.add_argument("query", type=str)
    query.add_argument("--host", type=str, default="127.0.0.1")
    query.add_argument("--port", type=int, required=True)
    query.add_argument("--top", type=int, default=5)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--generation", type=str, default=None,
        help="pin the session to one fleet index generation tag",
    )
    query.set_defaults(func=_cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer (head, less) that closed early.
        return 0


if __name__ == "__main__":
    sys.exit(main())
