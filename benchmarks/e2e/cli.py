"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1``
    One workload, one pass; the last line of stdout is the result object
    the benchmark contract asks for.
``python -m benchmarks.e2e [--smoke] [--repeat N] [--label L]``
    Every workload, both passes; writes ``RESULT_<label>.json``,
    ``BUDGET_<label>.txt`` and ``TRACE_<workload>_<label>.json`` under
    ``benchmarks/e2e/out/``.
``python -m benchmarks.e2e compare A.json B.json`` / ``compare --repeat N``
    Apply the per-metric bounds to two result files, or to N sets run
    back to back on this commit (alternately filed as A and B).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

import numpy as np

from benchmarks.e2e import compare as cmp
from benchmarks.e2e import trace
from benchmarks.e2e.deploy import adopt_orphans, reap_descendants
from benchmarks.e2e.env import OUT, PINNED_ENV, ROOT, WORK
from benchmarks.e2e.run import run_workload
from benchmarks.e2e.spec import PROFILES, WORKLOADS, load_contract

#: A single workload must end inside the contract's 180 s, teardown
#: included; the watchdog fires early enough to leave time for it.
WATCHDOG_S = 165
SMOKE_SECONDS = 1.5


def say(message: str) -> None:
    print(f"[e2e] {message}", file=sys.stderr, flush=True)


def _interrupt(signum, frame):
    # Unwind through every ``finally`` so spawned servers are reaped.
    raise KeyboardInterrupt(f"signal {signum}")


def _watchdog(signum, frame):
    raise TimeoutError(f"workload exceeded {WATCHDOG_S} s; aborting")


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "pinned": {var: os.environ.get(var) for var in PINNED_ENV},
        "nproc": os.cpu_count(),
        "clients": {w.name: w.clients for w in WORKLOADS.values()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "unavailable_backends": trace.unavailable_backends(),
    }


def _checked(contract: dict, kind: str, metrics: dict) -> dict:
    """Attach units; the emitted names must be exactly the contract's."""
    declared = {m["name"]: m["unit"] for m in contract[kind]}
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: missing"
            f" {sorted(set(declared) - set(metrics))}, undeclared"
            f" {sorted(set(metrics) - set(declared))}"
        )
    return {
        name: {"value": float(metrics[name]), "unit": declared[name]}
        for name in declared
    }


def _print_pass(run: dict, kind: str, contract: dict) -> None:
    part = run["e2e" if kind == "end_to_end" else "trace"]
    print(
        f"\n== {run['workload']} ({kind}, seed {run['seed']}):"
        f" {part['attempted']} operations attempted,"
        f" {part['attempted'] - part['failed']} succeeded,"
        f" {part['failed']} failed {part['failures'] or ''}"
    )
    for name, entry in _checked(contract, kind, part["metrics"]).items():
        print(f"  {name:34s} {entry['value']:16.6g} {entry['unit']}")
    if kind == "end_to_end":
        print(
            f"  latency p{part['latency_tail_pct']:g} (highest percentile"
            f" with >= 10 samples beyond it): {part['latency_tail_ms']:.3f} ms"
            f" over {part['correct']} samples"
        )
    else:
        print("\n".join(part["budget"]))


def _run_one(name, profile, seed, seconds, e2e, traced, work, contract) -> dict:
    signal.alarm(WATCHDOG_S * (e2e + traced))
    try:
        run = run_workload(
            name, profile, seed, seconds,
            e2e=e2e, traced=traced, work=work, say=say,
        )
    finally:
        signal.alarm(0)
        shutil.rmtree(work / name, ignore_errors=True)
    if e2e:
        _print_pass(run, "end_to_end", contract)
    if traced:
        _print_pass(run, "per_layer", contract)
    if not run["setup"]["digests_repeat"]:
        print(
            f"  !! {name}: artifact digests differ from this checkout's"
            " earlier build of the same recipe"
        )
    return run


def _write_trace(run: dict, label: str) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"TRACE_{run['workload']}_{label}.json"
    path.write_text(json.dumps(run["trace"].pop("trace_file"), indent=1))


def _contract_mode(args, profile, seconds, work, contract) -> int:
    traced = args.trace == 1
    run = _run_one(
        args.workload, profile, args.seed, seconds,
        not traced, traced, work, contract,
    )
    if traced:
        _write_trace(run, args.label)
        metrics = _checked(contract, "per_layer", run["trace"]["metrics"])
    else:
        metrics = _checked(contract, "end_to_end", run["e2e"]["metrics"])
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _run_sets(args, profile, seconds, work, contract) -> list[dict]:
    """``--repeat`` sets of every workload; set i uses seed ``seed + i``."""
    passes = {None: (True, True), 0: (True, False), 1: (False, True)}[args.trace]
    runs = []
    for index in range(args.repeat):
        for name in WORKLOADS:
            run = _run_one(
                name, profile, args.seed + index, seconds, *passes, work,
                contract,
            )
            run["set"] = index
            runs.append(run)
    return runs


def _all_mode(args, profile, seconds, work, contract) -> int:
    runs = _run_sets(args, profile, seconds, work, contract)
    OUT.mkdir(exist_ok=True)
    budget = []
    for run in runs:
        if "trace" in run:
            _write_trace(run, args.label)
            budget += run["trace"]["budget"] + [""]
    if budget:
        (OUT / f"BUDGET_{args.label}.txt").write_text("\n".join(budget))
    result = {
        "schema": "benchmarks.e2e.result/v1",
        "label": args.label,
        "profile": profile.name,
        "seconds": seconds,
        "environment": environment(),
        "runs": runs,
        "claim": None,
    }
    path = OUT / f"RESULT_{args.label}.json"
    path.write_text(json.dumps(result, indent=1))
    summary = {
        "result": str(path.relative_to(ROOT)),
        "workloads": {
            run["workload"]: {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
            }
            for run in runs
        },
        "correct": all(run["correct"] for run in runs),
        "claim": None,
    }
    print(json.dumps(summary))
    return 0


def _compare_mode(argv, contract) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat:
        if args.repeat < 2 or args.files:
            parser.error("--repeat N needs N >= 2 and no files")
        args.trace, args.label = 0, "compare"
        profile, seconds, work = _profile(args, contract)
        try:
            runs = _run_sets(args, profile, seconds, work, contract)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        a, b = ({"runs": [r for r in runs if r["set"] % 2 == k]} for k in (0, 1))
    elif len(args.files) == 2:
        a, b = (cmp.load(path) for path in args.files)
    else:
        parser.error("give two result files, or --repeat N")
    rows = cmp.compare(a, b, contract)
    print("\n".join(cmp.render(rows)))
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


def _profile(args, contract):
    profile = PROFILES["smoke" if args.smoke else "default"]
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return profile, seconds, work


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _watchdog)
    adopt_orphans()
    try:
        return _main(argv)
    finally:
        # Whatever way out was taken: no process of ours outlives us.
        reap_descendants()


def _main(argv: list[str]) -> int:
    contract = load_contract()
    if argv[:1] == ["compare"]:
        return _compare_mode(argv[1:], contract)

    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: untraced end-to-end pass; 1: trace pass (per-layer"
        " metrics); default: 0 with --workload, both without",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--label", default="local")
    args = parser.parse_args(argv)
    profile, seconds, work = _profile(args, contract)
    try:
        if args.workload is not None:
            return _contract_mode(args, profile, seconds, work, contract)
        return _all_mode(args, profile, seconds, work, contract)
    finally:
        shutil.rmtree(work, ignore_errors=True)
