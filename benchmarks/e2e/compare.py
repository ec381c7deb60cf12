"""Judge two result files against the bounds in ``BENCHMARK.json``.

One row per (workload, end-to-end metric).  A metric whose run-to-run
spread -- the distance between the first and third quartile as a share
of the median -- is wider than its bound on either side is *unresolved*,
not unchanged; otherwise it is *regressed* when B's median is worse than
A's by more than the bound, and *ok* when it is not.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _values(result: dict, workload: str, metric: str) -> list[float]:
    return [
        run["e2e"]["metrics"][metric]
        for run in result["runs"]
        if run["workload"] == workload and "e2e" in run
    ]


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median; None below two samples."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a: dict, b: dict, contract: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma
            if metric["better"] == "higher":
                worse = -worse
            spreads = [s for s in (spread(va), spread(vb)) if s is not None]
            if spreads and max(spreads) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": ma,
                    "b": mb,
                    "worse": worse,
                    "spread": max(spreads) if spreads else None,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: list[dict]) -> list[str]:
    lines = [
        f"{'workload':14s} {'metric':24s} {'unit':6s} {'A':>12s} {'B':>12s}"
        f" {'worse':>8s} {'spread':>8s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        spread_text = "n/a" if r["spread"] is None else f"{r['spread']:.1%}"
        lines.append(
            f"{r['workload']:14s} {r['metric']:24s} {r['unit']:6s}"
            f" {r['a']:12.5g} {r['b']:12.5g} {r['worse']:+8.1%}"
            f" {spread_text:>8s} {r['bound']:6.1%}  {r['verdict']}"
        )
    return lines


def load(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
