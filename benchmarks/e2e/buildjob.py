"""The write path of one set-up, run as a child process.

``python -m benchmarks.e2e.buildjob <fixture> <docs> <reindexes> <dir>``
ingests the fixture's corpus into a fresh spool, then reindexes
``<reindexes>`` different 2 %-mutated snapshots against it (into
``delta0``, ``delta1``, ...; only the last is kept), and prints one JSON
report.  A child process keeps the build's CPU and memory high-water
mark apart from the load generator's.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

STAGES = ("source", "filter", "model", "embed", "cluster", "pack", "encrypt")


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _stage_seconds(spool: Path, started: float) -> dict:
    """Per-stage wall time from the ``stage.json`` completion mtimes."""
    seconds = {}
    previous = started
    for name in STAGES:
        done = (spool / name / "stage.json").stat().st_mtime
        seconds[name] = done - previous
        previous = done
    return seconds


def _peak_rss_mb() -> float:
    """Largest resident set of any single process of the build so far.

    This process's own high-water mark is ``VmHWM``, not ``ru_maxrss``:
    the latter survives ``exec`` and so starts at the resident set of
    the load generator that spawned us.  The embed workers are forked
    from this process and reported through ``RUSAGE_CHILDREN``.
    """
    status = Path("/proc/self/status").read_text()
    own_kb = int(status.split("VmHWM:")[1].split()[0])
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, workers_kb) / 1024.0


def build(fixture_name: str, docs: int, reindexes: int, root: Path) -> dict:
    from benchmarks.e2e.spec import FIXTURES
    from repro.core import artifacts
    from repro.core.updates import reindex
    from repro.ingest import IngestConfig, run_ingest

    fixture = FIXTURES[fixture_name]
    ingest = IngestConfig(workers=fixture.workers)
    base, spool = root / "base", root / "spool"

    started_wall = time.time()
    started = time.perf_counter()
    report = run_ingest(
        fixture.source(docs), fixture.config, base,
        spool_dir=spool, ingest=ingest,
    )
    ingest_s = time.perf_counter() - started
    result = {
        "docs": report.num_docs,
        "clusters": report.num_clusters,
        "ingest_s": ingest_s,
        "ingest_peak_rss_mb": _peak_rss_mb(),
        "stage_s": _stage_seconds(spool, started_wall),
        "spool_bytes": _tree_bytes(spool),
        "artifact_bytes": _tree_bytes(base),
        "base_digest": report.artifact_digest,
    }

    result.update(reindex_delta_s=[], delta_digests=[])
    for edit in range(reindexes):
        delta = root / f"delta{edit}"
        started = time.perf_counter()
        delta_report = reindex(
            base, fixture.mutated(docs, edit), delta,
            spool_dir=spool, ingest=ingest,
        )
        result["reindex_delta_s"].append(time.perf_counter() - started)
        result["delta_digests"].append(artifacts.artifact_digest(delta))
        if edit:
            shutil.rmtree(root / f"delta{edit - 1}")
    # Only the newest generation is served.  Deleting the rest now, while
    # its pages are still dirty in the page cache, means it is never
    # written back: a run that outlives the kernel's 30 s dirty-page
    # expiry would otherwise be measured against its own disk traffic.
    shutil.rmtree(spool)
    shutil.rmtree(base)
    result.update(
        docs_reembedded=delta_report.docs_embedded,
        clusters_reencrypted=delta_report.clusters_encrypted,
    )
    return result


if __name__ == "__main__":
    fixture_arg, docs_arg, reindexes_arg, root_arg = sys.argv[1:]
    print(
        json.dumps(
            build(fixture_arg, int(docs_arg), int(reindexes_arg), Path(root_arg))
        )
    )
