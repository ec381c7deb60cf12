"""What the benchmark runs: fixtures, workloads and the two size profiles.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root and nowhere else; :func:`load_contract` reads them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from benchmarks.e2e.env import ROOT
from repro.core.config import TiptoeConfig
from repro.corpus.source import MutatedDocumentSource, SyntheticDocumentSource
from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.lwe.params import SecurityLevel

#: Client threads = connections of the one load-generator process.
CLIENTS = min(os.cpu_count() or 1, 4)

#: The corpus and its daily edit are part of the fixture recipe, not of
#: the workload seed: the same recipe must give a bit-identical artifact
#: on every run, which is what makes ``bytes_per_query`` and the digest
#: check exact.  ``--seed`` drives the queries and the client RNGs.
CORPUS_SEED = 0
MUTATE_SEED = 9
MUTATE_FRACTION = 0.02

QUERIES_PER_BATCH = 16


@dataclass(frozen=True)
class Fixture:
    """One index recipe, built through ``run_ingest`` then ``reindex``."""

    name: str
    config: TiptoeConfig
    #: Embed-stage worker processes (``IngestConfig.workers``).
    workers: int

    def source(self, docs: int) -> SyntheticDocumentSource:
        return SyntheticDocumentSource(
            SyntheticCorpusConfig(
                num_docs=docs,
                num_topics=max(12, docs // 500),
                vocab_size=max(900, docs // 10),
                seed=CORPUS_SEED,
            )
        )

    def mutated(self, docs: int, edit: int) -> MutatedDocumentSource:
        """The corpus after its ``edit``-th 2 % edit (each edits the base)."""
        return MutatedDocumentSource(
            self.source(docs), MUTATE_FRACTION, mutate_seed=MUTATE_SEED + edit
        )


_TOY = TiptoeConfig(embedding_dim=64, pca_dim=32, security=SecurityLevel.TOY)

FIXTURES = {
    f.name: f
    for f in (
        Fixture("small_light", TiptoeConfig(security=SecurityLevel.LIGHT), 0),
        Fixture("large_toy", _TOY, CLIENTS),
        # Same recipe as large_toy at 1.5x the size, so that per-document
        # work (embedding) rather than model fitting dominates the build.
        Fixture("bulk_toy", _TOY, CLIENTS),
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture: str
    #: ``serve-fleet --shards 2 --replicas 1`` instead of one ``serve``.
    fleet: bool
    #: "full" = fetch_tokens(1) + search; "search" = search on replayed
    #: tokens; "batch16" = one answer_batch RPC carrying 16 queries.
    op: str
    clients: int = CLIENTS

    @property
    def queries_per_op(self) -> int:
        return QUERIES_PER_BATCH if self.op == "batch16" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "query_full",
            "whole per-query bill, fresh token each time: mint/NTT and the"
            " token upload dominate, GEMM under 1 %",
            "small_light", False, "full",
            # A full query is 0.4 s of *client* CPU (key generation under
            # the GIL) against 0.03 s of server CPU.  Two of them in one
            # generator process serialise on the generator's GIL: latency
            # doubles, throughput drops, and the run measures the load
            # generator.  One client is what a user's machine does.
            clients=1,
        ),
        Workload(
            "search_online",
            "latency-critical path over the fleet with token cost zero:"
            " client crypto, socket, router fan-out/fold, GEMM, URL PIR",
            "large_toy", True, "search",
        ),
        Workload(
            "ranking_batch",
            "same fleet and GEMM at Q=16 with 16x larger frames: shows a"
            " kernel or codec change that helps one shape and costs the other",
            "large_toy", True, "batch16",
        ),
        Workload(
            "ingest_build",
            "write path at 1.5x the corpus: embed, cluster, hint"
            " preprocessing, artifact write/load, then serve what was built",
            "bulk_toy", False, "search",
        ),
    )
}


@dataclass(frozen=True)
class Profile:
    name: str
    docs: dict
    #: Cold starts per set-up; ``setup_s`` uses their median.
    cold_starts: int
    #: Delta reindexes per set-up (different 2 % edits of the same base);
    #: the median is reported and the last generation is served.
    reindexes: int
    #: Real tokens minted per client for replay.
    tokens_per_client: int
    #: Pre-built 16-query batches per client (ranking_batch).
    batches_per_client: int
    #: Distinct query texts per client.
    queries_per_client: int
    warmup_s: float


PROFILES = {
    "default": Profile(
        "default",
        {"small_light": 3000, "large_toy": 8000, "bulk_toy": 12000},
        cold_starts=5,
        reindexes=5,
        tokens_per_client=8,
        batches_per_client=16,
        queries_per_client=64,
        warmup_s=1.0,
    ),
    "smoke": Profile(
        "smoke",
        {"small_light": 400, "large_toy": 2000, "bulk_toy": 2000},
        cold_starts=1,
        reindexes=1,
        tokens_per_client=2,
        batches_per_client=2,
        queries_per_client=8,
        warmup_s=0.2,
    ),
}


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
