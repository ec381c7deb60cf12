"""The load generator: client threads, the three operations, timed windows.

Everything here is closed loop -- a Tiptoe client waits for its ranking
answer before it can ask for the URL, and one generator process capped
at ``nproc`` connections cannot build a server-side queue -- so a window
is the workload's client threads, each issuing its next operation as
soon as the previous one has been checked against the oracle.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from benchmarks.e2e.oracle import Expected, Oracle, search_matches
from benchmarks.e2e.spec import QUERIES_PER_BATCH, Profile, Workload
from repro.core.engine import TiptoeEngine
from repro.core.ranking import RankingAnswer, RankingBatch
from repro.homenc.token import QueryToken
from repro.net import wire
from repro.net.rpc import RpcChannel
from repro.net.transport import TrafficLog, TransportError

HOST = "127.0.0.1"


class ReplayEngine(TiptoeEngine):
    """Benchmark-only engine that hands out already-minted tokens again.

    Each token was really minted against the server in set-up; every
    later ``mint_token`` wraps one of them in a fresh ``QueryToken``, so
    the search path does byte-for-byte the work it does with a fresh
    token while the token phase costs nothing.  Reusing an inner secret
    key voids the privacy of the queries -- acceptable only because the
    benchmark's queries are not secrets.
    """

    def load_tokens(self, count: int, rng: np.random.Generator) -> None:
        mint = super().mint_token  # zero-argument super() needs this scope
        self.replay = [mint(rng) for _ in range(count)]
        self._next = 0

    def mint_token(self, rng: np.random.Generator | None = None) -> QueryToken:
        token = self.replay[self._next % len(self.replay)]
        self._next += 1
        return QueryToken(
            keys=token.keys,
            hint_products=token.hint_products,
            upload_bytes=token.upload_bytes,
            download_bytes=token.download_bytes,
        )


@dataclass
class Batch:
    """One pre-built 16-query batch and how to check its answer."""

    queries: RankingBatch
    #: Per column: (ranking keys, ranking hint product, expected scores).
    columns: list[tuple]


@dataclass
class Driver:
    """One client thread: its connection, client state and inputs."""

    engine: TiptoeEngine
    client: object
    queries: list[tuple[str, Expected]]
    batches: list[Batch] = field(default_factory=list)
    ops: int = 0
    #: Set and read by the trace pass only (see trace.py).
    tracer: object = None
    traffic_of_full: object = None

    def next_query(self) -> tuple[str, Expected]:
        self.ops += 1
        return self.queries[self.ops % len(self.queries)]

    def next_batch(self) -> Batch:
        self.ops += 1
        return self.batches[self.ops % len(self.batches)]


def make_queries(fixture, docs: int, seed: int, count: int) -> list[str]:
    """``count`` query texts: seeded word runs out of corpus documents."""
    rng = np.random.default_rng([seed, 0x9E3779B9])
    texts = next(iter(fixture.source(docs).batches())).texts
    queries = []
    for _ in range(count):
        words = texts[int(rng.integers(len(texts)))].split()
        length = int(rng.integers(3, 7))
        start = int(rng.integers(max(1, len(words) - length)))
        queries.append(" ".join(words[start : start + length]))
    return queries


def build_batches(driver: Driver, count: int) -> list[Batch]:
    client, tokens = driver.client, driver.engine.replay
    batches = []
    for b in range(count):
        queries, columns = [], []
        for j in range(QUERIES_PER_BATCH):
            text, expected = driver.queries[
                (b * QUERIES_PER_BATCH + j) % len(driver.queries)
            ]
            token = tokens[j % len(tokens)]
            _, quantized = client.embed_query(text)
            queries.append(
                client.ranking.build_query(
                    token.keys["ranking"], quantized, expected.cluster,
                    client.rng,
                )
            )
            columns.append(
                (
                    token.keys["ranking"],
                    token.hint_products["ranking"],
                    expected.scores,
                )
            )
        batches.append(
            Batch(queries=RankingBatch.from_queries(queries), columns=columns)
        )
    return batches


def make_drivers(
    workload: Workload, profile: Profile, index, oracle: Oracle,
    port: int, seed: int, texts: list[str],
) -> list[Driver]:
    """Connect the client threads' engines and prepare their inputs;
    ``texts`` are dealt out round-robin."""
    drivers = []
    for k in range(workload.clients):
        rng = np.random.default_rng([seed, k])
        mine = texts[k :: workload.clients]
        queries = [(text, oracle.expect(text)) for text in mine]
        if workload.op == "full":
            engine = TiptoeEngine.connect(index, HOST, port)
        else:
            engine = ReplayEngine.connect(index, HOST, port)
            engine.load_tokens(profile.tokens_per_client, rng)
        driver = Driver(
            engine=engine, client=engine.new_client(rng), queries=queries
        )
        if workload.op == "batch16":
            driver.batches = build_batches(driver, profile.batches_per_client)
        drivers.append(driver)
    return drivers


def close_drivers(drivers: list[Driver]) -> None:
    for driver in drivers:
        driver.client.close()
        driver.engine.close()


# -- the operations: each returns (seconds, correct?, bytes on the wire) ----


def op_full(driver: Driver) -> tuple[float, bool, int]:
    text, expected = driver.next_query()
    start = time.perf_counter()
    driver.client.fetch_tokens(1)
    result = driver.client.search(text)
    seconds = time.perf_counter() - start
    return seconds, search_matches(expected, result), result.traffic.total_bytes()


def op_search(driver: Driver) -> tuple[float, bool, int]:
    text, expected = driver.next_query()
    start = time.perf_counter()
    result = driver.client.search(text)
    seconds = time.perf_counter() - start
    online = result.traffic.total_bytes("ranking") + result.traffic.total_bytes("url")
    return seconds, search_matches(expected, result), online


def batch_matches(client, batch: Batch, stacked: np.ndarray, q_bits: int) -> bool:
    """Decrypt every column of a batch answer and compare with the oracle."""
    for j, (keys, hint_product, expected) in enumerate(batch.columns):
        answer = RankingAnswer(values=stacked[:, j], bytes_per_element=q_bits // 8)
        scores = client.ranking.decode_scores(keys, answer, hint_product)
        if not np.array_equal(scores[: len(expected)], expected):
            return False
    return True


def op_batch16(driver: Driver) -> tuple[float, bool, int]:
    batch = driver.next_batch()
    log = TrafficLog()
    start = time.perf_counter()
    body = RpcChannel(log, driver.engine.transport).call(
        "ranking", "ranking", "answer_batch", wire.encode_batch(batch.queries)
    )
    stacked, q_bits = wire.decode_batch_answer(body)
    ok = batch_matches(driver.client, batch, stacked, q_bits)
    seconds = time.perf_counter() - start
    return seconds, ok, log.total_bytes()


OPS = {"full": op_full, "search": op_search, "batch16": op_batch16}


# -- timed windows -----------------------------------------------------------


@dataclass
class Window:
    """What one timed window of closed-loop client threads observed."""

    latencies_s: list[float]  # correct operations only
    attempted: int
    failures: Counter  # "mismatch" or the transport error's class name
    op_bytes: Counter  # bytes on the wire per correct operation -> count
    wall_s: float
    client_cpu_s: float
    server_cpu_s: dict[str, float]

    @property
    def correct(self) -> int:
        return len(self.latencies_s)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_window(
    drivers: list[Driver], op, seconds: float, server, *, min_ops: int = 0
) -> Window:
    """Drive ``op`` from every client thread for ``seconds`` seconds.

    A failed, refused or oracle-mismatching operation is counted and
    contributes no latency sample; any other exception is a harness
    defect and is re-raised here.
    """
    barrier = threading.Barrier(len(drivers) + 1)
    outcomes: list = [None] * len(drivers)

    def loop(k: int) -> None:
        latencies, failures, sizes, attempted = [], Counter(), Counter(), 0
        try:
            barrier.wait()
            deadline = time.perf_counter() + seconds
            while attempted < min_ops or time.perf_counter() < deadline:
                attempted += 1
                try:
                    taken, ok, nbytes = op(drivers[k])
                except TransportError as exc:
                    failures[type(exc).__name__] += 1
                    continue
                if ok:
                    latencies.append(taken)
                    sizes[nbytes] += 1
                else:
                    failures["mismatch"] += 1
            outcomes[k] = (
                latencies, failures, sizes, attempted, time.perf_counter()
            )
        except BaseException as exc:  # re-raised by the caller below
            barrier.abort()
            outcomes[k] = exc

    threads = [
        threading.Thread(
            target=loop, args=(k,), name=f"client-{k}", daemon=True
        )
        for k in range(len(drivers))
    ]
    for thread in threads:
        thread.start()
    server_before = server.cpu_by_process()
    cpu_before = time.process_time()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client thread failed before the start; reported below
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    client_cpu = time.process_time() - cpu_before
    server_after = server.cpu_by_process()
    errors = [o for o in outcomes if isinstance(o, BaseException)]
    if errors:
        # Prefer the root cause over the barrier breakage it caused.
        raise next(
            (e for e in errors if not isinstance(e, threading.BrokenBarrierError)),
            errors[0],
        )

    window = Window(
        latencies_s=[], attempted=0, failures=Counter(), op_bytes=Counter(),
        wall_s=max(o[4] for o in outcomes) - started,
        client_cpu_s=client_cpu,
        server_cpu_s={
            name: server_after[name] - server_before[name]
            for name in server_before
        },
    )
    for latencies, failures, sizes, attempted, _ in outcomes:
        window.latencies_s += latencies
        window.failures += failures
        window.op_bytes += sizes
        window.attempted += attempted
    return window
