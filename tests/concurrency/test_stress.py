"""Dynamic validation of the static lock-order graph.

The lock-discipline checker derives a static acquisition-order graph
(`lock_order_edges`).  This harness swaps instrumented locks into the
real concurrency surfaces -- the client token stockpile's prefetch/take
path and the batch scheduler's admission queue -- hammers them from
many threads,
and asserts that every lock order actually observed at runtime is an
edge the static graph already knows about (and that both are acyclic).
"""

import threading
import time
from pathlib import Path

import pytest

from repro.analysis.checkers.locks import find_cycles, lock_order_edges
from repro.analysis.ir import CallGraph, Program
from repro.core.client import TiptoeClient
from repro.core.scheduler import BatchScheduler
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry

SRC = Path(__file__).resolve().parents[2] / "src"


# -- the instrumented-lock fixture -------------------------------------------


class LockOrderRecorder:
    """Collects (held, acquired) pairs per thread across all locks."""

    def __init__(self):
        self._local = threading.local()
        self._edges_lock = threading.Lock()
        self.edges: set[tuple[str, str]] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def acquired(self, name: str) -> None:
        stack = self._stack()
        new_edges = {(held, name) for held in stack}
        if new_edges:
            with self._edges_lock:
                self.edges |= new_edges
        stack.append(name)

    def released(self, name: str) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                break


class InstrumentedLock:
    """A ``threading.Lock`` stand-in that reports to a recorder.

    Only the public lock protocol is implemented, so a
    ``threading.Condition`` built on top of it falls back to plain
    ``acquire``/``release`` -- which keeps every (re)acquisition,
    including the one after ``wait``, visible to the recorder.
    """

    def __init__(self, name: str, recorder: LockOrderRecorder):
        self._name = name
        self._recorder = recorder
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._recorder.acquired(self._name)
        return got

    def release(self) -> None:
        self._recorder.released(self._name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


@pytest.fixture(scope="module")
def static_edges():
    program = Program.load(sorted((SRC / "repro").rglob("*.py")))
    edges = lock_order_edges(program, CallGraph(program))
    assert find_cycles(edges) == [], "static lock-order graph has a cycle"
    return set(edges)


@pytest.fixture
def recorder():
    return LockOrderRecorder()


@pytest.fixture
def instrumented_obs(recorder):
    """An enabled metrics registry whose locks report to the recorder."""
    registry = MetricsRegistry()
    registry._lock = InstrumentedLock("MetricsRegistry._lock", recorder)
    obs.enable(metrics=registry)
    # Pre-create the metric the prefetcher touches so its lock is ours.
    registry.gauge("client.tokens_available")._lock = InstrumentedLock(
        "Gauge._lock", recorder
    )
    yield registry
    obs.disable()


class CountingEngine:
    """An engine double for the client: real index metadata, and
    unique integers for tokens so a double hand-out is visible."""

    def __init__(self, index):
        self.index = index
        self._lock = threading.Lock()
        self.minted = 0

    def mint_tokens(self, count, rng=None):
        with self._lock:
            start, self.minted = self.minted, self.minted + count
        time.sleep(0.0002)  # make refills overlap with takers
        return list(range(start, start + count))

    def mint_token(self, rng=None):
        return self.mint_tokens(1, rng)[0]


def instrument_scheduler(
    sched: BatchScheduler, recorder: LockOrderRecorder
) -> None:
    sched._lock = InstrumentedLock("BatchScheduler._lock", recorder)
    sched._wakeup = threading.Condition(sched._lock)


# -- the client token stockpile under fire ------------------------------------


def instrumented_client(
    index, recorder: LockOrderRecorder, depth: int
) -> TiptoeClient:
    """A client whose stockpile lock reports to ``recorder``."""
    # Depth 0 at construction: the prefetcher starts only once the
    # stockpile lock is instrumented.
    client = TiptoeClient(CountingEngine(index))
    client._token_lock = InstrumentedLock(
        "TiptoeClient._token_lock", recorder
    )
    client._token_need = threading.Condition(client._token_lock)
    client._prefetch_depth = depth
    client._start_prefetcher()
    return client


class TestTokenPoolStress:
    """The client token stockpile -- the one token pool -- under fire."""

    TAKERS = 4
    TAKES_EACH = 40

    def test_refill_drain_hammer_obeys_static_lock_order(
        self, engine, recorder, instrumented_obs, static_edges
    ):
        client = instrumented_client(engine.index, recorder, depth=8)
        taken: list[list] = [[] for _ in range(self.TAKERS)]

        def taker(slot):
            for _ in range(self.TAKES_EACH):
                taken[slot].append(client._take_token())

        with client:
            threads = [
                threading.Thread(target=taker, args=(i,), daemon=True)
                for i in range(self.TAKERS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        got = [tok for slot in taken for tok in slot]
        assert len(got) == self.TAKERS * self.TAKES_EACH
        assert len(got) == len(set(got)), "a token was handed out twice"

        observed = recorder.edges
        assert ("TiptoeClient._token_lock", "Gauge._lock") in observed
        assert observed <= static_edges, (
            f"runtime lock orders unknown to the static graph: "
            f"{observed - static_edges}"
        )
        dummy = {edge: ("<runtime>", 0) for edge in observed}
        assert find_cycles(dummy) == []

    def test_observed_orders_are_a_subset_of_the_static_graph(
        self, engine, recorder, instrumented_obs, static_edges
    ):
        """One taker draining a small stockpile: every refill the take
        wakes records its lock order too."""
        with instrumented_client(engine.index, recorder, depth=4) as client:
            for _ in range(32):
                deadline = time.monotonic() + 10.0
                while not client.tokens_available():
                    assert time.monotonic() < deadline, "no refill"
                    time.sleep(0.0005)
                client._take_token()
        observed = recorder.edges
        assert observed, "instrumentation observed no nested acquisitions"
        assert observed <= static_edges, (
            f"runtime lock orders unknown to the static graph: "
            f"{observed - static_edges}"
        )
        dummy = {edge: ("<runtime>", 0) for edge in observed}
        assert find_cycles(dummy) == []


# -- the batch scheduler under fire -------------------------------------------


class _FakeBatch:
    def __init__(self, queries):
        self.queries = queries

    @classmethod
    def from_queries(cls, queries):
        return cls(queries)


class _FakeStacked:
    def __init__(self, answers):
        self._answers = answers

    def split(self):
        return self._answers


class _FakeService:
    """Answers a stacked batch with each query's own payload."""

    def answer_stacked(self, batch):
        time.sleep(0.0005)  # let the admission queue actually fill
        return _FakeStacked([("answer", q) for q in batch.queries])


class TestSchedulerStress:
    CLIENTS = 8
    QUERIES_EACH = 25

    def test_admission_hammer_obeys_static_lock_order(
        self, recorder, instrumented_obs, static_edges, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.core.scheduler.RankingBatch", _FakeBatch
        )
        sched = BatchScheduler(
            _FakeService(), max_batch_size=4, max_batch_wait_ms=1.0
        )
        instrument_scheduler(sched, recorder)

        results: list[list] = [[] for _ in range(self.CLIENTS)]

        def client(slot):
            for i in range(self.QUERIES_EACH):
                results[slot].append(sched.submit((slot, i)))

        with sched:
            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(self.CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        # Every query got its own answer back, in submission order.
        for slot in range(self.CLIENTS):
            assert results[slot] == [
                ("answer", (slot, i)) for i in range(self.QUERIES_EACH)
            ]
        assert sched.stats.queries == self.CLIENTS * self.QUERIES_EACH
        assert sched.stats.max_batch <= 4

        observed = recorder.edges
        assert observed <= static_edges, (
            f"runtime lock orders unknown to the static graph: "
            f"{observed - static_edges}"
        )
        dummy = {edge: ("<runtime>", 0) for edge in observed}
        assert find_cycles(dummy) == []
