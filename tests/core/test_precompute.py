"""The ahead-of-time plane: the client prefetcher (the one token
stockpile) and batched minting -- token work stays off the
latency-critical path while every answer stays bit-identical to the
lazy path."""

import threading
import time

import numpy as np
import pytest

from repro import TiptoeEngine
from repro.core.client import TiptoeClient
from repro.homenc.token import make_client_keys
from repro.lwe.sampling import seeded_rng
from repro.net import wire
from repro.net.rpc import frame, unframe
from repro.net.transport import TransportExhausted
from repro.obs import runtime as obs


def wait_until(predicate, timeout=10.0, interval=0.005):
    """Poll ``predicate`` until true or ``timeout`` seconds elapse."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def result_tuples(result):
    return [(r.position, r.score, r.url) for r in result.results]


def prefetch_threads() -> set:
    return {t for t in threading.enumerate() if t.name == "token-prefetch"}


class RecordingTransport:
    """Forwards to another transport and keeps every request frame."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def request(self, service, request, timeout=None):
        self.requests.append(bytes(request))
        return self.inner.request(service, request, timeout=timeout)

    def close(self):
        pass  # the inner transport belongs to the shared engine


class TestMintMany:
    def test_mint_tokens_matches_sequential_mints(self, engine):
        """Batched acquisition draws keys in sequential order, so token
        i is bit-identical to the i-th lone mint from the same seed."""
        batched = engine.mint_tokens(3, seeded_rng(9))
        rng = seeded_rng(9)
        sequential = [engine.mint_token(rng) for _ in range(3)]
        for a, b in zip(batched, sequential):
            for name in ("ranking", "url"):
                np.testing.assert_array_equal(
                    a.hint_products[name], b.hint_products[name]
                )
            # Per-token byte accounting matches the single-mint wire
            # encodings, batched or not.
            assert a.upload_bytes == b.upload_bytes
            assert a.download_bytes == b.download_bytes

    def test_count_validation(self, engine):
        with pytest.raises(ValueError, match="at least one"):
            engine.mint_tokens(0)

    def test_each_batched_token_searches_once(self, engine):
        tokens = engine.mint_tokens(2, seeded_rng(13))
        for token in tokens:
            token.consume()
        from repro.homenc import TokenReuseError

        with pytest.raises(TokenReuseError):
            tokens[0].consume()

    def test_one_token_is_one_mint_frame(self, engine):
        """A lone token goes up as one ``mint`` frame whose bytes are the
        single-mint encoding of the keys the same seed generates."""
        recorder = RecordingTransport(engine.transport)
        remote = TiptoeEngine(engine.index, transport=recorder)
        (token,) = remote.mint_tokens(1, seeded_rng(31))
        schemes = {
            "ranking": engine.index.ranking_scheme,
            "url": engine.index.url_scheme,
        }
        _, enc_keys, _ = make_client_keys(schemes, seeded_rng(31))
        expected = frame("mint", wire.encode_mint_request(enc_keys))
        assert recorder.requests == [expected]
        assert token.upload_bytes == len(expected)

    def test_many_tokens_are_one_mint_many_frame(self, engine):
        recorder = RecordingTransport(engine.transport)
        remote = TiptoeEngine(engine.index, transport=recorder)
        tokens = remote.mint_tokens(3, seeded_rng(32))
        assert len(tokens) == 3
        assert [unframe(r)[0] for r in recorder.requests] == ["mint_many"]

    def test_mint_tokens_never_calls_mint_token(self, engine, monkeypatch):
        """Subclasses may override ``mint_token`` (the benchmark's replay
        engine does); batched minting must not route through it."""

        def refuse(rng=None):
            raise AssertionError("mint_tokens called mint_token")

        monkeypatch.setattr(engine, "mint_token", refuse)
        assert len(engine.mint_tokens(1, seeded_rng(33))) == 1
        assert len(engine.mint_tokens(2, seeded_rng(34))) == 2


class CountingEngine:
    """An engine double for the client: real index metadata, unique
    integers for tokens, and a record of every mint call."""

    def __init__(self, index):
        self.index = index
        self._lock = threading.Lock()
        self.minted = 0
        self.batches = []  # sizes of mint_tokens calls (prefetch refills)
        self.inline = 0  # mint_token calls (the client's inline fallback)

    def mint_tokens(self, count, rng=None):
        with self._lock:
            start, self.minted = self.minted, self.minted + count
            self.batches.append(count)
        return list(range(start, start + count))

    def mint_token(self, rng=None):
        with self._lock:
            token, self.minted = self.minted, self.minted + 1
            self.inline += 1
        return token


class TestTokenPool:
    """The client stockpile -- the one token pool -- against a counting
    engine double, so every hand-out and every mint is visible."""

    def test_refills_to_depth_on_start(self, engine):
        mint = CountingEngine(engine.index)
        with TiptoeClient(mint, seeded_rng(11), prefetch_depth=5) as client:
            assert wait_until(lambda: client.tokens_available() == 5)
            # Refills never overshoot the target depth.
            assert all(b <= 5 for b in mint.batches)
            assert mint.minted == 5
            assert mint.inline == 0

    def test_take_wakes_the_worker(self, engine):
        mint = CountingEngine(engine.index)
        with TiptoeClient(mint, seeded_rng(12), prefetch_depth=3) as client:
            assert wait_until(lambda: client.tokens_available() == 3)
            assert client._take_token() == 0
            assert wait_until(lambda: client.tokens_available() == 3)
            assert mint.minted == 4  # topped back up by the prefetcher
            assert mint.inline == 0

    def test_take_nowait_on_empty_returns_none(self, engine):
        """An empty stockpile never hands out a token it does not have:
        the take falls back to exactly one inline mint and, with
        prefetching off, starts no thread."""
        mint = CountingEngine(engine.index)
        client = TiptoeClient(mint, seeded_rng(13))
        assert client.tokens_available() == 0
        assert client._take_token() == 0
        assert (mint.inline, mint.batches) == (1, [])
        assert client._prefetch_thread is None

    def test_tokens_come_out_in_mint_order_and_unique(self, engine):
        mint = CountingEngine(engine.index)
        taken = []
        with TiptoeClient(mint, seeded_rng(14), prefetch_depth=4) as client:
            for _ in range(12):
                assert wait_until(lambda: client.tokens_available() == 4)
                taken.append(client._take_token())
        assert mint.inline == 0  # every take came off the stockpile
        assert taken == sorted(taken)
        assert len(set(taken)) == len(taken)

    def test_concurrent_takers_never_share_a_token(self, engine):
        taken = []
        taken_lock = threading.Lock()

        def taker(client, n):
            for _ in range(n):
                token = client._take_token()
                with taken_lock:
                    taken.append(token)

        mint = CountingEngine(engine.index)
        with TiptoeClient(mint, seeded_rng(15), prefetch_depth=8) as client:
            threads = [
                threading.Thread(target=taker, args=(client, 10))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(taken) == 40
        assert len(set(taken)) == 40  # single-use: no token seen twice

    def test_close_drains_the_pool(self, engine):
        client = TiptoeClient(
            CountingEngine(engine.index), seeded_rng(16), prefetch_depth=4
        )
        assert wait_until(lambda: client.tokens_available() == 4)
        thread = client._prefetch_thread
        client.close()
        assert client.tokens_available() == 0  # secret keys discarded
        assert not thread.is_alive()
        client.close()  # idempotent


@pytest.fixture(scope="module")
def pooled_client(engine):
    """A client on the shared engine that keeps three tokens stockpiled."""
    with engine.new_client(seeded_rng(20), prefetch_depth=3) as client:
        yield client


class TestEnginePool:
    """The client stockpile against the real engine: the engine itself
    holds no tokens; it only mints what clients ask for."""

    def test_pool_reaches_target_depth(self, pooled_client):
        assert wait_until(
            lambda: pooled_client.tokens_available() == 3, timeout=30.0
        )

    def test_unpinned_mint_uses_the_pool(
        self, pooled_client, engine, monkeypatch
    ):
        assert wait_until(
            lambda: pooled_client.tokens_available() >= 1, timeout=30.0
        )

        def refuse(rng=None):
            raise AssertionError("a stockpiled take minted inline")

        monkeypatch.setattr(engine, "mint_token", refuse)
        pooled = pooled_client._tokens[0]
        token = pooled_client._take_token()
        assert token is pooled  # O(1) handoff, no inline crypto

    def test_pinned_rng_bypasses_the_pool(self, pooled_client, engine):
        """An explicit rng pins the caller's key stream: with a client
        prefetching on the same engine, the lone and batched mints from
        one seed are bit-identical."""
        assert wait_until(
            lambda: pooled_client.tokens_available() == 3, timeout=30.0
        )
        a = engine.mint_token(seeded_rng(21))
        (b,) = engine.mint_tokens(1, seeded_rng(21))
        for name in ("ranking", "url"):
            np.testing.assert_array_equal(
                a.hint_products[name], b.hint_products[name]
            )
        assert a.upload_bytes == b.upload_bytes
        assert a.download_bytes == b.download_bytes
        assert pooled_client.tokens_available() == 3  # stockpile untouched

    def test_search_is_bit_identical_to_lazy_engine(
        self, pooled_client, engine
    ):
        for text in ("alpha beta", "gamma delta"):
            a = pooled_client.search(text)
            b = engine.search(text, rng=np.random.default_rng(3))
            assert a.cluster == b.cluster
            assert result_tuples(a) == result_tuples(b)


class FlakyMintEngine:
    """Delegates to a real engine; the first ``mint_tokens`` call fails
    the way an unreachable token service does."""

    def __init__(self, engine):
        self._engine = engine
        self._lock = threading.Lock()
        self.failures_left = 1

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def mint_tokens(self, count, rng=None):
        with self._lock:
            fail = self.failures_left > 0
            self.failures_left -= fail
        if fail:
            raise TransportExhausted("token service unreachable")
        return self._engine.mint_tokens(count, rng)

    def mint_token(self, rng=None):
        return self.mint_tokens(1, rng)[0]


class TestClientPrefetcher:
    def test_stockpile_reaches_target_depth(self, engine):
        with engine.new_client(seeded_rng(1), prefetch_depth=2) as client:
            assert wait_until(
                lambda: client.tokens_available() == 2, timeout=30.0
            )

    def test_stockpile_refills_after_search(self, engine):
        with engine.new_client(seeded_rng(2), prefetch_depth=2) as client:
            assert wait_until(
                lambda: client.tokens_available() == 2, timeout=30.0
            )
            client.search("alpha beta")
            assert wait_until(
                lambda: client.tokens_available() == 2, timeout=30.0
            )

    def test_steady_state_search_has_no_inline_mint_span(self, engine):
        """The acceptance bar: with the prefetcher at depth >= 1, the
        client.search trace never contains token-mint work."""
        with engine.new_client(seeded_rng(3), prefetch_depth=2) as client:
            assert wait_until(
                lambda: client.tokens_available() == 2, timeout=30.0
            )
            tracer, _ = obs.enable()
            try:
                client.search("gamma delta")
                trace = tracer.last_trace()
            finally:
                obs.disable()
        assert trace.name == "client.search"
        assert trace.find("token.mint") == []
        assert trace.find("token.acquire") == []
        # The take itself is still visible (and cheap).
        assert len(trace.find("token")) == 1

    def test_empty_stockpile_falls_back_inline(self, engine):
        """Prefetch off: the lazy path still mints inside the trace."""
        client = engine.new_client(seeded_rng(4))
        tracer, _ = obs.enable()
        try:
            client.search("gamma delta")
            trace = tracer.last_trace()
        finally:
            obs.disable()
        assert len(trace.find("token.acquire")) == 1
        assert len(trace.find("token.mint")) == 1

    def test_prefetched_search_is_bit_identical_to_lazy(self, engine):
        """Answers do not depend on which rng minted the token: LHE
        decryption exactly removes the key material."""
        with engine.new_client(seeded_rng(5), prefetch_depth=2) as client:
            assert wait_until(
                lambda: client.tokens_available() == 2, timeout=30.0
            )
            for text in ("alpha beta", "epsilon zeta"):
                a = client.search(text)
                b = engine.search(text, rng=seeded_rng(5))
                assert a.cluster == b.cluster
                assert result_tuples(a) == result_tuples(b)

    def test_searches_race_the_prefetcher_safely(self, engine):
        """Back-to-back searches pop while the prefetcher extends; the
        deque stays consistent and every token is single-use."""
        with engine.new_client(seeded_rng(6), prefetch_depth=2) as client:
            results = [client.search("alpha") for _ in range(6)]
        first = result_tuples(results[0])
        assert all(result_tuples(r) == first for r in results[1:])

    def test_take_token_is_thread_safe(self, engine):
        """Concurrent takers never receive the same stockpiled token."""
        with engine.new_client(seeded_rng(7), prefetch_depth=2) as client:
            assert wait_until(
                lambda: client.tokens_available() == 2, timeout=30.0
            )
            taken = []
            taken_lock = threading.Lock()

            def take():
                token = client._take_token()
                with taken_lock:
                    taken.append(token)

            threads = [threading.Thread(target=take) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(taken) == 4
        assert len({id(t) for t in taken}) == 4

    def test_close_discards_stockpile_and_stops_thread(self, engine):
        client = engine.new_client(seeded_rng(8), prefetch_depth=2)
        assert wait_until(
            lambda: client.tokens_available() == 2, timeout=30.0
        )
        client.close()
        assert client.tokens_available() == 0
        assert client._prefetch_thread is None
        client.close()  # idempotent
        # The client still works after close -- it just mints lazily.
        result = client.search("alpha beta")
        assert result.results

    def test_prefetch_depth_validation(self, engine):
        with pytest.raises(ValueError, match="prefetch depth"):
            engine.new_client(seeded_rng(9), prefetch_depth=-1)

    def test_failed_prefetch_restarts_on_inline_fallback(self, engine):
        """One failed prefetch does not switch prefetching off for the
        client's lifetime: the next inline mint restarts it."""
        flaky = FlakyMintEngine(engine)
        client = TiptoeClient(flaky, seeded_rng(10), prefetch_depth=2)
        first = client._prefetch_thread
        first.join(timeout=30.0)
        assert not first.is_alive()  # stopped on the failed mint
        assert flaky.failures_left == 0
        assert client.tokens_available() == 0

        assert client.search("alpha beta").results  # inline mint
        assert wait_until(
            lambda: client.tokens_available() == 2, timeout=30.0
        )
        client.close()

        # close() is final: inline mints never bring the thread back.
        before = prefetch_threads()
        client._take_token()
        assert client._prefetch_thread is None
        assert prefetch_threads() <= before
        assert client.tokens_available() == 0


class TestNoLeakedPrefetchThreads:
    def test_engine_search_leaves_no_prefetch_thread(self, engine):
        before = prefetch_threads()
        for seed in range(5):
            engine.search("alpha beta", rng=seeded_rng(40 + seed))
        assert prefetch_threads() <= before

    def test_client_block_leaves_no_prefetch_thread(self, engine):
        before = prefetch_threads()
        with engine.new_client(seeded_rng(45), prefetch_depth=2) as client:
            assert wait_until(
                lambda: client.tokens_available() == 2, timeout=30.0
            )
            assert len(prefetch_threads() - before) == 1
        assert prefetch_threads() <= before
