"""The Tiptoe client (SS3.2).

One search runs the three numbered steps of the architecture figure:
embed the query locally, rank privately within the nearest cluster,
and fetch the winning URL batch privately.  Every byte that crosses
the (simulated) network is logged with its phase, and each search
consumes exactly one query token.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.ranking import RankingAnswer, RankingClient
from repro.core.url_service import UrlServiceClient
from repro.embeddings.quantize import quantize
from repro.homenc.token import QueryToken
from repro.lwe import sampling
from repro.net import wire
from repro.net.rpc import RpcChannel
from repro.net.transport import TrafficLog
from repro.obs import runtime as obs
from repro.pir.simplepir import PirAnswer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScoredResult:
    """One ranked search result."""

    position: int  # global layout position (what the URL service keys on)
    cluster: int
    row: int
    score: int  # quantized inner-product score
    url: str | None  # None if outside the fetched batch


@dataclass
class SearchResult:
    """Everything one private search produced."""

    query: str
    cluster: int
    results: list[ScoredResult]
    traffic: TrafficLog
    perceived_latency: float
    token_latency: float

    def urls(self) -> list[str]:
        return [r.url for r in self.results if r.url]

    def top_positions(self) -> list[int]:
        return [r.position for r in self.results]


class TiptoeClient:
    """A stateful client bound to one Tiptoe deployment.

    With ``prefetch_depth > 0`` a background thread keeps that many
    query tokens stockpiled, so ``search`` never mints inline in steady
    state.  This works the same against an in-process engine and a
    remote ``serve`` / ``serve-fleet`` deployment.
    """

    def __init__(
        self,
        engine,
        rng: np.random.Generator | None = None,
        prefetch_depth: int = 0,
    ):
        if prefetch_depth < 0:
            raise ValueError("prefetch depth must be non-negative")
        self.engine = engine
        self.rng = sampling.resolve_rng(rng)
        meta = engine.index.client_metadata()
        self.metadata = meta
        self.ranking = RankingClient(
            engine.index.ranking_scheme,
            dim=meta.dim,
            num_clusters=len(meta.cluster_sizes),
        )
        self.url_client = UrlServiceClient(
            scheme=engine.index.url_scheme,
            db_meta=engine.index.url_db,
            batch_size=meta.url_batch_size,
        )
        self._tokens: deque[QueryToken] = deque()  # guarded-by: _token_lock
        self._token_lock = threading.Lock()
        # Wakes the prefetcher whenever a token is taken.
        self._token_need = threading.Condition(self._token_lock)
        self._prefetch_depth = prefetch_depth
        self._prefetching = False  # guarded-by: _token_lock
        self._closed = False  # guarded-by: _token_lock
        self._prefetch_thread = None  # guarded-by: _token_lock
        self._start_prefetcher()

    # -- token management (the ahead-of-time phase, SS6.3) -------------------

    def fetch_tokens(self, count: int = 1) -> None:
        """Stockpile query tokens before deciding on any query."""
        if count < 1:
            return
        minted = self.engine.mint_tokens(count, self.rng)
        with self._token_lock:
            self._tokens.extend(minted)

    def tokens_available(self) -> int:
        with self._token_lock:
            return len(self._tokens)

    def _take_token(self) -> QueryToken:
        """Pop a stockpiled token, or mint inline when none is ready.

        Popping wakes the prefetcher (if running) so the stockpile is
        topped back up off the query path.  An inline mint restarts a
        prefetcher that stopped on a failed mint.
        """
        with self._token_lock:
            if self._tokens:
                token = self._tokens.popleft()
                self._token_need.notify()
                return token
        token = self.engine.mint_token(self.rng)
        self._start_prefetcher()
        return token

    # -- the token prefetcher -------------------------------------------------

    def _start_prefetcher(self) -> None:
        """Start the prefetch thread unless it is running, prefetching
        is off, or the client is closed."""
        with self._token_lock:
            if self._prefetching or self._closed or self._prefetch_depth < 1:
                return
            self._prefetching = True
            self._prefetch_thread = threading.Thread(
                target=self._prefetch_loop, name="token-prefetch", daemon=True
            )
            self._prefetch_thread.start()

    def _prefetch_loop(self) -> None:
        # The prefetcher never touches ``self.rng`` -- numpy Generators
        # are not thread-safe, and search() draws from it concurrently.
        # Key material comes from fresh OS entropy instead; answers are
        # unaffected because LHE decryption is exact.
        while True:
            with self._token_lock:
                while (
                    self._prefetching
                    and len(self._tokens) >= self._prefetch_depth
                ):
                    self._token_need.wait()
                if not self._prefetching:
                    return
                want = self._prefetch_depth - len(self._tokens)
            try:
                minted = self.engine.mint_tokens(want)
            except Exception:
                # The next inline mint in _take_token restarts us.
                logger.exception(
                    "token prefetch failed; prefetcher stopping"
                )
                with self._token_lock:
                    self._prefetching = False
                return
            with self._token_lock:
                if not self._prefetching:
                    # Closed mid-mint: drop the batch -- its tokens
                    # hold secret keys and must not outlive close().
                    return
                self._tokens.extend(minted)
                obs.gauge("client.tokens_available", len(self._tokens))

    def close(self) -> None:
        """Stop the prefetcher and discard stockpiled tokens.

        Tokens hold client secret keys, so they never outlive the
        client.  Final: the prefetcher never restarts afterwards (a
        closed client still searches, minting inline).  Idempotent;
        also usable as a context manager.
        """
        with self._token_lock:
            self._closed = True
            self._prefetching = False
            self._token_need.notify_all()
            thread, self._prefetch_thread = self._prefetch_thread, None
        if thread is not None:
            thread.join()
        with self._token_lock:
            self._tokens.clear()

    def __enter__(self) -> "TiptoeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- the query path -------------------------------------------------------

    def embed_query(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Local query embedding: model, PCA, quantization."""
        vec = self.engine.embed_query(text)
        gain = self.metadata.quantization_gain
        quantized = quantize(vec * gain, self.engine.index.config.quantization())
        return vec, quantized

    def search(self, text: str) -> SearchResult:
        """One full private search; consumes one token (fetched lazily).

        When observability is enabled (:mod:`repro.obs.runtime`) the
        search produces one trace: a ``client.search`` root span with
        ``token`` / ``embed`` / ``ranking`` / ``url`` children, plus a
        sample in the ``client.search.seconds`` histogram.  Span
        attributes are sizes and times only; the query text, cluster
        choice, and scores are never recorded.
        """
        with obs.span("client.search") as root_span:
            with obs.span("token"):
                token = self._take_token()
                traffic = TrafficLog()
                traffic.record("token", "up", token.upload_bytes)
                traffic.record("token", "down", token.download_bytes)
                keys, hint_products = token.consume()

            # Step 1: embed locally; pick the nearest cached centroid.
            with obs.span("embed"):
                vec, quantized = self.embed_query(text)
                cluster = int(np.argmax(self.metadata.centroids @ vec))

            # Step 2: private ranking within that cluster.  Queries
            # travel as serialized RPC messages; the channel logs real
            # wire sizes.
            channel = RpcChannel(traffic, self.engine.transport)
            with obs.span("ranking"):
                rank_query = self.ranking.build_query(
                    keys["ranking"], quantized, cluster, self.rng
                )
                body = channel.call(
                    "ranking",
                    "ranking",
                    "answer",
                    wire.encode_ciphertext(rank_query.ciphertext),
                )
                values, q_bits = wire.decode_answer(body)
                rank_answer = RankingAnswer(
                    values=values, bytes_per_element=q_bits // 8
                )
                scores = self.ranking.decode_scores(
                    keys["ranking"], rank_answer, hint_products["ranking"]
                )
            real_rows = int(self.metadata.cluster_sizes[cluster])
            scores = scores[:real_rows]
            order = np.argsort(-scores, kind="stable")
            k = self.metadata.results_per_query
            top_rows = [int(r) for r in order[:k]]

            # Step 3: private URL fetch for the batch of the best match.
            with obs.span("url"):
                offset = int(self.metadata.cluster_offsets[cluster])
                best_storage = self.engine.storage_position(
                    offset + top_rows[0]
                )
                batch_index = self.url_client.batch_of_position(best_storage)
                url_query = self.url_client.build_query(
                    keys["url"], batch_index, self.rng
                )
                body = channel.call(
                    "url",
                    "url",
                    "answer",
                    # tiptoe-lint: disable=itaint-wire -- the ciphertext IS the wire format; semantic security (decision-LWE) covers what it reveals
                    wire.encode_ciphertext(url_query.ciphertext),
                )
                values, q_bits = wire.decode_answer(body)
                url_answer = PirAnswer(
                    values=values, bytes_per_element=q_bits // 8
                )
                batch_urls = self.url_client.recover_batch(
                    keys["url"], url_answer, hint_products["url"]
                )
        if root_span is not None and root_span.duration is not None:
            obs.observe("client.search.seconds", root_span.duration)
            obs.count("client.searches")

        results = []
        for row in top_rows:
            position = offset + row
            storage = self.engine.storage_position(position)
            url = batch_urls.get(storage) or None
            results.append(
                ScoredResult(
                    position=position,
                    cluster=cluster,
                    row=row,
                    score=int(scores[row]),
                    url=url,
                )
            )
        link = self.engine.link
        return SearchResult(
            query=text,
            cluster=cluster,
            results=results,
            traffic=traffic,
            perceived_latency=traffic.simulated_latency(
                link, ["ranking", "url"]
            ),
            token_latency=traffic.simulated_latency(link, ["token"]),
        )
