"""The classic (hint-download) client mode -- SS6's counterfactual.

Plain SimplePIR has the client download the hint matrices once; every
later query then reuses them ("99.9% of this download" amortizes,
SS6.1).  Tiptoe instead compresses the hint away with the double
layer, paying ~4x more *per-query* communication but eliminating the
enormous first download and the client-side hint storage.

This client implements the counterfactual so the trade is measurable
end to end: a `hint` phase (once per corpus snapshot), then per-query
`ranking`/`url` phases with fresh inner keys each time and *no* token
phase.  Results are bit-identical to the token-mode client.
"""

from __future__ import annotations

import numpy as np

from repro.core.client import ScoredResult, SearchResult
from repro.core.ranking import RankingClient
from repro.core.url_service import UrlServiceClient
from repro.embeddings.quantize import quantize
from repro.lwe import sampling
from repro.net import wire
from repro.net.rpc import RpcChannel
from repro.net.transport import TrafficLog


class ClassicTiptoeClient:
    """A client that stores the raw hints instead of using tokens."""

    def __init__(self, engine, rng: np.random.Generator | None = None):
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
        self._hints = None
        self.hint_traffic = TrafficLog()

    def fetch_hints(self) -> None:
        """The one-time hint download (the cost Tiptoe eliminates)."""
        channel = RpcChannel(self.hint_traffic, self.engine.transport)
        body = channel.call("hint", "hint", "ranking", b"")
        ranking_hint, _ = wire.decode_matrix(body)
        body = channel.call("hint", "hint", "url", b"")
        url_hint, _ = wire.decode_matrix(body)
        self._hints = {"ranking": ranking_hint, "url": url_hint}

    def hint_storage_bytes(self) -> int:
        if self._hints is None:
            return 0
        return sum(h.nbytes for h in self._hints.values())

    def search(self, text: str) -> SearchResult:
        """One private search using stored hints and fresh keys."""
        if self._hints is None:
            self.fetch_hints()
        engine = self.engine
        index = engine.index
        traffic = TrafficLog()
        channel = RpcChannel(traffic, engine.transport)

        # Fresh inner keys per query -- same single-use rule as tokens.
        rank_keys = index.ranking_scheme.gen_keys(self.rng)
        url_keys = index.url_scheme.gen_keys(self.rng)

        vec = engine.embed_query(text)
        gain = self.metadata.quantization_gain
        quantized = quantize(vec * gain, index.config.quantization())
        cluster = int(np.argmax(self.metadata.centroids @ vec))

        rank_query = self.ranking.build_query(rank_keys, quantized, cluster)
        body = channel.call(
            "ranking",
            "ranking",
            "answer",
            # tiptoe-lint: disable=taint-wire -- the ciphertext IS the wire format; semantic security (decision-LWE) covers what it reveals
            wire.encode_ciphertext(rank_query.ciphertext),
        )
        values, q_bits = wire.decode_answer(body)
        # Classic decryption: subtract H s directly from the answer.
        scores = index.ranking_scheme.inner.decrypt_centered(
            rank_keys.inner, self._hints["ranking"], values
        )
        real_rows = int(self.metadata.cluster_sizes[cluster])
        scores = scores[:real_rows]
        order = np.argsort(-scores, kind="stable")
        top_rows = [int(r) for r in order[: self.metadata.results_per_query]]

        offset = int(self.metadata.cluster_offsets[cluster])
        best_storage = engine.storage_position(offset + top_rows[0])
        batch_index = self.url_client.batch_of_position(best_storage)
        # tiptoe-lint: disable=taint-raise -- batch_index is this client's own decrypted ranking result, not key material; selection_vector raises on it only when out of range, in this process, before any request is sent
        url_query = self.url_client.build_query(url_keys, batch_index)
        body = channel.call(
            "url",
            "url",
            "answer",
            # tiptoe-lint: disable=taint-wire -- the ciphertext IS the wire format; semantic security (decision-LWE) covers what it reveals
            wire.encode_ciphertext(url_query.ciphertext),
        )
        values, q_bits = wire.decode_answer(body)
        digits = index.url_scheme.inner.decrypt(
            url_keys.inner, self._hints["url"], values
        )
        payload = index.url_db.decode_column(digits)
        from repro.corpus.urls import UrlBatch

        batch_urls = UrlBatch(payload=payload, doc_ids=()).decompress()

        results = []
        for row in top_rows:
            position = offset + row
            storage = engine.storage_position(position)
            results.append(
                ScoredResult(
                    position=position,
                    cluster=cluster,
                    row=row,
                    score=int(scores[row]),
                    url=batch_urls.get(storage) or None,
                )
            )
        return SearchResult(
            query=text,
            cluster=cluster,
            results=results,
            traffic=traffic,
            perceived_latency=traffic.simulated_latency(
                engine.link, ["ranking", "url"]
            ),
            token_latency=0.0,
        )
