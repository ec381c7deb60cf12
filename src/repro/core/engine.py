"""Top-level assembly: index + services + clients (the public API).

    from repro import TiptoeEngine, TiptoeConfig
    engine = TiptoeEngine.build(texts, urls, TiptoeConfig())
    client = engine.new_client()
    result = client.search("knee pain")
    top_urls = result.urls()[:10]

The engine owns the two client-facing services (sharded ranking + URL
PIR), the token factory, and the simulated client link.  For
text-to-image search, pass precomputed image embeddings and a query
embedder (see :func:`TiptoeEngine.build_from_embeddings`).

Diagnostics go through ``logging.getLogger("repro.core.engine")`` --
never ``print`` (enforced by the ``api-print`` lint rule).
"""

from __future__ import annotations

import logging
import time

import numpy as np

from repro.core.client import TiptoeClient
from repro.core.config import TiptoeConfig
from repro.core.indexer import TiptoeIndex
from repro.core.services import build_services
from repro.homenc.token import QueryToken
from repro.homenc.token import make_client_keys
from repro.net import wire
from repro.net.rpc import FRAME_BYTES, RpcChannel, ServiceEndpoint
from repro.net.transport import LinkModel, LoopbackTransport, TrafficLog
from repro.net.transport import Transport
from repro.obs import runtime as obs

logger = logging.getLogger(__name__)


class TiptoeEngine:
    """One Tiptoe deployment: batch-job output plus running services.

    By default the engine stands up the full service roster in-process
    and binds them behind a :class:`LoopbackTransport` -- bit-identical
    to direct dispatch.  Pass ``transport`` to run *remote*: the engine
    then keeps only the client-side state (schemes, layout, client
    metadata) and sends every request over the given transport, e.g. a
    socket transport pointed at ``python -m repro serve``.
    """

    def __init__(
        self,
        index: TiptoeIndex,
        link: LinkModel | None = None,
        query_embedder=None,
        transport: Transport | None = None,
    ):
        start = time.perf_counter()
        self.index = index
        self.link = link if link is not None else LinkModel()
        self._query_embedder = query_embedder
        if transport is None:
            self.services = build_services(index)
            self.transport: Transport = LoopbackTransport(
                {
                    name: service.endpoint
                    for name, service in self.services.items()
                }
            )
            for service in self.services.values():
                service.open()
        else:
            self.services = {}
            self.transport = transport
        self.ranking_service = self.services.get("ranking")
        self.url_service = self.services.get("url")
        self._adopt_a_products()
        # Cold-start accounting: how long standing up this engine took
        # (services, transport, the a-products).  The precompute sidecar
        # exists to shrink this number plus the first mint's NTT work.
        obs.observe("engine.cold_start_seconds", time.perf_counter() - start)
        logger.info(
            "engine up (%s): %d clusters",
            "loopback" if self.services else "remote",
            len(index.layout.cluster_offsets),
        )

    @classmethod
    def connect(
        cls,
        index: TiptoeIndex,
        host: str,
        port: int,
        link: LinkModel | None = None,
        query_embedder=None,
        generation: str | None = None,
    ) -> "TiptoeEngine":
        """A remote engine: client state from ``index``, requests over
        TCP to a running ``python -m repro serve`` (or ``serve-fleet``
        front door) with retry/deadline policy taken from the index's
        config.

        ``generation`` pins every request of this engine's session to
        one index generation by wire name (``ranking@<tag>``): during a
        fleet rolling swap the router then never answers this session
        from a different index than the one ``index`` was loaded from.
        """
        from repro.net.tcp import connect_transport
        from repro.net.transport import TaggedTransport

        config = index.config
        transport: Transport = connect_transport(
            host,
            port,
            timeout=config.rpc_timeout_s,
            policy=config.retry_policy(),
        )
        if generation is not None:
            transport = TaggedTransport(transport, generation)
        return cls(
            index=index,
            link=link,
            query_embedder=query_embedder,
            transport=transport,
        )

    def close(self) -> None:
        """Tear down services (worker pools) and the transport.

        Idempotent; also available as a context manager::

            with TiptoeEngine.build(...) as engine:
                ...
        """
        for service in self.services.values():
            service.close()
        self.transport.close()

    def __enter__(self) -> "TiptoeEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- back-compat endpoint access (in-process tests poke these) -------------

    @property
    def ranking_endpoint(self) -> ServiceEndpoint:
        return self.services["ranking"].endpoint

    @property
    def url_endpoint(self) -> ServiceEndpoint:
        return self.services["url"].endpoint

    @property
    def token_endpoint(self) -> ServiceEndpoint:
        return self.services["token"].endpoint

    @property
    def hint_endpoint(self) -> ServiceEndpoint:
        return self.services["hint"].endpoint

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        texts: list[str],
        urls: list[str],
        config: TiptoeConfig | None = None,
        embedder=None,
        link: LinkModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> "TiptoeEngine":
        """Index a text corpus and stand up the services."""
        config = config if config is not None else TiptoeConfig()
        index = TiptoeIndex.build(
            texts, urls, config, embedder=embedder, rng=rng
        )
        return cls(index=index, link=link)

    @classmethod
    def build_from_embeddings(
        cls,
        embeddings: np.ndarray,
        urls: list[str],
        query_embedder,
        config: TiptoeConfig | None = None,
        link: LinkModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> "TiptoeEngine":
        """Index precomputed embeddings (the text-to-image path, SS8.3).

        ``query_embedder`` must expose ``embed(text) -> vector`` in the
        same space as ``embeddings``.
        """
        config = config if config is not None else TiptoeConfig()
        placeholder_texts = [""] * len(urls)
        index = TiptoeIndex.build(
            placeholder_texts,
            urls,
            config,
            embedder=query_embedder,
            embeddings=embeddings,
            rng=rng,
        )
        return cls(index=index, link=link, query_embedder=query_embedder)

    # -- service dispatch (what the network would carry) -------------------------

    def ranking_answer(self, query):
        return self.ranking_service.answer(query)

    def url_answer(self, query):
        return self.url_service.answer(query)

    def _token_schemes(self) -> tuple[dict, dict]:
        """The token services' schemes and hint heights, by name."""
        schemes = {
            "ranking": self.index.ranking_scheme,
            "url": self.index.url_scheme,
        }
        rows = {
            "ranking": self.index.ranking_prep.rows,
            "url": self.index.url_prep.rows,
        }
        return schemes, rows

    def _adopt_a_products(self) -> None:
        """Fetch the token service's per-generation ``a``-products and
        hand each to its scheme (:meth:`DoubleLheScheme.adopt_a_product`
        checks it like a hint).

        Once per index: the schemes keep what they adopted, so another
        engine over the same index -- the same generation -- fetches
        nothing.
        """
        schemes, rows = self._token_schemes()
        if all(s.held_a_product is not None for s in schemes.values()):
            return
        body = RpcChannel(TrafficLog(), self.transport).call(
            "token", "token", "a_products", b""
        )
        products = wire.decode_a_products(body)
        for name, scheme in schemes.items():
            try:
                scheme.adopt_a_product(products[name], rows[name])
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"a-product for service {name!r} rejected: {exc}"
                ) from None

    def mint_token(self, rng: np.random.Generator | None = None) -> QueryToken:
        """One token: :meth:`mint_tokens` of one."""
        return self.mint_tokens(1, rng)[0]

    def mint_tokens(
        self, count: int, rng: np.random.Generator | None = None
    ) -> list[QueryToken]:
        """Client-side token acquisition over the serialized RPC path.

        This is the ahead-of-time phase of SS6.3: nothing here depends
        on the eventual query string.  One client's keys go up in one
        ``mint`` frame; K > 1 clients share one ``mint_many`` frame so
        the server amortizes its hint NTTs across the batch.  Key
        generation draws from ``rng`` in the same order as ``count``
        sequential mints, so token i is bit-identical to the i-th lone
        mint.  Each token's byte counts are the framed lengths of its
        own single-mint request and response encodings.  Every returned
        hint is checked against its service's scheme and hint height
        (:meth:`DoubleLheScheme.check_hint`) before it is decrypted; a
        hint minted for another generation than the held ``a``-product
        raises :class:`~repro.homenc.GenerationMismatchError` first,
        whatever its shape.
        """
        if count < 1:
            raise ValueError("must mint at least one token")
        schemes, rows = self._token_schemes()
        with obs.span("token.acquire", services=len(schemes), clients=count):
            keysets, requests = [], []
            for _ in range(count):
                keys, enc_keys, _ = make_client_keys(schemes, rng)
                keysets.append(keys)
                # tiptoe-lint: disable=taint-wire -- enc_keys is the outer *encryption* of the inner secret; uploading it is the SS6.3 protocol
                requests.append(wire.encode_mint_request(enc_keys))
            channel = RpcChannel(TrafficLog(), self.transport)
            if count == 1:
                bodies = [channel.call("token", "token", "mint", requests[0])]
            else:
                bodies = wire.split_mint_many_payload(
                    channel.call(
                        "token",
                        "token",
                        "mint_many",
                        wire.encode_mint_many_request(requests),
                    )
                )
            if len(bodies) != count:
                raise ValueError(
                    f"mint_many returned {len(bodies)} tokens for"
                    f" {count} clients"
                )
            tokens = []
            for keys, request, body in zip(keysets, requests, bodies):
                payload = wire.decode_token_payload(body)
                for name, scheme in schemes.items():
                    if name in payload.hints:
                        # After a swap the hint heights usually differ
                        # too: name the stale generation, not the shape.
                        scheme.check_generation(payload.hints[name])
                    try:
                        scheme.check_hint(payload.hints[name], rows[name])
                    except (KeyError, ValueError) as exc:
                        raise ValueError(
                            f"token for service {name!r} rejected: {exc}"
                        ) from None
                tokens.append(
                    QueryToken(
                        keys=keys,
                        hint_products={
                            name: schemes[name].decrypt_hint_product(
                                keys[name], payload.hints[name]
                            )
                            for name in schemes
                        },
                        upload_bytes=FRAME_BYTES + len(request),
                        download_bytes=FRAME_BYTES + len(body),
                    )
                )
        return tokens

    # -- client-side helpers -------------------------------------------------------

    def embed_query(self, text: str) -> np.ndarray:
        embedder = self._query_embedder or self.index.embedder
        if hasattr(embedder, "embed_text"):
            vec = embedder.embed_text(text)
        else:
            vec = embedder.embed(text)
        if self.index.pca is not None:
            vec = self.index.pca.transform(vec)
        return np.asarray(vec, dtype=np.float64)

    def storage_position(self, layout_position: int) -> int:
        """Map a layout position to its URL storage position."""
        if self.index.url_position_map is None:
            return layout_position
        return int(self.index.url_position_map[layout_position])

    def new_client(
        self, rng: np.random.Generator | None = None, prefetch_depth: int = 0
    ) -> TiptoeClient:
        return TiptoeClient(engine=self, rng=rng, prefetch_depth=prefetch_depth)

    def search(
        self, text: str, rng: np.random.Generator | None = None
    ):
        """One-shot convenience: new client, one token, one search."""
        with self.new_client(rng) as client:
            return client.search(text)

    # -- evaluation helpers (server-side ground truth; not client data) -----------

    def doc_id_of_position(self, position: int) -> int:
        layout = self.index.layout
        cluster = int(
            np.searchsorted(layout.cluster_offsets, position, side="right") - 1
        )
        row = position - int(layout.cluster_offsets[cluster])
        return layout.doc_id_of(cluster, row)

    def result_doc_ids(self, result) -> list[int]:
        """Map a SearchResult's positions back to corpus doc ids."""
        return [self.doc_id_of_position(r.position) for r in result.results]
