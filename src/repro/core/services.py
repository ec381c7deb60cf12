"""The serving-plane roster: every service a deployment runs.

One Tiptoe deployment serves four names:

``ranking``
    One ranking shard (:class:`ShardedRankingService`), whole by
    default.
``url``
    The URL PIR server (:class:`UrlService`).
``token``
    The mint of SS6.3 (:class:`TokenMintService`), which evaluates the
    double layer over the hints under client-supplied encrypted keys.
``hint``
    Raw hint download (:class:`HintService`) for the classic
    (hint-storing) client mode -- the counterfactual SS6 measures
    against.

:func:`build_services` assembles all four from a built
:class:`~repro.core.indexer.TiptoeIndex`; the result plugs equally
into an in-process :class:`~repro.net.transport.LoopbackTransport` or
a :class:`~repro.net.tcp.ServerRunner` listening on TCP.
"""

from __future__ import annotations

import logging

from repro.core.cluster_runtime import ShardedRankingService
from repro.core.url_service import UrlService
from repro.net import wire
from repro.net.rpc import ServiceEndpoint
from repro.net.service import Service

logger = logging.getLogger(__name__)


class TokenMintService(Service):
    """The query-token mint (SS6.3).

    ``mint_many`` takes a batch of clients' outer-encrypted inner keys
    and returns the ``b`` halves of the double-layer hint products in
    one hint pass (the NTTs amortize); ``mint`` is its batch of one.
    ``a_products`` returns the ``a`` halves every token shares, the
    same bytes for every client of this index generation.  Nothing
    here depends on any future query.
    """

    service_name = "token"

    def __init__(self, token_factory):
        self.token_factory = token_factory

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("mint", self._handle_mint)
        endpoint.register("mint_many", self._handle_mint_many)
        endpoint.register("a_products", self._handle_a_products)

    def _handle_a_products(self, payload: memoryview) -> bytes:
        if payload:
            raise ValueError("a_products takes an empty request")
        return wire.encode_a_products(self.token_factory.a_products())

    def _handle_mint(self, payload: memoryview) -> bytes:
        enc_keys = wire.decode_mint_request(payload)
        minted = self.token_factory.mint(enc_keys)
        return wire.encode_token_payload(minted)

    def _handle_mint_many(self, payload: memoryview) -> bytes:
        enc_keys_list = wire.decode_mint_many_request(payload)
        minted = self.token_factory.mint_many(enc_keys_list)
        return wire.encode_mint_many_payload(minted)


class HintService(Service):
    """Raw hint download for the classic client mode (SS6.1).

    Token-mode clients never call this; it exists so the hint-storage
    counterfactual is measurable over the same wire as everything else.
    """

    service_name = "hint"

    def __init__(self, index):
        self.index = index

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("ranking", self._handle_ranking_hint)
        endpoint.register("url", self._handle_url_hint)

    def _handle_ranking_hint(self, payload: memoryview) -> bytes:
        return wire.encode_matrix(
            self.index.ranking_prep.hint,
            self.index.ranking_scheme.params.inner.q_bits,
        )

    def _handle_url_hint(self, payload: memoryview) -> bytes:
        return wire.encode_matrix(
            self.index.url_prep.hint,
            self.index.url_scheme.params.inner.q_bits,
        )


def resolve_kernel_selection(
    config, precompute: dict | None, which: str
) -> tuple[str | None, dict]:
    """Pick the kernel backend and plan options for one service matrix.

    ``which`` is ``"ranking"`` or ``"url"``.  Precedence:

    1. An explicit ``config.kernel_backend`` (anything but ``"auto"``)
       wins; the sidecar's tuned options apply only when its record was
       tuned for that same backend.
    2. ``"auto"`` with a tuned ``kernel_plan`` sidecar record uses the
       record's backend and options -- ``serve`` cold-starts tuned.
    3. Otherwise the reference backend with defaults (returned as
       ``(None, {})``).

    Sidecars travel: an index tuned on a compiler-equipped build host
    may be served somewhere the tuned backend cannot run (or by a newer
    build that renamed it).  A record naming an unknown/unavailable
    backend -- or one that fails to parse at all -- is *advice we
    cannot take*: log a warning and serve on reference defaults rather
    than refusing to cold-start.

    Selection reads configuration and build-time artifacts only --
    never query data (SECURITY.md).
    """
    from repro.lwe.backends import KernelPlan, backend_available

    record = ((precompute or {}).get("kernel_plan") or {}).get(which)
    configured = getattr(config, "kernel_backend", "auto") or "auto"
    if configured != "auto":
        if record is not None and record.get("backend") == configured:
            try:
                return configured, KernelPlan.from_dict(record).plan_kwargs()
            except ValueError as exc:
                logger.warning(
                    "ignoring malformed %s kernel plan record (%s);"
                    " using %s with default options",
                    which,
                    exc,
                    configured,
                )
        return configured, {}
    if record is not None:
        try:
            tuned = KernelPlan.from_dict(record)
        except ValueError as exc:
            logger.warning(
                "ignoring malformed %s kernel plan record (%s);"
                " falling back to the reference backend",
                which,
                exc,
            )
            return None, {}
        if not backend_available(tuned.backend):
            logger.warning(
                "tuned %s kernel backend %r is not available on this"
                " host; falling back to the reference backend",
                which,
                tuned.backend,
            )
            return None, {}
        return tuned.backend, tuned.plan_kwargs()
    return None, {}


def build_services(
    index, *, shard: int = 0, num_shards: int = 1
) -> dict[str, Service]:
    """Stand up the full service roster for one built index.

    When the config asks for cross-query batching
    (``max_batch_size > 1``) the ranking service gets a
    :class:`~repro.core.scheduler.BatchScheduler` attached; its
    dispatcher starts and stops with the service's ``open``/``close``.

    An index loaded from a ``repro.index/v2`` artifact with a validated
    precompute sidecar carries plan metadata (``index.precompute``);
    the ranking and URL services then skip their matrix entry scans
    when building stacked-GEMM plans.

    The ranking service holds only shard ``shard`` of ``num_shards``
    of the cluster columns and returns *partial* answers (see
    :meth:`ShardedRankingService.build`; the default is the whole
    matrix); url/token/hint remain full -- they are cheap relative to
    the ranking scan and keeping them whole lets any fleet worker
    serve them.
    """
    plans = (index.precompute or {}).get("plans", {})
    ranking_meta = plans.get("ranking")
    entry_bound = (
        int(ranking_meta["entry_bound"]) if ranking_meta is not None else None
    )
    ranking_backend, ranking_opts = resolve_kernel_selection(
        index.config, index.precompute, "ranking"
    )
    url_backend, url_opts = resolve_kernel_selection(
        index.config, index.precompute, "url"
    )
    ranking = ShardedRankingService.build(
        index.ranking_scheme,
        index.layout.matrix,
        dim=index.layout.dim,
        shard=shard,
        num_shards=num_shards,
        entry_bound=entry_bound,
        kernel_backend=ranking_backend,
        kernel_opts=ranking_opts,
    )
    if index.config.max_batch_size > 1:
        from repro.core.scheduler import BatchScheduler

        ranking.attach_scheduler(
            BatchScheduler(
                ranking,
                max_batch_size=index.config.max_batch_size,
                max_batch_wait_ms=index.config.max_batch_wait_ms,
            )
        )
    services: list[Service] = [
        ranking,
        UrlService(
            index.url_db,
            index.url_scheme,
            plan_meta=plans.get("url"),
            kernel_backend=url_backend,
            kernel_opts=url_opts,
        ),
        TokenMintService(index.token_factory),
        HintService(index),
    ]
    return {service.service_name: service for service in services}
