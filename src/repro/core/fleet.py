"""The multi-process fleet plane: router, shards, replicas, swaps.

Tiptoe's deployment (SOSP 2023, SS6/SS8) is a *fleet*: the ranking
scan shards across many machines, each shard runs replicated for
fault-tolerance, and a coordinator fans every query out and folds the
partial answers back together.  This module is that coordinator for
the multi-process reproduction:

* :class:`FleetRouter` is the front door.  It is a normal
  :class:`~repro.net.service.Service` (name ``fleet``) hosted by a
  :class:`~repro.net.tcp.ServerRunner` whose *fallback* handler is
  :meth:`FleetRouter.route` -- so ``ranking`` / ``url`` / ``token`` /
  ``hint`` requests that reach the front door are proxied to worker
  processes, while the ``fleet`` endpoint itself serves health and the
  swap protocol.
* Ranking requests fan out to every shard of one index *generation*;
  each shard worker holds only its cluster-column slice (see
  :meth:`~repro.core.cluster_runtime.ShardedRankingService.build`)
  and returns a partial answer.  The router sums partials with exact
  mod-2^k arithmetic, so a fleet answer is bit-identical to the
  single-process service on the same index.
* URL / token / hint requests are whole on every worker; the router
  round-robins them across live replicas.
* Replica failover: a retryable transport failure marks the replica,
  the same byte-identical request is resent to the next replica
  (``fleet.failovers``), and a background prober revives replicas whose
  ``_meta``/``health`` answers again.  Replica choice depends only on
  liveness and arrival order -- never on the (encrypted) query -- so
  failover leaks nothing query-dependent.
* Admission control: at most ``max_inflight`` proxied requests at
  once; excess load is shed with :class:`FleetOverloaded`
  (``fleet.shed``) instead of queueing without bound.
* Rolling swap: :meth:`add_generation` registers a new index
  generation's workers, :meth:`warm_generation` waits for them to
  answer health one replica at a time, :meth:`cut_over` atomically
  redirects *untagged* traffic, and :meth:`retire_generation` drains
  and disconnects the old fleet.  Sessions pinned by
  ``service@generation`` wire names (see
  :class:`~repro.net.transport.TaggedTransport`) keep answering from
  their own generation throughout, so no query ever mixes indexes.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from repro.lwe import modular
from repro.net import rpc, wire
from repro.net.rpc import ServiceEndpoint
from repro.net.service import Service
from repro.net.tcp import PooledSocketTransport
from repro.net.transport import (
    RETRYABLE_ERRORS,
    RemoteCallError,
    Transport,
    TransportError,
    split_service,
)
from repro.obs import runtime as obs
from repro.obs.clock import MONOTONIC, Clock

logger = logging.getLogger(__name__)


class FleetError(RuntimeError):
    """Base class for fleet-plane failures."""


class FleetOverloaded(FleetError):
    """Admission control shed the request; retry after backoff."""


class NoLiveReplica(FleetError):
    """Every replica of a required shard failed the request."""


class UnknownGeneration(FleetError):
    """The request names an index generation this fleet does not hold."""


# -- fleet topology -----------------------------------------------------------


@dataclass(frozen=True)
class ReplicaSpec:
    """One worker process's listening address."""

    host: str
    port: int

    def to_json(self) -> dict:
        return {"host": self.host, "port": self.port}

    @classmethod
    def from_json(cls, data: dict) -> "ReplicaSpec":
        return cls(host=str(data["host"]), port=int(data["port"]))


@dataclass(frozen=True)
class ShardSpec:
    """One ranking shard and the replicas that serve it."""

    shard: int
    replicas: tuple[ReplicaSpec, ...]

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError(f"shard {self.shard} has no replicas")

    def to_json(self) -> dict:
        return {
            "shard": self.shard,
            "replicas": [r.to_json() for r in self.replicas],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ShardSpec":
        return cls(
            shard=int(data["shard"]),
            replicas=tuple(
                ReplicaSpec.from_json(r) for r in data["replicas"]
            ),
        )


@dataclass(frozen=True)
class GenerationSpec:
    """One index generation: its tag and the worker fleet serving it.

    The ``generation`` tag is the 8-hex artifact digest prefix from
    :func:`repro.core.artifacts.generation_tag` -- the identity the
    swap protocol and session pinning key on.
    """

    generation: str
    shards: tuple[ShardSpec, ...]
    artifact: str | None = None

    def __post_init__(self) -> None:
        if not self.generation:
            raise ValueError("a generation needs a non-empty tag")
        if not self.shards:
            raise ValueError("a generation needs at least one shard")
        seen = [s.shard for s in self.shards]
        if seen != list(range(len(seen))):
            raise ValueError(
                f"shards must be 0..{len(seen) - 1} in order, got {seen}"
            )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def to_json(self) -> dict:
        data = {
            "generation": self.generation,
            "shards": [s.to_json() for s in self.shards],
        }
        if self.artifact is not None:
            data["artifact"] = self.artifact
        return data

    @classmethod
    def from_json(cls, data: dict) -> "GenerationSpec":
        return cls(
            generation=str(data["generation"]),
            shards=tuple(ShardSpec.from_json(s) for s in data["shards"]),
            artifact=data.get("artifact"),
        )


@dataclass(frozen=True)
class FleetConfig:
    """Router knobs: admission, failover, and health cadence."""

    #: Maximum concurrently proxied requests before shedding.
    max_inflight: int = 64
    #: Seconds between background health probes of down replicas.
    health_interval_s: float = 0.25
    #: Consecutive request failures before a replica is marked down.
    replica_failure_budget: int = 1
    #: Per-call deadline for requests proxied to workers.
    rpc_timeout_s: float = 5.0
    #: Socket-pool size per replica (concurrent requests it absorbs).
    max_connections_per_replica: int = 8

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.health_interval_s <= 0:
            raise ValueError("health interval must be positive")
        if self.replica_failure_budget < 1:
            raise ValueError("failure budget must be at least 1")
        if self.rpc_timeout_s <= 0:
            raise ValueError("rpc timeout must be positive")
        if self.max_connections_per_replica < 1:
            raise ValueError("need at least one connection per replica")


@dataclass
class FleetStats:
    """Always-on routing counters (obs metrics need obs enabled)."""

    routed: int = 0
    shed: int = 0
    failovers: int = 0
    swaps: int = 0

    def to_json(self) -> dict:
        return {
            "routed": self.routed,
            "shed": self.shed,
            "failovers": self.failovers,
            "swaps": self.swaps,
        }


# -- one upstream worker ------------------------------------------------------


class ReplicaClient:
    """The router's view of one worker process.

    Owns a bounded connection pool to the worker and the replica's
    liveness state: ``mark_failure`` counts consecutive failures and
    takes the replica out of rotation once the budget is spent;
    ``mark_success`` (or a successful background probe) puts it back.
    """

    def __init__(
        self,
        spec: ReplicaSpec,
        *,
        failure_budget: int = 1,
        timeout: float = 5.0,
        max_connections: int = 8,
        transport_factory: Callable[[ReplicaSpec], Transport] | None = None,
    ):
        self.spec = spec
        self.failure_budget = failure_budget
        self.transport: Transport = (
            transport_factory(spec)
            if transport_factory is not None
            else PooledSocketTransport(
                spec.host,
                spec.port,
                timeout=timeout,
                max_connections=max_connections,
            )
        )
        self._lock = threading.Lock()
        self._live = True  # guarded-by: _lock
        self._consecutive_failures = 0  # guarded-by: _lock

    @property
    def live(self) -> bool:
        with self._lock:
            return self._live

    def mark_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._live = True

    def mark_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_budget:
                self._live = False

    def request(
        self, service: str, request: bytes, *, timeout: float | None = None
    ) -> bytes:
        return self.transport.request(service, request, timeout=timeout)

    def probe(self, timeout: float | None = None) -> dict:
        """One ``_meta``/``health`` round trip; raises on failure."""
        response = self.request(
            "_meta", rpc.frame("health", b""), timeout=timeout
        )
        _, body = rpc.unframe(response)
        return json.loads(body.decode())

    def health_snapshot(self) -> dict:
        with self._lock:
            return {
                "host": self.spec.host,
                "port": self.spec.port,
                "live": self._live,
                "consecutive_failures": self._consecutive_failures,
            }

    def close(self) -> None:
        self.transport.close()


class _Generation:
    """Router-internal state for one registered generation."""

    def __init__(self, spec: GenerationSpec, clients: list[list[ReplicaClient]]):
        self.spec = spec
        #: ``clients[shard]`` is that shard's replica rotation.
        self.clients = clients
        # The three counters below are all guarded by the owning
        # router's lock; _Generation itself holds no lock.
        self.inflight = 0
        self.retiring = False
        self.rr = 0

    def all_clients(self) -> list[ReplicaClient]:
        return [c for shard in self.clients for c in shard]


# -- the front door -----------------------------------------------------------


class FleetRouter(Service):
    """Admission control, shard fan-out, failover, and rolling swap.

    Deploy as ``ServerRunner([router], fallback=router.route)``: the
    runner's fallback hands every frame addressed to an unregistered
    service name -- which is exactly the worker-plane traffic,
    including ``@generation``-tagged names -- to :meth:`route`.

    Thread-safety: the router lock only ever guards topology lookups
    and counters; all worker I/O happens outside it, so slow replicas
    never serialize unrelated requests.
    """

    service_name = "fleet"

    #: Ranking methods that fan out to every shard and aggregate, each
    #: with the codec pair that decodes a partial answer and encodes the
    #: folded sum.
    _FOLD_CODECS = {
        "answer": (wire.decode_answer, wire.encode_answer),
        "answer_batch": (
            wire.decode_batch_answer,
            lambda total, q_bits: wire.encode_batch_answer(
                SimpleNamespace(stacked=total), q_bits
            ),
        ),
    }

    def __init__(
        self,
        config: FleetConfig | None = None,
        *,
        transport_factory: Callable[[ReplicaSpec], Transport] | None = None,
        clock: Clock | None = None,
    ):
        self.config = config if config is not None else FleetConfig()
        self.stats = FleetStats()
        self._transport_factory = transport_factory
        self._clock = clock if clock is not None else MONOTONIC
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._generations: dict[str, _Generation] = {}  # guarded-by: _lock
        self._current: str | None = None  # guarded-by: _lock
        self._inflight = 0  # guarded-by: _lock
        self._pool: ThreadPoolExecutor | None = None
        self._prober: threading.Thread | None = None
        self._stop = threading.Event()

    # -- the fleet control endpoint -----------------------------------------

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("health", self._handle_health)
        endpoint.register("generations", self._handle_generations)
        endpoint.register("add_generation", self._handle_add_generation)
        endpoint.register("cut_over", self._handle_cut_over)
        endpoint.register("retire", self._handle_retire)

    def _handle_health(self, payload: bytes) -> bytes:
        return json.dumps(self.health(), sort_keys=True).encode()

    def _handle_generations(self, payload: bytes) -> bytes:
        with self._lock:
            data = {
                "current": self._current,
                "generations": [
                    gen.spec.to_json() for gen in self._generations.values()
                ],
            }
        return json.dumps(data, sort_keys=True).encode()

    def _handle_add_generation(self, payload: bytes) -> bytes:
        spec = GenerationSpec.from_json(json.loads(payload.decode()))
        self.add_generation(spec)
        self.warm_generation(spec.generation)
        return json.dumps({"generation": spec.generation}).encode()

    def _handle_cut_over(self, payload: bytes) -> bytes:
        generation = json.loads(payload.decode())["generation"]
        self.cut_over(generation)
        return json.dumps({"current": generation}).encode()

    def _handle_retire(self, payload: bytes) -> bytes:
        generation = json.loads(payload.decode())["generation"]
        self.retire_generation(generation)
        return json.dumps({"retired": generation}).encode()

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=16, thread_name_prefix="fleet-fanout"
            )
        if self._prober is None:
            self._stop.clear()
            self._prober = threading.Thread(
                target=self._probe_loop, name="fleet-prober", daemon=True
            )
            self._prober.start()

    def close(self) -> None:
        self._stop.set()
        prober, self._prober = self._prober, None
        if prober is not None:
            prober.join(timeout=5.0)
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._lock:
            generations = list(self._generations.values())
            self._generations.clear()
            self._current = None
        for gen in generations:
            for client in gen.all_clients():
                client.close()

    def health(self) -> dict:
        with self._lock:
            generations = dict(self._generations)
            current = self._current
            inflight = self._inflight
        shards = {}
        for tag, gen in generations.items():
            shards[tag] = [
                {
                    "shard": spec.shard,
                    "replicas": [c.health_snapshot() for c in clients],
                    "live": sum(1 for c in clients if c.live),
                }
                for spec, clients in zip(gen.spec.shards, gen.clients)
            ]
        return {
            "service": self.service_name,
            "status": "ok" if current is not None else "empty",
            "current": current,
            "inflight": inflight,
            "max_inflight": self.config.max_inflight,
            "stats": self.stats.to_json(),
            "generations": shards,
        }

    # -- swap protocol -------------------------------------------------------

    def add_generation(
        self, spec: GenerationSpec, *, make_current: bool = False
    ) -> None:
        """Register a generation's worker fleet (no traffic yet unless
        ``make_current`` or the router was empty)."""
        clients = [
            [
                ReplicaClient(
                    replica,
                    failure_budget=self.config.replica_failure_budget,
                    timeout=self.config.rpc_timeout_s,
                    max_connections=self.config.max_connections_per_replica,
                    transport_factory=self._transport_factory,
                )
                for replica in shard.replicas
            ]
            for shard in spec.shards
        ]
        with self._lock:
            if spec.generation in self._generations:
                raise FleetError(
                    f"generation {spec.generation!r} already registered"
                )
            self._generations[spec.generation] = _Generation(spec, clients)
            if make_current or self._current is None:
                self._current = spec.generation
        logger.info(
            "fleet: added generation %s (%d shards)",
            spec.generation,
            spec.num_shards,
        )

    def warm_generation(
        self, generation: str, *, timeout_s: float = 30.0
    ) -> None:
        """Wait until every replica of a generation answers health.

        Replicas warm *one at a time* (the rolling half of the rolling
        swap): each must answer its ``_meta``/``health`` probe before
        the next is touched, so a cut-over never lands on a fleet whose
        workers are still loading the index.
        """
        gen = self._generation_or_raise(generation)
        deadline = self._clock() + timeout_s
        for shard_clients in gen.clients:
            for client in shard_clients:
                self._warm_replica(client, deadline)
        logger.info("fleet: generation %s warm", generation)

    def _warm_replica(self, client: ReplicaClient, deadline: float) -> None:
        while True:
            try:
                client.probe(timeout=self.config.rpc_timeout_s)
            except TransportError:
                if self._clock() >= deadline:
                    raise FleetError(
                        f"replica {client.spec.host}:{client.spec.port}"
                        " did not become healthy before the warm deadline"
                    )
                time.sleep(min(0.05, self.config.health_interval_s))
                continue
            client.mark_success()
            return

    def cut_over(self, generation: str) -> None:
        """Atomically point untagged traffic at ``generation``.

        In-flight and tagged requests keep their own generation; only
        the default for *new* untagged requests changes, so no query
        ever mixes answers across indexes.
        """
        with self._lock:
            if generation not in self._generations:
                raise UnknownGeneration(
                    f"cannot cut over to unknown generation {generation!r}"
                )
            self._current = generation
            self.stats.swaps += 1
        obs.count("fleet.swaps")
        logger.info("fleet: cut over to generation %s", generation)

    def retire_generation(
        self, generation: str, *, drain_timeout_s: float = 30.0
    ) -> None:
        """Drain a generation's in-flight requests, then disconnect it."""
        deadline = self._clock() + drain_timeout_s
        with self._drained:
            gen = self._generations.get(generation)
            if gen is None:
                raise UnknownGeneration(
                    f"cannot retire unknown generation {generation!r}"
                )
            if self._current == generation:
                raise FleetError(
                    f"generation {generation!r} is current; cut over first"
                )
            gen.retiring = True
            while gen.inflight > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise FleetError(
                        f"generation {generation!r} did not drain"
                        f" within {drain_timeout_s:.1f}s"
                        f" ({gen.inflight} requests in flight)"
                    )
                self._drained.wait(remaining)
            del self._generations[generation]
        for client in gen.all_clients():
            client.close()
        logger.info("fleet: retired generation %s", generation)

    # -- request routing -----------------------------------------------------

    def route(self, service: str, request: bytes) -> bytes:
        """The :class:`~repro.net.tcp.ServerRunner` fallback handler.

        ``service`` is the wire name (possibly ``@generation``-tagged);
        ``request`` is the framed RPC request, forwarded byte-identical
        to workers.  Raising here becomes an error frame to the client.
        """
        name, tag = split_service(service)
        with self._lock:
            generation = tag if tag is not None else self._current
            gen = (
                self._generations.get(generation)
                if generation is not None
                else None
            )
            if gen is None or gen.retiring:
                raise UnknownGeneration(
                    f"no generation serves {service!r}"
                    f" (current: {self._current!r})"
                )
            if self._inflight >= self.config.max_inflight:
                self.stats.shed += 1
                obs.count("fleet.shed")
                raise FleetOverloaded(
                    f"fleet at max inflight ({self.config.max_inflight});"
                    " request shed"
                )
            self._inflight += 1
            gen.inflight += 1
            self.stats.routed += 1
            rr = gen.rr
            gen.rr += 1
        try:
            if name == "ranking":
                method, _ = rpc.unframe(request)
                if method in self._FOLD_CODECS:
                    return self._route_ranking(gen, method, request)
            return self._route_any(gen, name, request, rr)
        finally:
            with self._drained:
                self._inflight -= 1
                gen.inflight -= 1
                if gen.inflight == 0:
                    self._drained.notify_all()

    def _route_ranking(
        self, gen: _Generation, method: str, request: bytes
    ) -> bytes:
        """Fan one ranking request out to every shard and fold the
        partial answers: wraparound (mod 2^k) addition is associative
        and commutative, so the folded sum is bit-identical to the
        single-process service's."""
        pool = self._pool
        num_shards = len(gen.clients)
        with obs.span("fleet.fanout", shards=num_shards, method=method):
            if pool is not None and num_shards > 1:
                futures = [
                    pool.submit(
                        self._call_shard, gen, shard, "ranking", request
                    )
                    for shard in range(num_shards)
                ]
                responses = [f.result() for f in futures]
            else:
                responses = [
                    self._call_shard(gen, shard, "ranking", request)
                    for shard in range(num_shards)
                ]
        return self._fold_answers(method, responses)

    def _fold_answers(self, method: str, responses: list[bytes]) -> bytes:
        decode, encode = self._FOLD_CODECS[method]
        total = None
        q_bits = 0
        for response in responses:
            _, body = rpc.unframe(response)
            partial, q_bits = decode(body)
            total = (
                partial
                if total is None
                else modular.add(total, partial, q_bits)
            )
        return rpc.frame(method, encode(total, q_bits))

    def _route_any(
        self, gen: _Generation, service: str, request: bytes, rr: int
    ) -> bytes:
        """Round-robin a whole-index request (url/token/hint/_meta --
        and non-fanout ranking methods, which live on shard 0)."""
        if service == "ranking":
            candidates = list(gen.clients[0])
        else:
            candidates = gen.all_clients()
        start = rr % len(candidates)
        rotation = candidates[start:] + candidates[:start]
        return self._try_replicas(rotation, service, request)

    def _call_shard(
        self, gen: _Generation, shard: int, service: str, request: bytes
    ) -> bytes:
        return self._try_replicas(
            list(gen.clients[shard]), service, request, shard=shard
        )

    def _try_replicas(
        self,
        replicas: list[ReplicaClient],
        service: str,
        request: bytes,
        shard: int | None = None,
    ) -> bytes:
        """One request against a replica rotation with failover.

        Live replicas are tried first; if all are marked down, every
        replica gets a last-resort attempt anyway (a prober may simply
        not have revived one yet).  Each retry resends the *same*
        bytes -- the request is ciphertext of query-independent size,
        so which replica answers reveals nothing about the query.
        """
        ordered = [r for r in replicas if r.live] or list(replicas)
        last: TransportError | None = None
        for attempt, replica in enumerate(ordered):
            try:
                response = replica.request(
                    service, request, timeout=self.config.rpc_timeout_s
                )
            except RemoteCallError:
                # The worker's handler rejected the request; another
                # replica would deterministically do the same.
                replica.mark_success()
                raise
            except RETRYABLE_ERRORS as exc:
                last = exc
                replica.mark_failure()
                if attempt + 1 < len(ordered):
                    self._count_failover(shard)
                continue
            replica.mark_success()
            return response
        where = f"shard {shard}" if shard is not None else service
        raise NoLiveReplica(
            f"no replica of {where} answered"
            f" ({len(ordered)} tried): {last}"
        )

    def _count_failover(self, shard: int | None) -> None:
        with self._lock:
            self.stats.failovers += 1
        obs.count("fleet.failovers")
        logger.warning(
            "fleet: failover on %s",
            f"shard {shard}" if shard is not None else "replica rotation",
        )

    # -- background health probing -------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval_s):
            with self._lock:
                generations = list(self._generations.items())
            for tag, gen in generations:
                for spec, clients in zip(gen.spec.shards, gen.clients):
                    for client in clients:
                        if client.live:
                            continue
                        try:
                            client.probe(
                                timeout=self.config.health_interval_s
                            )
                        except TransportError:
                            continue
                        client.mark_success()
                        logger.info(
                            "fleet: replica %s:%d (gen %s shard %d) revived",
                            client.spec.host,
                            client.spec.port,
                            tag,
                            spec.shard,
                        )
                    obs.gauge(
                        f"fleet.shard{spec.shard}.live_replicas",
                        sum(1 for c in clients if c.live),
                    )

    def _generation_or_raise(self, generation: str) -> _Generation:
        with self._lock:
            gen = self._generations.get(generation)
        if gen is None:
            raise UnknownGeneration(f"unknown generation {generation!r}")
        return gen


# -- spawning worker processes ------------------------------------------------


class FleetLauncher:
    """Spawns and supervises one generation's worker processes.

    Each worker is ``python -m repro serve <artifact> --shard i
    --num-shards S --port 0``; the launcher parses the worker's
    ``serving on host:port`` hand-off line to learn the bound port and
    assembles the :class:`GenerationSpec` the router consumes.  Used by
    the ``serve-fleet`` CLI and the integration tests (which also use
    :meth:`kill_replica` for failover injection).
    """

    def __init__(
        self,
        artifact: str | Path,
        *,
        num_shards: int = 1,
        replicas_per_shard: int = 1,
        host: str = "127.0.0.1",
        python: str | None = None,
    ):
        if num_shards < 1 or replicas_per_shard < 1:
            raise ValueError("need at least one shard and one replica")
        self.artifact = Path(artifact)
        self.num_shards = num_shards
        self.replicas_per_shard = replicas_per_shard
        self.host = host
        self.python = python if python is not None else sys.executable
        #: ``procs[shard][replica]`` once started.
        self.procs: list[list[subprocess.Popen]] = []
        self._spec: GenerationSpec | None = None

    def start(self) -> GenerationSpec:
        """Launch every worker and wait for each hand-off line."""
        if self.procs:
            raise FleetError("launcher already started")
        from repro.core import artifacts
        from repro.core.cluster_runtime import shard_bounds

        generation = artifacts.generation_tag(self.artifact)
        try:
            # Workers run with stderr discarded: catch the one start-up
            # error an operator can cause before spawning any.
            shard_bounds(artifacts.num_clusters(self.artifact), self.num_shards)
        except ValueError as exc:
            raise FleetError(f"{self.artifact}: {exc}") from None
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        try:
            for shard in range(self.num_shards):
                row = []
                for _ in range(self.replicas_per_shard):
                    proc = subprocess.Popen(
                        [
                            self.python,
                            "-m",
                            "repro",
                            "serve",
                            str(self.artifact),
                            "--host",
                            self.host,
                            "--port",
                            "0",
                            "--shard",
                            str(shard),
                            "--num-shards",
                            str(self.num_shards),
                        ],
                        env=env,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL,
                        text=True,
                    )
                    row.append(proc)
                self.procs.append(row)
            spec_shards = []
            for shard, row in enumerate(self.procs):
                addresses = []
                for proc in row:
                    addresses.append(self._read_address(proc))
                spec_shards.append(
                    ShardSpec(shard=shard, replicas=tuple(addresses))
                )
        except Exception:
            self.stop()
            raise
        self._spec = GenerationSpec(
            generation=generation,
            shards=tuple(spec_shards),
            artifact=str(self.artifact),
        )
        return self._spec

    def _read_address(self, proc: subprocess.Popen) -> ReplicaSpec:
        line = proc.stdout.readline().strip()
        if not line.startswith("serving on "):
            raise FleetError(
                f"worker did not hand off (got {line!r});"
                f" exit code {proc.poll()}"
            )
        host, port = line[len("serving on ") :].rsplit(":", 1)
        return ReplicaSpec(host=host, port=int(port))

    @property
    def spec(self) -> GenerationSpec:
        if self._spec is None:
            raise FleetError("launcher is not started")
        return self._spec

    def kill_replica(self, shard: int, replica: int) -> None:
        """Hard-kill one worker (failover injection for tests)."""
        proc = self.procs[shard][replica]
        proc.kill()
        proc.wait()

    def stop(self) -> None:
        """Terminate every worker.  Idempotent."""
        for row in self.procs:
            for proc in row:
                if proc.poll() is None:
                    proc.terminate()
        for row in self.procs:
            for proc in row:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                if proc.stdout is not None:
                    proc.stdout.close()
        self.procs = []
        self._spec = None

    def __enter__(self) -> "FleetLauncher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
