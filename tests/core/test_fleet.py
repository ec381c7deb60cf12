"""The fleet plane, in-process: topology specs, generation-tagged
addressing, ranking fan-out bit-identity, failover, admission control,
and the rolling-swap protocol -- all over scripted transports (the
subprocess integration lives in test_fleet_e2e.py)."""

import json
import threading

import numpy as np
import pytest

from repro.core.cluster_runtime import ShardedRankingService
from repro.core.config import TiptoeConfig
from repro.core.engine import TiptoeEngine
from repro.core.fleet import (
    FleetConfig,
    FleetError,
    FleetLauncher,
    FleetOverloaded,
    FleetRouter,
    GenerationSpec,
    NoLiveReplica,
    ReplicaSpec,
    ShardSpec,
    UnknownGeneration,
)
from repro.core.indexer import TiptoeIndex
from repro.core.ranking import RankingBatch, RankingClient
from repro.core.services import build_services
from repro.corpus import SyntheticCorpus, SyntheticCorpusConfig
from repro.embeddings.quantize import quantize
from repro.lwe import modular
from repro.net import rpc, wire
from repro.net.rpc import ServiceEndpoint
from repro.net.transport import (
    LoopbackTransport,
    RemoteCallError,
    TaggedTransport,
    TransportConnectionLost,
    split_service,
    tag_service,
)

NUM_SHARDS = 3
REPLICAS = 2


@pytest.fixture(scope="module")
def index():
    corpus = SyntheticCorpus.generate(
        SyntheticCorpusConfig(num_docs=100, seed=0)
    )
    return TiptoeIndex.build(
        corpus.texts(),
        corpus.urls(),
        TiptoeConfig(),
        rng=np.random.default_rng(0),
    )


class FakeWorkerFleet:
    """In-process worker fleet: one loopback service roster per
    (shard, replica), addressed by a fake port, with a kill switch."""

    def __init__(self, index, num_shards=NUM_SHARDS, replicas=REPLICAS):
        self.killed = set()
        self.request_log = []
        self.workers = {}
        self.rosters = []
        for shard in range(num_shards):
            for replica in range(replicas):
                services = build_services(
                    index, shard=shard, num_shards=num_shards
                )
                for service in services.values():
                    service.open()
                self.rosters.append(services)
                endpoints = {
                    name: service.endpoint
                    for name, service in services.items()
                }
                meta = ServiceEndpoint("_meta")
                meta.register(
                    "health",
                    lambda p, svcs=services: json.dumps(
                        {n: s.health() for n, s in svcs.items()}
                    ).encode(),
                )
                endpoints["_meta"] = meta
                self.workers[self.port(shard, replica)] = LoopbackTransport(
                    endpoints
                )
        self.spec = GenerationSpec(
            generation="deadbeef",
            shards=tuple(
                ShardSpec(
                    shard=shard,
                    replicas=tuple(
                        ReplicaSpec("fake", self.port(shard, r))
                        for r in range(replicas)
                    ),
                )
                for shard in range(num_shards)
            ),
        )

    @staticmethod
    def port(shard, replica):
        return 1000 + shard * 10 + replica

    def transport_factory(self, spec):
        fleet = self

        class FakeTransport:
            def request(self, service, request, *, timeout=None):
                if spec.port in fleet.killed:
                    raise TransportConnectionLost("replica killed")
                fleet.request_log.append((spec.port, service))
                try:
                    return fleet.workers[spec.port].request(
                        service, request
                    )
                except Exception as exc:
                    # Over real sockets a handler error comes back as a
                    # STATUS_ERROR frame, i.e. RemoteCallError.
                    raise RemoteCallError(str(exc)) from exc

            def close(self):
                pass

        return FakeTransport()

    def close(self):
        for services in self.rosters:
            for service in services.values():
                service.close()


@pytest.fixture()
def fleet(index):
    fake = FakeWorkerFleet(index)
    router = FleetRouter(
        FleetConfig(health_interval_s=0.05),
        transport_factory=fake.transport_factory,
    )
    router.open()
    router.add_generation(fake.spec, make_current=True)
    yield fake, router
    router.close()
    fake.close()


class RouterTransport:
    """Client transport that hands requests straight to route()."""

    def __init__(self, router):
        self.router = router

    def request(self, service, request, *, timeout=None):
        return self.router.route(service, request)

    def close(self):
        pass


def build_ranking_query(index, seed):
    rng = np.random.default_rng(seed)
    client = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    keys = index.ranking_scheme.gen_keys(rng)
    return client.build_query(
        keys,
        quantize(
            index.embeddings[seed % index.num_docs]
            * index.quantization_gain,
            index.config.quantization(),
        ),
        seed % index.layout.num_clusters,
        rng,
    )


def ranking_blob(index, seed):
    return wire.encode_ciphertext(build_ranking_query(index, seed).ciphertext)


def ranking_request(index, seed, method):
    """A framed fan-out request: one ciphertext for ``answer``, a
    two-query stack for ``answer_batch``."""
    if method == "answer":
        return rpc.frame(method, ranking_blob(index, seed))
    batch = RankingBatch.from_queries(
        [build_ranking_query(index, seed + i) for i in range(2)]
    )
    return rpc.frame(method, wire.encode_batch(batch))


def live_replicas(router, shard):
    return router.health()["generations"]["deadbeef"][shard]["live"]


class TestGenerationAddressing:
    def test_tag_and_split_round_trip(self):
        assert tag_service("ranking", "1f2e3d4c") == "ranking@1f2e3d4c"
        assert split_service("ranking@1f2e3d4c") == ("ranking", "1f2e3d4c")
        assert split_service("ranking") == ("ranking", None)

    def test_tagged_ranking_name_fits_the_frame_field(self):
        from repro.net.tcp import MAX_SERVICE_BYTES

        assert (
            len(tag_service("ranking", "ab12cd34").encode())
            == MAX_SERVICE_BYTES
        )

    def test_double_tagging_rejected(self):
        with pytest.raises(ValueError, match="already"):
            tag_service("ranking@aa", "bb")

    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tag_service("ranking", "")

    def test_tagged_transport_rewrites_every_request(self):
        seen = []

        class Recorder:
            def request(self, service, request, *, timeout=None):
                seen.append(service)
                return b"ok"

            def close(self):
                pass

        transport = TaggedTransport(Recorder(), "cafe0123")
        transport.request("ranking", b"r")
        transport.request("url", b"r")
        assert seen == ["ranking@cafe0123", "url@cafe0123"]


class TestSpecs:
    def test_generation_spec_json_round_trip(self):
        spec = GenerationSpec(
            generation="aa11bb22",
            shards=(
                ShardSpec(0, (ReplicaSpec("h", 1), ReplicaSpec("h", 2))),
                ShardSpec(1, (ReplicaSpec("h", 3),)),
            ),
            artifact="/tmp/idx",
        )
        assert GenerationSpec.from_json(spec.to_json()) == spec

    def test_launcher_refuses_more_shards_than_clusters(
        self, index, tmp_path
    ):
        """Checked against the manifest before any process is spawned,
        where the error would vanish into a worker's stderr."""
        index.save(tmp_path)
        clusters = index.layout.num_clusters
        launcher = FleetLauncher(tmp_path, num_shards=clusters + 1)
        with pytest.raises(
            FleetError, match=f"{clusters} clusters into {clusters + 1} shards"
        ):
            launcher.start()
        assert launcher.procs == []

    def test_shard_order_validated(self):
        with pytest.raises(ValueError, match="in order"):
            GenerationSpec(
                generation="aa",
                shards=(ShardSpec(1, (ReplicaSpec("h", 1),)),),
            )

    def test_empty_replicas_rejected(self):
        with pytest.raises(ValueError, match="no replicas"):
            ShardSpec(0, ())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(max_inflight=0)
        with pytest.raises(ValueError):
            FleetConfig(replica_failure_budget=0)


class TestShardPartition:
    def test_build_validates_shard_range(self, index):
        with pytest.raises(ValueError, match="outside"):
            ShardedRankingService.build(
                index.ranking_scheme,
                index.layout.matrix,
                index.layout.dim,
                shard=3,
                num_shards=3,
            )

    def test_shard_health_reports_topology(self, index):
        shard = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            index.layout.dim,
            shard=1,
            num_shards=3,
        )
        health = shard.health()
        assert health["shard"] == 1 and health["num_shards"] == 3
        shard.close()

    def test_partial_sums_reproduce_the_full_answer(self, index):
        full = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            index.layout.dim,
        )
        shards = [
            ShardedRankingService.build(
                index.ranking_scheme,
                index.layout.matrix,
                index.layout.dim,
                shard=s,
                num_shards=NUM_SHARDS,
            )
            for s in range(NUM_SHARDS)
        ]
        q_bits = index.ranking_scheme.params.inner.q_bits
        query = build_ranking_query(index, 3)
        expected = full.answer(query).values
        total = None
        for shard in shards:
            partial = shard.answer(query).values
            total = (
                partial
                if total is None
                else modular.add(total, partial, q_bits)
            )
        assert np.array_equal(expected, total)
        full.close()
        for shard in shards:
            shard.close()


class TestRouting:
    def test_fleet_search_is_bit_identical_to_single_process(
        self, index, fleet
    ):
        fake, router = fleet
        corpus_text = "synthetic query about documents"
        via_fleet = TiptoeEngine(index, transport=RouterTransport(router))
        baseline = TiptoeEngine(index)
        try:
            a = via_fleet.search(corpus_text, np.random.default_rng(7))
            b = baseline.search(corpus_text, np.random.default_rng(7))
            assert [(r.position, r.score) for r in a.results] == [
                (r.position, r.score) for r in b.results
            ]
        finally:
            via_fleet.close()
            baseline.close()

    def test_ranking_fans_out_to_every_shard(self, index, fleet):
        fake, router = fleet
        blob = ranking_blob(index, 5)
        router.route("ranking", rpc.frame("answer", blob))
        shards_hit = {
            (port - 1000) // 10
            for port, service in fake.request_log
            if service == "ranking"
        }
        assert shards_hit == set(range(NUM_SHARDS))

    def test_non_ranking_goes_to_exactly_one_replica(self, fleet):
        fake, router = fleet
        router.route("hint", rpc.frame("ranking", b""))
        assert len(fake.request_log) == 1

    def test_unknown_generation_rejected(self, fleet):
        fake, router = fleet
        with pytest.raises(UnknownGeneration):
            router.route("ranking@ffffffff", rpc.frame("answer", b""))

    def test_tagged_request_routes_to_its_generation(self, index, fleet):
        fake, router = fleet
        blob = ranking_blob(index, 6)
        tagged = router.route(
            "ranking@deadbeef", rpc.frame("answer", blob)
        )
        untagged = router.route("ranking", rpc.frame("answer", blob))
        assert tagged == untagged

    def test_worker_handler_error_propagates_not_retried(self, fleet):
        fake, router = fleet
        before = len(fake.request_log)
        with pytest.raises(RemoteCallError):
            router.route("hint", rpc.frame("nope", b""))
        # Exactly one replica saw it: a deterministic handler error
        # must not burn the failover budget.
        assert len(fake.request_log) == before + 1
        assert router.stats.failovers == 0


FANOUT_METHODS = pytest.mark.parametrize("method", ["answer", "answer_batch"])


class TestFailover:
    @FANOUT_METHODS
    def test_killed_replica_fails_over_and_counts(self, index, fleet, method):
        fake, router = fleet
        assert live_replicas(router, 1) == REPLICAS
        fake.killed.add(fake.port(1, 0))
        response = router.route("ranking", ranking_request(index, 8, method))
        assert rpc.unframe(response)[0] == method
        assert router.stats.failovers >= 1
        assert live_replicas(router, 1) == REPLICAS - 1

    @FANOUT_METHODS
    def test_failed_over_answer_stays_bit_identical(
        self, index, fleet, method
    ):
        fake, router = fleet
        request = ranking_request(index, 9, method)
        healthy = router.route("ranking", request)
        fake.killed.add(fake.port(0, 0))
        fake.killed.add(fake.port(2, 1))
        degraded = router.route("ranking", request)
        assert healthy == degraded

    @FANOUT_METHODS
    def test_no_live_replica_raises(self, index, fleet, method):
        fake, router = fleet
        fake.killed.add(fake.port(1, 0))
        fake.killed.add(fake.port(1, 1))
        with pytest.raises(NoLiveReplica):
            router.route("ranking", ranking_request(index, 10, method))
        assert live_replicas(router, 1) == 0
        assert live_replicas(router, 0) == REPLICAS

    def test_prober_revives_a_recovered_replica(self, fleet):
        fake, router = fleet
        port = fake.port(0, 0)
        fake.killed.add(port)
        # Burn the failure budget so the replica is marked down.
        for _ in range(2):
            try:
                router.route("hint", rpc.frame("ranking", b""))
            except NoLiveReplica:  # pragma: no cover - depends on rotation
                pass
        gen = router._generation_or_raise("deadbeef")
        client = next(
            c for c in gen.all_clients() if c.spec.port == port
        )
        client.mark_failure()
        assert not client.live
        fake.killed.discard(port)
        deadline = threading.Event()
        for _ in range(100):
            if client.live:
                break
            deadline.wait(0.05)
        assert client.live


class TestAdmission:
    def test_overload_sheds_with_counter(self, index):
        fake = FakeWorkerFleet(index, num_shards=1, replicas=1)
        release = threading.Event()
        entered = threading.Event()
        inner_factory = fake.transport_factory

        def slow_factory(spec):
            inner = inner_factory(spec)

            class Slow:
                def request(self, service, request, *, timeout=None):
                    if service == "hint":
                        entered.set()
                        release.wait(10.0)
                    return inner.request(
                        service, request, timeout=timeout
                    )

                def close(self):
                    inner.close()

            return Slow()

        router = FleetRouter(
            FleetConfig(max_inflight=1),
            transport_factory=slow_factory,
        )
        router.add_generation(fake.spec, make_current=True)
        try:
            holder = threading.Thread(
                target=lambda: router.route(
                    "hint", rpc.frame("ranking", b"")
                )
            )
            holder.start()
            assert entered.wait(10.0)
            with pytest.raises(FleetOverloaded):
                router.route("url", rpc.frame("answer", b""))
            assert router.stats.shed == 1
            release.set()
            holder.join(10.0)
        finally:
            release.set()
            router.close()
            fake.close()


class TestSwapProtocol:
    def test_cut_over_and_retire(self, index):
        fake_a = FakeWorkerFleet(index, num_shards=1, replicas=1)
        fake_b = FakeWorkerFleet(index, num_shards=1, replicas=1)
        spec_b = GenerationSpec(
            generation="beefcafe", shards=fake_b.spec.shards
        )
        router = FleetRouter(
            FleetConfig(health_interval_s=0.05),
            transport_factory=lambda spec: (
                fake_a.transport_factory(spec)
            ),
        )
        try:
            router.add_generation(fake_a.spec, make_current=True)
            assert router.health()["current"] == "deadbeef"
            router.add_generation(spec_b)
            router.warm_generation("beefcafe")
            # Retiring the current generation is refused.
            with pytest.raises(FleetError, match="current"):
                router.retire_generation("deadbeef")
            router.cut_over("beefcafe")
            assert router.health()["current"] == "beefcafe"
            assert router.stats.swaps == 1
            router.retire_generation("deadbeef")
            with pytest.raises(UnknownGeneration):
                router.route("hint@deadbeef", rpc.frame("ranking", b""))
            # The new generation keeps serving.
            router.route("hint", rpc.frame("ranking", b""))
        finally:
            router.close()
            fake_a.close()
            fake_b.close()

    def test_cut_over_to_unknown_generation_rejected(self, fleet):
        fake, router = fleet
        with pytest.raises(UnknownGeneration):
            router.cut_over("ffffffff")

    def test_duplicate_generation_rejected(self, fleet):
        fake, router = fleet
        with pytest.raises(FleetError, match="already"):
            router.add_generation(fake.spec)

    def test_swap_endpoint_over_the_wire_methods(self, fleet):
        fake, router = fleet
        endpoint = router.endpoint
        body = endpoint.dispatch(rpc.frame("health", b""))
        _, payload = rpc.unframe(body)
        report = json.loads(payload)
        assert report["current"] == "deadbeef"
        body = endpoint.dispatch(rpc.frame("generations", b""))
        _, payload = rpc.unframe(body)
        assert json.loads(payload)["current"] == "deadbeef"


class TestHealth:
    def test_health_reports_per_shard_replicas(self, fleet):
        fake, router = fleet
        health = router.health()
        shards = health["generations"]["deadbeef"]
        assert len(shards) == NUM_SHARDS
        assert all(s["live"] == REPLICAS for s in shards)
        assert health["status"] == "ok"

    def test_empty_router_reports_empty(self):
        router = FleetRouter()
        assert router.health()["status"] == "empty"
        router.close()
