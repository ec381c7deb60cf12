"""One body per job: the cross-layer batch matrix.

Every homomorphic-evaluation layer has one implementation -- the
stacked (m, Q) form -- and its single-query name is that body called
on a batch of one.  Comparing the batch with the single-query call
would therefore compare a body with itself; every case here checks a
layer against an *independent* reference instead:

* kernel layers (backend plans, ``apply_batch``, the ranking
  service, the fleet fold): the plain integer ``modular.matmul``
  product of the same operands, bit for bit;
* scheme and service layers (double layer + token mint, SimplePIR, the
  URL service, and the ranking service again): the plaintext --
  decrypting column i recovers ``M v_i`` / record i.

The matrix is layer x every kernel backend this host can run x
Q in {0, 1, 2, 16} x q_bits in {32, 64}.  Q=0 yields an empty result
at every in-process layer; on the wire an empty batch is
unrepresentable by design and the codec rejects it.
"""

import numpy as np
import pytest

from repro.core.cluster_runtime import ShardedRankingService
from repro.core.fleet import (
    FleetRouter,
    GenerationSpec,
    ReplicaSpec,
    ShardSpec,
)
from repro.core.ranking import RankingBatch, RankingQuery
from repro.core.url_service import UrlService
from repro.homenc import DoubleLheParams, DoubleLheScheme
from repro.homenc.token import TokenFactory
from repro.lwe import LweParams, modular
from repro.lwe.backends import backend_available, get_backend
from repro.lwe.sampling import seeded_rng
from repro.net import rpc, wire
from repro.net.transport import LoopbackTransport
from repro.pir.database import PackedDatabase
from repro.pir.simplepir import SimplePirClient, SimplePirServer

BACKENDS = ("reference", "multiprocess", "cnative")
BATCHES = (0, 1, 2, 16)
Q_BITS = (32, 64)
MAX_Q = max(BATCHES)
DIM, CLUSTERS, ROWS = 4, 6, 20


class World:
    """One modulus' fixtures: a ranking-shaped matrix with MAX_Q keyed
    and encrypted queries, and a packed record database with MAX_Q PIR
    queries."""

    def __init__(self, q_bits: int):
        rng = seeded_rng(q_bits)
        m = DIM * CLUSTERS
        self.q_bits = q_bits
        self.scheme = self._scheme(q_bits, p=1024, m=m)
        self.matrix = rng.integers(-4, 5, size=(ROWS, m))
        self.ring = modular.to_ring(self.matrix, q_bits)
        self.prep = self.scheme.preprocess(self.matrix)
        self.keys = [self.scheme.gen_keys(rng) for _ in range(MAX_Q)]
        self.enc_keys = [
            self.scheme.encrypt_key(keys, rng) for keys in self.keys
        ]
        self.msgs = [rng.integers(-4, 5, size=m) for _ in range(MAX_Q)]
        self.cts = [
            self.scheme.encrypt(keys, msg)
            for keys, msg in zip(self.keys, self.msgs)
        ]
        self.stacked = np.stack([ct.c for ct in self.cts], axis=1)
        self.queries = [RankingQuery(ciphertext=ct) for ct in self.cts]

        self.records = [bytes([17 * i % 251] * 6) for i in range(10)]
        self.db = PackedDatabase.from_records(self.records, 256)
        self.pir_scheme = self._scheme(q_bits, p=256, m=self.db.num_cols)
        self.pir_client = SimplePirClient(self.db, self.pir_scheme)
        self.pir_keys = [self.pir_client.keygen(rng) for _ in range(MAX_Q)]
        self.pir_queries = [
            self.pir_client.query(keys, i % len(self.records))
            for i, keys in enumerate(self.pir_keys)
        ]
        self.pir_hint = self.pir_scheme.inner.preprocess(self.db.matrix)

    @staticmethod
    def _scheme(q_bits: int, p: int, m: int) -> DoubleLheScheme:
        inner = LweParams(n=24, q_bits=q_bits, p=p, sigma=3.2, m=m)
        return DoubleLheScheme(
            DoubleLheParams(inner=inner, outer_n=32, outer_num_primes=3),
            a_seed=bytes([q_bits]) * 32,
        )

    def expected_product(self, batch: int) -> np.ndarray:
        """The integer reference: ``M @ B`` over Z_{2^q_bits}."""
        return modular.matmul(self.ring, self.stacked[:, :batch], self.q_bits)

    def expected_scores(self, i: int) -> np.ndarray:
        """The plaintext reference: query i's exact inner products."""
        return self.matrix.astype(np.int64) @ self.msgs[i].astype(np.int64)

    def assert_records_recovered(self, answers, batch: int) -> None:
        assert len(answers) == batch
        for i, answer in enumerate(answers):
            got = self.pir_client.recover_classic(
                self.pir_keys[i], answer, self.pir_hint
            )
            assert got == self.records[i % len(self.records)]


@pytest.fixture(scope="module")
def worlds():
    return {q_bits: World(q_bits) for q_bits in Q_BITS}


@pytest.fixture(scope="module")
def served():
    """``get(layer, backend, q_bits, build)``: one live plan or service
    per key, built on first use and closed when the module is done --
    so each backend's pool is paid for once, not once per batch width."""
    cache: dict = {}

    def get(layer, backend, q_bits, build):
        key = (layer, backend, q_bits)
        if key not in cache:
            cache[key] = build()
        return cache[key]

    yield get
    for resource in cache.values():
        resource.close()


def matrix(test):
    for name, values in (
        ("backend", BACKENDS), ("batch", BATCHES), ("q_bits", Q_BITS)
    ):
        test = pytest.mark.parametrize(name, values)(test)
    return test


@pytest.fixture(autouse=True)
def _runnable_backend(backend):
    if not backend_available(backend):
        pytest.skip(f"kernel backend {backend!r} cannot run on this host")


def _kernel_opts(backend: str) -> dict:
    return {"workers": 2} if backend != "reference" else {}


@matrix
def test_backend_plan(worlds, served, backend, batch, q_bits):
    world = worlds[q_bits]
    plan = served(
        "plan", backend, q_bits,
        lambda: get_backend(backend).plan(
            world.matrix, q_bits, **_kernel_opts(backend)
        ),
    )
    assert plan.backend_name == backend
    got = plan.matmul(world.stacked[:, :batch])
    assert got.shape == (ROWS, batch)
    assert got.dtype == modular.dtype_for(q_bits)
    assert np.array_equal(got, world.expected_product(batch))


@matrix
def test_regev_apply(worlds, served, backend, batch, q_bits):
    world = worlds[q_bits]
    inner = world.scheme.inner
    plan = served(
        "regev", backend, q_bits,
        lambda: inner.batch_plan(
            world.matrix, backend=backend, **_kernel_opts(backend)
        ),
    )
    got = inner.apply_batch(None, world.cts[:batch], plan=plan)
    assert np.array_equal(got, world.expected_product(batch))
    p = inner.params.p
    for i in range(batch):
        plain = inner.decrypt(world.keys[i].inner, world.prep.hint, got[:, i])
        assert np.array_equal(plain, world.expected_scores(i) % p)
    if batch == 1:
        assert np.array_equal(
            inner.apply(world.matrix, world.cts[0]), got[:, 0]
        )


@matrix
def test_double_layer_and_token_mint(worlds, served, backend, batch, q_bits):
    """Mint Q tokens in one hint pass, evaluate Q queries in one
    product, and decrypt each through its own token."""
    world = worlds[q_bits]
    scheme = world.scheme
    plan = served(
        "double", backend, q_bits,
        lambda: scheme.batch_plan(
            world.matrix, backend=backend, **_kernel_opts(backend)
        ),
    )
    factory = TokenFactory()
    factory.register("ranking", scheme, world.prep)
    payloads = factory.mint_many(
        [{"ranking": enc_key} for enc_key in world.enc_keys[:batch]]
    )
    assert len(payloads) == batch
    a_product = factory.a_products()["ranking"]
    scheme.adopt_a_product(a_product, world.prep.rows)
    answers = scheme.apply_batch(None, world.cts[:batch], plan=plan)
    assert answers.shape == (ROWS, batch)
    for i, payload in enumerate(payloads):
        hint_product = scheme.decrypt_hint_product(
            world.keys[i], payload.hints["ranking"]
        )
        got = scheme.decrypt_centered(world.keys[i], answers[:, i], hint_product)
        assert np.array_equal(got, world.expected_scores(i))
    if batch == 1:
        (hint,) = scheme.evaluate_hint_batch(
            world.enc_keys[:1], world.prep, a_product
        )
        single = scheme.evaluate_hint(world.enc_keys[0], world.prep, a_product)
        assert scheme.decrypt_hint_product(world.keys[0], hint).tolist() == (
            scheme.decrypt_hint_product(world.keys[0], single).tolist()
        )
        assert np.array_equal(
            scheme.apply(world.matrix, world.cts[0]), answers[:, 0]
        )


@matrix
def test_simplepir_server(worlds, served, backend, batch, q_bits):
    world = worlds[q_bits]
    server = served(
        "pir", backend, q_bits,
        lambda: SimplePirServer(
            world.db,
            world.pir_scheme,
            kernel_backend=backend,
            kernel_opts=_kernel_opts(backend),
        ),
    )
    answers = server.answer_batch(world.pir_queries[:batch])
    world.assert_records_recovered(answers, batch)
    if batch == 1:
        world.assert_records_recovered([server.answer(world.pir_queries[0])], 1)


@matrix
def test_url_service(worlds, served, backend, batch, q_bits):
    world = worlds[q_bits]
    service = served(
        "url", backend, q_bits,
        lambda: UrlService(
            world.db,
            world.pir_scheme,
            kernel_backend=backend,
            kernel_opts=_kernel_opts(backend),
        ),
    )
    before = service.ledger.total_ops("url")
    answers = service.answer_batch(world.pir_queries[:batch])
    world.assert_records_recovered(answers, batch)
    per_query = world.pir_scheme.inner.apply_word_ops(world.db.num_rows)
    assert service.ledger.total_ops("url") - before == per_query * batch
    if batch == 1:
        world.assert_records_recovered([service.answer(world.pir_queries[0])], 1)
        assert service.health()["kernel_effective"] == backend


@matrix
def test_ranking_service(worlds, served, backend, batch, q_bits):
    world = worlds[q_bits]
    service = served(
        "ranking", backend, q_bits,
        lambda: ShardedRankingService.build(
            world.scheme,
            world.matrix,
            dim=DIM,
            kernel_backend=backend,
            kernel_opts=_kernel_opts(backend),
        ),
    )
    answers = service.answer_batch(world.queries[:batch])
    assert len(answers) == batch
    expected = world.expected_product(batch)
    hint = world.prep.hint
    inner = world.scheme.inner
    for i, answer in enumerate(answers):
        assert np.array_equal(answer.values, expected[:, i])
        plain = inner.decrypt_centered(world.keys[i].inner, hint, answer.values)
        assert np.array_equal(plain, world.expected_scores(i))
    if batch == 1:
        assert np.array_equal(
            service.answer(world.queries[0]).values, expected[:, 0]
        )
        assert service.health()["kernel_effective"] == backend


@pytest.mark.parametrize("backend", ["reference"])
@pytest.mark.parametrize("shard, num_shards", [(0, 1), (1, 2)])
def test_ranking_service_rejects_wrong_height_stacks(
    worlds, backend, shard, num_shards
):
    """Every shard takes the full-width stack: one that is too short,
    too tall (answering it from its first rows would be silently
    wrong) or not a matrix is an error, before any slicing."""
    world = worlds[64]
    service = ShardedRankingService.build(
        world.scheme, world.matrix, dim=DIM, shard=shard, num_shards=num_shards
    )
    params = world.scheme.params.inner
    for height in (params.m - DIM, params.m + DIM):
        other = LweParams(
            n=params.n, q_bits=params.q_bits, p=params.p,
            sigma=params.sigma, m=height,
        )
        stacked = np.resize(world.stacked[:, :2], (height, 2))
        with pytest.raises(ValueError, match=f"expected {params.m}"):
            service.answer_stacked(RankingBatch(stacked=stacked, params=other))
    with pytest.raises(ValueError):
        service.answer_stacked(
            RankingBatch(stacked=world.stacked[:, 0], params=params)
        )
    assert service.health()["kernel_effective"] is None  # nothing ran


class _ShardFleet:
    """Two ranking shards behind a router, over loopback."""

    NUM_SHARDS = 2

    def __init__(self, world: World, backend: str):
        self.shards = [
            ShardedRankingService.build(
                world.scheme,
                world.matrix,
                dim=DIM,
                shard=shard,
                num_shards=self.NUM_SHARDS,
                kernel_backend=backend,
                kernel_opts=_kernel_opts(backend),
            )
            for shard in range(self.NUM_SHARDS)
        ]
        self.router = FleetRouter(
            transport_factory=lambda spec: LoopbackTransport(
                {"ranking": self.shards[spec.port].endpoint}
            )
        )
        self.router.add_generation(
            GenerationSpec(
                generation="feedf00d",
                shards=tuple(
                    ShardSpec(shard, (ReplicaSpec("loopback", shard),))
                    for shard in range(self.NUM_SHARDS)
                ),
            ),
            make_current=True,
        )

    def close(self) -> None:
        self.router.close()
        for shard in self.shards:
            shard.close()


@matrix
def test_fleet_fold_over_two_shards(worlds, served, backend, batch, q_bits):
    world = worlds[q_bits]
    fleet = served(
        "fleet", backend, q_bits, lambda: _ShardFleet(world, backend)
    )
    params = world.scheme.params.inner
    if batch == 0:
        # Wire formats are fixed: an empty batch has no encoding, on
        # either side of the router.
        with pytest.raises(ValueError):
            RankingBatch(stacked=world.stacked[:, :0], params=params)
        with pytest.raises(ValueError):
            wire.decode_batch(
                wire._BATCH_HEADER.pack(q_bits, params.m, 0), params
            )
        return
    expected = world.expected_product(batch)
    request = wire.encode_batch(
        RankingBatch(stacked=world.stacked[:, :batch], params=params)
    )
    _, body = rpc.unframe(
        fleet.router.route("ranking", rpc.frame("answer_batch", request))
    )
    folded, wire_bits = wire.decode_batch_answer(body)
    assert wire_bits == q_bits
    assert np.array_equal(folded, expected)
    if batch == 1:
        _, body = rpc.unframe(
            fleet.router.route(
                "ranking",
                rpc.frame("answer", wire.encode_ciphertext(world.cts[0])),
            )
        )
        values, _ = wire.decode_answer(body)
        assert np.array_equal(values, expected[:, 0])
