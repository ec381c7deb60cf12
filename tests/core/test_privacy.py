"""Query-privacy structural tests (Definition 2.1, Appendix D).

We cannot test computational indistinguishability directly, but the
definition has checkable structural consequences: the client's message
flow and packet sizes must not depend on the query string, and the
server-visible ciphertexts must carry no plaintext query material.
"""

import numpy as np

from repro.core.ranking import build_query_vector
from repro.embeddings.quantize import quantize


QUERIES = [
    "covid19 symptoms",
    "x",
    "a very long and detailed query about many different things " * 5,
]


class TestMessageShape:
    def test_message_sizes_are_query_independent(self, engine):
        summaries = []
        for i, q in enumerate(QUERIES):
            result = engine.search(q, np.random.default_rng(i))
            summaries.append(result.traffic.phase_summary())
        assert summaries[0] == summaries[1] == summaries[2]

    def test_message_flow_is_query_independent(self, engine):
        flows = []
        for i, q in enumerate(QUERIES):
            result = engine.search(q, np.random.default_rng(100 + i))
            flows.append(
                [(m.phase, m.direction) for m in result.traffic.messages]
            )
        assert flows[0] == flows[1] == flows[2]

    def test_answer_row_count_independent_of_cluster(self, engine):
        # The server always returns max-cluster-size rows, padding
        # smaller clusters -- it cannot learn which cluster was probed.
        rows = engine.index.layout.rows
        sizes = engine.index.layout.cluster_sizes
        assert (sizes <= rows).all()
        assert rows == engine.index.layout.matrix.shape[0]


class TestCiphertextOpacity:
    def test_ciphertext_reveals_no_zero_block_structure(self, engine):
        """q-tilde is almost all zeros; the ciphertext must not be."""
        token = engine.mint_token(np.random.default_rng(0))
        keys, _ = token.consume()
        index = engine.index
        q_emb = quantize(index.embeddings[0] * index.quantization_gain, index.config.quantization())
        q_tilde = build_query_vector(q_emb, 0, index.layout.num_clusters)
        ct = index.ranking_scheme.encrypt(keys["ranking"], q_tilde)
        # The plaintext is >90% zeros; ciphertext words should look
        # uniform -- check no excess of small words where zeros sit.
        dim = index.layout.dim
        zero_region = np.asarray(ct.c[dim:], dtype=np.float64)
        payload_region = np.asarray(ct.c[:dim], dtype=np.float64)
        q = 2.0**64
        assert abs(zero_region.mean() / q - 0.5) < 0.05
        assert abs(payload_region.mean() / q - 0.5) < 0.2

    def test_same_query_twice_yields_different_bytes(self, engine):
        """Fresh keys per token: identical queries are unlinkable."""
        index = engine.index
        q_emb = quantize(index.embeddings[5] * index.quantization_gain, index.config.quantization())
        q_tilde = build_query_vector(q_emb, 2, index.layout.num_clusters)
        cts = []
        for seed in (0, 1):
            keys, _ = engine.mint_token(np.random.default_rng(seed)).consume()
            cts.append(
                index.ranking_scheme.encrypt(keys["ranking"], q_tilde).c
            )
        assert not np.array_equal(cts[0], cts[1])

    def test_ciphertext_bytes_pass_uniformity_test(self, engine):
        """Chi-squared test: ciphertext bytes are consistent with a
        uniform distribution (a sharper check than the mean)."""
        from scipy import stats

        index = engine.index
        words = []
        for seed in range(4):
            keys, _ = engine.mint_token(np.random.default_rng(seed)).consume()
            q_emb = quantize(
                index.embeddings[seed] * index.quantization_gain,
                index.config.quantization(),
            )
            q_tilde = build_query_vector(q_emb, seed, index.layout.num_clusters)
            ct = index.ranking_scheme.encrypt(keys["ranking"], q_tilde)
            words.append(np.asarray(ct.c, dtype=np.uint64))
        raw = np.concatenate(words).view(np.uint8)
        counts = np.bincount(raw, minlength=256)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.001  # no gross deviation from uniform

    def test_pir_query_hides_batch_index(self, engine):
        """Two PIR queries for different batches have identical shape."""
        keys, _ = engine.mint_token(np.random.default_rng(2)).consume()
        client = engine.new_client(np.random.default_rng(3))
        q_first = client.url_client.build_query(
            keys["url"], 0, np.random.default_rng(4)
        )
        keys2, _ = engine.mint_token(np.random.default_rng(5)).consume()
        last = engine.index.url_db.num_records - 1
        q_last = client.url_client.build_query(
            keys2["url"], last, np.random.default_rng(6)
        )
        assert q_first.wire_bytes() == q_last.wire_bytes()
        assert len(q_first.ciphertext.c) == len(q_last.ciphertext.c)


def _schemes(engine) -> dict:
    return {
        "ranking": engine.index.ranking_scheme,
        "url": engine.index.url_scheme,
    }


class TestKeyUpload:
    """The encrypted-key upload: its size is fixed by configuration and
    its ``z_b`` words look uniform."""

    def test_upload_size_is_independent_of_the_rng(self, engine):
        from repro.homenc.token import make_client_keys
        from repro.net import wire
        from repro.net.rpc import frame

        tokens = [engine.mint_token(np.random.default_rng(s)) for s in range(3)]
        assert len({t.upload_bytes for t in tokens}) == 1
        framed = {
            len(
                frame(
                    "mint",
                    wire.encode_mint_request(
                        make_client_keys(
                            _schemes(engine), np.random.default_rng(10 + s)
                        )[1]
                    ),
                )
            )
            for s in range(3)
        }
        assert framed == {tokens[0].upload_bytes}

    def test_key_words_pass_uniformity_test(self, engine):
        """Chi-squared, as for ranking ciphertexts.  A ``z_b`` word is a
        residue uniform mod a ~30-bit prime p, so its low three bytes
        are uniform bytes and its top bits are uniform over
        ``[0, p / 2^24)``; the remaining high bytes are zero by format."""
        from scipy import stats

        from repro.homenc.token import make_client_keys

        schemes = _schemes(engine)
        residues = {}
        for seed in range(4):
            _, enc_keys, _ = make_client_keys(
                schemes, np.random.default_rng(seed)
            )
            # A shared upload (Appendix A.3) is counted once.
            uploads = {id(enc_keys[n]): (enc_keys[n], schemes[n]) for n in schemes}
            for key, scheme in uploads.values():
                for ch, p in enumerate(scheme.outer.ring.primes):
                    residues.setdefault(p, []).append(key.z_b[:, ch, :].ravel())
        low = []
        for p, chunks in residues.items():
            words = np.concatenate(chunks)
            assert (words < p).all()
            bins = -(-p >> 24)
            widths = np.full(bins, float(1 << 24))
            widths[-1] = p - ((bins - 1) << 24)
            top = np.bincount(words >> np.uint64(24), minlength=bins)
            _, p_value = stats.chisquare(top, widths / p * len(words))
            assert p_value > 0.001
            low.append(words.astype("<u4").view(np.uint8).reshape(-1, 4)[:, :3])
        counts = np.bincount(np.concatenate(low).ravel(), minlength=256)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.001



class TestAProducts:
    """The per-generation ``a``-products: one public object per index,
    never per client."""

    def test_response_is_byte_identical_for_every_client_and_fetch(
        self, engine
    ):
        """Every fetch, on any client's channel, returns the same bytes;
        so does a mint built independently over the same index, as
        another server process would build it."""
        from repro.homenc import TokenFactory
        from repro.net import wire
        from repro.net.rpc import RpcChannel
        from repro.net.transport import TrafficLog

        bodies = {
            bytes(
                RpcChannel(TrafficLog(), engine.transport).call(
                    "token", "token", "a_products", b""
                )
            )
            for _ in range(3)
        }
        index = engine.index
        fresh = TokenFactory()
        fresh.register("ranking", index.ranking_scheme, index.ranking_prep)
        fresh.register("url", index.url_scheme, index.url_prep)
        bodies.add(bytes(wire.encode_a_products(fresh.a_products())))
        assert len(bodies) == 1
        products = wire.decode_a_products(bodies.pop())
        for name, scheme in _schemes(engine).items():
            assert products[name].digest == scheme.held_a_product.digest

    def test_mint_sizes_depend_on_configuration_only(self, engine):
        """A token's download is fixed by the service shapes: one ``b``
        element per hint chunk plus fixed headers, whatever the keys."""
        from repro.net import wire
        from repro.net.rpc import FRAME_BYTES

        tokens = engine.mint_tokens(3, np.random.default_rng(20))
        tokens.append(engine.mint_token(np.random.default_rng(21)))
        index = engine.index
        rows = {"ranking": index.ranking_prep.rows, "url": index.url_prep.rows}
        want = FRAME_BYTES + 2 + sum(
            1 + len(name) + 4 + wire._HINT_HEADER.size
            + _schemes(engine)[name].compressed_hint_bytes(rows[name])
            for name in rows
        )
        assert {t.download_bytes for t in tokens} == {want}


class TestServerScansEverything:
    def test_ranking_touches_every_cluster(self, engine):
        """Cost is identical whichever cluster the client probes --
        the linear scan the privacy argument requires (SS3.1)."""
        from repro.core.cluster_runtime import ShardedRankingService
        from repro.core.ranking import RankingClient

        index = engine.index
        service = ShardedRankingService.build(
            index.ranking_scheme,
            index.layout.matrix,
            dim=index.layout.dim,
        )
        client = RankingClient(
            index.ranking_scheme,
            dim=index.layout.dim,
            num_clusters=index.layout.num_clusters,
        )
        costs = []
        for cluster in (0, index.layout.num_clusters - 1):
            keys, _ = engine.mint_token(
                np.random.default_rng(cluster)
            ).consume()
            q_emb = quantize(
                index.embeddings[0], index.config.quantization()
            )
            before = service.ledger.total_ops()
            service.answer(
                client.build_query(
                    keys["ranking"], q_emb, cluster, np.random.default_rng(7)
                )
            )
            costs.append(service.ledger.total_ops() - before)
        assert costs[0] == costs[1]
        assert costs[0] == 2 * index.layout.matrix.size
