"""SS6.1 kernel claims: throughput and size micro-benchmarks.

What the paper claims for the crypto layer, checked here on real
kernels (absolute throughput differs -- our kernels are NumPy, the
paper's are Go/AVX -- but every *ratio* is structural):

* after preprocessing, Apply costs ~2 word ops per matrix entry and
  runs near plaintext matmul speed;
* the evaluated ciphertext is ~4 * lambda times larger than the
  plaintext result, which is why the double layer exists;
* double-layer compression shrinks the hint download by orders of
  magnitude at a ~4x online-communication overhead (SS6).
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.homenc.double import DoubleLheParams, DoubleLheScheme
from repro.lwe import LweParams, RegevScheme
from repro.lwe.sampling import seeded_rng
from repro.rlwe import BfvParams, BfvScheme


@pytest.fixture(scope="module")
def regev():
    params = LweParams(n=512, q_bits=64, p=2**16, sigma=81920.0, m=4096)
    scheme = RegevScheme(params=params, a_seed=b"K" * 32)
    rng = seeded_rng(0)
    sk = scheme.gen_secret(rng)
    # Pre-lifted into the ring, as a deployed server stores it.
    from repro.lwe import modular

    matrix = modular.to_ring(
        rng.integers(-8, 8, size=(1024, params.m)), params.q_bits
    )
    ct = scheme.encrypt(sk, rng.integers(-8, 8, params.m), rng)
    return scheme, sk, matrix, ct


def test_apply_throughput_vs_plaintext(benchmark, regev):
    """Apply should run within ~4x of a plaintext integer matmul."""
    scheme, _, matrix, ct = regev
    ring_matrix = np.asarray(matrix, dtype=np.uint64)
    plain_vec = np.abs(ct.c).astype(np.uint64)

    encrypted = benchmark.pedantic(
        scheme.apply, args=(matrix, ct), rounds=5, iterations=1
    )
    import time

    t0 = time.perf_counter()
    for _ in range(5):
        with np.errstate(over="ignore"):
            ring_matrix @ plain_vec
    plaintext_s = (time.perf_counter() - t0) / 5

    ops = scheme.apply_word_ops(matrix.shape[0])
    measured = ops / benchmark.stats.stats.mean
    emit(
        "crypto_apply_throughput",
        [
            f"matrix: {matrix.shape[0]} x {matrix.shape[1]} (q = 2^64)",
            f"word ops per Apply: {ops:,}",
            f"measured throughput: {measured:,.0f} word-ops/core-s",
            f"paper hardware constant: 3.0e9 word-ops/core-s",
            f"plaintext matmul: {plaintext_s * 1e3:.2f} ms,"
            f" Apply: {benchmark.stats.stats.mean * 1e3:.2f} ms",
        ],
    )
    assert len(encrypted) == matrix.shape[0]
    # Homomorphic evaluation at (near-)plaintext speed -- the headline
    # property of the preprocessing scheme.
    assert benchmark.stats.stats.mean < plaintext_s * 4


def test_ciphertext_expansion_factor(benchmark, regev):
    """Evaluated ciphertexts are ~4 * lambda larger than plaintexts."""
    scheme, sk, matrix, ct = regev
    answer = benchmark.pedantic(
        scheme.apply, args=(matrix, ct), rounds=1, iterations=1
    )
    hint = scheme.preprocess(matrix)
    rows = matrix.shape[0]
    plaintext_bytes = rows * 2  # 16-bit plaintext entries
    # Without compression the client needs answer + hint.
    download = scheme.answer_bytes(rows) + scheme.hint_bytes(rows)
    expansion = download / plaintext_bytes
    lam = scheme.params.n
    emit(
        "crypto_ciphertext_expansion",
        [
            f"plaintext result: {plaintext_bytes:,} bytes",
            f"answer + hint: {download:,} bytes",
            f"expansion: {expansion:,.0f}x"
            f" (paper: (64/16) * lambda = {4 * lam:,}x)",
        ],
    )
    assert expansion == pytest.approx(4 * lam, rel=0.1)
    assert len(answer) == rows


def test_double_layer_compression(benchmark):
    """SS6.2: hint download collapses; online traffic grows ~4x or less."""
    inner = LweParams(n=64, q_bits=64, p=2**12, sigma=6.4, m=128)
    scheme = DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=64), a_seed=b"C" * 32
    )
    rng = seeded_rng(1)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    matrix = rng.integers(-8, 8, size=(512, inner.m))
    prep = scheme.preprocess(matrix)
    a_product = scheme.a_product(prep)
    scheme.adopt_a_product(a_product, prep.rows)
    compressed = benchmark.pedantic(
        scheme.evaluate_hint,
        args=(enc_key, prep, a_product),
        rounds=3,
        iterations=1,
    )
    raw_hint = scheme.inner.hint_bytes(512)
    token = compressed.wire_bytes()
    emit(
        "crypto_double_layer",
        [
            f"raw SimplePIR hint: {raw_hint:,} bytes",
            f"compressed (token) download: {token:,} bytes",
            f"hint compression: {raw_hint / token:,.1f}x",
            f"per-token key upload: {enc_key.wire_bytes():,} bytes",
            f"a-product (once per generation): {a_product.wire_bytes():,} bytes",
        ],
    )
    assert raw_hint / token > 2
    product = scheme.decrypt_hint_product(keys, compressed)
    assert product.shape == (512,)


def test_bfv_plain_multiply_throughput(benchmark):
    """The outer scheme may be slow -- it only touches lambda*sqrt(N)."""
    scheme = BfvScheme(BfvParams.create(n=2048, t=65537, num_primes=3))
    rng = seeded_rng(2)
    sk = scheme.gen_secret(rng)
    ct = scheme.encrypt(sk, rng.integers(0, 65537, 2048), rng)
    plain = scheme.ring.to_ntt(
        scheme.ring.from_signed(rng.integers(-100, 100, 2048))
    )
    benchmark.pedantic(
        scheme.mul_plain_ntt, args=(ct, plain), rounds=10, iterations=5
    )
    per_coeff = benchmark.stats.stats.mean / 2048
    emit(
        "crypto_bfv_throughput",
        [
            f"ring dim 2048, 3 RNS primes",
            f"plain multiply: {benchmark.stats.stats.mean * 1e6:.1f} us",
            f"per coefficient: {per_coeff * 1e9:.1f} ns",
        ],
    )
    assert benchmark.stats.stats.mean < 0.05
