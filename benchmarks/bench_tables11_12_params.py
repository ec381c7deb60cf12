"""Tables 11 and 12: LWE parameter selection across upload dimensions.

The paper fixes, for each upload dimension m, the largest plaintext
modulus p meeting the 2^-40 correctness budget -- Table 11 for the URL
step (q = 2^32) and Table 12 for the ranking step (q = 2^64).  This
bench prints our noise-budget formula's output next to the paper's
values, plus the heuristic security estimate for each row.
"""

from benchmarks.conftest import emit
from repro.lwe.params import (
    PAPER_TABLE_11,
    PAPER_TABLE_12,
    estimate_security_bits,
    max_plaintext_modulus,
)


def make_table(paper_table, q_bits):
    lines = [
        f"{'m':>10s} {'p (ours)':>10s} {'p (paper)':>10s} {'n':>6s}"
        f" {'sigma':>9s} {'est. bits':>9s}"
    ]
    rows = []
    for m in sorted(paper_table):
        p_paper, n, sigma = paper_table[m]
        p_ours = max_plaintext_modulus(m, q_bits, sigma)
        bits = estimate_security_bits(n, q_bits, sigma)
        rows.append((m, p_ours, p_paper))
        lines.append(
            f"{m:10,d} {p_ours:10,d} {p_paper:10,d} {n:6d} {sigma:9.1f}"
            f" {bits:9.0f}"
        )
    return lines, rows


def test_table11_url_parameters(benchmark):
    lines, rows = benchmark.pedantic(
        make_table, args=(PAPER_TABLE_11, 32), rounds=1, iterations=1
    )
    emit("table11_params_q32", lines)
    for m, ours, paper in rows:
        assert 0.7 * paper <= ours <= 1.5 * paper, m
    # p decreases monotonically with m within each (n, sigma) regime.
    small_m = [r for r in rows if r[0] <= 2**20]
    assert [r[1] for r in small_m] == sorted(
        (r[1] for r in small_m), reverse=True
    )


def test_table12_ranking_parameters(benchmark):
    lines, rows = benchmark.pedantic(
        make_table, args=(PAPER_TABLE_12, 64), rounds=1, iterations=1
    )
    emit("table12_params_q64", lines)
    for m, ours, paper in rows:
        assert 0.5 * paper <= ours <= 2.0 * paper, m
    # The operating point: m = 2^21-ish supports p = 2^17 (App. C),
    # enough for d = 192 embeddings at 4-bit precision.
    assert max_plaintext_modulus(2**21, 64, 81920.0) >= 2**17
