"""Deployment configuration for a Tiptoe instance."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.embeddings.quantize import QuantizationConfig
from repro.lwe.params import SecurityLevel


@dataclass(frozen=True)
class TiptoeConfig:
    """Everything the batch jobs need to build an index.

    Defaults are sized for fast end-to-end tests; the paper-scale
    analytic model lives in :mod:`repro.evalx.costmodel` and does not
    require building an index of that size.
    """

    #: Raw embedding dimension (the paper: 768 for text).
    embedding_dim: int = 24
    #: PCA-reduced dimension; None disables PCA (the paper: 192).
    pca_dim: int | None = 12
    #: Fixed-precision bits for quantized embeddings (the paper: 4).
    precision_bits: int = 4
    #: Target documents per cluster; None picks ~sqrt(N).
    target_cluster_size: int | None = None
    #: Fraction of documents assigned to two clusters (the paper: 0.2).
    boundary_fraction: float = 0.2
    #: URLs per compressed batch (the paper: ~880).
    url_batch_size: int = 40
    #: Group URLs by cluster content (Fig. 9 step 4)?
    group_urls_by_content: bool = True
    #: Lattice security level (TOY for tests, PAPER_128 for benches).
    security: SecurityLevel = SecurityLevel.TOY
    #: How many top URLs a search returns (the paper: 100).
    results_per_query: int = 100
    #: Sample size for k-means training; None uses the full corpus.
    cluster_sample_size: int | None = None
    #: Per-call RPC deadline in seconds (socket transport only).
    rpc_timeout_s: float = 5.0
    #: Total tries per RPC (first attempt + retries) on transient errors.
    rpc_max_attempts: int = 3
    #: Wait before the first retry, in seconds.
    rpc_backoff_base_s: float = 0.05
    #: Growth factor between consecutive retry waits.
    rpc_backoff_multiplier: float = 2.0
    #: Ceiling on any single retry wait, in seconds.
    rpc_backoff_max_s: float = 1.0
    #: Largest cross-query batch the ranking scheduler coalesces; 1
    #: disables the admission queue (every query runs immediately).
    max_batch_size: int = 1
    #: How long the scheduler holds an under-full batch open waiting
    #: for more queries, in milliseconds.
    max_batch_wait_ms: float = 2.0
    #: Kernel backend executing the hot GEMMs: "auto" (= reference),
    #: "reference", "multiprocess", or "cnative" -- the cffi-compiled
    #: GIL-releasing C kernel, which degrades to reference on
    #: compiler-less hosts (see repro.lwe.backends).
    kernel_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ValueError("embedding dimension must be positive")
        if self.pca_dim is not None and not (
            1 <= self.pca_dim <= self.embedding_dim
        ):
            raise ValueError("pca_dim must be in [1, embedding_dim]")
        if self.url_batch_size < 1:
            raise ValueError("URL batch size must be positive")
        if self.rpc_timeout_s <= 0:
            raise ValueError("RPC timeout must be positive")
        if self.rpc_max_attempts < 1:
            raise ValueError("need at least one RPC attempt")
        if self.max_batch_size < 1:
            raise ValueError("max batch size must be at least 1")
        if self.max_batch_wait_ms < 0:
            raise ValueError("max batch wait must be non-negative")
        if not self.kernel_backend:
            raise ValueError(
                'kernel_backend must name a backend (or "auto")'
            )

    @property
    def effective_dim(self) -> int:
        """The dimension embeddings have when they reach the protocol."""
        return self.pca_dim if self.pca_dim is not None else self.embedding_dim

    def quantization(self) -> QuantizationConfig:
        return QuantizationConfig(precision_bits=self.precision_bits)

    def ranking_plaintext_modulus(self) -> int:
        """Smallest power-of-two p with no inner-product wraparound.

        Appendix B.1 / C: p / 2 > d * 2^(2b); the paper lands on 2^17
        for d = 192 at 4 bits.
        """
        needed = self.quantization().min_plaintext_modulus(self.effective_dim)
        return 1 << math.ceil(math.log2(needed))

    def cluster_size_for(self, num_docs: int) -> int:
        """Target cluster size: explicit, or the sqrt(N) rule (SS4.2)."""
        if self.target_cluster_size is not None:
            return self.target_cluster_size
        return max(2, int(math.isqrt(num_docs)))

    def retry_policy(self):
        """The RPC retry schedule these knobs describe."""
        from repro.net.transport import RetryPolicy

        return RetryPolicy(
            max_attempts=self.rpc_max_attempts,
            base_backoff_s=self.rpc_backoff_base_s,
            backoff_multiplier=self.rpc_backoff_multiplier,
            max_backoff_s=self.rpc_backoff_max_s,
        )

    def with_(self, **changes) -> "TiptoeConfig":
        """A modified copy (used heavily by the ablation harness)."""
        return replace(self, **changes)
