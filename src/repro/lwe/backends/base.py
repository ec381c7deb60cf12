"""The kernel-backend seam: what a pluggable GEMM engine provides.

The server's dominant cost is the ranking scan -- one exact modular
GEMM per batch (SS4, SS6.1).  A :class:`KernelBackend` owns *how* that
product executes (in-process BLAS limbs, a shared-memory process pool,
a compiled C kernel); a :class:`BackendPlan` is the backend's preprocessed
state for one long-lived matrix, playing the same role as
:class:`~repro.lwe.modular.StackedPlan` (which is exactly what the
reference backend wraps).

The contract every backend must honor, whatever its execution
strategy:

* **Bit-identity.**  ``plan.matmul(stacked)`` returns exactly what
  ``modular.matmul(M, stacked, q_bits)`` returns -- not close, equal.
  The cross-backend Hypothesis suite in ``tests/lwe`` enforces this
  over both moduli, ragged batch widths, and the integer-fallback
  regime.
* **Message independence.**  Plans are functions of the matrix alone
  (like the SimplePIR hint); nothing about any query may influence
  plan construction or backend selection.  See SECURITY.md.
* **Lifecycle.**  ``close()`` releases whatever the plan holds
  (staging copies, shared-memory segments, worker processes) and is
  idempotent; plans are context managers.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


class KernelUnavailable(RuntimeError):
    """The requested backend cannot run in this environment."""


@runtime_checkable
class BackendPlan(Protocol):
    """Preprocessed per-matrix state a backend hands back.

    Attributes mirror :class:`~repro.lwe.modular.StackedPlan` so the
    serving layers and the precompute sidecar treat every backend's
    plan uniformly.
    """

    backend_name: str
    q_bits: int
    rows: int
    cols: int
    entry_bound: int
    limb_bits: int

    def matmul(self, stacked: np.ndarray) -> np.ndarray:
        """The exact stacked product ``M @ B`` over Z_{2^q_bits}.

        The one entry point: a single query is the (cols, 1) stack.
        """
        ...

    def metadata(self) -> dict:
        """Serializable plan parameters (see the precompute sidecar)."""
        ...

    def close(self) -> None:
        """Release plan resources.  Idempotent."""
        ...


@runtime_checkable
class KernelBackend(Protocol):
    """A named engine that builds :class:`BackendPlan` objects."""

    name: str

    @property
    def available(self) -> bool:
        """Can this backend actually run here (deps present, etc.)?"""
        ...

    def plan(
        self,
        matrix: np.ndarray,
        q_bits: int,
        *,
        entry_bound: int | None = None,
        metadata: dict | None = None,
        limb_bits: int | None = None,
        chunk_rows: int = 0,
        workers: int = 0,
    ) -> BackendPlan:
        """Preprocess one long-lived matrix for this backend.

        ``metadata`` (from the precompute sidecar) skips the entry
        scan and is validated against the matrix; ``limb_bits`` /
        ``chunk_rows`` / ``workers`` are optional execution knobs --
        backends ignore the knobs they have no use for.
        """
        ...


class PlanContextMixin:
    """``with backend.plan(...) as plan:`` support for every plan."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
