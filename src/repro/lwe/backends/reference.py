"""The reference backend: the in-process limb-decomposed BLAS path.

This is :class:`~repro.lwe.modular.StackedPlan` behind the
:class:`~repro.lwe.backends.base.KernelBackend` seam -- the exactness
baseline every other backend must match bit for bit, and the fallback
every optional backend degrades to.
"""

from __future__ import annotations

import numpy as np

from repro.lwe import modular
from repro.lwe.backends.base import PlanContextMixin


class ReferencePlan(PlanContextMixin, modular.StackedPlan):
    """A :class:`~repro.lwe.modular.StackedPlan` with the seam API."""

    backend_name = "reference"


class ReferenceBackend:
    """Always-available single-process numpy/BLAS execution."""

    name = "reference"

    #: Timer label suffixing convention: ``kernel.lwe.matmul_batch.<name>``.
    timer_label = "lwe.matmul_batch.reference"

    @property
    def available(self) -> bool:
        return True

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
    ) -> ReferencePlan:
        del workers  # single-process by definition
        if metadata is not None and limb_bits is None:
            return ReferencePlan.from_metadata(
                matrix,
                metadata,
                chunk_rows=chunk_rows,
                timer_label=self.timer_label,
            )
        if metadata is not None and entry_bound is None:
            entry_bound = int(metadata["entry_bound"])
        return ReferencePlan(
            matrix,
            q_bits,
            entry_bound=entry_bound,
            limb_bits=limb_bits,
            chunk_rows=chunk_rows,
            timer_label=self.timer_label,
        )
