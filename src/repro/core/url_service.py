"""The URL service (SS5): SimplePIR over compressed URL batches.

After ranking, the client knows the (cluster, row) positions of its
best matches.  Positions map arithmetically to URL batches (the
layouts agree), so the client issues one PIR query for the batch
containing its best result and reads the top-k URLs out of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import CostLedger
from repro.corpus.urls import UrlBatch
from repro.homenc.double import DoubleLheScheme
from repro.net import wire
from repro.net.rpc import ServiceEndpoint
from repro.net.service import Service
from repro.obs import runtime as obs
from repro.pir.database import PackedDatabase
from repro.pir.simplepir import PirAnswer, PirQuery, SimplePirServer


class UrlService(Service):
    """Server side: a PIR server over the packed batch database.

    The scan itself is :class:`~repro.pir.simplepir.SimplePirServer`'s;
    this class adds the wire endpoint (one ``answer`` method carrying a
    serialized ciphertext), the span, the cost ledger and the health
    report.
    """

    service_name = "url"

    def __init__(
        self,
        db: PackedDatabase,
        scheme: DoubleLheScheme,
        plan_meta: dict | None = None,
        *,
        kernel_backend: str | None = None,
        kernel_opts: dict | None = None,
    ):
        self.db = db
        self.scheme = scheme
        self.ledger = CostLedger()
        #: Kernel-backend name (None -> reference); see repro.lwe.backends.
        self.kernel_backend = kernel_backend
        # Sidecar-provided plan parameters ride along with the plan
        # options: they skip the entry scan when the plan is built.
        self._pir = SimplePirServer(
            db,
            scheme,
            kernel_backend=kernel_backend,
            kernel_opts=dict(kernel_opts or {}, metadata=plan_meta),
        )

    def register_endpoint(self, endpoint: ServiceEndpoint) -> None:
        endpoint.register("answer", self._handle_answer)

    def _handle_answer(self, payload: memoryview) -> bytes:
        ct = wire.decode_ciphertext(payload, self.scheme.params.inner)
        answer = self.answer(PirQuery(ciphertext=ct))
        return wire.encode_answer(
            answer.values, self.scheme.params.inner.q_bits
        )

    def health(self) -> dict:
        # kernel_effective is the backend actually executing after any
        # availability fallback; None until the first answer builds the
        # plan.
        return {
            "service": self.service_name,
            "status": "ok",
            "rows": self.db.num_rows,
            "kernel_backend": self.kernel_backend or "reference",
            "kernel_effective": self._pir.effective_backend,
        }

    def close(self) -> None:
        """Release the kernel plan (worker pools, shared segments)."""
        self._pir.close()

    def answer(self, query: PirQuery) -> PirAnswer:
        """Answer one PIR query: :meth:`answer_batch` of one."""
        return self.answer_batch([query])[0]

    def answer_batch(self, queries: list[PirQuery]) -> list[PirAnswer]:
        """Answer Q PIR queries in one pass over the database."""
        with obs.span(
            "url.answer", rows=self.db.num_rows, batch=len(queries)
        ):
            answers = self._pir.answer_batch(queries)
        self.ledger.add(
            "url",
            self.scheme.inner.apply_word_ops(self.db.num_rows) * len(queries),
        )
        return answers


@dataclass
class UrlServiceClient:
    """Client side: batch selection, PIR query, decompression."""

    scheme: DoubleLheScheme
    db_meta: PackedDatabase
    batch_size: int

    def batch_of_position(self, position: int) -> int:
        return position // self.batch_size

    def build_query(
        self,
        keys,
        batch_index: int,
        rng: np.random.Generator | None = None,
    ) -> PirQuery:
        """Encrypt the selection vector of one URL batch under the
        keys' precomputed mask.  ``rng`` is unused: every draw was made
        with the keys; it stays for callers that pass one."""
        sel = self.db_meta.selection_vector(batch_index)
        return PirQuery(ciphertext=self.scheme.encrypt(keys, sel))

    def recover_batch(
        self, keys, answer: PirAnswer, hint_product: np.ndarray
    ) -> dict[int, str]:
        """Decrypt, decompress, and parse one batch of URLs.

        Returns position -> URL for every entry in the batch.
        """
        digits = self.scheme.decrypt(keys, answer.values, hint_product)
        payload = self.db_meta.decode_column(digits)
        return UrlBatch(payload=payload, doc_ids=()).decompress()
