"""The SimplePIR retrieval protocol (SS5), in both of Tiptoe's modes.

*Classic mode*: the client downloads the hint ``H = D A`` once, then
each query is one inner ciphertext up and one evaluated vector down.

*Compressed mode* (what Tiptoe deploys): the hint never leaves the
server; the client's query token carries the outer-decrypted hint
product instead (SS6.2-6.3).  The per-query online traffic is the same;
the hint download is replaced by the much smaller token.

Either way the server's answer computation touches every record --
that linear scan is what the privacy argument requires (SS3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.homenc.double import DoubleLheParams, DoubleLheScheme
from repro.lwe import sampling
from repro.lwe.params import LweParams, SecurityLevel, select_params
from repro.lwe.regev import Ciphertext
from repro.pir.database import PackedDatabase


@dataclass
class PirQuery:
    """One PIR query: a single inner ciphertext (fixed size)."""

    ciphertext: Ciphertext

    def wire_bytes(self) -> int:
        return self.ciphertext.upload_bytes


@dataclass
class PirAnswer:
    """The evaluated ciphertext vector for one query."""

    values: np.ndarray
    bytes_per_element: int

    def wire_bytes(self) -> int:
        return len(self.values) * self.bytes_per_element


class SimplePirServer:
    """Holds the packed database and answers encrypted queries."""

    def __init__(
        self,
        db: PackedDatabase,
        scheme: DoubleLheScheme,
        *,
        kernel_backend: str | None = None,
        kernel_opts: dict | None = None,
    ):
        if scheme.params.inner.p != db.p:
            raise ValueError(
                "database packing modulus must equal the scheme's plaintext"
                f" modulus ({db.p} != {scheme.params.inner.p})"
            )
        if scheme.params.inner.m != db.num_cols:
            raise ValueError(
                "scheme upload dimension must equal the database width"
            )
        self.db = db
        self.scheme = scheme
        #: Kernel-backend selection for the scan; ``None`` resolves to
        #: the reference path (see repro.lwe.backends).
        self.kernel_backend = kernel_backend
        self.kernel_opts = dict(kernel_opts or {})
        self._plan = None

    @cached_property
    def prep(self):
        """The hint and its switched form, computed on first use (a
        server fronted by a token factory that already holds them
        never pays for a second copy)."""
        return self.scheme.preprocess(self.db.matrix)

    def answer(self, query: PirQuery) -> PirAnswer:
        """Answer one query: :meth:`answer_batch` of one."""
        return self.answer_batch([query])[0]

    def answer_batch(self, queries: list[PirQuery]) -> list[PirAnswer]:
        """The online hot loop: one product over the DB for Q queries.

        The kernel plan is built on the first call and reused (it
        depends only on the database), so the ring conversion of the
        database happens once per server, not per query.
        """
        if not queries:
            return []
        if self._plan is None:
            self._plan = self.scheme.batch_plan(
                self.db.matrix,
                backend=self.kernel_backend,
                **self.kernel_opts,
            )
        values = self.scheme.apply_batch(
            None, [q.ciphertext for q in queries], plan=self._plan
        )
        per_el = self.scheme.params.inner.bytes_per_element
        return [
            PirAnswer(values=values[:, i], bytes_per_element=per_el)
            for i in range(len(queries))
        ]

    @property
    def effective_backend(self) -> str | None:
        """The backend actually executing -- after availability
        fallback -- or None while the plan is still unbuilt."""
        return getattr(self._plan, "backend_name", None)

    def close(self) -> None:
        """Release the kernel plan (worker pools, shared segments)."""
        if self._plan is not None:
            self._plan.close()
            self._plan = None

    def hint(self) -> np.ndarray:
        """The raw hint, for classic (hint-download) mode."""
        return self.prep.hint

    def hint_bytes(self) -> int:
        return self.scheme.inner.hint_bytes(self.db.num_rows)


class SimplePirClient:
    """Builds queries and decodes answers."""

    def __init__(self, db_meta: PackedDatabase, scheme: DoubleLheScheme):
        # The client only needs the database *shape* metadata; holding
        # the PackedDatabase object here is a simulation convenience --
        # the matrix contents are never read on the client path.
        self.db = db_meta
        self.scheme = scheme

    def keygen(self, rng: np.random.Generator | None = None):
        """Fresh client keys; ``rng=None`` resolves through
        :func:`repro.lwe.sampling.resolve_rng` (replayable via
        ``sampling.set_default_seed``)."""
        return self.scheme.gen_keys(rng)

    def query(
        self,
        keys,
        index: int,
        rng: np.random.Generator | None = None,
    ) -> PirQuery:
        """Encrypt the selection vector for one record."""
        sel = self.db.selection_vector(index)
        return PirQuery(ciphertext=self.scheme.encrypt(keys, sel, rng))

    def recover(
        self, keys, answer: PirAnswer, hint_product: np.ndarray
    ) -> bytes:
        """Decrypt an answer using a token's hint product."""
        digits = self.scheme.decrypt(keys, answer.values, hint_product)
        return self.db.decode_column(digits)

    def recover_classic(
        self, keys, answer: PirAnswer, hint: np.ndarray
    ) -> bytes:
        """Decrypt an answer using a downloaded raw hint."""
        digits = self.scheme.inner.decrypt(keys.inner, hint, answer.values)
        return self.db.decode_column(digits)


def build_pir(
    records: list[bytes],
    level: SecurityLevel = SecurityLevel.TOY,
    p: int | None = None,
    a_seed: bytes | None = None,
    outer_n: int = 64,
) -> tuple[SimplePirServer, SimplePirClient]:
    """Convenience constructor: pack records and stand up both ends.

    Parameters follow the paper's URL-service configuration: inner
    modulus 2^32 with plaintext modulus from the Table 11 budget
    (rounded down to a power of two for exact packing).
    """
    width = len(records)
    if p is None:
        cfg = select_params(32, max(width, 2), level)
        p = min(cfg.p, 1 << 16)
        p = max(p, 4)
    db = PackedDatabase.from_records(records, p)
    inner = select_params(32, db.num_cols, level, p=p)
    params = DoubleLheParams(
        inner=LweParams(
            n=inner.n, q_bits=32, p=p, sigma=inner.sigma, m=db.num_cols
        ),
        outer_n=outer_n,
    )
    scheme = DoubleLheScheme(
        params, a_seed=a_seed if a_seed is not None else sampling.random_seed()
    )
    server = SimplePirServer(db, scheme)
    client = SimplePirClient(db, scheme)
    return server, client
