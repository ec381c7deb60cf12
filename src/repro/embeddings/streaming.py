"""Fit-on-a-sample / apply-streaming split for the embedding models.

The one-shot build fits LSA and PCA on the *whole* corpus matrix,
which is exactly the materialization the ingestion plane removes.  The
paper's own procedure is sample-based anyway (SS7 trains k-means on a
~10M-document sample; the embedding model is pretrained), so here:

* a :class:`ReservoirSampler` draws a uniform fixed-size sample from
  the document stream in one pass (Vitter's algorithm R, seeded);
* :func:`fit_streaming_models` fits the LSA vocabulary/projection, the
  PCA map, and the quantization gain on that sample only;
* :func:`transform_texts` then applies the fitted models batch by
  batch.

Bit stability, and where it fails: the batched LSA fold-in gives each
row the same IEEE operations whatever its batch (see
``LsaEmbedder._fold_in``), but the PCA projection is a BLAS matmul,
and BLAS picks its kernel by operand shape.  A singleton batch takes
the matrix-vector path, so a lone row is padded with a duplicate and
sliced back; that is not enough in general.  At the e2e TOY shape
64 -> 32, batches of 2-32 rows come out different in the last bits
from one large batch (64 and 512 rows agree), so "re-embed only the
changed documents" does not always write the same bytes as
"re-embed everything".  ROADMAP item 15 plans the fix: project in
fixed zero-padded tiles on every path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings.lsa import LsaEmbedder
from repro.embeddings.pca import PcaReducer
from repro.embeddings.quantize import auto_gain
from repro.embeddings.tokenizer import analyze


class ReservoirSampler:
    """Uniform fixed-capacity sample of a stream (algorithm R, seeded)."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._rng = rng
        self._items: list = []
        self.offered = 0

    def offer(self, item) -> None:
        self.offered += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        slot = int(self._rng.integers(self.offered))
        if slot < self.capacity:
            self._items[slot] = item

    def offer_many(self, items) -> None:
        for item in items:
            self.offer(item)

    @property
    def items(self) -> list:
        return list(self._items)


@dataclass(frozen=True)
class FittedModels:
    """Everything the embed stage needs, fitted on a reservoir sample."""

    embedder: LsaEmbedder
    pca: PcaReducer | None
    gain: float


def fit_streaming_models(
    sample_texts: list[str],
    embedding_dim: int,
    pca_dim: int | None,
    seed: int = 0,
) -> FittedModels:
    """Fit LSA + PCA + quantization gain on a corpus sample.

    Mirrors the model-fitting half of ``TiptoeIndex.build`` but over a
    sample instead of the whole corpus; the gain (a server-chosen
    scalar published with the client metadata) is likewise estimated
    from the sample.
    """
    if not sample_texts:
        raise ValueError("cannot fit models on an empty sample")
    # Analyze the sample once: the fit and the sample's embedding read
    # the same token lists.
    token_lists = [analyze(text) for text in sample_texts]
    embedder = LsaEmbedder.fit_tokens(token_lists, dim=embedding_dim, seed=seed)
    sample = embedder.embed_tokens(token_lists)
    pca = None
    if pca_dim is not None and pca_dim < embedding_dim:
        pca = PcaReducer.fit(sample, pca_dim)
        sample = np.atleast_2d(pca.transform(sample))
    return FittedModels(
        embedder=embedder, pca=pca, gain=auto_gain(sample)
    )


def transform_texts(
    embedder: LsaEmbedder,
    pca: PcaReducer | None,
    texts: list[str],
) -> np.ndarray:
    """Embed a batch through LSA (+ PCA).

    Always returns a 2-D ``(len(texts), dim)`` array.  Rows are not
    bit-stable across every batch size (see the module docstring): at
    64 -> 32 a batch of 2-32 rows differs in the last bits from one
    large batch.
    """
    dim = pca.dim if pca is not None else embedder.dim
    if not texts:
        return np.zeros((0, dim), dtype=np.float64)
    raw = embedder.embed_batch(texts)
    if pca is None:
        return raw
    if raw.shape[0] == 1:
        # Pad to two rows so a lone row avoids the matrix-vector
        # kernel; small batches can still differ from a large one.
        padded = np.zeros((2, raw.shape[1]), dtype=np.float64)
        padded[0] = raw[0]
        padded[1] = raw[0]
        return np.atleast_2d(pca.transform(padded))[:1]
    return np.atleast_2d(pca.transform(raw))
