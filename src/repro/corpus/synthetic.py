"""Synthetic topic-model web corpus (the C4 stand-in).

Documents are generated from a sparse mixture of latent topics over a
Zipf-distributed pseudo-word vocabulary.  This preserves the two
statistical properties Tiptoe's evaluation depends on:

* *topical structure*: documents about the same topics share related
  (but not identical) vocabulary, so semantic embeddings genuinely
  beat exact matching on paraphrased queries and k-means finds
  meaningful clusters;
* *rare exact strings*: a fraction of documents carry unique entities
  (phone numbers, street addresses), the query family the paper says
  Tiptoe handles worst (SS1, SS9).

Each document also gets a plausible URL whose slug is built from its
own topical words, so the URL service's "group by content" batching
(SS5) has real structure to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_TLDS = ["com", "org", "net", "io", "info", "edu"]


def _pseudo_word(rng: np.random.Generator, syllables: int) -> str:
    return "".join(
        _CONSONANTS[rng.integers(len(_CONSONANTS))]
        + _VOWELS[rng.integers(len(_VOWELS))]
        for _ in range(syllables)
    )


def make_vocabulary(size: int, rng: np.random.Generator) -> list[str]:
    """Generate ``size`` distinct pronounceable pseudo-words."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = _pseudo_word(rng, int(rng.integers(2, 5)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@dataclass(frozen=True)
class Document:
    """One synthetic web page."""

    doc_id: int
    text: str
    url: str
    topic_mixture: np.ndarray
    entity: str | None = None


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Knobs for the generator; defaults suit fast tests."""

    num_docs: int = 500
    num_topics: int = 12
    vocab_size: int = 900
    words_per_doc: tuple[int, int] = (30, 80)
    topics_per_doc: tuple[int, int] = (1, 3)
    topic_concentration: float = 12.0
    entity_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_topics < 1 or self.num_docs < 1:
            raise ValueError("need at least one topic and one document")
        if self.vocab_size < self.num_topics * 10:
            raise ValueError("vocabulary too small for the topic count")


@dataclass
class SyntheticCorpus:
    """A generated corpus plus its latent generative state."""

    config: SyntheticCorpusConfig
    vocabulary: list[str]
    topic_word_dists: np.ndarray  # (topics, vocab)
    documents: list[Document]

    @classmethod
    def generate(cls, config: SyntheticCorpusConfig) -> "SyntheticCorpus":
        rng = np.random.default_rng(config.seed)
        vocab = make_vocabulary(config.vocab_size, rng)
        topic_dists = cls._make_topics(config, rng)
        documents = [
            cls._make_document(i, config, vocab, topic_dists, rng)
            for i in range(config.num_docs)
        ]
        return cls(
            config=config,
            vocabulary=vocab,
            topic_word_dists=topic_dists,
            documents=documents,
        )

    @staticmethod
    def _make_topics(
        config: SyntheticCorpusConfig, rng: np.random.Generator
    ) -> np.ndarray:
        """Each topic concentrates on its own slice of the vocabulary.

        A Zipf-shaped weight over the topic's core words sits on top of
        a small uniform background, so topics overlap a little (as real
        topics do) but remain clearly distinguishable.
        """
        v, k = config.vocab_size, config.num_topics
        core_size = v // k
        dists = np.full((k, v), 0.05 / v)
        for t in range(k):
            core = rng.permutation(v)[:core_size]
            ranks = np.arange(1, core_size + 1, dtype=np.float64)
            zipf = 1.0 / ranks
            dists[t, core] += 0.95 * zipf / zipf.sum()
        return dists / dists.sum(axis=1, keepdims=True)

    @staticmethod
    def _make_document(
        doc_id: int,
        config: SyntheticCorpusConfig,
        vocab: list[str],
        topic_dists: np.ndarray,
        rng: np.random.Generator,
    ) -> Document:
        k = config.num_topics
        lo, hi = config.topics_per_doc
        active = rng.choice(k, size=int(rng.integers(lo, hi + 1)), replace=False)
        raw = rng.dirichlet(np.full(len(active), config.topic_concentration / k))
        mixture = np.zeros(k)
        mixture[active] = raw
        word_dist = mixture @ topic_dists
        n_words = int(rng.integers(*config.words_per_doc))
        word_ids = rng.choice(len(vocab), size=n_words, p=word_dist)
        words = [vocab[w] for w in word_ids]
        entity = None
        if rng.random() < config.entity_fraction:
            entity = SyntheticCorpus._make_entity(rng)
            words.insert(int(rng.integers(len(words) + 1)), entity)
        url = SyntheticCorpus._make_url(words, rng)
        return Document(
            doc_id=doc_id,
            text=" ".join(words),
            url=url,
            topic_mixture=mixture,
            entity=entity,
        )

    @staticmethod
    def _make_entity(rng: np.random.Generator) -> str:
        """A rare exact string: phone number or street address token."""
        if rng.random() < 0.5:
            return f"ph{rng.integers(10**9, 10**10)}"
        return f"{rng.integers(1, 999)}mainst{rng.integers(10000, 99999)}"

    @staticmethod
    def _make_url(words: list[str], rng: np.random.Generator) -> str:
        domain = words[int(rng.integers(len(words)))][:12]
        slug = "-".join(
            words[int(rng.integers(len(words)))] for _ in range(3)
        )
        tld = _TLDS[int(rng.integers(len(_TLDS)))]
        return f"https://www.{domain}.{tld}/{slug}"

    # -- accessors ---------------------------------------------------------

    @property
    def num_docs(self) -> int:
        return len(self.documents)

    def texts(self) -> list[str]:
        return [d.text for d in self.documents]

    def urls(self) -> list[str]:
        return [d.url for d in self.documents]

    def latent_vectors(self) -> np.ndarray:
        """The true topic mixtures -- ground truth for the oracle baseline."""
        return np.stack([d.topic_mixture for d in self.documents])

    def documents_with_entities(self) -> list[Document]:
        return [d for d in self.documents if d.entity is not None]

    def average_document_bytes(self) -> float:
        return float(np.mean([len(d.text) for d in self.documents]))
