"""SS8.3 text-to-image search: the second Tiptoe deployment.

Paper: the LAION-400M deployment is 1.2x more documents and 2x the
embedding dimension, costing ~2.3x the compute and ~1.2x the
communication of text search.  This bench runs the full private
text-to-image pipeline at simulation scale (caption queries retrieve
their own image) and prints the paper-scale cost ratios from the
analytic model.
"""

import numpy as np

from benchmarks.conftest import emit
from repro import TiptoeConfig, TiptoeEngine
from repro.corpus import ImageCorpus
from repro.embeddings import HashingEmbedder
from repro.embeddings.joint import JointEmbedder
from repro.evalx.costmodel import PaperScaleModel


def build_image_engine():
    from repro.corpus.synthetic import SyntheticCorpusConfig

    images = ImageCorpus.generate(
        num_images=360,
        latent_dim=24,
        text_config=SyntheticCorpusConfig(
            num_docs=360, num_topics=30, vocab_size=1050, seed=4
        ),
        seed=4,
    )
    # The server owns both modalities, so the alignment trains on the
    # full caption/image set (as CLIP trains on its whole corpus).
    joint = JointEmbedder.fit(
        HashingEmbedder(dim=48),
        images.captions(),
        images.latent_matrix(),
    )
    embeddings = joint.embed_images(images.latent_matrix())
    engine = TiptoeEngine.build_from_embeddings(
        embeddings,
        images.urls(),
        query_embedder=joint,
        config=TiptoeConfig(embedding_dim=24, pca_dim=None),
        rng=np.random.default_rng(5),
    )
    return images, engine


def test_image_search_end_to_end(benchmark):
    images, engine = benchmark.pedantic(
        build_image_engine, rounds=1, iterations=1
    )
    hits10 = 0
    trials = list(range(0, 360, 36))
    example_urls = []
    for img_id in trials:
        result = engine.search(
            images.images[img_id].caption, np.random.default_rng(img_id)
        )
        top = engine.result_doc_ids(result)[:10]
        hits10 += int(img_id in top)
        if len(example_urls) < 3 and result.urls():
            example_urls.append(
                (images.images[img_id].caption[:48], result.urls()[0])
            )
    lines = [
        f"corpus: {images.num_images} images, joint dim {engine.index.layout.dim}",
        f"caption query recalls its image in top-10: {hits10}/{len(trials)}",
        "",
        "sample results (caption -> retrieved image URL):",
    ]
    lines += [f"  {cap!r} -> {url}" for cap, url in example_urls]
    emit("image_search", lines)
    assert hits10 >= len(trials) * 0.6


def test_image_vs_text_cost_ratios(benchmark):
    model = PaperScaleModel()
    text, image = benchmark.pedantic(
        lambda: (
            model.text.summary(364_000_000),
            model.image.summary(400_000_000, ranking_vcpus=320, url_vcpus=32),
        ),
        rounds=1,
        iterations=1,
    )
    compute_ratio = image["core_seconds"] / text["core_seconds"]
    comm_ratio = image["total_mib"] / text["total_mib"]
    emit(
        "image_vs_text_ratios",
        [
            f"compute ratio: {compute_ratio:.2f}x (paper: 2.3x)",
            f"communication ratio: {comm_ratio:.2f}x (paper: 1.2x)",
            f"image total: {image['total_mib']:.1f} MiB (paper: 71)",
            f"image latency: {image['perceived_latency_s']:.1f} s (paper: 3.5)",
        ],
    )
    assert 1.3 < compute_ratio < 2.7
    assert 1.05 < comm_ratio < 1.6
