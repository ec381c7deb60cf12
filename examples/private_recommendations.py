"""Private recommendations (SS9): nearest neighbors beyond web search.

The paper notes Tiptoe's private nearest-neighbor protocol applies
directly to recommendation engines: the client holds a profile vector
(e.g., an average of its recently viewed items' embeddings) and
privately retrieves similar items from the provider's catalog -- the
provider learns nothing about the client's tastes.

This example builds an "item catalog" (documents standing in for
products), derives a client profile from three viewed items, and runs
the profile through the private ranking + URL pipeline.

Run:  python examples/private_recommendations.py
"""

import numpy as np

from repro import TiptoeConfig, TiptoeEngine
from repro.corpus import SyntheticCorpus, SyntheticCorpusConfig
from repro.core.ranking import RankingClient
from repro.embeddings.quantize import quantize


def main() -> None:
    catalog = SyntheticCorpus.generate(
        SyntheticCorpusConfig(num_docs=500, num_topics=10, vocab_size=800, seed=8)
    )
    engine = TiptoeEngine.build(
        catalog.texts(),
        catalog.urls(),
        TiptoeConfig(target_cluster_size=25),
        rng=np.random.default_rng(0),
    )
    index = engine.index

    # The client's history: three items it recently viewed.
    viewed = [17, 23, 31]
    print("Recently viewed items:")
    for item in viewed:
        print(f"  {catalog.documents[item].url}")

    # Profile = normalized mean of the viewed items' embeddings,
    # computed locally from the downloaded embedding model.
    profile = index.embeddings[viewed].mean(axis=0)
    profile /= np.linalg.norm(profile)

    # Run the profile through the private protocol directly.
    rng = np.random.default_rng(1)
    token = engine.mint_token(rng)
    keys, hints = token.consume()
    ranking = RankingClient(
        index.ranking_scheme,
        dim=index.layout.dim,
        num_clusters=index.layout.num_clusters,
    )
    cluster = int(np.argmax(index.clusters.centroids @ profile))
    query = ranking.build_query(
        keys["ranking"],
        quantize(profile, index.config.quantization()),
        cluster,
    )
    answer = engine.ranking_answer(query)
    scores = ranking.decode_scores(keys["ranking"], answer, hints["ranking"])
    real = int(index.layout.cluster_sizes[cluster])
    order = np.argsort(-scores[:real])

    print("\nPrivately recommended items (viewed items excluded):")
    shown = 0
    for row in order:
        doc = index.layout.doc_id_of(cluster, int(row))
        if doc in viewed:
            continue
        print(f"  score={int(scores[row]):6d}  {catalog.documents[doc].url}")
        shown += 1
        if shown == 5:
            break
    print("\nThe provider computed these recommendations on ciphertexts:")
    print("it never saw the profile vector or which items were returned.")


if __name__ == "__main__":
    main()
