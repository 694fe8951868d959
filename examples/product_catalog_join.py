"""Joining two product catalogues: the paper's "Product" (Abt-Buy) scenario.

A bipartite join between two stores, where duplicate clusters are tiny
(usually one listing per store), so plain transitive savings are modest —
and the one-to-one extension (each product appears at most once per store)
recovers substantially more deductions.

Run:  python examples/product_catalog_join.py
"""

from repro import AsyncDispatch, RuntimeMode, expected_order
from repro.datasets import ClusterSizeSpec, generate_product_dataset
from repro.er import evaluate_labels
from repro.ext import label_sequential_one_to_one
from repro.matcher import CandidateGenerator, TfIdfCosine, word_tokens

THRESHOLD = 0.25
SEED = 7
# A strictly one-to-one world (clusters of at most one record per store), so
# the one-to-one rule is sound.
SPEC = ClusterSizeSpec.from_mapping({2: 260, 1: 120})


def main() -> None:
    dataset = generate_product_dataset(spec=SPEC, seed=SEED)
    sources = {s: sum(1 for r in dataset if r.source == s) for s in dataset.sources()}
    print(f"dataset: {sources} records, {len(dataset.matching_pairs())} true matches\n")

    tokens = {rid: word_tokens(text) for rid, text in dataset.texts().items()}
    tfidf = TfIdfCosine(tokens.values())
    generator = CandidateGenerator(
        similarity=lambda a, b: tfidf.similarity(tokens[a], tokens[b]),
        tokens=tokens,
        source_of=dataset.source_of(),
        max_block_size=200,
    )
    candidates = generator.generate(dataset.ids(), threshold=THRESHOLD)
    print(f"machine step: {len(candidates):,} candidate pairs above {THRESHOLD}")

    truth = dataset.truth_oracle()
    order = expected_order(list(candidates))

    plain = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(order, truth)
    one_to_one = label_sequential_one_to_one(order, truth, dataset.source_of())

    print(f"\nplain transitivity : {plain.n_crowdsourced:,} crowdsourced "
          f"({100 * plain.savings:.1f}% deduced)")
    print(f"+ one-to-one rule  : {one_to_one.n_crowdsourced:,} crowdsourced "
          f"({100 * one_to_one.savings:.1f}% deduced)")

    extra = plain.n_crowdsourced - one_to_one.n_crowdsourced
    print(f"extra savings      : {extra:,} pairs "
          f"({100 * extra / plain.n_crowdsourced:.1f}% of the remaining cost)")

    quality = evaluate_labels(one_to_one.labels(), truth)
    print(f"F-measure          : {100 * quality.f_measure:.1f}% "
          f"(the rule is sound here: the data is strictly 1-to-1)")


if __name__ == "__main__":
    raise SystemExit(main())
