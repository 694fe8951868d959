"""Ablation: the future-work extensions on the Product workload.

* one-to-one rule — extra deductions on a strictly 1-1 bipartite catalogue;
* budget cap — the money/coverage curve, which must be concave-ish (early
  questions buy disproportionate coverage under the heuristic order).
"""

from __future__ import annotations

from repro.core.ordering import expected_order
from repro.datasets import ClusterSizeSpec, generate_product_dataset
from repro.engine import AsyncDispatch, RuntimeMode
from repro.ext.budget import coverage_curve
from repro.ext.one_to_one import label_sequential_one_to_one
from repro.matcher import CandidateGenerator, TfIdfCosine, word_tokens

ONE_TO_ONE_SPEC = ClusterSizeSpec.from_mapping({2: 200, 1: 80})


def one_to_one_workload(seed: int = 3):
    dataset = generate_product_dataset(spec=ONE_TO_ONE_SPEC, seed=seed)
    tokens = {rid: word_tokens(text) for rid, text in dataset.texts().items()}
    tfidf = TfIdfCosine(tokens.values())
    generator = CandidateGenerator(
        similarity=lambda a, b: tfidf.similarity(tokens[a], tokens[b]),
        tokens=tokens,
        source_of=dataset.source_of(),
        max_block_size=150,
    )
    candidates = expected_order(list(generator.generate(dataset.ids(), threshold=0.25)))
    return dataset, candidates


def test_one_to_one_rule_saves_questions(benchmark):
    dataset, candidates = one_to_one_workload()
    truth = dataset.truth_oracle()
    source_of = dataset.source_of()

    def run():
        return label_sequential_one_to_one(candidates, truth, source_of)

    one_to_one = benchmark(run)
    plain = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(candidates, truth)
    assert one_to_one.n_crowdsourced < plain.n_crowdsourced, (
        "the one-to-one rule must add savings on 1-1 data"
    )
    for pair, label in one_to_one.labels().items():
        assert label is truth.label(pair), "and stay sound on 1-1 truth"
    print(
        f"\nplain: {plain.n_crowdsourced} crowdsourced; "
        f"one-to-one: {one_to_one.n_crowdsourced} "
        f"({plain.n_crowdsourced - one_to_one.n_crowdsourced} saved)"
    )


def test_budget_coverage_curve(benchmark):
    dataset, candidates = one_to_one_workload(seed=4)
    truth = dataset.truth_oracle()
    sequential = AsyncDispatch(RuntimeMode.SEQUENTIAL)
    full_cost = sequential.run(candidates, truth).n_crowdsourced
    budgets = [0, full_cost // 4, full_cost // 2, 3 * full_cost // 4, full_cost]

    def run():
        return coverage_curve(candidates, truth, budgets=budgets)

    curve = benchmark.pedantic(run, rounds=1, iterations=1)
    values = [curve[b] for b in budgets]
    assert values == sorted(values), "coverage is monotone in budget"
    assert values[-1] == 1.0, "the full budget resolves everything"
    assert values[2] >= 0.4 * values[-1], (
        "coverage roughly tracks spend; on 1-1 data (few deductions) it is "
        "close to linear rather than strongly concave"
    )
    print("\nbudget -> coverage: " + ", ".join(f"{b}:{curve[b]:.2f}" for b in budgets))
