"""Figure 12: the number of crowdsourced pairs under different labeling
orders.

Optimal (matching first), Expected (decreasing likelihood), Random, and
Worst (non-matching first) orders across the threshold sweep.  Expected
shape: Worst >> Random > Expected >= Optimal, with the Worst order an order
of magnitude above Optimal on the Paper dataset at low thresholds.
"""

from __future__ import annotations

from ..core.ordering import expected_order, optimal_order, random_order, worst_order
from ..engine.async_dispatch import AsyncDispatch, RuntimeMode
from .config import ExperimentConfig
from .harness import prepare
from .reporting import ExperimentResult

ORDER_NAMES = ("optimal", "expected", "random", "worst")


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Reproduce Figure 12 for the configured dataset."""
    prepared = prepare(config)
    result = ExperimentResult(
        experiment_id="figure12",
        title=f"crowdsourced pairs by labeling order ({config.dataset})",
        columns=["threshold", *ORDER_NAMES],
    )
    sequential = AsyncDispatch(RuntimeMode.SEQUENTIAL)
    for threshold in config.thresholds:
        candidates = prepared.candidates_above(threshold)
        orders = {
            "optimal": optimal_order(candidates, prepared.truth),
            "expected": expected_order(candidates),
            "random": random_order(candidates, seed=config.seed),
            "worst": worst_order(candidates, prepared.truth),
        }
        row = {"threshold": threshold}
        for name, ordered in orders.items():
            row[name] = sequential.run(ordered, prepared.truth).n_crowdsourced
        result.rows.append(row)
    for name in ORDER_NAMES:
        result.series[name] = [row[name] for row in result.rows]
    result.notes.append(
        "paper reference shape: on Paper at threshold 0.1 the worst order needs "
        "139,181 pairs, ~26x the optimal order; the expected order stays close "
        "to optimal"
    )
    return result


def run_both(config: ExperimentConfig = ExperimentConfig()) -> dict:
    """Figure 12(a) and 12(b)."""
    return {
        "paper": run(config.with_dataset("paper")),
        "product": run(config.with_dataset("product")),
    }
