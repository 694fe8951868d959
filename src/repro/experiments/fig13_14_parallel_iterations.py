"""Figures 13 and 14: parallel vs non-parallel labeling iterations.

At a fixed threshold (0.3 for Figure 13, 0.4 for Figure 14), label the
candidates in the expected order and report how many pairs each iteration
crowdsources.  Non-Parallel publishes one pair per iteration (``C``
iterations for ``C`` crowdsourced pairs); Parallel compresses the run into a
handful of front-loaded rounds (paper: 1,237 pairs in 14 iterations, the
first publishing 908).  Higher thresholds leave a sparser candidate graph and
hence even fewer iterations.
"""

from __future__ import annotations

from ..core.ordering import expected_order
from ..engine.async_dispatch import AsyncDispatch, RuntimeMode
from .config import ExperimentConfig
from .harness import prepare
from .reporting import ExperimentResult


def run(
    config: ExperimentConfig = ExperimentConfig(), threshold: float = 0.3
) -> ExperimentResult:
    """Reproduce Figure 13 (threshold 0.3) or 14 (threshold 0.4)."""
    prepared = prepare(config)
    candidates = expected_order(prepared.candidates_above(threshold))
    parallel = AsyncDispatch(RuntimeMode.ROUNDS).run(candidates, prepared.truth)
    figure = "figure13" if abs(threshold - 0.3) < 1e-9 else "figure14"
    result = ExperimentResult(
        experiment_id=figure,
        title=(
            f"parallel vs non-parallel iterations "
            f"({config.dataset}, threshold {threshold})"
        ),
        columns=["iteration", "parallel_pairs", "non_parallel_pairs"],
    )
    sizes = parallel.round_sizes()
    for index, size in enumerate(sizes, start=1):
        result.rows.append(
            {"iteration": index, "parallel_pairs": size, "non_parallel_pairs": 1}
        )
    result.series["parallel_round_sizes"] = sizes
    result.notes.append(
        f"parallel: {parallel.n_crowdsourced} crowdsourced pairs in "
        f"{parallel.n_rounds} iterations; non-parallel needs "
        f"{parallel.n_crowdsourced} iterations of one pair each"
    )
    result.notes.append(
        "paper reference shape (Fig 13a): 1,237 pairs in 14 iterations, "
        "first round 908; higher thresholds need fewer iterations (Fig 14)"
    )
    return result


def run_both(
    config: ExperimentConfig = ExperimentConfig(), threshold: float = 0.3
) -> dict:
    """Both datasets at one threshold (a or b panel of the figure)."""
    return {
        "paper": run(config.with_dataset("paper"), threshold),
        "product": run(config.with_dataset("product"), threshold),
    }
