"""Figure 15: the instant-decision and non-matching-first optimisations.

Simulates answer-at-a-time crowdsourcing at threshold 0.3 for three labelers:

* Parallel          — round-based; publishes nothing until a round drains;
* Parallel(ID)      — re-decides after every answer (instant decision);
* Parallel(ID+NF)   — ID plus workers answering least-likely-matching first.

The figure plots how many published pairs remain available on the platform
as answers accumulate.  Expected shape: Parallel's pool periodically drains
to zero (idle workers); ID keeps it stocked; ID+NF keeps it fullest.
"""

from __future__ import annotations

from ..core.ordering import expected_order
from ..crowd.campaign import run_answer_order
from ..crowd.clients import AnswerPolicy
from .config import ExperimentConfig
from .harness import prepare
from .reporting import ExperimentResult

VARIANTS = ("parallel", "parallel_id", "parallel_id_nf")


def run(
    config: ExperimentConfig = ExperimentConfig(), threshold: float = 0.3
) -> ExperimentResult:
    """Reproduce Figure 15 for the configured dataset."""
    prepared = prepare(config)
    candidates = expected_order(prepared.candidates_above(threshold))
    # (instant decision, answer policy) per labeler
    labelers = {
        "parallel": (False, AnswerPolicy.RANDOM),
        "parallel_id": (True, AnswerPolicy.RANDOM),
        "parallel_id_nf": (True, AnswerPolicy.NON_MATCHING_FIRST),
    }
    result = ExperimentResult(
        experiment_id="figure15",
        title=(
            f"availability under optimisation techniques "
            f"({config.dataset}, threshold {threshold})"
        ),
        columns=[
            "variant",
            "crowdsourced",
            "mean_available",
            "min_available_mid_run",
            "starvation_events",
        ],
    )
    for name, (instant_decision, answer_policy) in labelers.items():
        run_record = run_answer_order(
            candidates,
            prepared.truth,
            instant_decision=instant_decision,
            answer_policy=answer_policy,
            seed=config.seed,
        )
        trace = run_record.trace
        interior = trace[:-1] if trace else []
        result.rows.append(
            {
                "variant": name,
                "crowdsourced": run_record.n_crowdsourced,
                "mean_available": run_record.mean_availability(),
                "min_available_mid_run": (
                    min(p.n_available for p in interior) if interior else 0
                ),
                "starvation_events": run_record.starvation_count(below=1),
            }
        )
        result.series[f"{name}_available"] = [p.n_available for p in trace]
    result.notes.append(
        "paper reference shape: Parallel drains to ~1 available pair between "
        "rounds while ID keeps hundreds available and ID+NF the most "
        "(e.g. 1 vs 219 vs 281 after 1,420 answers on Product)"
    )
    return result


def run_both(
    config: ExperimentConfig = ExperimentConfig(), threshold: float = 0.3
) -> dict:
    """Figure 15(a) and 15(b)."""
    return {
        "paper": run(config.with_dataset("paper"), threshold),
        "product": run(config.with_dataset("product"), threshold),
    }
