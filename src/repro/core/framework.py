"""The hybrid transitive-relations + crowdsourcing labeling framework.

Paper Figure 4: the framework takes the unlabeled candidate pairs produced by
machine-based techniques, the *Sorting* component picks a labeling order, and
the *Labeling* component resolves every pair either by crowdsourcing or by
deduction.  This module wires those components behind one facade so callers
write::

    framework = TransitiveJoinFramework(sorter=ExpectedOrderSorter(),
                                        labeler="parallel")
    result = framework.label(candidates, oracle)

The Non-Transitive baseline (publish everything) lives here too so that every
experiment can compare against it through the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

from ..crowd.campaign import InstantRunResult, run_answer_order
from ..crowd.clients import AnswerPolicy
from ..engine.async_dispatch import AsyncDispatch, RuntimeMode
from .cluster_graph import ConflictPolicy
from .oracle import CountingOracle, LabelOracle
from .ordering import ExpectedOrderSorter, Sorter
from .pairs import CandidatePair, Pair, Provenance
from .result import LabelingResult

LabelerName = Literal["sequential", "parallel", "instant", "instant+nf"]


@dataclass
class FrameworkRun:
    """A labeling run with its money meter attached.

    Attributes:
        result: the per-pair outcome record.
        oracle_calls: number of oracle queries actually issued (equals
            ``result.n_crowdsourced`` — asserted, since that equality is the
            framework's core invariant).
        instant: the event-driven trace when the instant labeler was used.
    """

    result: LabelingResult
    oracle_calls: int
    instant: Optional[InstantRunResult] = None


class TransitiveJoinFramework:
    """Sorting + Labeling components composed per paper Figure 4.

    Args:
        sorter: the Sorting component; defaults to the heuristic
            likelihood-descending order the paper recommends.
        labeler: which Labeling component to use — "sequential"
            (Section 3.2), "parallel" (Section 5.1), "instant"
            (Section 5.2 ID), or "instant+nf" (ID + NF).
        policy: ClusterGraph conflict policy (STRICT for perfect answers).
        seed: RNG seed for the instant labeler's answer simulation.
    """

    def __init__(
        self,
        sorter: Optional[Sorter] = None,
        labeler: LabelerName = "parallel",
        policy: ConflictPolicy = ConflictPolicy.STRICT,
        seed: int = 0,
    ) -> None:
        if labeler not in ("sequential", "parallel", "instant", "instant+nf"):
            raise ValueError(f"unknown labeler {labeler!r}")
        self._sorter: Sorter = sorter if sorter is not None else ExpectedOrderSorter()
        self._labeler_name: LabelerName = labeler
        self._policy = policy
        self._seed = seed

    @property
    def sorter(self) -> Sorter:
        return self._sorter

    @property
    def labeler_name(self) -> str:
        return self._labeler_name

    def sort(self, candidates: Sequence[CandidatePair]) -> list[CandidatePair]:
        """Run only the Sorting component."""
        return self._sorter.sort(list(candidates))

    def label(
        self, candidates: Sequence[CandidatePair], oracle: LabelOracle
    ) -> FrameworkRun:
        """Sort the candidates, then label them all; return the run record."""
        order = self.sort(candidates)
        counting = CountingOracle(oracle)
        instant_run: Optional[InstantRunResult] = None
        if self._labeler_name == "sequential":
            dispatch = AsyncDispatch(RuntimeMode.SEQUENTIAL, policy=self._policy)
            result = dispatch.run(order, counting)
        elif self._labeler_name == "parallel":
            dispatch = AsyncDispatch(RuntimeMode.ROUNDS, policy=self._policy)
            result = dispatch.run(order, counting)
        else:
            answer_policy = (
                AnswerPolicy.NON_MATCHING_FIRST
                if self._labeler_name == "instant+nf"
                else AnswerPolicy.RANDOM
            )
            instant_run = run_answer_order(
                order,
                counting,
                answer_policy=answer_policy,
                seed=self._seed,
                policy=self._policy,
            )
            result = instant_run.result
        assert counting.n_calls == result.n_crowdsourced, (
            "oracle calls must equal crowdsourced pairs "
            f"({counting.n_calls} != {result.n_crowdsourced})"
        )
        return FrameworkRun(result=result, oracle_calls=counting.n_calls, instant=instant_run)


def label_with_transitivity(
    candidates: Sequence[CandidatePair],
    oracle: LabelOracle,
    sorter: Optional[Sorter] = None,
    labeler: LabelerName = "parallel",
) -> LabelingResult:
    """One-call convenience API: sort, label, return the result."""
    framework = TransitiveJoinFramework(sorter=sorter, labeler=labeler)
    return framework.label(candidates, oracle).result


def label_baseline(
    candidates: Sequence[Union[Pair, CandidatePair]], oracle: LabelOracle
) -> LabelingResult:
    """The Non-Transitive baseline: crowdsource every pair (paper Section 6.1).

    All pairs are published in a single round since no pair depends on any
    other.
    """
    pairs = [
        item.pair if isinstance(item, CandidatePair) else item for item in candidates
    ]
    result = LabelingResult(order=pairs)
    result.rounds.append(list(pairs))
    for pair in pairs:
        result.record(pair, oracle.label(pair), Provenance.CROWDSOURCED, 0)
    return result
