"""The instant-decision simulator and the shared engine configuration.

The paper's sequential (Section 3.2) and round-parallel (Section 5.1,
Algorithms 2-3) labelers are the two pair-granularity modes of
:class:`~repro.engine.async_dispatch.AsyncDispatch`, which drives the
shared :class:`LabelingEngine` through the same
:class:`~repro.engine.async_dispatch.CrowdRuntime` event loop that live
campaigns use.  This module holds what sits beside it:

* :class:`InstantDispatch` — answer-at-a-time labeling with the
  instant-decision and non-matching-first optimisations (Section 5.2,
  Figure 15).  It keeps its own loop: its answer *policies* (which
  published pair the crowd answers next) simulate the Figure-15 crowd
  itself, which is not a platform concern.
* :func:`_engine_config` — the engine keyword arguments every dispatch
  strategy resolves the same way (explicit argument > spec value >
  default).

The companion paper on the Expected Optimal Labeling Order problem
(arXiv:1409.7472) treats ordering and dispatch as orthogonal components;
the same separation here means hot-path work lands once in the engine and
benefits every strategy.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..core.cluster_graph import ConflictPolicy
from ..core.oracle import LabelOracle
from ..core.pairs import CandidatePair, Label, Pair
from ..core.result import LabelingResult
from .engine import DEFAULT_SHARD_THRESHOLD, LabelingEngine
from .parallel import DEFAULT_PARALLEL_THRESHOLD


def _engine_config(
    spec,
    *,
    policy=None,
    backend=None,
    shard_threshold=None,
    parallel_threshold=None,
    n_workers=None,
    workers=None,
    spawn_local_workers=None,
) -> dict:
    """Resolve engine kwargs: explicit argument > spec value > default.

    Every dispatch strategy used to re-plumb these knobs by hand; a
    :class:`~repro.spec.CampaignSpec` now carries them once, and explicit
    keyword arguments keep working as per-call overrides.
    """
    if spec is not None:
        resolved = spec.engine_kwargs()
    else:
        resolved = {
            "policy": ConflictPolicy.STRICT,
            "backend": "auto",
            "shard_threshold": DEFAULT_SHARD_THRESHOLD,
            "parallel_threshold": DEFAULT_PARALLEL_THRESHOLD,
            "n_workers": None,
            "mp_start_method": None,
            "workers": None,
            "spawn_local_workers": None,
        }
    overrides = {
        "policy": policy,
        "backend": backend,
        "shard_threshold": shard_threshold,
        "parallel_threshold": parallel_threshold,
        "n_workers": n_workers,
        "workers": workers,
        "spawn_local_workers": spawn_local_workers,
    }
    resolved.update({k: v for k, v in overrides.items() if v is not None})
    return resolved


class AnswerPolicy(enum.Enum):
    """Which published pair does the crowd answer next?

    FIFO:                publication order (deterministic baseline).
    RANDOM:              uniformly random — how AMT actually assigns HITs,
                         used for Parallel and Parallel(ID) in Figure 15.
    NON_MATCHING_FIRST:  increasing likelihood of being a matching pair —
                         the NF optimisation (only meaningful with ID).
    """

    FIFO = "fifo"
    RANDOM = "random"
    NON_MATCHING_FIRST = "non-matching-first"


@dataclass(frozen=True)
class AvailabilityPoint:
    """One step of the Figure-15 series: after ``n_answered`` crowdsourced
    answers, ``n_available`` published pairs were still waiting."""

    n_answered: int
    n_available: int


@dataclass
class InstantRunResult:
    """Outcome of an event-driven labeling run.

    Attributes:
        result: the per-pair labeling result (rounds = publish events).
        trace: availability after every answer (Figure 15's series).
        publish_events: (answers so far, batch size) per publish event.
    """

    result: LabelingResult
    trace: List[AvailabilityPoint] = field(default_factory=list)
    publish_events: List[tuple[int, int]] = field(default_factory=list)

    @property
    def n_crowdsourced(self) -> int:
        return self.result.n_crowdsourced

    @property
    def n_deduced(self) -> int:
        return self.result.n_deduced

    def availability_series(self) -> List[int]:
        """Pool sizes after each answer, as a plain list."""
        return [point.n_available for point in self.trace]

    def mean_availability(self) -> float:
        """Average pool size over the run — the paper's 'keep the crowd busy'
        metric summarised as one number."""
        if not self.trace:
            return 0.0
        return sum(point.n_available for point in self.trace) / len(self.trace)

    def starvation_count(self, below: int = 1) -> int:
        """How many times (mid-run) the pool dropped below ``below`` pairs."""
        if not self.trace:
            return 0
        interior = self.trace[:-1]  # the pool is legitimately empty at the end
        return sum(1 for point in interior if point.n_available < below)


class InstantDispatch:
    """Answer-at-a-time dispatch with optional ID and NF optimisations.

    Simulates the Figure-15 interaction: a configurable answer policy picks
    which published pair the crowd answers next, and the strategy re-decides
    publication according to its optimisation level.

    Published pairs are *not* resolved by the deduction sweep even if later
    answers would imply their label — they are already on the platform and
    will be answered.  Besides matching platform reality, this is what
    guarantees progress: when the pool drains after a run of matching
    answers, every remaining unlabeled pair is deducible from the answers
    actually received.

    Args:
        instant_decision: publish new must-crowdsource pairs as soon as an
            answer makes them identifiable (Section 5.2 "Instant Decision").
            When False the strategy behaves like the round-based algorithm:
            it waits for the whole published batch before publishing again.
        answer_policy: how the simulated crowd picks the next pair to answer.
        seed: RNG seed for the RANDOM policy.
        policy: ClusterGraph conflict policy (STRICT for perfect oracles).
        use_index: incremental deduction sweep (the engine default); the
            naive full scan is kept for cross-validation and produces
            identical results.
        backend: engine deduction/frontier backend (``"auto"``,
            ``"monolithic"``, ``"sharded"``, ``"vectorized"``,
            ``"parallel"``, or ``"distributed"``; see
            :class:`LabelingEngine`).
        shard_threshold: the ``auto`` backend's sharding cut-over point.
    """

    def __init__(
        self,
        instant_decision: bool = True,
        answer_policy: AnswerPolicy = AnswerPolicy.RANDOM,
        seed: int = 0,
        policy: Optional[ConflictPolicy] = None,
        use_index: bool = True,
        backend: Optional[str] = None,
        shard_threshold: Optional[int] = None,
        parallel_threshold: Optional[int] = None,
        n_workers: Optional[int] = None,
        workers: Optional[Sequence[str]] = None,
        spawn_local_workers: Optional[int] = None,
        *,
        spec=None,
    ) -> None:
        self._instant = instant_decision
        self._answer_policy = answer_policy
        self._seed = seed
        self._use_index = use_index
        self._engine_kwargs = _engine_config(
            spec,
            policy=policy,
            backend=backend,
            shard_threshold=shard_threshold,
            parallel_threshold=parallel_threshold,
            n_workers=n_workers,
            workers=workers,
            spawn_local_workers=spawn_local_workers,
        )

    def run(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        oracle: LabelOracle,
    ) -> InstantRunResult:
        """Label every pair in ``order``; return result plus the trace."""
        engine = LabelingEngine(
            order,
            use_index=self._use_index,
            **self._engine_kwargs,
        )
        try:
            return self._run(engine, oracle)
        finally:
            # Release parallel-backend workers (no-op on in-process backends).
            engine.close()

    def _run(self, engine: LabelingEngine, oracle: LabelOracle) -> InstantRunResult:
        rng = random.Random(self._seed)
        run = InstantRunResult(result=engine.result)
        published: List[Pair] = []
        publish_round: Dict[Pair, int] = {}
        n_answered = 0
        n_publish_events = 0

        def publish() -> None:
            nonlocal n_publish_events
            batch = engine.frontier()
            if batch:
                engine.publish(batch)  # the crowd will answer these
                for pair in batch:
                    publish_round[pair] = n_publish_events
                published.extend(batch)
                engine.result.rounds.append(batch)
                run.publish_events.append((n_answered, len(batch)))
                n_publish_events += 1

        def next_to_answer() -> Pair:
            if self._answer_policy is AnswerPolicy.FIFO:
                choice = 0
            elif self._answer_policy is AnswerPolicy.RANDOM:
                choice = rng.randrange(len(published))
            else:  # NON_MATCHING_FIRST: least likely to match answered first
                choice = min(
                    range(len(published)),
                    key=lambda i: engine.likelihoods[published[i]],
                )
            return published.pop(choice)

        publish()
        while not engine.is_done:
            if not published:
                # With a perfect oracle this only happens when the remaining
                # pairs are all deducible; with noisy answers (FIRST_WINS) the
                # invariants can be violated, so recompute defensively.
                publish()
                assert published, "event loop stalled with unlabeled pairs remaining"
            pair = next_to_answer()
            answer = oracle.label(pair)
            n_answered += 1
            engine.record_answer(pair, answer, publish_round[pair])
            # Deduction sweep over unresolved pairs; published pairs are on
            # the platform and stay withheld from it.
            engine.sweep(publish_round[pair])
            if not engine.is_done and self._instant and answer is Label.NON_MATCHING:
                # A matching answer cannot unlock new publishes: selection
                # already assumed all unlabeled pairs match (Section 5.2).
                publish()
            run.trace.append(AvailabilityPoint(n_answered, len(published)))
        return run
