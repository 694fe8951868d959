"""Crowdsourcing campaigns: labeling strategies driven by the platform.

A *campaign* wires a labeling strategy to a crowd platform at HIT
granularity, producing the quantities the paper's Section 6.4 tables report:
number of HITs, completion time, money cost, and the final labels (from which
quality is computed).  Three campaign styles cover the paper's comparisons:

* :func:`run_non_transitive` — the baseline: publish every candidate pair at
  once, take the crowd's (aggregated) word for each.
* :func:`run_transitive` — the paper's framework at platform granularity:
  publish the must-crowdsource pairs, deduce everything implied as answers
  arrive, optionally re-deciding instantly after every HIT completion
  (Parallel(ID)); without instant decision it re-publishes only when the
  platform drains (round-based Parallel).
* :func:`run_non_parallel` — publish a fixed list of HITs strictly one at a
  time (Table 1's Non-Parallel opponent).

:func:`run_answer_order` runs Figure 15's answer-at-a-time crowd
(:class:`~repro.crowd.clients.AnswerOrderClient`) through the same
runtime modes and reads the availability trace off the runtime report.

All of them are thin synchronous facades over the async crowd runtime
(:class:`repro.engine.async_dispatch.CrowdRuntime`) running the
:class:`~repro.crowd.clients.SimulatedPlatformClient` to completion: the
frontier computation, the deduction sweep, full-HIT buffering
(:class:`~repro.engine.hit_adapter.HITDispatchAdapter`), and — crucially —
the application of out-of-order crowd answers are the same code path a live
:class:`~repro.crowd.clients.PollingPlatformClient` or
:class:`~repro.crowd.clients.CallbackPlatformClient` campaign exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..spec import CampaignSpec

from ..core.cluster_graph import ConflictPolicy
from ..core.oracle import LabelOracle
from ..core.pairs import CandidatePair, Label, Pair, Provenance
from ..core.result import LabelingResult
from ..engine import async_dispatch as _runtime
from ..engine.engine import LabelingEngine
from .clients import AnswerOrderClient, AnswerPolicy, SimulatedPlatformClient
from .platform import SimulatedPlatform


@dataclass
class CampaignReport:
    """Everything a Section-6.4 table needs about one campaign run.

    Attributes:
        labels: final label of every candidate pair.
        provenance: how each pair was resolved (crowdsourced or deduced).
        n_hits: HITs published.
        n_assignments: assignments completed (n_hits * replication).
        cost: dollars spent.
        completion_hours: simulated wall-clock time when the last candidate
            pair's label became known.
        publish_events: (time, n_hits_published) per publish burst.
        hit_batches: the pair composition of every published HIT, in
            publication order (lets Table 1 replay identical HITs serially).
        conflicts: pairs whose crowd answer contradicted the deduction graph
            (possible only with noisy workers).
    """

    labels: Dict[Pair, Label] = field(default_factory=dict)
    provenance: Dict[Pair, Provenance] = field(default_factory=dict)
    n_hits: int = 0
    n_assignments: int = 0
    cost: float = 0.0
    completion_hours: float = 0.0
    publish_events: List[Tuple[float, int]] = field(default_factory=list)
    hit_batches: List[List[Pair]] = field(default_factory=list)
    conflicts: List[Pair] = field(default_factory=list)

    @property
    def n_crowdsourced(self) -> int:
        return sum(1 for p in self.provenance.values() if p is Provenance.CROWDSOURCED)

    @property
    def n_deduced(self) -> int:
        return sum(1 for p in self.provenance.values() if p is Provenance.DEDUCED)

    def matches(self) -> Set[Pair]:
        """Pairs labeled matching."""
        return {pair for pair, label in self.labels.items() if label is Label.MATCHING}


def _pairs_of(order: Sequence[CandidatePair | Pair]) -> List[Pair]:
    return [item.pair if isinstance(item, CandidatePair) else item for item in order]


def _report_from(
    engine: LabelingEngine,
    runtime_report: "_runtime.RuntimeReport",
    platform: SimulatedPlatform,
) -> CampaignReport:
    """Assemble the campaign view of an engine run + runtime report."""
    report = CampaignReport()
    for pair, outcome in engine.result.outcomes.items():
        report.labels[pair] = outcome.label
        report.provenance[pair] = outcome.provenance
    # Any still-outstanding HITs were paid for regardless; record their
    # answers as they land (they do not extend the completion time, which
    # is defined by the last *needed* label).
    for completion in runtime_report.leftovers:
        for pair, label in completion.labels.items():
            if pair not in report.labels:
                report.labels[pair] = label
                report.provenance[pair] = Provenance.CROWDSOURCED
    report.completion_hours = runtime_report.completion_hours
    report.publish_events = list(runtime_report.publish_events)
    report.hit_batches = [list(batch) for batch in runtime_report.hit_batches]
    report.conflicts = list(runtime_report.conflicts)
    report.n_hits = platform.stats.hits_published
    report.n_assignments = platform.stats.assignments_completed
    report.cost = platform.ledger.total
    return report


def run_non_transitive(
    candidates: Sequence[CandidatePair | Pair],
    platform: SimulatedPlatform,
) -> CampaignReport:
    """Publish every pair simultaneously; no deduction (paper's baseline)."""
    # FIRST_WINS because the baseline takes the crowd's word per pair: with
    # noisy workers the answers need not be mutually consistent, and no
    # deduction ever reads the graph anyway.
    engine = LabelingEngine(
        _pairs_of(candidates), policy=ConflictPolicy.FIRST_WINS, use_index=False
    )
    runtime = _runtime.CrowdRuntime(
        engine,
        SimulatedPlatformClient(platform),
        mode=_runtime.RuntimeMode.FLOOD,
    )
    return _report_from(engine, runtime.run_sync(), platform)


def run_transitive(
    candidates: Sequence[CandidatePair | Pair] | None = None,
    platform: SimulatedPlatform | None = None,
    instant_decision: bool | None = None,
    policy: ConflictPolicy | None = None,
    *,
    spec: "CampaignSpec | None" = None,
) -> CampaignReport:
    """The paper's framework against the simulated platform.

    The candidate order is taken as the labeling order (sort upstream with a
    :class:`~repro.core.ordering.Sorter`).  With ``instant_decision`` the
    must-crowdsource set is re-evaluated after *every* HIT completion
    (Parallel(ID)); otherwise only when the platform has drained (Parallel).

    A :class:`~repro.spec.CampaignSpec` may be passed instead of (or in
    addition to) the loose arguments: ``candidates`` defaults to the spec's
    order, the engine is configured from the spec (backend, thresholds,
    conflict policy), the runtime mode follows ``spec.mode``, and the spec's
    budget/timeout/review policies drive the runtime.  Explicit arguments
    override the spec field-by-field.

    Crowd answers always win for pairs that were published; deductions fill
    in the rest.  With noisy workers the answers may be mutually inconsistent
    — the FIRST_WINS policy keeps the first-inserted edges and logs
    conflicts, mirroring how cascaded deduction errors arise in the paper's
    Table 2.
    """
    if platform is None:
        raise TypeError("run_transitive() requires a platform")
    if spec is not None:
        if candidates is not None:
            spec = spec.with_order(candidates)
        engine_kwargs = spec.engine_kwargs()
        if policy is not None:
            engine_kwargs["policy"] = policy
        engine = LabelingEngine(list(spec.pairs), **engine_kwargs)
        if instant_decision is None:
            mode = spec.runtime_mode()
        else:
            mode = (
                _runtime.RuntimeMode.HIT_INSTANT
                if instant_decision
                else _runtime.RuntimeMode.HIT_ROUNDS
            )
    else:
        if candidates is None:
            raise TypeError("run_transitive() requires candidates or a spec")
        engine = LabelingEngine(
            _pairs_of(candidates),
            policy=ConflictPolicy.FIRST_WINS if policy is None else policy,
        )
        mode = (
            _runtime.RuntimeMode.HIT_ROUNDS
            if instant_decision is False
            else _runtime.RuntimeMode.HIT_INSTANT
        )
    runtime = _runtime.CrowdRuntime(
        engine,
        SimulatedPlatformClient(platform),
        spec=spec,
        mode=mode,
    )
    return _report_from(engine, runtime.run_sync(), platform)


def run_non_parallel(
    hits_pairs: Sequence[Sequence[Pair]],
    platform: SimulatedPlatform,
) -> CampaignReport:
    """Publish pre-batched HITs strictly one at a time (Table 1 baseline).

    Each inner sequence is one HIT's pairs; the next HIT is published only
    after the previous one fully completes.
    """
    flat = [pair for chunk in hits_pairs for pair in chunk]
    engine = LabelingEngine(flat, policy=ConflictPolicy.FIRST_WINS, use_index=False)
    runtime = _runtime.CrowdRuntime(
        engine,
        SimulatedPlatformClient(platform),
        mode=_runtime.RuntimeMode.SERIAL,
        preplanned=hits_pairs,
    )
    return _report_from(engine, runtime.run_sync(), platform)


@dataclass(frozen=True)
class AvailabilityPoint:
    """One step of the Figure-15 series: after ``n_answered`` crowdsourced
    answers, ``n_available`` published pairs were still waiting."""

    n_answered: int
    n_available: int


@dataclass
class InstantRunResult:
    """Outcome of an answer-at-a-time labeling run.

    Attributes:
        result: the per-pair labeling result (rounds = publish events).
        trace: availability after every answer (Figure 15's series).
        publish_events: (answers so far, batch size) per publish event.
    """

    result: LabelingResult
    trace: List[AvailabilityPoint] = field(default_factory=list)
    publish_events: List[Tuple[int, int]] = field(default_factory=list)

    @classmethod
    def from_report(
        cls,
        result: LabelingResult,
        report: "_runtime.RuntimeReport",
        instant_decision: bool,
    ) -> "InstantRunResult":
        """Read a runtime run over an :class:`AnswerOrderClient` as a trace.

        The client's clock counts answers, so a publish stamped ``t`` came
        after answer ``t``.  With instant decision it counts in point ``t``;
        without, it waited for the pool to drain, so point ``t`` shows that
        zero and the publish counts from point ``t + 1``.  The bursts of one
        instant become one round of ``result``.
        """
        batches = iter(report.hit_batches)
        bursts: Dict[int, List[Pair]] = {}
        for t, n_hits in report.publish_events:
            burst = bursts.setdefault(int(t), [])
            for _ in range(n_hits):
                burst.extend(next(batches))
        result.rounds.extend(bursts.values())
        run = cls(
            result=result,
            publish_events=[(t, len(burst)) for t, burst in bursts.items()],
        )
        # added[k]: pairs that join the pool in point k
        lag = 0 if instant_decision else 1
        added = [0] * (report.n_completions + 2)
        for t, size in run.publish_events:
            added[t + lag] += size
        published = added[0]
        for k in range(1, report.n_completions + 1):
            published += added[k]
            run.trace.append(AvailabilityPoint(k, published - k))
        return run

    @property
    def n_crowdsourced(self) -> int:
        return self.result.n_crowdsourced

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


def run_answer_order(
    order: Sequence[CandidatePair | Pair],
    oracle: LabelOracle,
    instant_decision: bool = True,
    answer_policy: AnswerPolicy = AnswerPolicy.RANDOM,
    seed: int = 0,
    policy: ConflictPolicy = ConflictPolicy.STRICT,
) -> InstantRunResult:
    """Figure 15's labelers: one pair per HIT, answered one at a time.

    Parallel(ID) runs the runtime's ``instant`` mode and Parallel its
    ``hit-rounds`` mode, over an :class:`AnswerOrderClient` that picks
    each next answer by ``answer_policy``.  Published pairs are not
    resolved by the deduction sweep even if later answers imply their
    label: they are on the platform and will be answered.

    Args:
        instant_decision: publish new must-crowdsource pairs as soon as an
            answer makes them identifiable (Section 5.2 "Instant
            Decision"); without it, only once the pool has drained.
        answer_policy: how the simulated crowd picks the next pair.
        seed: RNG seed for the RANDOM policy.
        policy: ClusterGraph conflict policy.
    """
    engine = LabelingEngine(order, policy=policy)
    client = AnswerOrderClient(oracle, answer_policy, seed, engine.likelihoods)
    mode = (
        _runtime.RuntimeMode.HIT_INSTANT
        if instant_decision
        else _runtime.RuntimeMode.HIT_ROUNDS
    )
    report = _runtime.CrowdRuntime(engine, client, mode=mode).run_sync()
    return InstantRunResult.from_report(engine.result, report, instant_decision)
