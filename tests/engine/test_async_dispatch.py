"""Async runtime parity: AsyncDispatch must replicate the frozen references.

The async-first refactor routes every labeler through
:class:`repro.engine.async_dispatch.CrowdRuntime`; these tests pin that
runtime to the frozen pre-refactor loops in ``tests/engine/reference.py``:

* over the deterministic simulated client (FIFO, zero latency) the parity
  is *exact* — labels, rounds, oracle-call order, per-pair outcome records;
* under seeded shuffled completion orders (many workers, lognormal
  latency) and under injected expiry + re-issue, the observable result —
  labels, per-round published sets, crowdsourced counts — is still
  identical, on the monolithic and the vectorized engine backends;
* a full campaign through :class:`PollingPlatformClient` against the
  in-memory fake backend completes with out-of-order completions and an
  expired-and-reissued HIT;
* budget and timeout limits are enforced as runtime policies.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.crowd.aggregation import WeightedAggregation
from repro.crowd.budget import BudgetExceededError, BudgetPolicy
from repro.crowd.clients import (
    InMemoryCrowdBackend,
    ManualClock,
    PollingPlatformClient,
    SimulatedPlatformClient,
)
from repro.crowd.latency import LognormalLatency, TimeoutPolicy, ZeroLatency
from repro.crowd.platform import HITCompletion, SimulatedPlatform
from repro.crowd.review import EscalateOnLowConfidence
from repro.crowd.worker import PerfectWorker, Worker, make_worker_pool
from repro.engine import AsyncDispatch, CrowdRuntime, LabelingEngine, RuntimeMode

from ..aio import run_async
from ..conftest import FIGURE3_ENTITIES, FIGURE3_PAIRS
from ..strategies import worlds
from .reference import (
    RecordingOracle,
    expiring_client_factory,
    reference_parallel,
    reference_sequential,
    shuffled_client_factory,
)

BACKENDS = ("monolithic", "vectorized")


class TestSequentialParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(worlds())
    @settings(max_examples=40, deadline=None)
    def test_exact_parity_over_fifo_client(self, backend, world):
        """Deterministic client: outcome records match the reference
        byte-for-byte, and the oracle is consulted in the same order."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        ref_oracle = RecordingOracle(truth)
        new_oracle = RecordingOracle(truth)
        reference = reference_sequential(candidates, ref_oracle)
        result = AsyncDispatch(RuntimeMode.SEQUENTIAL, backend=backend).run(
            candidates, new_oracle
        )
        assert result.outcomes == reference.outcomes
        assert result.rounds == reference.rounds
        assert new_oracle.calls == ref_oracle.calls

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(worlds())
    @settings(max_examples=20, deadline=None)
    def test_parity_under_expiry_and_reissue(self, backend, world):
        """Abandoned HITs are re-issued until answered; the final result
        is indistinguishable from the reference run."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        reference = reference_sequential(candidates, truth)
        dispatch = AsyncDispatch(
            RuntimeMode.SEQUENTIAL,
            backend=backend,
            client_factory=expiring_client_factory(seed=3),
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds
        assert result.n_crowdsourced == reference.n_crowdsourced
        assert result.n_deduced == reference.n_deduced


class TestRoundsParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(worlds())
    @settings(max_examples=40, deadline=None)
    def test_exact_parity_over_fifo_client(self, backend, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        ref_oracle = RecordingOracle(truth)
        new_oracle = RecordingOracle(truth)
        reference = reference_parallel(candidates, ref_oracle)
        result = AsyncDispatch(RuntimeMode.ROUNDS, backend=backend).run(
            candidates, new_oracle
        )
        assert result.outcomes == reference.outcomes
        assert result.rounds == reference.rounds
        assert new_oracle.calls == ref_oracle.calls

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @given(worlds())
    @settings(max_examples=15, deadline=None)
    def test_parity_under_shuffled_completion_orders(self, backend, seed, world):
        """Answers applied out of order must not change what each round
        publishes, what every pair is labeled, or what anything costs —
        rounds are decided by the *set* of answers, not their arrival."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        reference = reference_parallel(candidates, truth)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            backend=backend,
            client_factory=shuffled_client_factory(seed),
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds
        assert result.n_crowdsourced == reference.n_crowdsourced
        assert result.n_deduced == reference.n_deduced

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(worlds())
    @settings(max_examples=20, deadline=None)
    def test_parity_under_expiry_and_reissue(self, backend, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        reference = reference_parallel(candidates, truth)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            backend=backend,
            client_factory=expiring_client_factory(seed=5),
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds
        assert result.n_crowdsourced == reference.n_crowdsourced


class TestExpiryIsExercised:
    def test_reissues_actually_happen_and_are_reported(self):
        """On a fixed workload the expiring client must produce expiries,
        and the runtime must re-issue and still label everything."""
        entity_of = {f"o{i}": i // 3 for i in range(18)}
        objects = sorted(entity_of)
        order = [
            Pair(objects[i], objects[j])
            for i in range(len(objects))
            for j in range(i + 1, len(objects))
        ]
        truth = GroundTruthOracle(entity_of)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            client_factory=expiring_client_factory(seed=11, probability=0.5),
        )
        result = dispatch.run(order, truth)
        assert result.labels() == reference_parallel(order, truth).labels()
        assert dispatch.last_report is not None
        assert dispatch.last_report.n_expired_hits > 0
        assert dispatch.last_report.n_reissued_hits > 0


class TestPollingCampaign:
    def test_out_of_order_and_expired_hits_complete(self):
        """The acceptance scenario: a HIT-granularity campaign over
        :class:`PollingPlatformClient` against the in-memory fake, with
        scheduled (shuffled) completion latencies and one HIT the fake
        worker abandons — the campaign expires it, re-issues the pairs,
        and still resolves every candidate correctly."""
        entity_of = {f"o{i}": i // 2 for i in range(10)}
        objects = sorted(entity_of)
        order = [
            Pair(objects[i], objects[j])
            for i in range(len(objects))
            for j in range(i + 1, len(objects))
        ]
        truth = GroundTruthOracle(entity_of)
        clock = ManualClock()
        backend = InMemoryCrowdBackend(
            oracle=truth,
            clock=clock.now,
            latency=lambda rng: rng.uniform(1.0, 10.0),
            drop_hit_ids={1},
            seed=7,
        )
        client = PollingPlatformClient(
            backend,
            batch_size=4,
            n_assignments=1,
            poll_interval=0.5,
            clock=clock.now,
            sleep=clock.sleep,
        )
        completion_ids = []
        original_next_event = client.next_event

        async def recording_next_event():
            event = await original_next_event()
            if isinstance(event, HITCompletion):
                completion_ids.append(event.hit.hit_id)
            return event

        client.next_event = recording_next_event  # type: ignore[method-assign]

        engine = LabelingEngine(order)
        runtime = CrowdRuntime(
            engine,
            client,
            mode=RuntimeMode.HIT_INSTANT,
            timeout=TimeoutPolicy(hit_timeout=30.0, max_reissues=3),
        )
        report = run_async(runtime.run())

        assert engine.is_done
        for pair in order:
            assert engine.result.label_of(pair) is truth.label(pair)
        assert report.n_expired_hits >= 1
        assert report.n_reissued_hits >= 1
        # Scheduled latencies shuffle delivery: completions must not have
        # arrived in publication order.
        assert completion_ids != sorted(completion_ids)
        # The dropped HIT's replacement was a fresh id created on the fake.
        assert backend.n_expired >= 1
        assert backend.n_created == len(report.hit_batches)


class TestRuntimePolicies:
    def figure3_order(self):
        return [FIGURE3_PAIRS[f"p{i}"] for i in range(1, 9)]

    def test_budget_policy_blocks_overrun(self):
        truth = GroundTruthOracle(FIGURE3_ENTITIES)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            budget=BudgetPolicy(max_assignments=1),
        )
        # Figure 3 needs two rounds ({p1,p2,p3,p5,p6} then {p7}): the
        # second submission must be refused.
        with pytest.raises(BudgetExceededError):
            dispatch.run(self.figure3_order(), truth)

    def test_budget_policy_admits_a_sufficient_cap(self):
        truth = GroundTruthOracle(FIGURE3_ENTITIES)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            budget=BudgetPolicy(max_assignments=10),
        )
        result = dispatch.run(self.figure3_order(), truth)
        assert result.n_crowdsourced == 6
        assert dispatch.last_report is not None
        assert dispatch.last_report.assignments_committed <= 10

    def test_timeout_policy_caps_reissue_chains(self):
        """A HIT lineage that keeps expiring fails fast instead of
        spinning forever."""
        truth = GroundTruthOracle(FIGURE3_ENTITIES)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            client_factory=expiring_client_factory(seed=0, probability=1.0),
            timeout=TimeoutPolicy(hit_timeout=1.0, max_reissues=2),
        )
        with pytest.raises(RuntimeError, match="max_reissues"):
            dispatch.run(self.figure3_order(), truth)

    def test_async_dispatch_rejects_hit_modes(self):
        with pytest.raises(ValueError):
            AsyncDispatch(RuntimeMode.HIT_INSTANT)

    def test_runtime_rejects_mismatched_preplanned(self):
        engine = LabelingEngine([Pair("a", "b")])
        client = SimulatedPlatformClient.for_oracle(
            GroundTruthOracle({"a": 0, "b": 0})
        )
        with pytest.raises(ValueError):
            CrowdRuntime(engine, client, mode=RuntimeMode.ROUNDS, preplanned=[[]])
        with pytest.raises(ValueError):
            CrowdRuntime(engine, client, mode=RuntimeMode.SERIAL)

    def test_runtime_is_single_shot(self):
        truth = GroundTruthOracle({"a": 0, "b": 0})
        engine = LabelingEngine([Pair("a", "b")])
        runtime = CrowdRuntime(
            engine,
            SimulatedPlatformClient.for_oracle(truth),
            mode=RuntimeMode.ROUNDS,
        )
        run_async(runtime.run())
        assert engine.is_done
        with pytest.raises(RuntimeError, match="single-shot"):
            run_async(runtime.run())


#: Three disjoint (no shared objects, so no transitivity) matching pairs —
#: the smallest workload where every vote-quality counter is predictable.
DISJOINT_ENTITIES = {"a0": 0, "b0": 0, "a1": 1, "b1": 1, "a2": 2, "b2": 2}
DISJOINT_PAIRS = [Pair(f"a{i}", f"b{i}") for i in range(3)]


class _Contrarian:
    """Always answers the negation of the truth: paired with a perfect
    worker at two assignments per HIT, every aggregation is an exact tie."""

    def answer(self, pair, true_label, likelihood):
        return true_label.negate()


class _SecondThoughts:
    """Wrong the first time it sees a pair, right ever after — a crowd
    that settles once a question is re-asked."""

    def __init__(self) -> None:
        self._seen = set()

    def answer(self, pair, true_label, likelihood):
        if pair not in self._seen:
            self._seen.add(pair)
            return true_label.negate()
        return true_label


def split_crowd_factory(second_model):
    """One perfect worker against ``second_model``, two assignments per
    HIT: the first wave of votes on every pair is a 1-1 tie."""

    def factory(oracle):
        platform = SimulatedPlatform(
            workers=[
                Worker(worker_id=0, model=PerfectWorker(), speed=1.0),
                Worker(worker_id=1, model=second_model, speed=1.0),
            ],
            truth=oracle,
            latency=ZeroLatency(),
            batch_size=1,
            n_assignments=2,
            seed=0,
        )
        return SimulatedPlatformClient(platform)

    return factory


class TestEscalation:
    """Regression: a tied aggregation used to become a silent NON_MATCHING.
    With :class:`EscalateOnLowConfidence` the runtime re-issues the pair for
    fresh assignments instead, bounded by ``max_escalations``."""

    def _dispatch(self, second_model, **kwargs):
        return AsyncDispatch(
            RuntimeMode.ROUNDS,
            client_factory=split_crowd_factory(second_model),
            aggregation=WeightedAggregation(update_from_agreement=False),
            review=EscalateOnLowConfidence(),
            **kwargs,
        )

    def test_escalation_rescues_labels_a_tie_break_would_get_wrong(self):
        """First wave ties on every pair; the re-ask is unanimous — every
        label ends correct where the plain tie-break would have been wrong
        (all pairs match, the tie-break says NON_MATCHING)."""
        truth = GroundTruthOracle(DISJOINT_ENTITIES)
        dispatch = self._dispatch(_SecondThoughts())
        result = dispatch.run(DISJOINT_PAIRS, truth)
        report = dispatch.last_report
        assert report.n_escalations == len(DISJOINT_PAIRS)
        assert report.n_tie_broken == len(DISJOINT_PAIRS)  # the first wave
        for pair in DISJOINT_PAIRS:
            assert result.label_of(pair) is truth.label(pair)
            # The last observed vote on each pair was unanimous.
            assert report.vote_margins[pair] > 0.0

    def test_persistent_ties_settle_at_the_escalation_bound(self):
        """A crowd that stays split forever is re-asked ``max_escalations``
        times, then the tie-break label is accepted — no infinite loop."""
        truth = GroundTruthOracle(DISJOINT_ENTITIES)
        dispatch = self._dispatch(_Contrarian(), max_escalations=1)
        result = dispatch.run(DISJOINT_PAIRS, truth)
        report = dispatch.last_report
        assert report.n_escalations == len(DISJOINT_PAIRS)
        # Both waves (original + escalated re-ask) were coin flips.
        assert report.n_tie_broken == 2 * len(DISJOINT_PAIRS)
        assert report.n_completions == 2 * len(DISJOINT_PAIRS)
        assert len(report.hit_batches) == 2 * len(DISJOINT_PAIRS)
        for pair in DISJOINT_PAIRS:
            assert report.vote_margins[pair] == 0.0
            assert result.label_of(pair) is Label.NON_MATCHING  # tie-break

    def test_zero_max_escalations_disables_reissue(self):
        truth = GroundTruthOracle(DISJOINT_ENTITIES)
        dispatch = self._dispatch(_Contrarian(), max_escalations=0)
        dispatch.run(DISJOINT_PAIRS, truth)
        report = dispatch.last_report
        assert report.n_escalations == 0
        assert report.n_completions == len(DISJOINT_PAIRS)
        assert report.n_tie_broken == len(DISJOINT_PAIRS)

    def test_negative_max_escalations_rejected(self):
        with pytest.raises(ValueError, match="max_escalations"):
            CrowdRuntime(
                LabelingEngine(DISJOINT_PAIRS),
                SimulatedPlatformClient.for_oracle(
                    GroundTruthOracle(DISJOINT_ENTITIES)
                ),
                mode=RuntimeMode.ROUNDS,
                max_escalations=-1,
            )


class TestVoteQualityReport:
    def test_low_margin_aggregations_are_counted(self):
        """Two perfect workers against one contrarian: every pair resolves
        correctly but 2-1, below the LOW_CONFIDENCE share — counted as
        low-margin, never as tie-broken."""

        def factory(oracle):
            platform = SimulatedPlatform(
                workers=[
                    Worker(worker_id=0, model=PerfectWorker(), speed=1.0),
                    Worker(worker_id=1, model=PerfectWorker(), speed=1.0),
                    Worker(worker_id=2, model=_Contrarian(), speed=1.0),
                ],
                truth=oracle,
                latency=ZeroLatency(),
                batch_size=1,
                n_assignments=3,
                seed=0,
            )
            return SimulatedPlatformClient(platform)

        truth = GroundTruthOracle(DISJOINT_ENTITIES)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            client_factory=factory,
            aggregation=WeightedAggregation(update_from_agreement=False),
        )
        result = dispatch.run(DISJOINT_PAIRS, truth)
        report = dispatch.last_report
        assert report.n_low_margin == len(DISJOINT_PAIRS)
        assert report.n_tie_broken == 0
        assert report.n_escalations == 0
        for pair in DISJOINT_PAIRS:
            assert result.label_of(pair) is truth.label(pair)
            assert report.vote_margins[pair] > 0.0


class TestRuntimeSnapshotV2:
    """The quality-aware dispatch state — escalation bookkeeping, vote
    diagnostics, the worker-accuracy tracker — rides the v2 runtime
    snapshot; v1 snapshots (pre-quality) still restore."""

    def _runtime(self, aggregation=None, mode=RuntimeMode.ROUNDS, ordering="static"):
        return CrowdRuntime(
            LabelingEngine(DISJOINT_PAIRS),
            SimulatedPlatformClient.for_oracle(
                GroundTruthOracle(DISJOINT_ENTITIES)
            ),
            mode=mode,
            ordering=ordering,
            aggregation=aggregation,
        )

    def test_escalation_and_aggregation_state_round_trips(self):
        source = self._runtime(aggregation=WeightedAggregation())
        pairs = source.engine.pairs
        source._escalation_counts = {pairs[0]: 1}
        source._pending_escalations = [pairs[1]]
        source._aggregation.tracker.record_gold(4, correct=True)
        source._aggregation.tracker.record_agreement(9, agreed=False)
        source.report.n_tie_broken = 2
        source.report.n_low_margin = 1
        source.report.n_escalations = 1
        source.report.vote_margins = {pairs[0]: 0.0, pairs[2]: 1.5}
        # The JSON round trip is part of the contract: snapshots live
        # inside journal records.
        snapshot = json.loads(json.dumps(source.snapshot_state()))
        assert snapshot["version"] == 2
        assert snapshot["ordering"] == "static"
        restored = self._runtime(aggregation=WeightedAggregation())
        restored.restore_state(snapshot)
        assert restored._escalation_counts == {pairs[0]: 1}
        assert restored._pending_escalations == [pairs[1]]
        tracker = restored._aggregation.tracker
        assert tracker.known_workers() == [4, 9]
        for worker_id in (4, 9, 99):
            assert tracker.accuracy(worker_id) == source._aggregation.tracker.accuracy(worker_id)
        assert restored.report.n_tie_broken == 2
        assert restored.report.n_low_margin == 1
        assert restored.report.n_escalations == 1
        assert restored.report.vote_margins == {pairs[0]: 0.0, pairs[2]: 1.5}

    def test_v1_snapshot_restores_with_pre_quality_defaults(self):
        source = self._runtime()
        snapshot = json.loads(json.dumps(source.snapshot_state()))
        snapshot["version"] = 1
        for key in ("ordering", "escalation_counts", "pending_escalations", "aggregation"):
            del snapshot[key]
        for key in ("n_tie_broken", "n_low_margin", "n_escalations", "vote_margins"):
            del snapshot["report"][key]
        restored = self._runtime(aggregation=WeightedAggregation())
        restored.restore_state(snapshot)
        assert restored._escalation_counts == {}
        assert restored._pending_escalations == []
        assert restored._aggregation.tracker.known_workers() == []
        assert restored.report.n_escalations == 0
        assert restored.report.vote_margins == {}

    def test_ordering_mismatch_is_rejected(self):
        source = self._runtime(
            mode=RuntimeMode.SEQUENTIAL, ordering="expected-value"
        )
        snapshot = source.snapshot_state()
        target = self._runtime(mode=RuntimeMode.SEQUENTIAL)
        with pytest.raises(ValueError, match="ordering"):
            target.restore_state(snapshot)

    def test_unknown_snapshot_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            self._runtime().restore_state({"version": 3, "mode": "rounds"})

    def test_live_tracker_state_is_captured_at_safe_points(self):
        """The service journals ``snapshot_state()`` at safe points: the
        agreement feedback the tracker accrued mid-run must ride along, so
        a crash-recovered campaign keeps its learned worker weights."""
        truth = GroundTruthOracle(FIGURE3_ENTITIES)
        order = [FIGURE3_PAIRS[f"p{i}"] for i in range(1, 9)]
        engine = LabelingEngine(order)
        platform = SimulatedPlatform(
            workers=[
                Worker(worker_id=i, model=PerfectWorker(), speed=1.0)
                for i in range(3)
            ],
            truth=truth,
            latency=ZeroLatency(),
            batch_size=1,
            n_assignments=3,
            seed=3,
        )
        runtime = CrowdRuntime(
            engine,
            SimulatedPlatformClient(platform),
            mode=RuntimeMode.ROUNDS,
            aggregation=WeightedAggregation(),
        )
        tracker = runtime._aggregation.tracker
        captures = []

        def capture():
            # Pair each snapshot with the accuracies observed at the same
            # safe point, so the round trip below checks mid-run state.
            accuracies = {
                w: tracker.accuracy(w) for w in tracker.known_workers()
            }
            captures.append((json.dumps(runtime.snapshot_state()), accuracies))

        runtime.on_safe_point = capture
        run_async(runtime.run())
        snapshot, accuracies = captures[-1]
        assert accuracies, "agreement feedback never reached the tracker"
        restored = WeightedAggregation()
        restored.restore_state(json.loads(snapshot)["aggregation"])
        assert restored.tracker.known_workers() == sorted(accuracies)
        for worker_id, accuracy in accuracies.items():
            assert restored.tracker.accuracy(worker_id) == accuracy


class TestAwaitableEntryPoint:
    @given(worlds())
    @settings(max_examples=20, deadline=None)
    def test_run_async_inside_a_loop_matches_run(self, world):
        """run_async awaited from caller-owned loops gives the same result
        as the synchronous wrapper."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        sync_result = AsyncDispatch(RuntimeMode.ROUNDS).run(candidates, truth)
        async_result = run_async(
            AsyncDispatch(RuntimeMode.ROUNDS).run_async(candidates, truth)
        )
        assert async_result.outcomes == sync_result.outcomes
