"""Engine snapshot/restore: fingerprint-exact, backend-portable.

The journal-compaction pipeline (PR 8) rests on one property: an engine
restored from :meth:`LabelingEngine.snapshot_state` is indistinguishable —
byte-identical ``state_fingerprint()``, identical outcome records and
rounds, identical behaviour under further answers — from the engine that
produced the snapshot.  This suite quantifies that property over random
worlds, random interrupted histories (answers, sweeps, partial publishes,
withholds, optional FIRST_WINS noise), and the full backend matrix,
including cross-backend restores (a snapshot taken on any backend loads
into any other).
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_graph import ConflictPolicy
from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.core.result import LabelingResult
from repro.engine.engine import LabelingEngine

from ..strategies import worlds
from .test_backend_matrix import BACKENDS, backend_options


def fingerprint(engine) -> str:
    return json.dumps(engine.state_fingerprint(), sort_keys=True)


def flip(label: Label) -> Label:
    return Label.NON_MATCHING if label is Label.MATCHING else Label.MATCHING


def random_history(engine, entity_of, rng, n_events: int, noisy: bool) -> int:
    """Drive the engine through an arbitrary interrupted campaign prefix.

    Mixes crowd answers (optionally noisy under FIRST_WINS), deduction
    sweeps, partial publishes (buffered, still sweepable), and withholds
    (handed to the platform) — every state a runtime snapshot can catch.
    Returns the next round index, so a caller can continue the campaign.
    """
    oracle = GroundTruthOracle(entity_of)
    round_index = 0
    for _ in range(n_events):
        if engine.is_done:
            break
        roll = rng.random()
        if roll < 0.5:
            unlabeled = [p for p in engine.pairs if p not in engine.labeled]
            pair = rng.choice(unlabeled)
            label = oracle.label(pair)
            if noisy and rng.random() < 0.3:
                label = flip(label)
            engine.record_answer(pair, label, round_index)
            round_index += 1
        elif roll < 0.7:
            engine.sweep(round_index)
        elif roll < 0.85:
            batch = engine.frontier()[:2]
            if batch:
                engine.publish(batch, withhold=False)
        else:
            published_unlabeled = [
                p for p in engine.published if p not in engine.labeled
            ]
            if published_unlabeled:
                engine.withhold([rng.choice(published_unlabeled)])
    return round_index


def finish(engine, entity_of, round_index: int) -> None:
    """Answer every remaining pair in order (the deterministic ending)."""
    oracle = GroundTruthOracle(entity_of)
    for pair in engine.pairs:
        if pair not in engine.labeled:
            engine.record_answer(pair, oracle.label(pair), round_index)
            round_index += 1
            engine.sweep(round_index)


class TestSnapshotRestore:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(worlds(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_restore_is_fingerprint_identical_across_backends(
        self, backend, world, seed, noisy
    ):
        candidates, entity_of = world
        rng = random.Random(seed)
        policy = ConflictPolicy.FIRST_WINS if noisy else ConflictPolicy.STRICT
        engine = LabelingEngine(
            candidates, policy=policy, **backend_options(backend)
        )
        try:
            random_history(engine, entity_of, rng, n_events=12, noisy=noisy)
            # The JSON round trip is part of the contract: snapshots live
            # inside journal records.
            snapshot = json.loads(json.dumps(engine.snapshot_state()))
            reference = fingerprint(engine)
            targets = {backend, "monolithic", "vectorized"}
            for target in sorted(targets):
                restored = LabelingEngine(
                    candidates, policy=policy, **backend_options(target)
                )
                try:
                    restored.restore_state(snapshot)
                    assert fingerprint(restored) == reference
                    assert restored.result.rounds == engine.result.rounds
                    assert restored.labeled == engine.labeled
                    original = sorted(
                        engine.result.outcomes.values(), key=lambda o: o.position
                    )
                    loaded = sorted(
                        restored.result.outcomes.values(), key=lambda o: o.position
                    )
                    assert [
                        (o.pair, o.label, o.provenance, o.round_index)
                        for o in loaded
                    ] == [
                        (o.pair, o.label, o.provenance, o.round_index)
                        for o in original
                    ]
                finally:
                    restored.close()
        finally:
            engine.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(worlds(), st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_restored_engine_continues_identically(self, backend, world, seed):
        candidates, entity_of = world
        rng = random.Random(seed)
        engine = LabelingEngine(candidates, **backend_options(backend))
        try:
            round_index = random_history(
                engine, entity_of, rng, n_events=10, noisy=False
            )
            snapshot = json.loads(json.dumps(engine.snapshot_state()))
            restored = LabelingEngine(candidates, **backend_options(backend))
            try:
                restored.restore_state(snapshot)
                assert restored.frontier() == engine.frontier()
                finish(engine, entity_of, round_index)
                finish(restored, entity_of, round_index)
                assert fingerprint(restored) == fingerprint(engine)
            finally:
                restored.close()
        finally:
            engine.close()


def scanned_counts(result):
    """(crowdsourced, deduced), counted by scanning every outcome."""
    outcomes = list(result.outcomes.values())
    return (
        sum(1 for o in outcomes if o.crowdsourced),
        sum(1 for o in outcomes if o.deduced),
    )


def counts(result):
    return result.n_crowdsourced, result.n_deduced


class TestHeadlineCounts:
    """``n_crowdsourced``/``n_deduced`` are kept as counters: they equal a
    full scan of the outcomes after live recording, after a snapshot
    restore on every backend, and after a deferred restore's outcomes are
    rebuilt — and reading them does not force that rebuild."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(worlds(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_counts_equal_a_full_scan(self, backend, world, seed, noisy):
        candidates, entity_of = world
        policy = ConflictPolicy.FIRST_WINS if noisy else ConflictPolicy.STRICT
        engine = LabelingEngine(candidates, policy=policy, **backend_options(backend))
        try:
            random_history(
                engine, entity_of, random.Random(seed), n_events=12, noisy=noisy
            )
            live = counts(engine.result)
            assert live == scanned_counts(engine.result)
            snapshot = json.loads(json.dumps(engine.snapshot_state()))
        finally:
            engine.close()
        restored = LabelingEngine(candidates, policy=policy, **backend_options(backend))
        try:
            restored.restore_state(snapshot)
            assert counts(restored.result) == live
            # Only the vectorized backend's native restore defers the
            # outcome records (reading the counts leaves them deferred).
            deferred = restored.result.__dict__.get("_restore_thunk") is not None
            assert deferred == (restored.backend == "vectorized")
            assert scanned_counts(restored.result) == live  # rebuilds them
            assert restored.result.__dict__.get("_restore_thunk") is None
            assert counts(restored.result) == live
        finally:
            restored.close()

    def test_result_built_with_outcomes_derives_its_counts(self):
        engine = LabelingEngine([Pair("a", "b"), Pair("b", "c"), Pair("a", "c")])
        engine.record_answers(
            [(Pair("a", "b"), Label.MATCHING), (Pair("b", "c"), Label.MATCHING)], 0
        )
        engine.sweep(0)
        rebuilt = LabelingResult(
            outcomes=dict(engine.result.outcomes), order=list(engine.pairs)
        )
        assert counts(rebuilt) == counts(engine.result) == (2, 1)
        assert rebuilt == engine.result


class TestSnapshotValidation:
    WORLD = [
        Pair("a", "b"), Pair("b", "c"), Pair("a", "c"), Pair("c", "d"),
    ]

    def test_restore_requires_fresh_engine(self):
        engine = LabelingEngine(self.WORLD)
        engine.record_answer(engine.pairs[0], Label.MATCHING, 0)
        snapshot = engine.snapshot_state()
        with pytest.raises(ValueError, match="freshly built"):
            engine.restore_state(snapshot)

    def test_restore_rejects_other_order(self):
        engine = LabelingEngine(self.WORLD)
        snapshot = engine.snapshot_state()
        other = LabelingEngine(
            [Pair("x", "y"), Pair("y", "z"), Pair("x", "z"), Pair("z", "w")]
        )
        with pytest.raises(ValueError, match="different labeling order"):
            other.restore_state(snapshot)

    def test_restore_rejects_unknown_version(self):
        engine = LabelingEngine(self.WORLD)
        snapshot = engine.snapshot_state()
        snapshot["version"] = 99
        with pytest.raises(ValueError, match="version"):
            LabelingEngine(self.WORLD).restore_state(snapshot)

    def test_restore_rejects_policy_mismatch(self):
        engine = LabelingEngine(self.WORLD, policy=ConflictPolicy.FIRST_WINS)
        snapshot = engine.snapshot_state()
        strict = LabelingEngine(self.WORLD, policy=ConflictPolicy.STRICT)
        with pytest.raises(ValueError, match="policy"):
            strict.restore_state(snapshot)

    def test_native_restore_keeps_published_pairs_out_of_the_frontier(self):
        """After a native restore the vectorized core rebuilds the label map
        and published set its scalar frontier path reads; a component with
        a non-matching label takes that path, so its published pair must
        stay unselected."""
        order = [Pair("a", "b"), Pair("b", "c"), Pair("c", "d")]
        engine = LabelingEngine(order, backend="vectorized")
        engine.record_answer(Pair("a", "b"), Label.NON_MATCHING, 0)
        engine.sweep(0)
        assert engine.frontier() == [Pair("b", "c"), Pair("c", "d")]
        engine.publish([Pair("b", "c")])
        snapshot = json.loads(json.dumps(engine.snapshot_state()))
        restored = LabelingEngine(order, backend="vectorized")
        restored.restore_state(snapshot)
        assert restored.frontier() == engine.frontier() == [Pair("c", "d")]

    def test_vectorized_native_payload_falls_back_when_foreign(self):
        """A tampered native payload degrades to event replay, not corruption."""
        engine = LabelingEngine(self.WORLD, backend="vectorized")
        engine.record_answer(Pair("a", "b"), Label.MATCHING, 0)
        engine.record_answer(Pair("b", "c"), Label.MATCHING, 1)
        engine.record_answer(Pair("c", "d"), Label.NON_MATCHING, 2)
        engine.sweep(3)
        snapshot = json.loads(json.dumps(engine.snapshot_state()))
        snapshot["native"] = {"kind": "not-a-real-payload"}
        restored = LabelingEngine(self.WORLD, backend="vectorized")
        restored.restore_state(snapshot)
        assert fingerprint(restored) == fingerprint(engine)
