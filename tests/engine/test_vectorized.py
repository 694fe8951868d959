"""Property suite for the vectorized backend's array-native kernels.

The backend-matrix file pins ``backend="vectorized"`` end-to-end against the
frozen references; this file attacks the kernels themselves:

* **bulk-deduce parity** — after every batch of a random answer sequence,
  :meth:`VectorizedEngineCore.sweep` must resolve exactly the pairs a
  per-pair :meth:`ClusterGraph.deduce` scan resolves, and the scalar
  ``deduce`` over the array state must agree with the monolithic graph on
  every order pair;
* **shuffled completion orders** — the same answer multiset applied in two
  different orders must converge to the same deduce state and frontier
  (the async runtime applies out-of-order completions);
* **checkpoint/rollback parity** — across growing labeled/excluded states,
  the Boruvka/forest-cursor frontier must equal both
  :func:`must_crowdsource_frontier` (the reference scan) and a persistent
  :class:`FrontierCursor` (the checkpoint/rollback incremental path);
* **runs with pairs left in flight** — instant-decision ticks that answer
  part of the published pairs as one run and sweep once, so decided
  prefixes stop at in-flight pairs and later advance past forest pairs
  labeled NON_MATCHING; the frontier must equal the reference after every
  tick, with perfect and with flipped answers, across a snapshot/restore;
* **bulk result recording** — a sweep's outcomes are recorded in one call
  that numbers and checks them as one ``record`` per pair would;
* **no-numpy fallback** — with ``sys.modules["numpy"]`` stubbed out the
  backend reports unavailable, ``backend="vectorized"`` degrades to
  monolithic, and ``backend="auto"`` skips the vectorized tier.

The fallback tests run everywhere; everything touching the kernels is
skipped on interpreters without numpy (the ``no-extras`` CI leg).
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_graph import (
    ClusterGraph,
    ConflictPolicy,
    InconsistentLabelError,
)
from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair, Provenance
from repro.core.result import LabelingResult
from repro.engine import (
    DEFAULT_SHARD_THRESHOLD,
    FrontierCursor,
    LabelingEngine,
    VectorizedEngineCore,
    must_crowdsource_frontier,
    vectorized_available,
)
from repro.engine.vectorized import array_namespace

from ..strategies import flipped_answers, worlds
from .test_backend_matrix import backend_options

needs_numpy = pytest.mark.skipif(
    not vectorized_available(), reason="vectorized backend requires numpy"
)


def truth_answers(candidates, entity_of):
    """(pair, ground-truth label) per order pair, in order."""
    oracle = GroundTruthOracle(entity_of)
    engine = LabelingEngine(candidates, backend="monolithic")
    return [(pair, oracle.label(pair)) for pair in engine.pairs]


@needs_numpy
class TestBulkDeduceParity:
    """sweep() == a per-pair ClusterGraph.deduce scan, batch by batch."""

    @given(worlds(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_random_answer_sequences(self, world, rng):
        candidates, entity_of = world
        answers = truth_answers(candidates, entity_of)
        rng.shuffle(answers)
        core = VectorizedEngineCore(candidates)
        reference = ClusterGraph()
        order = core.pairs
        decided = set()
        while answers:
            batch, answers = answers[: rng.randint(1, 4)], answers[4:]
            batch = [(p, l) for p, l in batch if p not in decided]
            for pair, label in batch:
                reference.add(pair, label)
                decided.add(pair)
                core.record_answer(pair, label)
            # The reference resolution: every still-pending pair the
            # monolithic graph can now deduce, in order position.
            expected = [
                (pair, reference.deduce(pair))
                for pair in order
                if pair not in decided and reference.deducible(pair)
            ]
            resolved = core.sweep()
            assert resolved == expected
            for pair, label in resolved:
                reference.add(pair, label)
                decided.add(pair)
            # Scalar deduce over the array state agrees everywhere.
            for pair in order:
                assert core.deduce(pair) == reference.deduce(pair)
            core.check_invariants()

    @given(worlds())
    @settings(max_examples=25, deadline=None)
    def test_single_bulk_application_equals_full_reference(self, world):
        candidates, entity_of = world
        answers = truth_answers(candidates, entity_of)
        crowdsourced = answers[::2]
        core = VectorizedEngineCore(candidates)
        reference = ClusterGraph()
        for pair, label in crowdsourced:
            reference.add(pair, label)
            core.record_answer(pair, label)
        resolved = core.sweep()
        decided = {pair for pair, _ in crowdsourced}
        expected = [
            (pair, reference.deduce(pair))
            for pair in core.pairs
            if pair not in decided and reference.deducible(pair)
        ]
        assert resolved == expected


@needs_numpy
class TestShuffledCompletionOrders:
    """Out-of-order completions converge to the same state and frontier."""

    @given(worlds(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_final_state_is_order_independent(self, world, seed):
        candidates, entity_of = world
        answers = truth_answers(candidates, entity_of)
        shuffled = list(answers)
        random.Random(seed).shuffle(shuffled)

        cores = []
        for sequence in (answers, shuffled):
            core = VectorizedEngineCore(candidates)
            labeled = {}
            for pair, label in sequence:
                if pair in labeled:
                    continue
                labeled[pair] = label
                core.record_answer(pair, label)
                for dpair, dlabel in core.sweep():
                    labeled[dpair] = dlabel
            core.check_invariants()
            cores.append((core, labeled))

        (core_a, labeled_a), (core_b, labeled_b) = cores
        assert labeled_a == labeled_b
        for pair in core_a.pairs:
            assert core_a.deduce(pair) == core_b.deduce(pair)
        assert core_a.frontier() == core_b.frontier()


@needs_numpy
class TestFrontierParity:
    """The Boruvka/cursor frontier vs the reference Algorithm-3 scan and
    the persistent checkpoint/rollback FrontierCursor."""

    @given(worlds(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_incremental_states_match_reference_and_cursor(self, world, rng):
        candidates, entity_of = world
        answers = truth_answers(candidates, entity_of)
        rng.shuffle(answers)
        core = VectorizedEngineCore(candidates)
        order = core.pairs
        cursor = FrontierCursor(order)
        labeled = {}
        published = set()
        while True:
            frontier = core.frontier()
            reference = must_crowdsource_frontier(order, labeled, published)
            assert frontier == reference
            assert frontier == [pair for _, pair in cursor.select(labeled, published)]
            remaining = [(p, l) for p, l in answers if p not in labeled]
            if not remaining:
                break
            # Publish a random slice of the selection, answer one pair
            # (possibly out of publication order), fold in deductions.
            if frontier and rng.random() < 0.7:
                batch = frontier[: rng.randint(1, len(frontier))]
                core.publish(batch, withhold=False)
                published.update(batch)
            pair, label = remaining[rng.randrange(len(remaining))]
            labeled[pair] = label
            published.discard(pair)
            core.record_answer(pair, label)
            for dpair, dlabel in core.sweep():
                labeled[dpair] = dlabel
                published.discard(dpair)
        assert core.frontier() == []

    @given(worlds())
    @settings(max_examples=25, deadline=None)
    def test_small_and_large_component_paths_agree(self, world):
        """Force every component down the batched Boruvka path and compare
        against the small-component scalar greedy path."""
        candidates, _ = world
        scalar = VectorizedEngineCore(candidates)
        batched = VectorizedEngineCore(candidates)
        # Dropping the threshold reroutes every dirty component through the
        # concatenated _forest_mask call.
        from repro.engine import vectorized as mod

        original = mod.SMALL_COMPONENT_THRESHOLD
        mod.SMALL_COMPONENT_THRESHOLD = 0
        try:
            batched_frontier = batched.frontier()
        finally:
            mod.SMALL_COMPONENT_THRESHOLD = original
        assert batched_frontier == scalar.frontier()


def _assert_reference_frontier(engine):
    assert engine.frontier() == must_crowdsource_frontier(
        engine.pairs, engine.labeled, engine.published
    )
    engine.core.check_invariants()


@needs_numpy
class TestRunsWithPairsInFlight:
    """Instant decision at run granularity: each tick publishes the
    frontier, answers a random part of the published pairs as one run
    (``record_answers``, then one ``sweep``) and leaves the rest in flight
    across ticks.  The ``vectorized-batched`` column runs with
    ``SMALL_COMPONENT_THRESHOLD`` 0 (tests/engine/conftest.py)."""

    @pytest.mark.parametrize("backend", ["vectorized", "vectorized-batched"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["perfect", "flipped"])
    @given(
        world=worlds(max_objects=14, max_pairs=40),
        rng=st.randoms(use_true_random=False),
        flip_seed=st.integers(0, 2**16),
        restore_at=st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_frontier_equals_reference_after_every_tick(
        self, backend, noisy, world, rng, flip_seed, restore_at
    ):
        candidates, entity_of = world
        if noisy:
            answer = flipped_answers(world, 0.2, flip_seed)
            policy = ConflictPolicy.FIRST_WINS
        else:
            answer = GroundTruthOracle(entity_of).label
            policy = ConflictPolicy.STRICT
        options = dict(backend_options(backend), policy=policy)
        engine = LabelingEngine(candidates, **options)
        in_flight = []
        tick = 0
        while not engine.is_done:
            _assert_reference_frontier(engine)
            batch = engine.frontier()
            engine.publish(batch)
            in_flight.extend(batch)
            assert in_flight, "nothing selected and nothing in flight"
            if tick == restore_at:
                snapshot = json.loads(json.dumps(engine.snapshot_state()))
                restored = LabelingEngine(candidates, **options)
                restored.restore_state(snapshot)
                assert restored.state_fingerprint() == engine.state_fingerprint()
                engine = restored
            rng.shuffle(in_flight)
            cut = rng.randint(1, len(in_flight))
            run, in_flight = in_flight[:cut], in_flight[cut:]
            engine.record_answers([(pair, answer(pair)) for pair in run], tick)
            engine.sweep(tick)
            tick += 1
        assert in_flight == []
        _assert_reference_frontier(engine)

    def _published_run(self, order, truth):
        engine = LabelingEngine(order, backend="vectorized")
        first = engine.frontier()
        engine.publish(first)
        return engine, first, GroundTruthOracle(truth).label

    def test_matching_answer_unlocks_a_pair(self):
        """The order (b,c) (b,d) (a,b) (a,c) (c,d), with a = b and c, d
        apart: after (a,b) comes back MATCHING the sweep deduces (a,c)
        NON_MATCHING, and (c,d) becomes must-crowdsource."""
        order = [
            Pair("b", "c"), Pair("b", "d"), Pair("a", "b"), Pair("a", "c"), Pair("c", "d")
        ]
        engine, first, label = self._published_run(
            order, {"a": 0, "b": 0, "c": 1, "d": 2}
        )
        assert first == order[:3]
        engine.record_answers([(pair, label(pair)) for pair in order[:2]], 0)
        assert engine.sweep(0) == []
        _assert_reference_frontier(engine)
        assert engine.frontier() == []
        engine.record_answers([(order[2], label(order[2]))], 1)
        assert engine.sweep(1) == [(Pair("a", "c"), Label.NON_MATCHING)]
        _assert_reference_frontier(engine)
        assert engine.frontier() == [Pair("c", "d")]

    def test_forest_pair_labeled_non_matching_is_replaced_later(self):
        """(a,b) and (a,c) span the component; (b,c) is outside the forest
        until both come back NON_MATCHING, which makes it the forest pair
        that joins b and c, and must-crowdsource."""
        order = [Pair("a", "b"), Pair("a", "c"), Pair("b", "c"), Pair("c", "d")]
        engine, first, label = self._published_run(
            order, {"a": 0, "b": 1, "c": 2, "d": 2}
        )
        assert first == [Pair("a", "b"), Pair("a", "c"), Pair("c", "d")]
        # (a,b) answered, (a,c) still in flight: the prefix stops at it.
        engine.record_answers([(order[0], label(order[0]))], 0)
        engine.sweep(0)
        _assert_reference_frontier(engine)
        assert engine.frontier() == []
        # The prefix advances past (a,c), now a NON_MATCHING forest pair.
        engine.record_answers([(order[1], label(order[1]))], 1)
        assert engine.sweep(1) == []
        _assert_reference_frontier(engine)
        assert engine.frontier() == [Pair("b", "c")]


class TestBulkResultRecording:
    """``LabelingResult.record_many`` numbers and checks outcomes as
    successive ``record`` calls would."""

    def test_positions_continue_record_numbering(self):
        result = LabelingResult()
        result.record(Pair("a", "b"), Label.MATCHING, Provenance.CROWDSOURCED, 0)
        labels = {
            Pair("b", "c"): Label.NON_MATCHING,
            Pair("a", "c"): Label.NON_MATCHING,
        }
        result.record_many(labels, Provenance.DEDUCED, 1)
        result.record(Pair("c", "d"), Label.MATCHING, Provenance.CROWDSOURCED, 2)
        assert [o.position for o in result] == [0, 1, 2, 3]
        assert [o.pair for o in result][1:3] == list(labels)
        outcome = result.outcomes[Pair("b", "c")]
        assert (outcome.label, outcome.provenance, outcome.round_index) == (
            Label.NON_MATCHING,
            Provenance.DEDUCED,
            1,
        )
        assert (result.n_crowdsourced, result.n_deduced) == (2, 2)

    def test_a_duplicate_raises_before_anything_is_written(self):
        result = LabelingResult()
        result.record(Pair("a", "b"), Label.MATCHING, Provenance.CROWDSOURCED, 0)
        labels = {
            Pair("a", "c"): Label.NON_MATCHING,
            Pair("a", "b"): Label.NON_MATCHING,
        }
        with pytest.raises(ValueError, match=r"Pair\('a', 'b'\) was already labeled"):
            result.record_many(labels, Provenance.DEDUCED, 1)
        assert list(result.outcomes) == [Pair("a", "b")]
        assert (result.n_crowdsourced, result.n_deduced) == (1, 0)


class TestNoNumpyFallback:
    """sys.modules stubbing: the engine must degrade, not crash."""

    def _hide_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setitem(sys.modules, "array_api_compat", None)

    def test_reports_unavailable(self, monkeypatch):
        self._hide_numpy(monkeypatch)
        assert array_namespace() is None
        assert not vectorized_available()

    def test_module_without_array_surface_counts_as_unavailable(
        self, monkeypatch
    ):
        import types

        monkeypatch.setitem(sys.modules, "numpy", types.ModuleType("numpy"))
        assert array_namespace() is None
        assert not vectorized_available()

    def test_explicit_vectorized_backend_falls_back_to_monolithic(
        self, monkeypatch
    ):
        self._hide_numpy(monkeypatch)
        order = [Pair("a", "b"), Pair("b", "c")]
        engine = LabelingEngine(order, backend="vectorized")
        assert engine.backend == "monolithic"
        assert not isinstance(engine.core, VectorizedEngineCore)

    def test_auto_skips_the_vectorized_tier(self, monkeypatch):
        self._hide_numpy(monkeypatch)
        order = [Pair(f"l{i}", f"r{i}") for i in range(12)]
        engine = LabelingEngine(order, shard_threshold=10)
        assert engine.backend == "monolithic"

    def test_core_construction_raises_import_error(self, monkeypatch):
        self._hide_numpy(monkeypatch)
        with pytest.raises(ImportError):
            VectorizedEngineCore([Pair("a", "b")])

    @needs_numpy
    def test_fallback_engine_still_labels_correctly(self, monkeypatch):
        """The degraded engine is a fully functional monolithic engine."""
        self._hide_numpy(monkeypatch)
        truth = GroundTruthOracle({"a": 1, "b": 1, "c": 2})
        order = [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")]
        engine = LabelingEngine(order, backend="vectorized")
        engine.record_answers(
            [(pair, truth.label(pair)) for pair in order[:2]], round_index=0
        )
        engine.sweep(0)
        assert engine.labeled[Pair("a", "c")] is Label.NON_MATCHING


@needs_numpy
class TestVectorizedGraphContract:
    """Direct contract checks on the core's graph."""

    def test_auto_selects_vectorized_above_threshold(self):
        order = [Pair(f"l{i}", f"r{i}") for i in range(12)]
        assert LabelingEngine(order, shard_threshold=10).backend == "vectorized"
        assert (
            LabelingEngine(order, shard_threshold=len(order) + 1).backend
            == "monolithic"
        )
        assert DEFAULT_SHARD_THRESHOLD > 12

    def test_foreign_objects_are_rejected(self):
        core = VectorizedEngineCore([Pair("a", "b")])
        with pytest.raises(ValueError):
            core.record_answer(Pair("a", "z"), Label.MATCHING)
        assert core.deduce(Pair("a", "z")) is None

    def test_cross_component_pairs_are_rejected(self):
        core = VectorizedEngineCore([Pair("a", "b"), Pair("c", "d")])
        with pytest.raises(ValueError):
            core.record_answer(Pair("a", "c"), Label.MATCHING)

    def test_strict_policy_raises_on_conflict(self):
        core = VectorizedEngineCore(
            [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")]
        )
        core.record_answer(Pair("a", "b"), Label.MATCHING)
        core.record_answer(Pair("b", "c"), Label.MATCHING)
        with pytest.raises(InconsistentLabelError):
            core.record_answer(Pair("a", "c"), Label.NON_MATCHING)

    def test_first_wins_policy_records_the_conflict(self):
        core = VectorizedEngineCore(
            [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")],
            policy=ConflictPolicy.FIRST_WINS,
        )
        core.record_answer(Pair("a", "b"), Label.MATCHING)
        core.record_answer(Pair("b", "c"), Label.MATCHING)
        assert not core.record_answer(Pair("a", "c"), Label.NON_MATCHING)
        assert len(core.conflicts) == 1
        assert core.deduce(Pair("a", "c")) is Label.MATCHING

    @given(worlds())
    @settings(max_examples=25, deadline=None)
    def test_inspection_matches_monolithic(self, world):
        """The core deduces exactly what the monolithic graph deduces, for
        every pair of objects — order pairs or not."""
        candidates, entity_of = world
        answers = truth_answers(candidates, entity_of)
        core = VectorizedEngineCore(candidates)
        reference = ClusterGraph()
        for pair, label in answers:
            core.record_answer(pair, label)
            reference.add(pair, label)
        objects = sorted({obj for pair in core.pairs for obj in pair}, key=repr)
        for left, right in itertools.combinations(objects, 2):
            pair = Pair(left, right)
            assert core.deduce(pair) == reference.deduce(pair)
        core.check_invariants()
