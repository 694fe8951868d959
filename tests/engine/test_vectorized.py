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
  the Boruvka/cursor frontier must equal both
  :func:`must_crowdsource_frontier` (the reference scan) and a persistent
  :class:`FrontierCursor` (the checkpoint/rollback incremental path);
* **no-numpy fallback** — with ``sys.modules["numpy"]`` stubbed out the
  backend reports unavailable, ``backend="vectorized"`` degrades to
  monolithic, and ``backend="auto"`` skips the vectorized tier.

The fallback tests run everywhere; everything touching the kernels is
skipped on interpreters without numpy (the ``no-extras`` CI leg).
"""

from __future__ import annotations

import itertools
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
from repro.core.pairs import Label, Pair
from repro.engine import (
    DEFAULT_SHARD_THRESHOLD,
    FrontierCursor,
    LabelingEngine,
    VectorizedEngineCore,
    must_crowdsource_frontier,
    vectorized_available,
)
from repro.engine.vectorized import array_namespace

from ..strategies import worlds

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
