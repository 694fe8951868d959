"""Per-component selection parity: :class:`ShardedFrontier` must be
observationally identical to the Algorithm-3 reference scan
(:func:`must_crowdsource_frontier`) at arbitrary labeled/published states,
on randomized worlds, alone and inside the engine.  Selecting per
component is purely a scaling feature.

Strategy-level parity against the frozen PR-1 references (every dispatch
strategy × every backend) lives in ``tests/engine/test_backend_matrix.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.engine import (
    AsyncDispatch,
    LabelingEngine,
    RuntimeMode,
    ShardedFrontier,
    must_crowdsource_frontier,
    vectorized_available,
)

from ..strategies import worlds
from .reference import reference_parallel_selection


class TestShardedFrontierParity:
    @given(worlds())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_at_every_prefix(self, world):
        """The cached per-component frontier equals the reference Algorithm-3
        scan at every intermediate labeling state."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        frontier = ShardedFrontier(candidates)
        labeled: dict[Pair, Label] = {}
        for cand in candidates:
            assert frontier.frontier(labeled) == reference_parallel_selection(
                candidates, labeled
            )
            if cand.pair not in labeled:
                labeled[cand.pair] = truth.label(cand.pair)
                frontier.mark_dirty(cand.pair)
        assert frontier.frontier(labeled) == []

    @given(worlds(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_with_random_publish_churn(self, world, rnd):
        """Interleaved publish/answer events: the dirty-component cache must
        track exclude-set changes too."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        pairs = [c.pair for c in candidates]
        frontier = ShardedFrontier(candidates)
        labeled: dict[Pair, Label] = {}
        published: set[Pair] = set()
        for pair in pairs:
            if rnd.random() < 0.4:
                unlabeled = [p for p in pairs if p not in labeled]
                if unlabeled:
                    chosen = rnd.choice(unlabeled)
                    published.add(chosen)
                    frontier.mark_dirty(chosen)
            expected = must_crowdsource_frontier(candidates, labeled, exclude=published)
            assert frontier.frontier(labeled, published) == expected
            if pair not in labeled:
                labeled[pair] = truth.label(pair)
                published.discard(pair)
                frontier.mark_dirty(pair)

    @given(worlds(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_first_call_reads_labels_and_exclusions(self, world, rnd):
        """A fresh frontier whose first call already sees labels or
        published pairs (a restored engine, an earlier publish) must not
        serve the construction-time forest selection."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        labeled: dict[Pair, Label] = {}
        published: set[Pair] = set()
        for cand in candidates:
            draw = rnd.random()
            if draw < 0.3:
                labeled[cand.pair] = truth.label(cand.pair)
            elif draw < 0.5:
                published.add(cand.pair)
        frontier = ShardedFrontier(candidates)
        assert frontier.frontier(labeled, published) == must_crowdsource_frontier(
            candidates, labeled, exclude=published
        )

    def test_first_call_with_a_label_or_exclusion_is_not_the_forest(self):
        """(a,b) (b,c) (a,c): the forest selection is the first two pairs;
        one label or one publish changes the answer."""
        order = [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")]
        assert ShardedFrontier(order).frontier({}) == order[:2]
        labeled = {order[0]: Label.NON_MATCHING}
        assert ShardedFrontier(order).frontier(labeled) == [order[1]]
        assert ShardedFrontier(order).frontier({}, {order[0]}) == [order[1]]

    def test_positions_are_global_order_positions(self):
        order = [Pair("a", "b"), Pair("c", "d"), Pair("b", "c")]
        frontier = ShardedFrontier(order, positions=[4, 7, 9])
        assert frontier.n_components == 1
        assert frontier.select({}) == [(4, order[0]), (7, order[1]), (9, order[2])]
        frontier.mark_dirty(order[2])
        assert frontier.select({order[2]: Label.MATCHING}, {order[0]}) == [
            (7, order[1])
        ]
        with pytest.raises(ValueError, match="parallel"):
            ShardedFrontier(order, positions=[1])

    def test_none_object_id_roots_a_component(self):
        """None is a valid object id and sorts first in a Pair, so it roots
        its component: marking that component dirty must still recompute
        it.  Two non-matching answers unlock the closing pair."""
        order = [Pair(None, 1), Pair(1, 2), Pair(2, 3), Pair(None, 3)]
        frontier = ShardedFrontier(order)
        labeled: dict[Pair, Label] = {}
        published: set[Pair] = set()
        assert frontier.frontier(labeled, published) == order[:3]
        for pair in order[:3]:
            published.add(pair)
            frontier.mark_dirty(pair)
        assert not frontier.current
        assert frontier.frontier(labeled, published) == []
        assert frontier.current
        for pair in order[:2]:
            published.discard(pair)
            labeled[pair] = Label.NON_MATCHING
            frontier.mark_dirty(pair)
        assert frontier.frontier(labeled, published) == [order[3]]
        assert frontier.frontier(labeled, published) == must_crowdsource_frontier(
            order, labeled, exclude=published
        )

    @pytest.mark.parametrize("backend", ["monolithic", "vectorized"])
    def test_engine_with_none_object_id(self, backend):
        if backend == "vectorized" and not vectorized_available():
            pytest.skip("numpy unavailable")
        order = [Pair(None, 1), Pair(1, 2), Pair(2, 3), Pair(None, 3)]
        engine = LabelingEngine(order, backend=backend)

        def reference():
            return must_crowdsource_frontier(
                engine.pairs, engine.labeled, exclude=engine.published
            )

        assert engine.frontier() == reference() == order[:3]
        engine.publish(order[:3])
        assert engine.frontier() == reference() == []
        for pair in order[:2]:
            engine.record_answer(pair, Label.NON_MATCHING, 0)
        engine.sweep(0)
        assert engine.frontier() == reference() == [order[3]]

    @given(worlds(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_restored_monolithic_engine_first_frontier(self, world, rnd):
        """A restored engine's first frontier call sees the snapshot's labels
        and published pairs."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        live = LabelingEngine(candidates, backend="monolithic")
        for round_index, cand in enumerate(candidates):
            if cand.pair in live.labeled:
                continue
            draw = rnd.random()
            if draw < 0.4:
                live.record_answer(cand.pair, truth.label(cand.pair), round_index)
                live.sweep(round_index)
            elif draw < 0.6:
                live.publish([cand.pair])
        restored = LabelingEngine(candidates, backend="monolithic")
        restored.restore_state(live.snapshot_state())
        assert restored.frontier() == must_crowdsource_frontier(
            restored.pairs, restored.labeled, exclude=restored.published
        )

    @given(worlds(max_objects=10, max_pairs=16))
    @settings(max_examples=40, deadline=None)
    def test_engine_frontier_matches_reference_every_round(self, world):
        """The monolithic engine's per-component frontier equals the
        reference scan at every step of a round-parallel run."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        mono = LabelingEngine(candidates, backend="monolithic")
        round_index = 0
        while not mono.is_done:
            batch = mono.frontier()
            assert batch == must_crowdsource_frontier(
                mono.pairs, mono.labeled, exclude=mono.published
            )
            mono.publish(batch)
            for pair in batch:
                mono.record_answer(pair, truth.label(pair), round_index)
            mono.sweep(round_index)
            round_index += 1
        assert all(mono.labeled[c.pair] is truth.label(c.pair) for c in candidates)


class TestBackendSelection:
    def test_auto_threshold_flips_backend(self):
        order = [Pair(i, i + 1) for i in range(0, 40, 2)]
        assert LabelingEngine(order).backend == "monolithic"
        # At the threshold, auto prefers the vectorized backend when numpy
        # is importable and stays monolithic else.
        at_scale = "vectorized" if vectorized_available() else "monolithic"
        assert LabelingEngine(order, shard_threshold=10).backend == at_scale
        assert (
            LabelingEngine(order, backend="monolithic", shard_threshold=0).backend
            == "monolithic"
        )

    def test_invalid_backend_rejected(self):
        # The retired in-process "sharded" backend gets no alias on the
        # Python API; only spec documents decode it (as "monolithic").
        for backend in ("bogus", "sharded"):
            try:
                LabelingEngine([Pair("a", "b")], backend=backend)
            except ValueError:
                pass
            else:  # pragma: no cover - failure path
                raise AssertionError(f"expected ValueError for {backend!r}")

    def test_random_large_world_smoke(self):
        """A seeded mid-size world driven end-to-end on the monolithic
        backend: deterministic and fully labeled."""
        rng = random.Random(7)
        entity_of = {i: rng.randrange(60) for i in range(300)}
        truth = GroundTruthOracle(entity_of)
        seen = set()
        order = []
        while len(order) < 900:
            a, b = rng.sample(range(300), 2)
            pair = Pair(a, b)
            if pair not in seen:
                seen.add(pair)
                order.append(pair)
        result = AsyncDispatch(RuntimeMode.ROUNDS, backend="monolithic").run(order, truth)
        assert result.n_pairs == len(order)
        for pair in order:
            assert result.label_of(pair) is truth.label(pair)
