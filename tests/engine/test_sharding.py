"""Sharded backend parity: ShardedClusterGraph and ShardedFrontier must be
observationally identical to the monolithic ClusterGraph and the
Algorithm-3 reference scan, on randomized worlds.

Sharding is purely a scaling feature — these tests pin it to:

* the monolithic :class:`ClusterGraph` under randomized (optionally noisy)
  answer sequences: identical deductions, cluster partitions, counters,
  conflicts, and listener event streams — including adversarial all-positive
  sequences that force every shard to merge into one;
* the shared :func:`must_crowdsource_frontier` for the per-component
  :class:`ShardedFrontier` at arbitrary labeled/published states.

Strategy-level parity against the frozen PR-1 references (every dispatch
strategy × every backend) lives in ``tests/engine/test_backend_matrix.py``.
"""

from __future__ import annotations

import random

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
from repro.core.sweep import PendingPairIndex
from repro.engine import (
    AsyncDispatch,
    LabelingEngine,
    RuntimeMode,
    ShardedClusterGraph,
    ShardedFrontier,
    must_crowdsource_frontier,
    vectorized_available,
)

from ..strategies import worlds
from .reference import reference_parallel_selection


class RecordingListener:
    """Collects (event, a, b) tuples from a deduction graph."""

    def __init__(self) -> None:
        self.events: list[tuple[str, object, object]] = []

    def on_union(self, survivor, loser) -> None:
        self.events.append(("union", survivor, loser))

    def on_edge(self, root_a, root_b) -> None:
        self.events.append(("edge", root_a, root_b))


def _assert_graphs_equal(mono: ClusterGraph, sharded: ShardedClusterGraph, probes) -> None:
    assert mono.n_objects == sharded.n_objects
    assert mono.n_clusters == sharded.n_clusters
    assert mono.n_matching_edges == sharded.n_matching_edges
    assert mono.n_non_matching_edges == sharded.n_non_matching_edges
    assert mono.conflicts == sharded.conflicts
    assert {frozenset(c) for c in mono.clusters()} == {
        frozenset(c) for c in sharded.clusters()
    }
    for pair in probes:
        assert mono.deduce(pair) == sharded.deduce(pair)
        assert mono.same_cluster(pair.left, pair.right) == sharded.same_cluster(
            pair.left, pair.right
        )
    sharded.check_invariants()


class TestGraphParity:
    @given(worlds(max_objects=14, max_pairs=40), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_consistent_answer_sequences(self, world, rnd):
        """Identical behaviour on consistent (oracle-truth) answer streams,
        applied in random order."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        pairs = [c.pair for c in candidates]
        rnd.shuffle(pairs)
        mono = ClusterGraph()
        sharded = ShardedClusterGraph()
        for pair in pairs:
            label = truth.label(pair)
            assert mono.add(pair, label) == sharded.add(pair, label)
        objects = sorted(entity_of)
        probes = [Pair(a, b) for a in objects for b in objects if a < b]
        _assert_graphs_equal(mono, sharded, probes)

    @given(worlds(max_objects=12, max_pairs=30), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_noisy_first_wins_sequences(self, world, rnd):
        """Under FIRST_WINS with randomly flipped labels, both graphs drop
        the same conflicting edges and record the same conflicts."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        mono = ClusterGraph(policy=ConflictPolicy.FIRST_WINS)
        sharded = ShardedClusterGraph(policy=ConflictPolicy.FIRST_WINS)
        for cand in candidates:
            label = truth.label(cand.pair)
            if rnd.random() < 0.3:
                label = label.negate()
            assert mono.add(cand.pair, label) == sharded.add(cand.pair, label)
        objects = sorted(entity_of)
        probes = [Pair(a, b) for a in objects for b in objects if a < b]
        _assert_graphs_equal(mono, sharded, probes)

    @given(worlds(max_objects=12, max_pairs=30))
    @settings(max_examples=60, deadline=None)
    def test_listener_event_streams_identical(self, world):
        """Merge/edge events funnel through the sharded graph's listener in
        exactly the monolithic order — PendingPairIndex cannot tell the
        backends apart."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        mono, sharded = ClusterGraph(), ShardedClusterGraph()
        mono.listener = mono_events = RecordingListener()
        sharded.listener = sharded_events = RecordingListener()
        for cand in candidates:
            label = truth.label(cand.pair)
            mono.add(cand.pair, label)
            sharded.add(cand.pair, label)
        assert mono_events.events == sharded_events.events

    def test_all_positive_chain_merges_every_shard(self):
        """Adversarial all-positive sequence: N disjoint shards bridged one
        by one until a single shard holds one global cluster."""
        n = 60
        sharded = ShardedClusterGraph()
        mono = ClusterGraph()
        for i in range(0, n, 2):
            sharded.add_matching(i, i + 1)
            mono.add_matching(i, i + 1)
        assert sharded.n_shards == n // 2
        for i in range(1, n - 1, 2):
            sharded.add_matching(i, i + 1)
            mono.add_matching(i, i + 1)
        assert sharded.n_shards == 1
        assert sharded.n_clusters == 1
        probes = [Pair(0, i) for i in range(1, n)]
        _assert_graphs_equal(mono, sharded, probes)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_all_positive_random_spanning_order(self, rnd):
        """All-positive answers in random spanning order still converge to
        one shard with monolithic-identical structure."""
        n = 30
        edges = [(i, rnd.randrange(i)) for i in range(1, n)]  # random spanning tree
        rnd.shuffle(edges)
        sharded, mono = ShardedClusterGraph(), ClusterGraph()
        for a, b in edges:
            sharded.add_matching(a, b)
            mono.add_matching(a, b)
        assert sharded.n_shards == 1
        _assert_graphs_equal(mono, sharded, [Pair(0, i) for i in range(1, n)])

    def test_disjoint_components_stay_separate_shards(self):
        sharded = ShardedClusterGraph()
        sharded.add_matching("a1", "a2")
        sharded.add_non_matching("b1", "b2")
        sharded.add_matching("c1", "c2")
        assert sharded.n_shards == 3
        assert sharded.shard_sizes() == [2, 2, 2]
        assert sharded.deduce(Pair("a1", "b1")) is None
        assert sharded.cluster_members("a1") == {"a1", "a2"}
        # a non-matching answer bridging two shards merges them: the edge can
        # sit on a deduction path.
        sharded.add_non_matching("a1", "b1")
        assert sharded.n_shards == 2
        # negative transitivity now crosses the old shard boundary...
        assert sharded.deduce(Pair("a2", "b1")) is Label.NON_MATCHING
        # ...but unrelated pairs in the merged shard stay undeducible.
        assert sharded.deduce(Pair("a1", "b2")) is None
        assert sharded.deduce(Pair("a1", "a2")) is Label.MATCHING
        sharded.check_invariants()

    def test_strict_policy_raises_like_monolithic(self):
        sharded = ShardedClusterGraph()
        sharded.add_matching("a", "b")
        sharded.add_matching("b", "c")
        try:
            sharded.add_non_matching("a", "c")
        except InconsistentLabelError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("expected InconsistentLabelError")

    def test_copy_is_independent(self):
        sharded = ShardedClusterGraph()
        sharded.add_matching(1, 2)
        clone = sharded.copy()
        clone.add_matching(2, 3)
        assert clone.n_objects == 3
        assert sharded.n_objects == 2
        assert sharded.deduce(Pair(1, 3)) is None
        assert clone.deduce(Pair(1, 3)) is Label.MATCHING
        clone.check_invariants()
        sharded.check_invariants()


class TestShardedSweep:
    @given(worlds(max_objects=10, max_pairs=20))
    @settings(max_examples=40, deadline=None)
    def test_sweep_via_pending_pair_index(self, world):
        """The incremental sweep over a sharded graph resolves exactly what
        a monolithic full rescan would."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        pairs = [c.pair for c in candidates]
        sharded = ShardedClusterGraph()
        index = PendingPairIndex(sharded, pairs)
        mono = ClusterGraph()
        pending_mono = set(pairs)
        for pair in pairs:
            if pair not in pending_mono:
                continue
            label = truth.label(pair)
            pending_mono.discard(pair)
            index.remove(pair)
            mono.add(pair, label)
            sharded.add(pair, label)
            index.note_objects_seen(pair.left, pair.right)
            resolved = {p for p, _ in index.sweep()}
            resolved_mono = {p for p in pending_mono if mono.deduce(p) is not None}
            assert resolved == resolved_mono
            pending_mono -= resolved_mono
        assert len(index) == len(pending_mono)


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

    @pytest.mark.parametrize("backend", ["monolithic", "sharded", "vectorized"])
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
    def test_engine_frontier_sharded_vs_monolithic(self, world):
        """The engine-level frontier is backend-independent at every step of
        a round-parallel run."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        mono = LabelingEngine(candidates, backend="monolithic")
        sharded = LabelingEngine(candidates, backend="sharded")
        assert sharded.backend == "sharded"
        round_index = 0
        while not mono.is_done:
            batch_m = mono.frontier()
            batch_s = sharded.frontier()
            assert batch_m == batch_s
            for engine in (mono, sharded):
                engine.publish(batch_m)
                for pair in batch_m:
                    engine.record_answer(pair, truth.label(pair), round_index)
                engine.sweep(round_index)
            round_index += 1
        assert sharded.is_done
        assert mono.labeled == sharded.labeled


class TestBackendSelection:
    def test_auto_threshold_flips_backend(self):
        order = [Pair(i, i + 1) for i in range(0, 40, 2)]
        assert LabelingEngine(order).backend == "monolithic"
        # Above the threshold, auto prefers the vectorized backend when
        # numpy is importable and degrades to pure-Python sharding else.
        at_scale = "vectorized" if vectorized_available() else "sharded"
        assert LabelingEngine(order, shard_threshold=10).backend == at_scale
        assert LabelingEngine(order, backend="sharded").backend == "sharded"
        assert (
            LabelingEngine(order, backend="monolithic", shard_threshold=0).backend
            == "monolithic"
        )

    def test_sharded_backend_uses_sharded_graph(self):
        order = [Pair("a", "b"), Pair("c", "d")]
        engine = LabelingEngine(order, backend="sharded")
        assert isinstance(engine.graph, ShardedClusterGraph)
        engine.record_answer(Pair("a", "b"), Label.MATCHING, 0)
        assert engine.graph.n_shards == 1

    def test_invalid_backend_rejected(self):
        try:
            LabelingEngine([Pair("a", "b")], backend="bogus")
        except ValueError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("expected ValueError")

    def test_random_large_world_smoke(self):
        """A seeded mid-size world driven end-to-end on the sharded backend:
        deterministic, fully labeled, shards bounded by static components."""
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
        result = AsyncDispatch(RuntimeMode.ROUNDS, backend="sharded").run(order, truth)
        assert result.n_pairs == len(order)
        for pair in order:
            assert result.label_of(pair) is truth.label(pair)
