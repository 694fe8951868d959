"""The incremental frontier: FrontierCursor must replicate the full
Algorithm-3 scan exactly, and the checkpoint/rollback machinery it rests on
must restore UnionFind and OptimisticGraph state bit-perfectly.

The cursor is the fix for the ROADMAP's "incremental frontier selection"
item: ``must_crowdsource_frontier`` rescans the whole order per publish
decision (O(P) per call); the cursor folds the decided prefix into a
persistent optimistic graph once and re-scans only the suffix, so
instant-decision re-publishes skip already-decided positions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.core.union_find import UnionFind
from repro.engine.frontier import (
    FrontierCursor,
    OptimisticGraph,
    must_crowdsource_frontier,
)

from ..strategies import worlds
from .reference import reference_parallel_selection


class TestUnionFindRollback:
    @given(
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=30),
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_rollback_restores_components(self, base_edges, speculative_edges):
        uf = UnionFind()
        for a, b in base_edges:
            uf.union(a, b)
        before = {e: uf.find(e) for e in uf}
        n_before = uf.n_components
        uf.checkpoint()
        for a, b in speculative_edges:
            uf.union(a, b)
        uf.rollback()
        assert uf.n_components == n_before
        assert set(uf) == set(before)
        # same partition: pairwise connectivity must match the snapshot
        for e, root in before.items():
            assert uf.find(e) == uf.find(root)
        for a in before:
            for b in before:
                assert (uf.find(a) == uf.find(b)) == (before[a] == before[b])

    def test_rollback_removes_speculative_elements(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.checkpoint()
        uf.union("c", "d")
        uf.add("e")
        uf.rollback()
        assert "c" not in uf and "e" not in uf
        assert len(uf) == 2

    def test_journal_does_not_nest(self):
        uf = UnionFind()
        uf.checkpoint()
        try:
            uf.checkpoint()
        except RuntimeError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("expected RuntimeError")
        uf.rollback()
        try:
            uf.rollback()
        except RuntimeError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("expected RuntimeError")


def _optimistic_ops(max_obj: int = 12, max_size: int = 30):
    return st.lists(
        st.tuples(
            st.booleans(),  # True: assume_matching, False: add_non_matching
            st.integers(0, max_obj),
            st.integers(0, max_obj),
        ),
        max_size=max_size,
    )


def _apply_ops(graph: OptimisticGraph, ops) -> None:
    for matching, a, b in ops:
        if a == b:
            continue
        if matching:
            graph.assume_matching(a, b)
        else:
            graph.add_non_matching(a, b)


def _snapshot(graph: OptimisticGraph, max_obj: int):
    return [
        graph.deduce(Pair(a, b)) for a in range(max_obj + 1) for b in range(a + 1, max_obj + 1)
    ]


class TestOptimisticGraphRollback:
    @given(_optimistic_ops(), _optimistic_ops())
    @settings(max_examples=150, deadline=None)
    def test_rollback_restores_deductions(self, base_ops, speculative_ops):
        """After rollback, every deduction answers exactly as before the
        checkpoint — and the graph is still usable for further real ops."""
        graph = OptimisticGraph()
        _apply_ops(graph, base_ops)
        before = _snapshot(graph, 12)
        graph.checkpoint()
        _apply_ops(graph, speculative_ops)
        graph.rollback()
        assert _snapshot(graph, 12) == before
        # the graph must stay equivalent to a freshly built one
        fresh = OptimisticGraph()
        _apply_ops(fresh, base_ops)
        assert _snapshot(fresh, 12) == before

    @given(_optimistic_ops(max_size=20), _optimistic_ops(max_size=15), _optimistic_ops(max_size=15))
    @settings(max_examples=80, deadline=None)
    def test_repeated_checkpoint_cycles(self, base_ops, spec_a, spec_b):
        """Checkpoint/rollback cycles interleaved with permanent ops match a
        replay without the speculative ops."""
        graph = OptimisticGraph()
        _apply_ops(graph, base_ops)
        graph.checkpoint()
        _apply_ops(graph, spec_a)
        graph.rollback()
        _apply_ops(graph, spec_b)  # permanent
        graph.checkpoint()
        _apply_ops(graph, spec_a)
        graph.rollback()
        replay = OptimisticGraph()
        _apply_ops(replay, base_ops)
        _apply_ops(replay, spec_b)
        assert _snapshot(graph, 12) == _snapshot(replay, 12)


class TestFrontierCursorParity:
    @given(worlds())
    @settings(max_examples=80, deadline=None)
    def test_matches_full_scan_at_every_state(self, world):
        """At every intermediate labeling state of a sequential run the
        cursor selects exactly what the full scan (and the frozen PR-1
        reference) selects."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        cursor = FrontierCursor(candidates)
        labeled: dict[Pair, Label] = {}
        for cand in candidates:
            expected = must_crowdsource_frontier(candidates, labeled)
            assert cursor.frontier(labeled) == expected
            assert expected == reference_parallel_selection(candidates, labeled)
            labeled.setdefault(cand.pair, truth.label(cand.pair))
        assert cursor.frontier(labeled) == []
        assert cursor.decided_prefix == len({c.pair for c in candidates})

    @given(worlds(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_with_published_exclusions(self, world, rnd):
        """Published pairs keep their assumed-matching role but leave the
        selection — under random publish churn the cursor and the full scan
        must stay in lockstep."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        pairs = [c.pair for c in candidates]
        cursor = FrontierCursor(candidates)
        labeled: dict[Pair, Label] = {}
        published: set[Pair] = set()
        for pair in pairs:
            if rnd.random() < 0.4:
                unlabeled = [p for p in pairs if p not in labeled and p not in published]
                if unlabeled:
                    published.add(rnd.choice(unlabeled))
            expected = must_crowdsource_frontier(candidates, labeled, exclude=published)
            assert cursor.frontier(labeled, published) == expected
            if pair not in labeled:
                labeled[pair] = truth.label(pair)
                published.discard(pair)

    def test_cursor_advances_only_over_decided_prefix(self):
        order = [Pair("a", "b"), Pair("c", "d"), Pair("e", "f")]
        cursor = FrontierCursor(order)
        assert cursor.frontier({}) == order
        assert cursor.decided_prefix == 0
        # labeling a later position does not advance past the undecided head
        cursor.frontier({Pair("c", "d"): Label.MATCHING})
        assert cursor.decided_prefix == 0
        # labeling the head advances over the whole decided run
        labeled = {Pair("a", "b"): Label.MATCHING, Pair("c", "d"): Label.MATCHING}
        assert cursor.frontier(labeled) == [Pair("e", "f")]
        assert cursor.decided_prefix == 2

    def test_idempotent_calls(self):
        order = [Pair(1, 2), Pair(2, 3), Pair(1, 3), Pair(4, 5)]
        cursor = FrontierCursor(order)
        labeled = {Pair(1, 2): Label.MATCHING}
        first = cursor.frontier(labeled)
        assert cursor.frontier(labeled) == first
        assert cursor.frontier(labeled) == must_crowdsource_frontier(order, labeled)

    def test_positions_for_subsequences(self):
        """ShardedFrontier's use: a cursor over an interleaved subsequence
        reports the global positions it was given."""
        order = [Pair(1, 2), Pair(2, 3)]
        cursor = FrontierCursor(order, positions=[3, 7])
        assert cursor.select({}) == [(3, Pair(1, 2)), (7, Pair(2, 3))]
        assert cursor.select({Pair(1, 2): Label.NON_MATCHING}) == [(7, Pair(2, 3))]
        try:
            FrontierCursor(order, positions=[1])
        except ValueError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("expected ValueError")
