"""Tests for the incremental deduction-sweep index."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_graph import ClusterGraph
from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.core.sweep import PendingPairIndex
from repro.crowd.campaign import InstantRunResult
from repro.crowd.clients import AnswerOrderClient, AnswerPolicy
from repro.engine import CrowdRuntime, LabelingEngine, RuntimeMode

from ..strategies import worlds


class TestIndexBasics:
    def test_union_marks_touching_pairs_dirty(self):
        graph = ClusterGraph()
        graph.add_matching("a", "b")  # before attach: a, b known
        index = PendingPairIndex(graph, [Pair("a", "c"), Pair("x", "y")])
        graph.add_matching("b", "c")  # merges c into {a, b}
        resolved = dict(index.sweep())
        assert resolved == {Pair("a", "c"): Label.MATCHING}
        assert Pair("x", "y") in index

    def test_edge_marks_spanning_pairs_dirty(self):
        graph = ClusterGraph()
        graph.add_matching("a", "b")
        graph.add_matching("c", "d")
        index = PendingPairIndex(graph, [Pair("a", "d"), Pair("a", "x")])
        graph.add_non_matching("b", "c")
        resolved = dict(index.sweep())
        assert resolved == {Pair("a", "d"): Label.NON_MATCHING}

    def test_initial_pairs_swept_once(self):
        """Pairs deducible at attach time resolve on the first sweep."""
        graph = ClusterGraph()
        graph.add_matching("a", "b")
        graph.add_matching("b", "c")
        index = PendingPairIndex(graph, [Pair("a", "c")])
        assert dict(index.sweep()) == {Pair("a", "c"): Label.MATCHING}

    def test_unseen_endpoints_migrate_on_note(self):
        graph = ClusterGraph()
        index = PendingPairIndex(graph, [Pair("a", "c")])
        graph.add_matching("a", "b")
        index.note_objects_seen("a", "b")
        graph.add_matching("b", "c")
        index.note_objects_seen("b", "c")
        assert dict(index.sweep()) == {Pair("a", "c"): Label.MATCHING}

    def test_removed_pairs_never_resolve(self):
        graph = ClusterGraph()
        index = PendingPairIndex(graph, [Pair("a", "c")])
        index.remove(Pair("a", "c"))
        graph.add_matching("a", "b")
        graph.add_matching("b", "c")
        index.note_objects_seen("a", "b", "c")
        assert index.sweep() == []
        assert len(index) == 0

    def test_add_pending_after_attach(self):
        graph = ClusterGraph()
        graph.add_matching("a", "b")
        index = PendingPairIndex(graph, [])
        index.add_pending(Pair("a", "b"))
        assert dict(index.sweep()) == {Pair("a", "b"): Label.MATCHING}

    def test_single_listener_enforced(self):
        graph = ClusterGraph()
        PendingPairIndex(graph, [])
        with pytest.raises(ValueError):
            PendingPairIndex(graph, [])

    def test_invariants_after_activity(self):
        graph = ClusterGraph()
        index = PendingPairIndex(graph, [Pair("a", "c"), Pair("b", "d")])
        graph.add_matching("a", "b")
        index.note_objects_seen("a", "b")
        graph.add_non_matching("b", "c")
        index.note_objects_seen("b", "c")
        index.sweep()
        index.check_invariants()


class TestEquivalenceWithNaiveSweep:
    """The indexed sweep must be an exact drop-in for the full scan."""

    @given(worlds(max_objects=10, max_pairs=20), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_instant_labeler_identical_results(self, world, seed):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        runs = {}
        for use_index in (False, True):
            engine = LabelingEngine(candidates, use_index=use_index)
            client = AnswerOrderClient(truth, AnswerPolicy.RANDOM, seed)
            report = CrowdRuntime(
                engine, client, mode=RuntimeMode.HIT_INSTANT
            ).run_sync()
            runs[use_index] = InstantRunResult.from_report(
                engine.result, report, instant_decision=True
            )
        naive, indexed = runs[False], runs[True]
        assert indexed.result.labels() == naive.result.labels()
        assert indexed.n_crowdsourced == naive.n_crowdsourced
        assert indexed.trace == naive.trace
        assert [set(b) for b in indexed.result.rounds] == [
            set(b) for b in naive.result.rounds
        ]

    @given(worlds(max_objects=10, max_pairs=20))
    @settings(max_examples=40, deadline=None)
    def test_incremental_resolutions_match_full_rescan(self, world):
        """Drive a graph with true labels; after every insert the index's
        resolutions must equal a from-scratch deducibility scan."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        pairs = list({c.pair for c in candidates})
        graph = ClusterGraph()
        index = PendingPairIndex(graph, pairs)
        resolved_by_index = {}
        inserted = []
        for pair in pairs:
            index.remove(pair)  # "publish" it: the crowd answers it
            graph.add(pair, truth.label(pair))
            index.note_objects_seen(pair.left, pair.right)
            inserted.append(pair)
            for resolved_pair, label in index.sweep():
                resolved_by_index[resolved_pair] = label
            # ground truth: every non-inserted pair deducible from `graph`
            expected = {
                p: graph.deduce(p)
                for p in pairs
                if p not in inserted and graph.deduce(p) is not None
            }
            covered = {p: l for p, l in resolved_by_index.items() if p not in inserted}
            assert covered == expected
