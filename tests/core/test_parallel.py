"""Tests for the parallel labeler (Section 5.1, Algorithms 2-3: the
must-crowdsource frontier and the ROUNDS mode of AsyncDispatch), including
paper Example 5 and the cost-equivalence property against the sequential
labeler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.oracle import CountingOracle, GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.engine import AsyncDispatch, RuntimeMode, must_crowdsource_frontier

from ..strategies import worlds

SEQUENTIAL = AsyncDispatch(RuntimeMode.SEQUENTIAL)
ROUNDS = AsyncDispatch(RuntimeMode.ROUNDS)


class TestParallelCrowdsourcedPairs:
    def test_example5_first_round(self, figure3_pairs):
        """Example 5: with nothing labeled, {p1, p2, p3, p5, p6} must be
        crowdsourced in parallel."""
        order = [figure3_pairs[f"p{i}"] for i in range(1, 9)]
        batch = must_crowdsource_frontier(order, labeled={})
        expected = [figure3_pairs[name] for name in ("p1", "p2", "p3", "p5", "p6")]
        assert batch == expected

    def test_example5_second_round(self, figure3_pairs, figure3_truth):
        """After round one's answers and deductions, only p7 remains."""
        order = [figure3_pairs[f"p{i}"] for i in range(1, 9)]
        labeled = {}
        for name in ("p1", "p2", "p3", "p5", "p6"):
            pair = figure3_pairs[name]
            labeled[pair] = figure3_truth.label(pair)
        # deductions from round one
        labeled[figure3_pairs["p4"]] = Label.MATCHING
        labeled[figure3_pairs["p8"]] = Label.NON_MATCHING
        batch = must_crowdsource_frontier(order, labeled)
        assert batch == [figure3_pairs["p7"]]

    def test_section51_chain_is_fully_parallel(self):
        """Section 5.1 example: (o1,o2), (o2,o3), (o3,o4) can all be
        crowdsourced together."""
        order = [Pair("o1", "o2"), Pair("o2", "o3"), Pair("o3", "o4")]
        assert must_crowdsource_frontier(order, labeled={}) == order

    def test_exclude_suppresses_published_pairs(self, figure3_pairs):
        order = [figure3_pairs[f"p{i}"] for i in range(1, 9)]
        published = {figure3_pairs["p1"], figure3_pairs["p2"]}
        batch = must_crowdsource_frontier(order, labeled={}, exclude=published)
        assert figure3_pairs["p1"] not in batch
        assert figure3_pairs["p2"] not in batch
        assert figure3_pairs["p3"] in batch

    def test_empty_order(self):
        assert must_crowdsource_frontier([], labeled={}) == []

    def test_triangle_third_pair_not_selected(self):
        """In a triangle the third pair is optimistically deducible."""
        order = [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")]
        batch = must_crowdsource_frontier(order, labeled={})
        assert batch == [Pair("a", "b"), Pair("b", "c")]


class TestParallelLabeler:
    def test_example5_round_structure(self, figure3_candidates, figure3_truth):
        result = ROUNDS.run(figure3_candidates, figure3_truth)
        assert result.n_rounds == 2
        assert result.round_sizes() == [5, 1]
        assert result.n_crowdsourced == 6
        assert result.n_deduced == 2

    def test_labels_correct(self, figure3_candidates, figure3_truth):
        result = ROUNDS.run(figure3_candidates, figure3_truth)
        for pair, label in result.labels().items():
            assert label is figure3_truth.label(pair)

    def test_oracle_called_once_per_crowdsourced_pair(
        self, figure3_candidates, figure3_truth
    ):
        counting = CountingOracle(figure3_truth)
        result = ROUNDS.run(figure3_candidates, counting)
        assert counting.n_calls == result.n_crowdsourced

    def test_max_rounds_guard(self, figure3_candidates, figure3_truth):
        labeler = AsyncDispatch(RuntimeMode.ROUNDS, max_rounds=1)
        with pytest.raises(RuntimeError):
            labeler.run(figure3_candidates, figure3_truth)

    def test_empty_order(self, figure3_truth):
        result = ROUNDS.run([], figure3_truth)
        assert result.n_pairs == 0
        assert result.n_rounds == 0

    def test_all_independent_pairs_take_one_round(self, figure3_truth):
        order = [Pair("o1", "o2"), Pair("o3", "o4"), Pair("o5", "o6")]
        result = ROUNDS.run(order, figure3_truth)
        assert result.n_rounds == 1
        assert result.round_sizes() == [3]


class TestCostEquivalence:
    """The headline guarantee of Section 5.1: parallelising never *increases*
    the number of crowdsourced pairs, and every published pair is one the
    sequential labeler would also have had to crowdsource."""

    @given(worlds())
    @settings(max_examples=80)
    def test_never_costs_more_than_sequential(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        sequential = SEQUENTIAL.run(candidates, truth)
        parallel = ROUNDS.run(candidates, truth)
        assert parallel.n_crowdsourced <= sequential.n_crowdsourced

    @given(worlds())
    @settings(max_examples=80)
    def test_crowdsourced_set_is_subset_of_sequential(self, world):
        """Soundness: a selected pair is undeducible under *every* outcome of
        its prefix, so the sequential labeler crowdsources it too."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        sequential = SEQUENTIAL.run(candidates, truth)
        parallel = ROUNDS.run(candidates, truth)
        assert set(parallel.crowdsourced_pairs()) <= set(sequential.crowdsourced_pairs())

    @given(worlds())
    @settings(max_examples=60)
    def test_labels_match_truth(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        result = ROUNDS.run(candidates, truth)
        for pair, label in result.labels().items():
            assert label is truth.label(pair)

    @given(worlds())
    @settings(max_examples=60)
    def test_rounds_never_exceed_crowdsourced(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        result = ROUNDS.run(candidates, truth)
        assert result.n_rounds <= max(result.n_crowdsourced, 1)

    @given(worlds())
    @settings(max_examples=60)
    def test_first_round_contains_first_pair(self, world):
        """The first pair of the order can never be deduced, so it is always
        in round one."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        if not candidates:
            return
        result = ROUNDS.run(candidates, truth)
        assert candidates[0].pair in result.rounds[0]
