"""Tests for labeling orders (paper Section 4), including Theorem 1's
optimality and the swap lemmas as property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import GroundTruthOracle, MappingOracle
from repro.core.ordering import (
    ExpectedOrderSorter,
    IdentityOrderSorter,
    OptimalOrderSorter,
    RandomOrderSorter,
    WorstOrderSorter,
    expected_order,
    make_sorter,
    optimal_order,
    random_order,
    worst_order,
)
from repro.core.pairs import CandidatePair, Label, Pair, candidate
from repro.engine import AsyncDispatch, RuntimeMode

from ..strategies import worlds

SEQUENTIAL = AsyncDispatch(RuntimeMode.SEQUENTIAL)


def sequential_cost(order, oracle) -> int:
    """``C(omega)``: the pairs the sequential labeler crowdsources."""
    return SEQUENTIAL.run(order, oracle).n_crowdsourced


class TestExpectedOrder:
    def test_sorts_by_decreasing_likelihood(self):
        cands = [candidate("a", "b", 0.2), candidate("c", "d", 0.9), candidate("e", "f", 0.5)]
        ordered = expected_order(cands)
        assert [c.likelihood for c in ordered] == [0.9, 0.5, 0.2]

    def test_stable_for_ties(self):
        cands = [candidate("a", "b", 0.5), candidate("c", "d", 0.5)]
        ordered = expected_order(cands)
        assert [c.pair for c in ordered] == [Pair("a", "b"), Pair("c", "d")]

    def test_figure3_order_is_p1_to_p8(self, figure3_candidates):
        """Paper Section 4.2: the heuristic order on Figure 3 is p1..p8."""
        ordered = ExpectedOrderSorter().sort(figure3_candidates)
        assert ordered == figure3_candidates

    def test_does_not_mutate_input(self):
        cands = [candidate("a", "b", 0.2), candidate("c", "d", 0.9)]
        snapshot = list(cands)
        expected_order(cands)
        assert cands == snapshot


class TestOptimalOrder:
    def test_matching_pairs_come_first(self, figure3_candidates, figure3_truth):
        ordered = optimal_order(figure3_candidates, figure3_truth)
        labels = [figure3_truth.label(c.pair) for c in ordered]
        first_non_matching = labels.index(Label.NON_MATCHING)
        assert all(l is Label.NON_MATCHING for l in labels[first_non_matching:])

    def test_preserves_input_order_within_groups(self, figure3_candidates, figure3_truth):
        ordered = optimal_order(figure3_candidates, figure3_truth)
        matching = [c for c in ordered if figure3_truth.label(c.pair) is Label.MATCHING]
        original = [c for c in figure3_candidates if figure3_truth.label(c.pair) is Label.MATCHING]
        assert matching == original


class TestWorstOrder:
    def test_non_matching_pairs_come_first(self, figure3_candidates, figure3_truth):
        ordered = worst_order(figure3_candidates, figure3_truth)
        labels = [figure3_truth.label(c.pair) for c in ordered]
        first_matching = labels.index(Label.MATCHING)
        assert all(l is Label.MATCHING for l in labels[first_matching:])


class TestRandomOrder:
    def test_same_seed_same_order(self):
        cands = [candidate(f"a{i}", f"b{i}", 0.5) for i in range(10)]
        assert random_order(cands, seed=7) == random_order(cands, seed=7)

    def test_different_seeds_usually_differ(self):
        cands = [candidate(f"a{i}", f"b{i}", 0.5) for i in range(10)]
        assert random_order(cands, seed=1) != random_order(cands, seed=2)

    def test_is_a_permutation(self):
        cands = [candidate(f"a{i}", f"b{i}", 0.5) for i in range(10)]
        assert sorted(random_order(cands, seed=3), key=lambda c: repr(c.pair)) == sorted(
            cands, key=lambda c: repr(c.pair)
        )


class TestMakeSorter:
    def test_known_names(self, figure3_truth):
        assert isinstance(make_sorter("expected"), ExpectedOrderSorter)
        assert isinstance(make_sorter("identity"), IdentityOrderSorter)
        assert isinstance(make_sorter("random"), RandomOrderSorter)
        assert isinstance(make_sorter("optimal", truth=figure3_truth), OptimalOrderSorter)
        assert isinstance(make_sorter("worst", truth=figure3_truth), WorstOrderSorter)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_sorter("alphabetical")

    def test_optimal_requires_truth(self):
        with pytest.raises(ValueError):
            make_sorter("optimal")


class TestSection31Example:
    """Section 3.1: order <(o1,o2),(o2,o3),(o1,o3)> needs 2 crowdsourced
    pairs; <(o2,o3),(o1,o3),(o1,o2)> needs 3."""

    @pytest.fixture
    def truth(self):
        # o1 = o2, o2 != o3, o1 != o3
        return GroundTruthOracle({"o1": "X", "o2": "X", "o3": "Y"})

    def test_good_order_needs_two(self, truth):
        order = [Pair("o1", "o2"), Pair("o2", "o3"), Pair("o1", "o3")]
        assert sequential_cost(order, truth) == 2

    def test_bad_order_needs_three(self, truth):
        order = [Pair("o2", "o3"), Pair("o1", "o3"), Pair("o1", "o2")]
        assert sequential_cost(order, truth) == 3


class TestSection41Example:
    """Section 4.1: p1=(o1,o2) matching, p2=(o2,o3), p3=(o1,o3) non-matching;
    the six orders cost 2, 2, 3, 2, 2, 3."""

    @pytest.fixture
    def truth(self):
        return GroundTruthOracle({"o1": "X", "o2": "X", "o3": "Y"})

    def test_all_six_orders(self, truth):
        p1, p2, p3 = Pair("o1", "o2"), Pair("o2", "o3"), Pair("o1", "o3")
        costs = [
            sequential_cost(order, truth)
            for order in (
                [p1, p2, p3],
                [p1, p3, p2],
                [p2, p3, p1],
                [p2, p1, p3],
                [p3, p1, p2],
                [p3, p2, p1],
            )
        ]
        assert costs == [2, 2, 3, 2, 2, 3]


class TestTheorem1:
    """The optimal order (matching first) never costs more than any other."""

    @given(worlds(max_objects=8, max_pairs=12), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_optimal_beats_random(self, world, seed):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        cost_optimal = sequential_cost(optimal_order(candidates, truth), truth)
        cost_random = sequential_cost(random_order(candidates, seed=seed), truth)
        assert cost_optimal <= cost_random

    @given(worlds(max_objects=8, max_pairs=12))
    @settings(max_examples=60)
    def test_optimal_beats_worst(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        cost_optimal = sequential_cost(optimal_order(candidates, truth), truth)
        cost_worst = sequential_cost(worst_order(candidates, truth), truth)
        assert cost_optimal <= cost_worst

    def test_figure3_optimal_cost_is_six(self, figure3_candidates, figure3_truth):
        """Example 2: six is the optimal number of crowdsourced pairs."""
        ordered = optimal_order(figure3_candidates, figure3_truth)
        assert sequential_cost(ordered, figure3_truth) == 6


class TestSwapLemmas:
    """Lemmas 2 and 3 as executable properties over random worlds."""

    @given(worlds(max_objects=8, max_pairs=10), st.integers(0, 50))
    @settings(max_examples=60)
    def test_lemma2_swapping_matching_forward_never_hurts(self, world, position):
        """Swapping adjacent (non-matching, matching) -> (matching,
        non-matching) gives C(w') <= C(w)."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        order = list(candidates)
        if len(order) < 2:
            return
        i = position % (len(order) - 1)
        first, second = order[i], order[i + 1]
        if not (
            truth.label(first.pair) is Label.NON_MATCHING
            and truth.label(second.pair) is Label.MATCHING
        ):
            return
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert sequential_cost(swapped, truth) <= sequential_cost(order, truth)

    @given(worlds(max_objects=8, max_pairs=10), st.integers(0, 50))
    @settings(max_examples=60)
    def test_lemma3_swapping_same_type_is_neutral(self, world, position):
        """Swapping two adjacent pairs of the same type keeps C unchanged."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        order = list(candidates)
        if len(order) < 2:
            return
        i = position % (len(order) - 1)
        if truth.label(order[i].pair) is not truth.label(order[i + 1].pair):
            return
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert sequential_cost(swapped, truth) == sequential_cost(order, truth)
