"""Tests for the expected-cost machinery (Section 4.2), anchored on paper
Example 4's exact numbers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expected_cost import (
    MAX_BRUTE_FORCE_PAIRS,
    MAX_ENUMERATION_PAIRS,
    adaptive_expected_cost,
    adaptive_optimal_choice,
    brute_force_adaptive_optimal,
    brute_force_expected_optimal,
    consistent_assignments_count,
    crowdsourced_count,
    crowdsourced_indicator,
    crowdsourcing_probabilities,
    enumerate_consistent_assignments,
    expected_cost,
    heuristic_gap,
    posterior_assignments,
    posterior_match_probability,
    sample_assignment,
)
from repro.core.pairs import Pair
from repro.core.oracle import GroundTruthOracle, MappingOracle
from repro.core.ordering import expected_order
from repro.core.pairs import Label, candidate
from repro.engine import AsyncDispatch, RuntimeMode

from ..strategies import worlds


@pytest.fixture
def example4_candidates():
    """p1=(o1,o2) P=0.9, p2=(o2,o3) P=0.5, p3=(o1,o3) P=0.1."""
    return [
        candidate("o1", "o2", 0.9),
        candidate("o2", "o3", 0.5),
        candidate("o1", "o3", 0.1),
    ]


class TestExample4:
    def test_five_consistent_assignments(self, example4_candidates):
        """The paper enumerates exactly five consistent possibilities."""
        assert consistent_assignments_count(example4_candidates) == 5

    def test_triangle_excludes_two_matching_one_not(self, example4_candidates):
        """{M, M, N} patterns on a triangle are inconsistent."""
        assignments = enumerate_consistent_assignments(example4_candidates)
        for assignment in assignments:
            n_matching = sum(1 for l in assignment.labels if l is Label.MATCHING)
            assert n_matching != 2

    def test_weights_sum_to_one(self, example4_candidates):
        assignments = enumerate_consistent_assignments(example4_candidates)
        assert sum(a.weight for a in assignments) == pytest.approx(1.0)

    def test_all_six_orders_match_paper(self, example4_candidates):
        """E[C] = 2.09, 2.17, 2.83, 2.09, 2.17, 2.83 for w1..w6."""
        p1, p2, p3 = example4_candidates
        expected_values = {
            (0, 1, 2): 2.09,
            (0, 2, 1): 2.17,
            (1, 2, 0): 2.83,
            (1, 0, 2): 2.09,
            (2, 0, 1): 2.17,
            (2, 1, 0): 2.83,
        }
        cands = [p1, p2, p3]
        for perm, value in expected_values.items():
            order = [cands[i] for i in perm]
            assert expected_cost(order) == pytest.approx(value, abs=0.005), perm

    def test_p3_crowdsourcing_probability(self, example4_candidates):
        """P(p3 crowdsourced) = 0.09 under order w1 (paper's computation)."""
        probabilities = crowdsourcing_probabilities(example4_candidates)
        assert probabilities[0] == pytest.approx(1.0)
        assert probabilities[1] == pytest.approx(1.0)
        assert probabilities[2] == pytest.approx(0.0917, abs=0.001)

    def test_brute_force_finds_209(self, example4_candidates):
        _, best = brute_force_expected_optimal(example4_candidates)
        assert best == pytest.approx(2.09, abs=0.005)

    def test_heuristic_is_optimal_here(self, example4_candidates):
        """The likelihood-descending order w1 is expected-optimal on
        Example 4."""
        heuristic, optimum = heuristic_gap(example4_candidates)
        assert heuristic == pytest.approx(optimum, abs=1e-9)


class TestGuards:
    def test_enumeration_limit(self):
        too_many = [candidate(f"a{i}", f"b{i}", 0.5) for i in range(MAX_ENUMERATION_PAIRS + 1)]
        with pytest.raises(ValueError):
            enumerate_consistent_assignments(too_many)

    def test_brute_force_limit(self):
        too_many = [candidate(f"a{i}", f"b{i}", 0.5) for i in range(MAX_BRUTE_FORCE_PAIRS + 1)]
        with pytest.raises(ValueError):
            brute_force_expected_optimal(too_many)

    def test_impossible_world_raises(self):
        """Likelihoods forcing an inconsistent triangle have no consistent
        assignment with positive probability."""
        impossible = [
            candidate("a", "b", 1.0),
            candidate("b", "c", 1.0),
            candidate("a", "c", 0.0),
        ]
        with pytest.raises(ValueError):
            enumerate_consistent_assignments(impossible)

    def test_sample_assignment_rejects_bad_u(self, example4_candidates):
        with pytest.raises(ValueError):
            sample_assignment(example4_candidates, 1.5)


class TestExpectedCostProperties:
    @given(worlds(max_objects=6, max_pairs=6))
    @settings(max_examples=30, deadline=None)
    def test_expectation_equals_sum_of_probabilities(self, world):
        candidates, _ = world
        candidates = [
            candidate(c.left, c.right, min(max(c.likelihood, 0.05), 0.95))
            for c in candidates
        ]
        # dedupe pairs (worlds may repeat); keep small
        seen = set()
        unique = [c for c in candidates if not (c.pair in seen or seen.add(c.pair))][:6]
        if not unique:
            return
        total = expected_cost(unique)
        probabilities = crowdsourcing_probabilities(unique)
        assert total == pytest.approx(sum(probabilities))

    @given(worlds(max_objects=6, max_pairs=6), st.floats(0.0, 0.999))
    @settings(max_examples=30, deadline=None)
    def test_sampled_assignment_cost_bounds_expectation(self, world, u):
        """Any realised cost is between min and max over assignments, and the
        expectation lies in the same envelope."""
        candidates, _ = world
        seen = set()
        unique = [
            candidate(c.left, c.right, min(max(c.likelihood, 0.05), 0.95))
            for c in candidates
            if not (c.pair in seen or seen.add(c.pair))
        ][:6]
        if not unique:
            return
        assignments = enumerate_consistent_assignments(unique)
        pairs = [c.pair for c in unique]
        costs = [
            crowdsourced_count(unique, a.as_mapping(pairs)) for a in assignments
        ]
        sampled = crowdsourced_count(unique, sample_assignment(unique, u))
        assert min(costs) <= sampled <= max(costs)
        assert min(costs) - 1e-9 <= expected_cost(unique) <= max(costs) + 1e-9

    @given(worlds(max_objects=5, max_pairs=5))
    @settings(max_examples=20, deadline=None)
    def test_first_pair_always_crowdsourced(self, world):
        candidates, _ = world
        seen = set()
        unique = [
            candidate(c.left, c.right, min(max(c.likelihood, 0.05), 0.95))
            for c in candidates
            if not (c.pair in seen or seen.add(c.pair))
        ][:5]
        if not unique:
            return
        probabilities = crowdsourcing_probabilities(unique)
        assert probabilities[0] == pytest.approx(1.0)


class TestIndicatorAgainstEngine:
    """``crowdsourced_indicator`` replays an order on one ClusterGraph; the
    engine's sequential mode must crowdsource exactly the pairs it flags."""

    @given(worlds(max_objects=8, max_pairs=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_sequential_mode_crowdsources_the_flagged_pairs(self, world, data):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        # Revisiting a pair is legal: its later occurrences are deduced.
        repeats = data.draw(st.lists(st.sampled_from(candidates), max_size=3))
        order = data.draw(st.permutations(candidates + repeats))
        pairs = [c.pair for c in order]
        assignment = {pair: truth.label(pair) for pair in pairs}
        flags = crowdsourced_indicator(pairs, assignment)
        result = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(
            order, MappingOracle(assignment)
        )
        assert result.crowdsourced_pairs() == [
            pair for pair, flag in zip(pairs, flags) if flag
        ]
        assert crowdsourced_count(order, assignment) == result.n_crowdsourced


class TestHeuristicQuality:
    """The heuristic is not always optimal (the problem is NP-hard), but on
    small informed instances it should be close to brute force."""

    @given(worlds(max_objects=5, max_pairs=5))
    @settings(max_examples=15, deadline=None)
    def test_heuristic_within_one_pair_of_optimal(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        # Make likelihoods informative: matching -> 0.9, non-matching -> 0.1.
        seen = set()
        informed = [
            candidate(
                c.left,
                c.right,
                0.9 if truth.label(c.pair) is Label.MATCHING else 0.1,
            )
            for c in candidates
            if not (c.pair in seen or seen.add(c.pair))
        ][:5]
        if not informed:
            return
        heuristic, optimum = heuristic_gap(informed)
        assert heuristic <= optimum + 1.0


class TestPosteriors:
    """Conditioning on evidence: the posterior machinery behind the adaptive
    dispatch, anchored on the Example 4 triangle."""

    def test_no_evidence_is_the_prior(self, example4_candidates):
        posterior = posterior_assignments(example4_candidates, {})
        prior = enumerate_consistent_assignments(example4_candidates)
        assert len(posterior) == len(prior)
        for after, before in zip(posterior, prior):
            assert after.labels == before.labels
            assert after.weight == pytest.approx(before.weight)

    def test_evidence_prunes_and_renormalises(self, example4_candidates):
        p1 = example4_candidates[0].pair
        posterior = posterior_assignments(
            example4_candidates, {p1: Label.MATCHING}
        )
        assert sum(a.weight for a in posterior) == pytest.approx(1.0)
        index = {c.pair: i for i, c in enumerate(example4_candidates)}
        for assignment in posterior:
            assert assignment.labels[index[p1]] is Label.MATCHING

    def test_transitive_evidence_forces_the_third_edge(self, example4_candidates):
        """Given p1 and p2 both matching, p3 is matching with certainty."""
        p1, p2, p3 = (c.pair for c in example4_candidates)
        probability = posterior_match_probability(
            example4_candidates,
            {p1: Label.MATCHING, p2: Label.MATCHING},
            p3,
        )
        assert probability == pytest.approx(1.0)

    def test_posterior_differs_from_raw_likelihood(self, example4_candidates):
        """One matching edge of the triangle raises the odds on the rest."""
        p1, p2, _ = (c.pair for c in example4_candidates)
        conditioned = posterior_match_probability(
            example4_candidates, {p1: Label.MATCHING}, p2
        )
        assert conditioned != pytest.approx(example4_candidates[1].likelihood)

    def test_unknown_evidence_pair_rejected(self, example4_candidates):
        with pytest.raises(ValueError, match="not a candidate"):
            posterior_assignments(
                example4_candidates, {Pair("x", "y"): Label.MATCHING}
            )

    def test_zero_mass_evidence_rejected(self):
        """Evidence contradicting a certain pair has no posterior."""
        certain = [candidate("a", "b", 1.0), candidate("b", "c", 0.5)]
        with pytest.raises(ValueError, match="zero posterior"):
            posterior_assignments(certain, {certain[0].pair: Label.NON_MATCHING})


class TestAdaptivePolicies:
    def test_adaptive_lower_bounds_the_static_optimum(self, example4_candidates):
        adaptive = brute_force_adaptive_optimal(example4_candidates)
        _, static = brute_force_expected_optimal(example4_candidates)
        assert adaptive <= static + 1e-9

    def test_static_policy_evaluates_to_its_static_cost(self, example4_candidates):
        """adaptive_expected_cost over an answer-blind policy reproduces
        expected_cost of the same order exactly."""

        def static_policy(unresolved, evidence):
            order = {c.pair: i for i, c in enumerate(example4_candidates)}
            return min(unresolved, key=lambda c: order[c.pair])

        cost = adaptive_expected_cost(example4_candidates, static_policy)
        assert cost == pytest.approx(expected_cost(example4_candidates), abs=1e-9)

    def test_optimal_choice_resolves_to_none_when_evidence_closes_all(
        self, example4_candidates
    ):
        p1, p2, _ = (c.pair for c in example4_candidates)
        evidence = {p1: Label.MATCHING, p2: Label.MATCHING}
        assert adaptive_optimal_choice(example4_candidates, evidence) is None

    def test_optimal_choice_is_a_candidate(self, example4_candidates):
        chosen = adaptive_optimal_choice(example4_candidates)
        assert chosen in example4_candidates

    def test_adaptive_brute_force_rejects_oversized_instances(self):
        too_many = [
            candidate(f"a{i}", f"b{i}", 0.5)
            for i in range(2 * MAX_BRUTE_FORCE_PAIRS + 1)
        ]
        with pytest.raises(ValueError, match="infeasible"):
            brute_force_adaptive_optimal(too_many)
