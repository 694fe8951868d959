"""Expected-value ordering: the adaptive labeler and its runtime wiring.

Three layers of guarantees:

* completeness/correctness — ``AsyncDispatch(SEQUENTIAL,
  ordering="expected-value")`` labels every candidate pair with its true
  label, crowdsourcing only frontier pairs (never one the evidence so far
  already implies);
* optimality — on instances small enough for the exact DP
  (:func:`brute_force_adaptive_optimal`), the policy's exact expected cost
  (via :func:`adaptive_expected_cost`) *equals* the adaptive optimum, which
  in turn lower-bounds every static order; on a frozen reference instance
  it is strictly cheaper than the paper's likelihood-descending heuristic;
* parity — ``ordering="expected-value"`` on :class:`AsyncDispatch` /
  :class:`CrowdRuntime` consults the oracle in exactly the same order as
  the frozen synchronous loop (``reference_expected_value``), and the spec
  round-trips the knob.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_graph import ClusterGraph
from repro.core.expected_cost import (
    adaptive_expected_cost,
    brute_force_adaptive_optimal,
    expected_cost,
    posterior_match_probability,
)
from repro.core.oracle import GroundTruthOracle
from repro.core.ordering import expected_order
from repro.core.pairs import CandidatePair, Label, Pair, candidate
from repro.engine import AsyncDispatch, RuntimeMode
from repro.engine.expected import ExpectedDeductionScorer, expected_value_choice
from repro.spec import CampaignSpec

from ..strategies import worlds
from .reference import RecordingOracle, reference_expected_value

EXPECTED_VALUE = AsyncDispatch(RuntimeMode.SEQUENTIAL, ordering="expected-value")

#: Frozen reference instance (seed-searched): the adaptive policy spends
#: strictly fewer expected questions than the static heuristic order here.
#: Also gated, with timings, in ``benchmarks/bench_core_micro.py``.
REFERENCE_GAP_CANDIDATES = [
    candidate("o0", "o3", 0.59),
    candidate("o1", "o3", 0.48),
    candidate("o2", "o3", 0.15),
    candidate("o1", "o2", 0.49),
    candidate("o0", "o2", 0.93),
]


@st.composite
def small_instances(draw, max_pairs: int = 5):
    """Worlds small enough for the exact adaptive DP, with likelihoods
    bounded away from 0/1 so every assignment keeps positive mass."""
    candidates, entity_of = draw(
        worlds(min_objects=3, max_objects=5, max_pairs=max_pairs)
    )
    bounded = [
        CandidatePair(c.pair, 0.05 + 0.9 * c.likelihood) for c in candidates
    ]
    return bounded, entity_of


class FrontierAssertingOracle:
    """Oracle wrapper that fails if a deducible pair is ever crowdsourced.

    Maintains a mirror deduction graph of the answers given out so far;
    deduced labels are implied by crowdsourced ones, so the mirror deduces
    exactly what the engine could have.
    """

    def __init__(self, truth: GroundTruthOracle) -> None:
        self._truth = truth
        self._graph = ClusterGraph()
        self.calls: list[Pair] = []

    def label(self, pair: Pair) -> Label:
        assert self._graph.deduce(pair) is None, (
            f"{pair!r} was crowdsourced but its label is already implied "
            "by earlier answers"
        )
        assert pair not in self.calls, f"{pair!r} was crowdsourced twice"
        self.calls.append(pair)
        label = self._truth.label(pair)
        self._graph.add(pair, label)
        return label


class TestExpectedValueOrdering:
    @given(worlds())
    @settings(max_examples=30, deadline=None)
    def test_labels_every_pair_correctly(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        result = EXPECTED_VALUE.run(candidates, truth)
        assert set(result.labels()) == {c.pair for c in candidates}
        for pair, label in result.labels().items():
            assert label is truth.label(pair)

    @given(worlds())
    @settings(max_examples=30, deadline=None)
    def test_only_frontier_pairs_are_crowdsourced(self, world):
        """Every oracle call is for a pair whose label was still open."""
        candidates, entity_of = world
        oracle = FrontierAssertingOracle(GroundTruthOracle(entity_of))
        result = EXPECTED_VALUE.run(candidates, oracle)
        assert result.n_crowdsourced == len(oracle.calls)
        assert result.n_crowdsourced + result.n_deduced == len(
            {c.pair for c in candidates}
        )

    def test_figure3_costs_at_most_the_optimum(self, figure3_candidates, figure3_truth):
        """Example 2's optimal static order crowdsources 6 pairs; the
        adaptive policy never needs more on the same world."""
        result = EXPECTED_VALUE.run(figure3_candidates, figure3_truth)
        assert result.n_crowdsourced <= 6
        assert result.n_deduced == 8 - result.n_crowdsourced


class TestAdaptiveOptimality:
    @given(small_instances())
    @settings(max_examples=6, deadline=None)
    def test_policy_cost_equals_the_adaptive_optimum(self, instance):
        """On DP-feasible instances the production policy IS the optimum:
        its exact expected cost matches the brute-force adaptive DP."""
        candidates, _ = instance
        if not candidates:
            return
        cost = adaptive_expected_cost(candidates, expected_value_choice)
        optimum = brute_force_adaptive_optimal(candidates)
        assert cost == pytest.approx(optimum, abs=1e-9)

    @given(small_instances())
    @settings(max_examples=6, deadline=None)
    def test_policy_never_beaten_by_the_static_heuristic(self, instance):
        candidates, _ = instance
        if not candidates:
            return
        cost = adaptive_expected_cost(candidates, expected_value_choice)
        heuristic = expected_cost(expected_order(candidates))
        assert cost <= heuristic + 1e-9

    def test_strictly_beats_heuristic_on_reference_instance(self):
        """The frozen reference: adaptivity buys ~0.17 expected questions."""
        candidates = REFERENCE_GAP_CANDIDATES
        cost = adaptive_expected_cost(candidates, expected_value_choice)
        heuristic = expected_cost(expected_order(candidates))
        assert cost == pytest.approx(3.4577, abs=0.005)
        assert heuristic == pytest.approx(3.6285, abs=0.005)
        assert cost < heuristic - 0.1


class TestScorerPosteriors:
    def test_scores_expose_the_exact_posterior(self):
        """Production posterior == spec-grade oracle.

        With evidence a-b non-matching and unresolved (a,c), (b,c), each
        score is exactly ``P(match | evidence) * 1`` (one deduction on
        merge), so the posterior can be read off and compared to
        :func:`posterior_match_probability`.
        """
        a_b, a_c, b_c = Pair("a", "b"), Pair("a", "c"), Pair("b", "c")
        candidates = [
            CandidatePair(a_b, 0.5),
            CandidatePair(a_c, 0.8),
            CandidatePair(b_c, 0.6),
        ]
        evidence = {a_b: Label.NON_MATCHING}
        scorer = ExpectedDeductionScorer()
        scorer.sync(evidence)
        unresolved = [CandidatePair(a_c, 0.8), CandidatePair(b_c, 0.6)]
        scored = dict(scorer.scores(unresolved))
        by_pair = {c.pair: score for c, score in scored.items()}
        for pair in (a_c, b_c):
            exact = posterior_match_probability(candidates, evidence, pair)
            assert by_pair[pair] == pytest.approx(exact, abs=1e-12)

    def test_oversized_component_falls_back_to_raw_likelihood(self):
        """Components past the enumeration limit score with the machine
        likelihood — documented approximation, not an error."""
        scorer = ExpectedDeductionScorer(enumeration_limit=1)
        scorer.observe(Pair("a", "b"), Label.NON_MATCHING)
        unresolved = [
            CandidatePair(Pair("a", "c"), 0.8),
            CandidatePair(Pair("b", "c"), 0.6),
        ]
        by_pair = {c.pair: s for c, s in scorer.scores(unresolved)}
        assert by_pair[Pair("a", "c")] == pytest.approx(0.8)
        assert by_pair[Pair("b", "c")] == pytest.approx(0.6)

    def test_choose_skips_deducible_and_returns_none_when_done(self):
        scorer = ExpectedDeductionScorer()
        scorer.observe(Pair("a", "b"), Label.MATCHING)
        scorer.observe(Pair("b", "c"), Label.MATCHING)
        deducible_only = [CandidatePair(Pair("a", "c"), 0.4)]
        assert scorer.choose(deducible_only) is None

    def test_rejects_non_positive_enumeration_limit(self):
        with pytest.raises(ValueError, match="enumeration_limit"):
            ExpectedDeductionScorer(enumeration_limit=0)


class TestRuntimeOrdering:
    @given(worlds())
    @settings(max_examples=20, deadline=None)
    def test_runtime_matches_sync_dispatch_exactly(self, world):
        """ordering="expected-value" over the FIFO simulated client asks
        the oracle the very same questions in the very same order as the
        frozen synchronous loop."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        sync_oracle = RecordingOracle(truth)
        async_oracle = RecordingOracle(truth)
        reference = reference_expected_value(candidates, sync_oracle)
        result = EXPECTED_VALUE.run(candidates, async_oracle)
        assert result.labels() == reference.labels()
        assert result.n_crowdsourced == reference.n_crowdsourced
        assert async_oracle.calls == sync_oracle.calls

    def test_spec_ordering_reaches_the_runtime(self, figure3_candidates, figure3_truth):
        spec = CampaignSpec(
            order=figure3_candidates, mode="sequential", ordering="expected-value"
        )
        result = AsyncDispatch(spec=spec).run(figure3_candidates, figure3_truth)
        assert result.n_crowdsourced <= 6
        assert set(result.labels()) == {c.pair for c in figure3_candidates}

    @pytest.mark.parametrize(
        "mode", [RuntimeMode.ROUNDS, RuntimeMode.HIT_INSTANT, RuntimeMode.FLOOD]
    )
    def test_expected_value_requires_sequential_mode(self, mode):
        with pytest.raises(ValueError, match="SEQUENTIAL"):
            AsyncDispatch(mode, ordering="expected-value")

    def test_unknown_ordering_rejected(self):
        with pytest.raises(ValueError):
            AsyncDispatch(RuntimeMode.SEQUENTIAL, ordering="telepathic")
