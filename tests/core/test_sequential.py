"""Tests for the sequential labeler (Section 3.2, the SEQUENTIAL mode of
AsyncDispatch) and the Non-Transitive baseline, including paper Example 2."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.framework import label_baseline
from repro.core.oracle import CountingOracle, GroundTruthOracle
from repro.core.pairs import Label, Pair, Provenance, candidate
from repro.core.result import LabelingResult
from repro.engine import AsyncDispatch, RuntimeMode

from ..strategies import worlds

SEQUENTIAL = AsyncDispatch(RuntimeMode.SEQUENTIAL)


class TestSequentialLabeler:
    def test_labels_every_pair(self, figure3_candidates, figure3_truth):
        result = SEQUENTIAL.run(figure3_candidates, figure3_truth)
        assert result.n_pairs == 8

    def test_all_labels_correct_with_perfect_oracle(
        self, figure3_candidates, figure3_truth
    ):
        result = SEQUENTIAL.run(figure3_candidates, figure3_truth)
        for pair, label in result.labels().items():
            assert label is figure3_truth.label(pair)

    def test_example2_good_order_crowdsources_six(
        self, figure3_pairs, figure3_truth
    ):
        """Example 2: the order p1,p2,p3,p5,p7,p8 (then deduced p4, p6)."""
        order = [figure3_pairs[name] for name in ("p1", "p2", "p4", "p5", "p3", "p6", "p7", "p8")]
        result = SEQUENTIAL.run(order, figure3_truth)
        assert result.n_crowdsourced == 6
        assert result.n_deduced == 2

    def test_example2_deduced_pairs_are_p4_like(self, figure3_pairs, figure3_truth):
        """Labeling p1, p2 first makes p4 = (o1, o3) free."""
        order = [figure3_pairs["p1"], figure3_pairs["p2"], figure3_pairs["p4"]]
        result = SEQUENTIAL.run(order, figure3_truth)
        outcome = result.outcomes[figure3_pairs["p4"]]
        assert outcome.provenance is Provenance.DEDUCED
        assert outcome.label is Label.MATCHING

    def test_heuristic_order_on_figure3(self, figure3_candidates, figure3_truth):
        """The expected order p1..p8 crowdsources 6 pairs: Example 5's run."""
        result = SEQUENTIAL.run(figure3_candidates, figure3_truth)
        assert result.n_crowdsourced == 6
        crowd = set(result.crowdsourced_pairs())
        assert Pair("o1", "o3") not in crowd  # p4 deduced
        assert Pair("o5", "o6") not in crowd  # p8 deduced

    def test_oracle_called_once_per_crowdsourced_pair(
        self, figure3_candidates, figure3_truth
    ):
        counting = CountingOracle(figure3_truth)
        result = SEQUENTIAL.run(figure3_candidates, counting)
        assert counting.n_calls == result.n_crowdsourced

    def test_one_pair_per_round(self, figure3_candidates, figure3_truth):
        result = SEQUENTIAL.run(figure3_candidates, figure3_truth)
        assert all(len(batch) == 1 for batch in result.rounds)
        assert result.n_rounds == result.n_crowdsourced

    def test_empty_order(self, figure3_truth):
        result = SEQUENTIAL.run([], figure3_truth)
        assert result.n_pairs == 0
        assert result.n_crowdsourced == 0

    def test_single_pair_always_crowdsourced(self, figure3_truth):
        result = SEQUENTIAL.run([Pair("o1", "o2")], figure3_truth)
        assert result.n_crowdsourced == 1

    def test_accepts_candidate_pairs_and_bare_pairs(self, figure3_truth):
        mixed = [candidate("o1", "o2", 0.9), Pair("o2", "o3")]
        result = SEQUENTIAL.run(mixed, figure3_truth)
        assert result.n_pairs == 2


class TestNonTransitiveBaseline:
    def test_crowdsources_everything(self, figure3_candidates, figure3_truth):
        result = label_baseline(figure3_candidates, figure3_truth)
        assert result.n_crowdsourced == 8
        assert result.n_deduced == 0

    def test_single_round(self, figure3_candidates, figure3_truth):
        result = label_baseline(figure3_candidates, figure3_truth)
        assert result.n_rounds == 1
        assert len(result.rounds[0]) == 8

    def test_labels_are_correct(self, figure3_candidates, figure3_truth):
        result = label_baseline(figure3_candidates, figure3_truth)
        for pair, label in result.labels().items():
            assert label is figure3_truth.label(pair)


class TestProperties:
    @given(worlds())
    @settings(max_examples=60)
    def test_labels_always_match_truth(self, world):
        """With a perfect oracle, deduced labels are always correct."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        result = SEQUENTIAL.run(candidates, truth)
        for pair, label in result.labels().items():
            assert label is truth.label(pair)

    @given(worlds())
    @settings(max_examples=60)
    def test_transitive_never_costs_more_than_baseline(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        assert SEQUENTIAL.run(candidates, truth).n_crowdsourced <= len(candidates)

    @given(worlds())
    @settings(max_examples=60)
    def test_crowdsourced_plus_deduced_is_total(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        result = SEQUENTIAL.run(candidates, truth)
        assert result.n_crowdsourced + result.n_deduced == result.n_pairs


class TestLabelingResult:
    def test_record_rejects_duplicates(self):
        result = LabelingResult()
        result.record(Pair("a", "b"), Label.MATCHING, Provenance.CROWDSOURCED, 0)
        with pytest.raises(ValueError):
            result.record(Pair("a", "b"), Label.MATCHING, Provenance.DEDUCED, 0)

    def test_matches_and_non_matches_partition(self, figure3_candidates, figure3_truth):
        result = SEQUENTIAL.run(figure3_candidates, figure3_truth)
        assert len(result.matches()) + len(result.non_matches()) == result.n_pairs

    def test_savings_fraction(self, figure3_candidates, figure3_truth):
        result = SEQUENTIAL.run(figure3_candidates, figure3_truth)
        assert result.savings == pytest.approx(2 / 8)

    def test_round_sizes(self, figure3_candidates, figure3_truth):
        result = SEQUENTIAL.run(figure3_candidates, figure3_truth)
        assert result.round_sizes() == [1] * 6

    def test_as_labeled_pairs_preserves_resolution_order(
        self, figure3_candidates, figure3_truth
    ):
        result = SEQUENTIAL.run(figure3_candidates, figure3_truth)
        labeled = result.as_labeled_pairs()
        assert len(labeled) == 8
        assert labeled[0].pair == figure3_candidates[0].pair
