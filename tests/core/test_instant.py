"""Tests for the answer-at-a-time labelers (``run_answer_order``) with the
instant-decision and non-matching-first optimisations (Section 5.2 /
Figure 15)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.oracle import CountingOracle, GroundTruthOracle
from repro.crowd.campaign import run_answer_order
from repro.crowd.clients import AnswerPolicy
from repro.engine import AsyncDispatch, RuntimeMode

from ..strategies import worlds

SEQUENTIAL = AsyncDispatch(RuntimeMode.SEQUENTIAL)
ROUNDS = AsyncDispatch(RuntimeMode.ROUNDS)


def run_instant(order, oracle, **options):
    """Run :func:`run_answer_order` (ID on, RANDOM answers by default)."""
    return run_answer_order(order, oracle, **options)


class TestInstantLabelerBasics:
    def test_labels_everything(self, figure3_candidates, figure3_truth):
        run = run_instant(figure3_candidates, figure3_truth)
        assert run.result.n_pairs == 8

    def test_labels_correct(self, figure3_candidates, figure3_truth):
        run = run_instant(figure3_candidates, figure3_truth)
        for pair, label in run.result.labels().items():
            assert label is figure3_truth.label(pair)

    def test_trace_records_every_answer(self, figure3_candidates, figure3_truth):
        run = run_instant(figure3_candidates, figure3_truth)
        assert len(run.trace) == run.n_crowdsourced
        assert run.trace[-1].n_answered == run.n_crowdsourced

    def test_pool_empty_at_end(self, figure3_candidates, figure3_truth):
        run = run_instant(figure3_candidates, figure3_truth)
        assert run.trace[-1].n_available == 0

    def test_oracle_calls_equal_crowdsourced(self, figure3_candidates, figure3_truth):
        counting = CountingOracle(figure3_truth)
        run = run_instant(figure3_candidates, counting)
        assert counting.n_calls == run.n_crowdsourced

    def test_deterministic_given_seed(self, figure3_candidates, figure3_truth):
        run1 = run_instant(figure3_candidates, figure3_truth, seed=5)
        run2 = run_instant(figure3_candidates, figure3_truth, seed=5)
        assert run1.trace == run2.trace


class TestAnswerPolicies:
    def test_fifo_answers_in_publication_order(self, figure3_candidates, figure3_truth):
        run = run_instant(
            figure3_candidates, figure3_truth, answer_policy=AnswerPolicy.FIFO
        )
        crowdsourced = run.result.crowdsourced_pairs()
        answered = [o.pair for o in run.result if o.crowdsourced]
        # FIFO with no mid-run publishes preserves the publication order of
        # the first batch.
        first_batch = run.result.rounds[0]
        assert answered[: len(first_batch)] == first_batch
        assert set(crowdsourced) == set(answered)

    def test_nf_answers_least_likely_first(self, figure3_candidates, figure3_truth):
        run = run_instant(
            figure3_candidates,
            figure3_truth,
            answer_policy=AnswerPolicy.NON_MATCHING_FIRST,
        )
        likelihood = {c.pair: c.likelihood for c in figure3_candidates}
        first_batch = run.result.rounds[0]
        first_answered = next(o.pair for o in run.result if o.crowdsourced)
        assert likelihood[first_answered] == min(likelihood[p] for p in first_batch)


class TestCostEquivalence:
    """ID/NF change *when* pairs are published, never *how many*."""

    @given(worlds())
    @settings(max_examples=50)
    def test_instant_never_costs_more_than_sequential(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        sequential = SEQUENTIAL.run(candidates, truth)
        run = run_instant(candidates, truth, seed=3)
        assert run.n_crowdsourced <= sequential.n_crowdsourced

    @given(worlds())
    @settings(max_examples=50)
    def test_instant_crowdsourced_subset_of_sequential(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        sequential = SEQUENTIAL.run(candidates, truth)
        run = run_instant(candidates, truth, seed=3)
        assert set(run.result.crowdsourced_pairs()) <= set(
            sequential.crowdsourced_pairs()
        )

    @given(worlds())
    @settings(max_examples=50)
    def test_non_instant_mode_matches_parallel_rounds(self, world):
        """With instant decision off, publish events replicate the
        round-based algorithm's batches."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        parallel = ROUNDS.run(candidates, truth)
        run = run_instant(candidates, truth, instant_decision=False, seed=1)
        assert run.result.round_sizes() == parallel.round_sizes()
        assert [set(b) for b in run.result.rounds] == [set(b) for b in parallel.rounds]

    @given(worlds())
    @settings(max_examples=50)
    def test_nf_policy_never_costs_more(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        sequential = SEQUENTIAL.run(candidates, truth)
        run = run_instant(
            candidates, truth, answer_policy=AnswerPolicy.NON_MATCHING_FIRST
        )
        assert run.n_crowdsourced <= sequential.n_crowdsourced

    @given(worlds())
    @settings(max_examples=50)
    def test_labels_match_truth(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        run = run_instant(candidates, truth, seed=9)
        for pair, label in run.result.labels().items():
            assert label is truth.label(pair)


class TestAvailabilityBehaviour:
    """The qualitative Figure-15 claims on the running example."""

    def test_id_keeps_pool_at_least_as_full_on_average(
        self, figure3_candidates, figure3_truth
    ):
        plain = run_instant(
            figure3_candidates, figure3_truth, instant_decision=False, seed=11
        )
        with_id = run_instant(
            figure3_candidates, figure3_truth, instant_decision=True, seed=11
        )
        assert with_id.mean_availability() >= plain.mean_availability() - 1e-9

    def test_plain_parallel_drains_pool_between_rounds(
        self, figure3_candidates, figure3_truth
    ):
        plain = run_instant(
            figure3_candidates, figure3_truth, instant_decision=False, seed=2
        )
        # the pool hits zero once per round boundary
        zeros = sum(1 for point in plain.trace if point.n_available == 0)
        assert zeros >= plain.result.n_rounds

    def test_publish_events_cover_all_crowdsourced(
        self, figure3_candidates, figure3_truth
    ):
        run = run_instant(figure3_candidates, figure3_truth, seed=4)
        published = sum(size for _, size in run.publish_events)
        assert published == run.n_crowdsourced

    def test_starvation_count_is_zero_for_figure3_id(self, figure3_candidates, figure3_truth):
        run = run_instant(figure3_candidates, figure3_truth, seed=4)
        # mid-run the ID labeler never leaves the platform empty here
        assert run.starvation_count(below=1) == 0
