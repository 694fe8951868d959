"""Tests for the future-work extensions: one-to-one, budget, auditing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_graph import ClusterGraph, ConflictPolicy
from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.engine import AsyncDispatch, RuntimeMode, must_crowdsource_frontier
from repro.er.metrics import evaluate_labels
from repro.ext.budget import coverage_curve, label_with_budget
from repro.ext.one_to_one import OneToOneClusterGraph, label_sequential_one_to_one
from repro.ext.voting import DeductionAuditor, FreshNoisyOracle, audit_deductions

from ..strategies import worlds


def bipartite_world(n_entities: int):
    """A strict 1-1 bipartite world: entity i has records ai and bi."""
    entity_of = {}
    source_of = {}
    for i in range(n_entities):
        entity_of[f"a{i}"] = i
        entity_of[f"b{i}"] = i
        source_of[f"a{i}"] = "A"
        source_of[f"b{i}"] = "B"
    return entity_of, source_of


class TestOneToOneGraph:
    def test_match_occupies_source(self):
        _, source_of = bipartite_world(3)
        graph = OneToOneClusterGraph(source_of)
        graph.add(Pair("a0", "b0"), Label.MATCHING)
        assert graph.deduce(Pair("a0", "b1")) is Label.NON_MATCHING
        assert graph.deduce(Pair("b0", "a1")) is Label.NON_MATCHING

    def test_transitive_deduction_still_works(self):
        _, source_of = bipartite_world(3)
        graph = OneToOneClusterGraph(source_of)
        graph.add(Pair("a0", "b0"), Label.MATCHING)
        assert graph.deduce(Pair("a0", "b0")) is Label.MATCHING

    def test_no_rule_for_unknown_objects(self):
        _, source_of = bipartite_world(3)
        graph = OneToOneClusterGraph(source_of)
        assert graph.deduce(Pair("a0", "b0")) is None

    def test_no_rule_for_same_source(self):
        _, source_of = bipartite_world(3)
        graph = OneToOneClusterGraph(source_of)
        graph.add(Pair("a0", "b0"), Label.MATCHING)
        assert graph.deduce(Pair("a0", "a1")) is None

    def test_occupancy_survives_merges(self):
        """Occupancy must follow clusters through chained matching inserts."""
        source_of = {"a0": "A", "x": "C", "b0": "B", "b5": "B"}
        graph = OneToOneClusterGraph(source_of)
        graph.add(Pair("a0", "x"), Label.MATCHING)
        graph.add(Pair("x", "b0"), Label.MATCHING)
        # cluster {a0, x, b0} occupies A, B, C; b5 is a different B record
        assert graph.deduce(Pair("a0", "b5")) is Label.NON_MATCHING
        assert graph.deduce(Pair("x", "b5")) is Label.NON_MATCHING

    def test_sourceless_records_never_trigger(self):
        graph = OneToOneClusterGraph({})
        graph.add(Pair("a0", "b0"), Label.MATCHING)
        assert graph.deduce(Pair("a0", "b1")) is None

    def test_base_graph_exposed(self):
        _, source_of = bipartite_world(2)
        graph = OneToOneClusterGraph(source_of)
        graph.add(Pair("a0", "b0"), Label.MATCHING)
        assert graph.base_graph.n_clusters == 1


class TestOneToOneLabeler:
    def test_saves_over_plain_sequential(self):
        entity_of, source_of = bipartite_world(4)
        truth = GroundTruthOracle(entity_of)
        order = [Pair(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
        plain = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(order, truth)
        one_to_one = label_sequential_one_to_one(order, truth, source_of)
        # in a dense 1-1 grid the saving must be strict
        assert one_to_one.n_crowdsourced < plain.n_crowdsourced

    def test_labels_correct_on_one_to_one_truth(self):
        entity_of, source_of = bipartite_world(4)
        truth = GroundTruthOracle(entity_of)
        order = [Pair(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
        result = label_sequential_one_to_one(order, truth, source_of)
        for pair, label in result.labels().items():
            assert label is truth.label(pair)

    @given(st.integers(2, 6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_never_worse_than_plain_and_always_correct(self, n_entities, seed):
        import random

        entity_of, source_of = bipartite_world(n_entities)
        truth = GroundTruthOracle(entity_of)
        order = [
            Pair(f"a{i}", f"b{j}")
            for i in range(n_entities)
            for j in range(n_entities)
        ]
        random.Random(seed).shuffle(order)
        plain = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(order, truth)
        one_to_one = label_sequential_one_to_one(order, truth, source_of)
        assert one_to_one.n_crowdsourced <= plain.n_crowdsourced
        for pair, label in one_to_one.labels().items():
            assert label is truth.label(pair)

    def test_unsound_on_multi_record_sources(self):
        """Applying the rule where an entity has two records in one source
        produces a wrong deduction — the documented trade-off."""
        entity_of = {"a0": 0, "a1": 0, "b0": 0}  # a0, a1 both in source A
        source_of = {"a0": "A", "a1": "A", "b0": "B"}
        truth = GroundTruthOracle(entity_of)
        order = [Pair("a0", "b0"), Pair("a1", "b0")]
        result = label_sequential_one_to_one(order, truth, source_of)
        # (a1, b0) is truly matching but the rule deduces non-matching
        assert result.label_of(Pair("a1", "b0")) is Label.NON_MATCHING
        assert truth.label(Pair("a1", "b0")) is Label.MATCHING


class TestBudget:
    @pytest.fixture
    def world(self):
        entity_of = {"a": 1, "b": 1, "c": 1, "d": 2, "e": 2}
        order = [
            Pair("a", "b"),
            Pair("b", "c"),
            Pair("a", "c"),
            Pair("d", "e"),
            Pair("a", "d"),
        ]
        return GroundTruthOracle(entity_of), order

    def test_zero_budget_resolves_nothing(self, world):
        truth, order = world
        result = label_with_budget(order, truth, budget=0)
        assert result.result.n_pairs == 0
        assert len(result.unresolved) == len(order)
        assert result.coverage == 0.0

    def test_unlimited_budget_resolves_everything(self, world):
        truth, order = world
        result = label_with_budget(order, truth, budget=len(order))
        assert result.coverage == 1.0
        assert not result.unresolved

    def test_deduction_stretches_budget(self, world):
        truth, order = world
        result = label_with_budget(order, truth, budget=2)
        # two questions (a,b), (b,c) resolve (a,c) for free
        assert result.result.n_pairs == 3
        assert result.pairs_per_question == pytest.approx(1.5)

    def test_negative_budget_rejected(self, world):
        truth, order = world
        with pytest.raises(ValueError):
            label_with_budget(order, truth, budget=-1)

    def test_coverage_curve_is_monotone(self, world):
        truth, order = world
        curve = coverage_curve(order, truth, budgets=[0, 1, 2, 3, 4, 5])
        values = [curve[budget] for budget in sorted(curve)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    @given(worlds(max_objects=8, max_pairs=14), st.integers(0, 14))
    @settings(max_examples=30)
    def test_labels_within_budget_are_correct(self, world, budget):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        result = label_with_budget(candidates, truth, budget=budget)
        assert result.result.n_crowdsourced <= budget
        for pair, label in result.result.labels().items():
            assert label is truth.label(pair)

    @given(worlds(max_objects=8, max_pairs=14))
    @settings(max_examples=30)
    def test_coverage_monotone_in_budget(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        budgets = list(range(len(candidates) + 1))
        curve = coverage_curve(candidates, truth, budgets=budgets)
        values = [curve[budget] for budget in budgets]
        assert values == sorted(values)


class TestConflictImpossibility:
    """Reproduction finding: under the sound parallel selection rule, a
    crowd answer can never contradict the deduction graph at insert time —
    even with arbitrarily wrong answers.  This is why errors get baked in
    silently and why auditing needs deliberate redundancy."""

    @given(worlds(max_objects=9, max_pairs=18), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_no_insert_time_conflict_even_with_noise(self, world, seed):
        candidates, entity_of = world
        if not candidates:
            return
        truth = GroundTruthOracle(entity_of)
        noisy = FreshNoisyOracle(truth, error_rate=0.4, seed=seed)
        pairs = [c.pair for c in candidates]
        labeled = {}
        graph = ClusterGraph(policy=ConflictPolicy.FIRST_WINS)
        remaining = list(pairs)
        for _ in range(len(pairs) + 1):
            if not remaining:
                break
            batch = must_crowdsource_frontier(pairs, labeled)
            for pair in batch:
                answer = noisy.label(pair)
                implied = graph.deduce(pair)
                assert implied is None, (
                    f"published pair {pair!r} had an implied label at insert time"
                )
                labeled[pair] = answer
                graph.add(pair, answer)
            remaining = [
                p for p in remaining if p not in labeled and graph.deduce(p) is None
            ]
            for pair in list(remaining):
                deduced = graph.deduce(pair)
                if deduced is not None:
                    labeled[pair] = deduced
            remaining = [p for p in remaining if p not in labeled]
        assert not graph.conflicts


class TestAuditing:
    def make_noisy_run(self, error_rate=0.3, seed=7):
        entity_of = {f"o{i}": i // 5 for i in range(20)}
        truth = GroundTruthOracle(entity_of)
        order = [
            Pair(f"o{i}", f"o{j}")
            for i in range(20)
            for j in range(i + 1, 20)
            if i // 5 == j // 5 or (i * j) % 7 == 0
        ]
        noisy = FreshNoisyOracle(truth, error_rate=error_rate, seed=seed)
        result = AsyncDispatch(
            RuntimeMode.SEQUENTIAL, policy=ConflictPolicy.FIRST_WINS
        ).run(order, noisy)
        return result, truth, noisy

    def test_perfect_oracle_finds_no_disagreements(self):
        entity_of = {"a": 1, "b": 1, "c": 1}
        truth = GroundTruthOracle(entity_of)
        result = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(
            [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")], truth
        )
        report = audit_deductions(result, truth, fraction=1.0, votes=3)
        assert report.audited  # (a, c) was deduced
        assert not report.disagreements
        assert report.disagreement_rate == 0.0

    def test_audit_samples_requested_fraction(self):
        result, truth, noisy = self.make_noisy_run()
        report = audit_deductions(result, noisy, fraction=0.5, votes=3, seed=1)
        assert len(report.audited) == max(1, round(result.n_deduced * 0.5))
        assert report.extra_queries == len(report.audited) * 3

    def test_audit_improves_quality_under_noise(self):
        result, truth, noisy = self.make_noisy_run(error_rate=0.3, seed=11)
        before = evaluate_labels(result.labels(), truth)
        report = audit_deductions(result, noisy, fraction=1.0, votes=5, seed=2)
        after = evaluate_labels(report.repaired_labels, truth)
        assert after.f_measure >= before.f_measure

    def test_repaired_labels_cover_every_pair(self):
        result, truth, noisy = self.make_noisy_run()
        report = audit_deductions(result, noisy, fraction=0.3, votes=3)
        assert set(report.repaired_labels) == set(result.labels())

    def test_zero_fraction_audits_one_pair_at_most(self):
        result, truth, noisy = self.make_noisy_run()
        report = audit_deductions(result, noisy, fraction=0.0, votes=3)
        assert len(report.audited) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeductionAuditor(fraction=1.5)
        with pytest.raises(ValueError):
            DeductionAuditor(votes=0)
        with pytest.raises(ValueError):
            FreshNoisyOracle(GroundTruthOracle({}), error_rate=2.0)

    def test_fresh_oracle_rerolls(self):
        truth = GroundTruthOracle({"a": 1, "b": 1})
        noisy = FreshNoisyOracle(truth, error_rate=0.5, seed=3)
        answers = {noisy.label(Pair("a", "b")) for _ in range(40)}
        assert len(answers) == 2
        assert noisy.n_queries == 40
