"""Tests for the campaign runners against the simulated platform."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import CandidatePair, Label, Pair
from repro.crowd.campaign import run_non_parallel, run_non_transitive, run_transitive
from repro.crowd.latency import FixedLatency
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.worker import make_worker_pool
from repro.engine import AsyncDispatch, RuntimeMode

from ..conftest import FIGURE3_ENTITIES, FIGURE3_PAIRS
from ..strategies import worlds


def make_platform(truth, batch_size=3, seed=0, workers=None):
    return SimulatedPlatform(
        workers=workers or make_worker_pool(6, seed=seed),
        truth=truth,
        latency=FixedLatency(),
        batch_size=batch_size,
        n_assignments=3,
        seed=seed,
    )


@pytest.fixture
def figure3_order():
    return [FIGURE3_PAIRS[f"p{i}"] for i in range(1, 9)]


@pytest.fixture
def truth():
    return GroundTruthOracle(FIGURE3_ENTITIES)


class TestNonTransitive:
    def test_crowdsources_every_pair(self, figure3_order, truth):
        report = run_non_transitive(figure3_order, make_platform(truth))
        assert report.n_crowdsourced == 8
        assert report.n_deduced == 0

    def test_labels_correct_with_perfect_workers(self, figure3_order, truth):
        report = run_non_transitive(figure3_order, make_platform(truth))
        for pair in figure3_order:
            assert report.labels[pair] is truth.label(pair)

    def test_hit_count(self, figure3_order, truth):
        report = run_non_transitive(figure3_order, make_platform(truth, batch_size=3))
        assert report.n_hits == 3  # ceil(8 / 3)
        assert report.n_assignments == 9

    def test_single_publish_event(self, figure3_order, truth):
        report = run_non_transitive(figure3_order, make_platform(truth))
        assert len(report.publish_events) == 1


class TestTransitive:
    def test_crowdsources_six_on_figure3(self, figure3_order, truth):
        report = run_transitive(figure3_order, make_platform(truth))
        assert report.n_crowdsourced == 6
        assert report.n_deduced == 2

    def test_labels_correct_with_perfect_workers(self, figure3_order, truth):
        report = run_transitive(figure3_order, make_platform(truth))
        for pair in figure3_order:
            assert report.labels[pair] is truth.label(pair)

    def test_fewer_hits_than_non_transitive(self, figure3_order, truth):
        transitive = run_transitive(figure3_order, make_platform(truth, seed=1))
        baseline = run_non_transitive(figure3_order, make_platform(truth, seed=1))
        assert transitive.n_hits <= baseline.n_hits
        assert transitive.cost <= baseline.cost

    def test_full_hits_preferred(self, truth):
        """Buffering packs publishable pairs into full HITs.

        Round one must crowdsource {p1, p2, p3, p5, p6}: one full HIT of 3
        plus a forced partial of 2 (the platform would otherwise idle); p7 is
        only identifiable after round one and needs a third HIT.  Without
        buffering, naive per-burst batching could not do better either, but
        the first HIT must be full."""
        order = [FIGURE3_PAIRS[f"p{i}"] for i in range(1, 9)]
        report = run_transitive(order, make_platform(truth, batch_size=3))
        assert report.n_hits == 3
        assert len(report.hit_batches[0]) == 3

    def test_hit_batches_cover_crowdsourced_pairs(self, figure3_order, truth):
        report = run_transitive(figure3_order, make_platform(truth))
        published = [pair for batch in report.hit_batches for pair in batch]
        crowdsourced = {
            pair
            for pair, provenance in report.provenance.items()
            if provenance.value == "crowdsourced"
        }
        assert set(published) == crowdsourced
        assert len(published) == len(crowdsourced)

    @given(worlds(max_objects=8, max_pairs=14))
    @settings(max_examples=25, deadline=None)
    def test_perfect_workers_match_sequential_labels(self, world):
        candidates, entity_of = world
        if not candidates:
            return
        truth = GroundTruthOracle(entity_of)
        report = run_transitive(
            [c.pair for c in candidates], make_platform(truth, batch_size=2, seed=3)
        )
        sequential = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(candidates, truth)
        assert report.labels == sequential.labels()

    @given(worlds(max_objects=8, max_pairs=14))
    @settings(max_examples=25, deadline=None)
    def test_crowdsourced_never_exceeds_sequential(self, world):
        candidates, entity_of = world
        if not candidates:
            return
        truth = GroundTruthOracle(entity_of)
        report = run_transitive(
            [c.pair for c in candidates], make_platform(truth, batch_size=2, seed=4)
        )
        sequential = AsyncDispatch(RuntimeMode.SEQUENTIAL).run(candidates, truth)
        assert report.n_crowdsourced <= sequential.n_crowdsourced

    def test_round_based_mode(self, figure3_order, truth):
        report = run_transitive(
            figure3_order, make_platform(truth), instant_decision=False
        )
        assert report.n_crowdsourced == 6
        for pair in figure3_order:
            assert report.labels[pair] is truth.label(pair)


class TestNonParallel:
    def test_replays_hits_serially(self, figure3_order, truth):
        chunks = [figure3_order[:3], figure3_order[3:6], figure3_order[6:]]
        report = run_non_parallel(chunks, make_platform(truth))
        assert report.n_hits == 3
        assert len(report.publish_events) == 3
        for pair in figure3_order:
            assert report.labels[pair] is truth.label(pair)

    def test_slower_than_parallel_publication(self, figure3_order, truth):
        chunks = [figure3_order[:3], figure3_order[3:6], figure3_order[6:]]
        serial = run_non_parallel(chunks, make_platform(truth, seed=5))
        together = run_non_transitive(figure3_order, make_platform(truth, seed=5))
        assert serial.completion_hours > together.completion_hours

    def test_same_hits_same_cost(self, figure3_order, truth):
        """Table 1's invariant: replaying identical HITs costs the same."""
        transitive = run_transitive(figure3_order, make_platform(truth, seed=6))
        replay = run_non_parallel(transitive.hit_batches, make_platform(truth, seed=7))
        assert replay.n_hits == transitive.n_hits
        assert replay.cost == pytest.approx(transitive.cost)
