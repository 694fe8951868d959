"""Differential tests for the process-parallel backend.

``backend="parallel"`` runs the shard coordinator over pipe-attached local
workers, and must be *observationally identical* to the in-process
backends and to the frozen PR-1 references — labeling-order sensitivity
(Wang et al., "The Expected Optimal Labeling Order Problem") means any
divergence in what a frontier selects or when a deduction lands silently
changes what the crowd is asked.  These tests pin it on seeded random
answer streams, including:

* shuffled completion orders and injected expiry + re-issue through the
  async runtime (answers reach the workers out of publication order);
* forced merge storms — all-positive answer streams that collapse every
  answer-graph shard inside a worker through the lazy ``absorb`` seam;
* worker-count equivalence: 1 worker vs N workers vs the in-process
  backends, at every intermediate frontier;
* spawn-safety: pipe workers run under the ``spawn`` start method (the
  default is ``fork`` where available, for zero-copy snapshots).

Crash safety is covered via the coordinator's ``worker_fault_hook``: when
every worker dies mid-command there is no survivor to re-ship components
to, which must surface a :class:`ShardWorkerError` naming a worker, its exit
code, and the command — never hang — and poison the coordinator for further
use.  The async runtime must propagate that error out of a live campaign.
Recovery from the loss of *some* workers is pinned by the chaos cases in
``test_distributed.py``, which run on both transports.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.engine import (
    AsyncDispatch,
    CrowdRuntime,
    LabelingEngine,
    RuntimeMode,
    ShardCoordinator,
    ShardWorkerError,
    must_crowdsource_frontier,
)
from repro.crowd.clients import SimulatedPlatformClient

from ..aio import run_async
from ..strategies import worlds
from .reference import (
    block_world,
    expiring_client_factory,
    reference_parallel,
    shuffled_client_factory,
)

PARALLEL = dict(backend="parallel", parallel_threshold=0)


def pipe_coordinator(order, n_workers, **options) -> ShardCoordinator:
    """The parallel backend's engine core, built as ``LabelingEngine``
    builds it: pipe-attached local workers."""
    return ShardCoordinator(
        order, spawn_local_workers=n_workers, local_transport="pipe", **options
    )


# ----------------------------------------------------------------------
# differential property tests vs the frozen references
# ----------------------------------------------------------------------
class TestShuffledCompletionOrders:
    """Out-of-order answer arrival must not change anything observable."""

    @pytest.mark.parametrize("seed", (1, 3))
    @given(worlds())
    @settings(max_examples=8, deadline=None)
    def test_rounds_parity_under_shuffled_completions(self, seed, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        reference = reference_parallel(candidates, truth)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            n_workers=2,
            client_factory=shuffled_client_factory(seed),
            **PARALLEL,
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds
        assert result.n_crowdsourced == reference.n_crowdsourced
        assert result.n_deduced == reference.n_deduced

    @given(worlds())
    @settings(max_examples=8, deadline=None)
    def test_parity_under_expiry_and_reissue(self, world):
        """Abandoned HITs are re-issued until answered; the parallel engine
        must absorb the duplicate/late deliveries exactly like the others."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        reference = reference_parallel(candidates, truth)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            n_workers=2,
            client_factory=expiring_client_factory(seed=5),
            **PARALLEL,
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds
        assert result.n_crowdsourced == reference.n_crowdsourced


class TestWorkerCountEquivalence:
    """1 worker vs N workers vs the in-process sharded backend, checked at
    every intermediate frontier of a round-parallel drive."""

    @given(worlds(), st.sampled_from((1, 3)))
    @settings(max_examples=10, deadline=None)
    def test_frontiers_identical_at_every_round(self, world, n_workers):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        inproc = LabelingEngine(candidates, backend="sharded")
        with LabelingEngine(candidates, n_workers=n_workers, **PARALLEL) as par:
            assert par.backend == "parallel"
            round_index = 0
            while not inproc.is_done:
                batch_ref = inproc.frontier()
                batch_par = par.frontier()
                assert batch_par == batch_ref
                for engine in (inproc, par):
                    engine.publish(batch_ref)
                    for pair in batch_ref:
                        engine.record_answer(pair, truth.label(pair), round_index)
                    swept = engine.sweep(round_index)
                    if engine is par:
                        assert swept == swept_ref
                    else:
                        swept_ref = swept
                round_index += 1
            assert par.is_done
            assert par.labeled == inproc.labeled
            par.executor.check_invariants()

    @given(worlds())
    @settings(max_examples=8, deadline=None)
    def test_one_vs_many_workers_full_run(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        one = AsyncDispatch(n_workers=1, **PARALLEL).run(candidates, truth)
        many = AsyncDispatch(n_workers=3, **PARALLEL).run(candidates, truth)
        assert one.outcomes == many.outcomes
        assert one.rounds == many.rounds


class TestMergeStorms:
    """All-positive streams force every answer-graph shard to merge through
    the lazy ``absorb`` seam inside its worker."""

    def test_chain_collapses_to_one_shard_per_component(self):
        order, _ = block_world(n_blocks=6, objects_per_block=6)
        # Make every block a single entity: all answers positive.
        objects = {obj for pair in order for obj in pair}
        all_match = GroundTruthOracle({obj: obj.split("o")[0] for obj in objects})
        with LabelingEngine(order, n_workers=3, **PARALLEL) as par:
            reference = LabelingEngine(order, backend="monolithic")
            round_index = 0
            while not reference.is_done:
                batch = reference.frontier()
                assert par.frontier() == batch
                for engine in (reference, par):
                    engine.publish(batch)
                    for pair in batch:
                        engine.record_answer(pair, all_match.label(pair), round_index)
                    engine.sweep(round_index)
                round_index += 1
            assert par.labeled == reference.labeled
            stats = par.executor.stats()
            # Every block collapsed into one cluster in one shard.
            assert stats["n_shards"] == 6
            assert stats["n_clusters"] == 6
            par.executor.check_invariants()

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_random_spanning_storm_matches_monolithic(self, rnd):
        """Random spanning-tree orders over one giant component: answers
        keep bridging shards until a single shard remains."""
        n = 24
        order = [Pair(i, rnd.randrange(i)) for i in range(1, n)]
        rnd.shuffle(order)
        truth = GroundTruthOracle({i: 0 for i in range(n)})
        reference = reference_parallel(order, truth)
        result = AsyncDispatch(n_workers=2, **PARALLEL).run(order, truth)
        assert result.outcomes == reference.outcomes
        assert result.rounds == reference.rounds


class TestSpawnSafety:
    def test_full_run_under_spawn_start_method(self):
        order, truth = block_world(n_blocks=4, objects_per_block=4)
        with LabelingEngine(
            order, n_workers=2, mp_start_method="spawn", **PARALLEL
        ) as engine:
            assert engine.executor.start_method == "spawn"
            round_index = 0
            while not engine.is_done:
                batch = engine.frontier()
                assert batch
                engine.publish(batch)
                for pair in batch:
                    engine.record_answer(pair, truth.label(pair), round_index)
                engine.sweep(round_index)
                round_index += 1
            for pair in order:
                assert engine.labeled[pair] is truth.label(pair)


# ----------------------------------------------------------------------
# coordinator-level behaviour
# ----------------------------------------------------------------------
class TestExecutorDirect:
    def test_frontier_matches_reference_scan_through_publish_churn(self):
        order, truth = block_world()
        with pipe_coordinator(order, 3) as executor:
            labeled = {}
            published = set()
            for step, pair in enumerate(order):
                expected = must_crowdsource_frontier(order, labeled, exclude=published)
                assert executor.frontier() == expected
                if step % 3 == 0:
                    published.add(pair)
                    executor.publish([pair], withhold=True)
                else:
                    labeled[pair] = truth.label(pair)
                    published.discard(pair)
                    executor.record_answer(pair, labeled[pair])

    def test_none_object_id_component_is_reselected(self):
        """A worker's component rooted at the object None must still be
        re-selected after its pairs are published and answered."""
        order = [Pair(None, 1), Pair(1, 2), Pair(2, 3), Pair(None, 3)]
        order += [Pair("a", "b"), Pair("b", "c")]
        with pipe_coordinator(order, 2) as executor:
            labeled = {}
            published = set(order[:3])
            assert executor.frontier() == order[:3] + order[4:]
            executor.publish(order[:3], withhold=True)
            assert executor.frontier() == order[4:]
            for pair in order[:2]:
                labeled[pair] = Label.NON_MATCHING
                published.discard(pair)
                executor.record_answer(pair, Label.NON_MATCHING)
            expected = must_crowdsource_frontier(order, labeled, exclude=published)
            assert expected == [order[3]] + order[4:]
            assert executor.frontier() == expected

    def test_component_assignment_is_balanced_and_deterministic(self):
        order, _ = block_world(n_blocks=9, objects_per_block=4)
        a = pipe_coordinator(order, 3)
        b = pipe_coordinator(order, 3)
        try:
            assert a.n_components == 9
            assert a.n_workers == 3
            sizes = sorted(link.n_pairs for link in a._links.values())
            assert sizes == sorted(link.n_pairs for link in b._links.values())
            assert max(sizes) - min(sizes) <= 6  # one component of slack
            assert a._worker_of_root == b._worker_of_root
        finally:
            a.close()
            b.close()

    def test_worker_cap_and_foreign_pairs(self):
        order, _ = block_world(n_blocks=2, objects_per_block=3)
        with pipe_coordinator(order, 8) as executor:
            assert executor.n_workers == 2  # never more workers than components
            with pytest.raises(ValueError, match="not in the labeling order"):
                executor.record_answer(Pair("x", "y"), Label.MATCHING)

    def test_cross_component_deduce_short_circuits(self):
        order, truth = block_world(n_blocks=2, objects_per_block=3)
        with pipe_coordinator(order, 2) as executor:
            for pair in order:
                executor.record_answer(pair, truth.label(pair))
            # Objects in different static components: no path can connect
            # them, answered without touching any worker.
            assert executor.deduce(Pair("b0o0", "b1o0")) is None
            assert executor.deduce(order[0]) is truth.label(order[0])

    def test_close_is_idempotent_and_reaps_workers(self):
        order, _ = block_world(n_blocks=2, objects_per_block=3)
        executor = pipe_coordinator(order, 2)
        pids = executor.worker_pids()
        assert executor.frontier()  # workers are alive and serving
        executor.close()
        executor.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(ShardWorkerError, match="closed"):
            executor.frontier()


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------
def die_on_sweep(worker_id: int, command: str) -> None:
    if command == "sweep":
        os._exit(3)


def die_on_frontier(worker_id: int, command: str) -> None:
    if command == "frontier":
        os._exit(5)


def raise_on_worker0_sweep(worker_id: int, command: str) -> None:
    if command == "sweep" and worker_id == 0:
        raise RuntimeError("injected handler failure")


class TestCrashSafety:
    """The ``die_on_*`` hooks kill every worker that handles the command, so
    no survivor can take the components over."""

    def test_worker_death_mid_sweep_raises_not_hangs(self):
        order, truth = block_world()
        with pipe_coordinator(order, 2, worker_fault_hook=die_on_sweep) as ex:
            batch = ex.frontier()
            ex.publish(batch, withhold=True)
            ex.record_answer(batch[0], truth.label(batch[0]))
            with pytest.raises(ShardWorkerError) as excinfo:
                ex.sweep()
            message = str(excinfo.value)
            assert "died with exit code 3" in message
            assert "'sweep'" in message
            assert "shard worker" in message
            # The coordinator is poisoned: its shard state is gone.
            with pytest.raises(ShardWorkerError):
                ex.frontier()

    def test_handler_exception_does_not_desync_the_protocol(self):
        """A worker handler that *raises* (rather than dies) re-raises in
        the parent with every sibling reply consumed: the coordinator stays
        usable and later broadcasts still line up with their replies."""
        order, truth = block_world(n_blocks=4, objects_per_block=4)
        with pipe_coordinator(
            order, 2, worker_fault_hook=raise_on_worker0_sweep
        ) as ex:
            expected = must_crowdsource_frontier(order, {})
            assert ex.frontier() == expected
            with pytest.raises(RuntimeError, match="injected handler failure"):
                ex.sweep()
            # Not a worker death: state is intact, the protocol in sync.
            assert ex.frontier() == expected
            ex.record_answer(order[0], truth.label(order[0]))
            assert ex.frontier() == must_crowdsource_frontier(
                order, {order[0]: truth.label(order[0])}
            )

    def test_worker_death_mid_frontier_raises(self):
        order, _ = block_world(n_blocks=3, objects_per_block=3)
        with pipe_coordinator(order, 3, worker_fault_hook=die_on_frontier) as ex:
            with pytest.raises(ShardWorkerError, match="exit code 5"):
                ex.frontier()

    def test_runtime_surfaces_worker_death_from_live_campaign(self):
        """A campaign over the async runtime must propagate the crash as a
        clear error instead of stalling the event loop."""
        order, truth = block_world(n_blocks=3, objects_per_block=4)
        engine = LabelingEngine(order, n_workers=2, **PARALLEL)
        for pid in engine.executor.worker_pids():
            os.kill(pid, 9)
        runtime = CrowdRuntime(
            engine,
            SimulatedPlatformClient.for_oracle(truth),
            mode=RuntimeMode.ROUNDS,
        )
        with pytest.raises(ShardWorkerError, match="died"):
            run_async(runtime.run())
        assert engine.executor.closed  # the runtime still released the pool

    def test_engine_close_after_crash_is_clean(self):
        order, truth = block_world(n_blocks=2, objects_per_block=3)
        engine = LabelingEngine(order, n_workers=2, **PARALLEL)
        for pid in engine.executor.worker_pids():
            os.kill(pid, 9)
        with pytest.raises(ShardWorkerError):
            engine.frontier()
        engine.close()  # no raise, no hang
        assert engine.executor.closed


class TestBackendRegistration:
    def test_auto_fallback_below_threshold(self):
        order, _ = block_world(n_blocks=2, objects_per_block=3)
        engine = LabelingEngine(order, backend="parallel")  # default threshold
        assert engine.backend == "sharded"  # fell back: order is tiny
        assert engine.executor is None
        forced = LabelingEngine(order, backend="parallel", parallel_threshold=0)
        try:
            assert forced.backend == "parallel"
            assert forced.executor is not None
        finally:
            forced.close()

    def test_result_readable_after_close(self):
        order, truth = block_world(n_blocks=2, objects_per_block=3)
        dispatch = AsyncDispatch(RuntimeMode.ROUNDS, n_workers=2, **PARALLEL)
        result = dispatch.run(order, truth)  # runtime closes the pool
        for pair in order:
            assert result.label_of(pair) is truth.label(pair)
