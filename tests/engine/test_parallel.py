"""Differential tests for the shard workers and their coordinator.

``backend="distributed"`` runs the shard coordinator over spawned local
socket workers, and must be *observationally identical* to the in-process
backends and to the frozen PR-1 references — labeling-order sensitivity
(Wang et al., "The Expected Optimal Labeling Order Problem") means any
divergence in what a frontier selects or when a deduction lands silently
changes what the crowd is asked.  These tests pin it on seeded random
answer streams, including:

* shuffled completion orders and injected expiry + re-issue through the
  async runtime (answers reach the workers out of publication order);
* forced merge storms — all-positive answer streams that collapse every
  component into one cluster inside its worker;
* worker-count equivalence: 1 worker vs N workers vs the in-process
  backends, at every intermediate frontier;
* the split itself, in-process: whole static components dealt to separate
  ``_WorkerState`` objects, each with its own plain ``ClusterGraph``, give
  the deductions, conflicts, sweeps and merged frontiers of one
  monolithic engine — an answer never crosses a static component, so no
  union ever needs two workers;
* spawn-safety: socket workers run under the ``spawn`` start method (the
  default is ``fork`` where available).

Crash safety is covered via the coordinator's ``worker_fault_hook``: when
every worker dies mid-command there is no survivor to re-ship components
to, which must surface a :class:`ShardWorkerError` naming a worker, its exit
code, and the command — never hang — and poison the coordinator for further
use.  The async runtime must propagate that error out of a live campaign.
Recovery from the loss of *some* workers is pinned by the chaos cases in
``test_distributed.py``.
"""

from __future__ import annotations

import heapq
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_graph import ConflictPolicy, InconsistentLabelError
from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import LABEL_CODE, LABEL_OF_CODE, Label, Pair
from repro.core.union_find import UnionFind
from repro.engine import (
    AsyncDispatch,
    CrowdRuntime,
    LabelingEngine,
    RuntimeMode,
    ShardCoordinator,
    ShardWorkerError,
    must_crowdsource_frontier,
)
from repro.engine.parallel import _UNCHANGED, _WorkerState
from repro.crowd.clients import SimulatedPlatformClient

from ..aio import run_async
from ..strategies import worlds
from ..worker_hosts import SHARED_HOSTS
from .reference import (
    block_world,
    expiring_client_factory,
    reference_parallel,
    shuffled_client_factory,
)

WORKERS = dict(backend="distributed")


def local_coordinator(order, n_workers, **options) -> ShardCoordinator:
    """The distributed backend's engine core over ``n_workers`` spawned
    local socket workers."""
    return ShardCoordinator(order, spawn_local_workers=n_workers, **options)


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
            spawn_local_workers=2,
            client_factory=shuffled_client_factory(seed),
            **WORKERS,
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds
        assert result.n_crowdsourced == reference.n_crowdsourced
        assert result.n_deduced == reference.n_deduced

    @given(worlds())
    @settings(max_examples=8, deadline=None)
    def test_parity_under_expiry_and_reissue(self, world):
        """Abandoned HITs are re-issued until answered; the worker-backed
        engine must absorb the duplicate/late deliveries exactly like the
        others."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        reference = reference_parallel(candidates, truth)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            spawn_local_workers=2,
            client_factory=expiring_client_factory(seed=5),
            **WORKERS,
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds
        assert result.n_crowdsourced == reference.n_crowdsourced


class TestWorkerCountEquivalence:
    """1 worker vs N workers vs the in-process monolithic backend, checked
    at every intermediate frontier of a round-parallel drive."""

    @given(worlds(), st.sampled_from((1, 3)))
    @settings(max_examples=10, deadline=None)
    def test_frontiers_identical_at_every_round(self, world, n_workers):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        inproc = LabelingEngine(candidates, backend="monolithic")
        with LabelingEngine(
            candidates, spawn_local_workers=n_workers, **WORKERS
        ) as par:
            assert par.backend == "distributed"
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
        one = AsyncDispatch(spawn_local_workers=1, **WORKERS).run(candidates, truth)
        many = AsyncDispatch(spawn_local_workers=3, **WORKERS).run(candidates, truth)
        assert one.outcomes == many.outcomes
        assert one.rounds == many.rounds


class TestMergeStorms:
    """All-positive streams merge every component into one cluster inside
    its worker."""

    def test_chain_collapses_to_one_shard_per_component(self):
        order, _ = block_world(n_blocks=6, objects_per_block=6)
        # Make every block a single entity: all answers positive.
        objects = {obj for pair in order for obj in pair}
        all_match = GroundTruthOracle({obj: obj.split("o")[0] for obj in objects})
        with LabelingEngine(order, spawn_local_workers=3, **WORKERS) as par:
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
            # Every block collapsed into one cluster.
            assert stats["n_clusters"] == 6
            par.executor.check_invariants()

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_random_spanning_storm_matches_monolithic(self, rnd):
        """Random spanning-tree orders over one giant component: answers
        keep merging clusters until a single cluster remains."""
        n = 24
        order = [Pair(i, rnd.randrange(i)) for i in range(1, n)]
        rnd.shuffle(order)
        truth = GroundTruthOracle({i: 0 for i in range(n)})
        reference = reference_parallel(order, truth)
        result = AsyncDispatch(spawn_local_workers=2, **WORKERS).run(order, truth)
        assert result.outcomes == reference.outcomes
        assert result.rounds == reference.rounds


class WorkerSplit:
    """Whole static components of an engine's order dealt round-robin to
    in-process :class:`_WorkerState` objects, driven the way
    :class:`ShardCoordinator` drives its workers: each event goes to the
    owner of its pair, sweeps and frontiers merge by order position."""

    def __init__(self, pairs, n_workers: int, policy=ConflictPolicy.STRICT) -> None:
        self.pairs = list(pairs)
        self.position = {pair: gpos for gpos, pair in enumerate(self.pairs)}
        components = UnionFind()
        for pair in self.pairs:
            components.union(pair.left, pair.right)
        by_root: dict = {}
        for gpos, pair in enumerate(self.pairs):
            by_root.setdefault(components.find(pair.left), []).append((gpos, pair))
        shares: list = [[] for _ in range(n_workers)]
        for i, entries in enumerate(by_root.values()):
            shares[i % n_workers].extend(entries)
        shares = [sorted(share) for share in shares if share]
        self.workers = [_WorkerState(share, policy) for share in shares]
        self._worker_of_object = {
            obj: worker
            for worker, share in zip(self.workers, shares)
            for _, pair in share
            for obj in pair
        }
        self._frontiers: list = [[] for _ in self.workers]

    def owner(self, pair: Pair) -> _WorkerState:
        return self._worker_of_object[pair.left]

    def answer(self, pair: Pair, label: Label):
        return self.owner(pair).answer(self.position[pair], LABEL_CODE[label])

    def publish(self, batch) -> None:
        for pair in batch:
            self.owner(pair).publish([self.position[pair]], withhold=True)

    def sweep(self):
        merged = heapq.merge(*(worker.sweep() for worker in self.workers))
        return [(self.pairs[gpos], LABEL_OF_CODE[code]) for gpos, code in merged]

    def frontier(self):
        for i, worker in enumerate(self.workers):
            reply = worker.frontier()
            if reply != _UNCHANGED:
                self._frontiers[i] = reply
        return [self.pairs[gpos] for gpos in heapq.merge(*self._frontiers)]

    def deduce(self, pair: Pair):
        """Objects held by different workers share no static component, so
        no answer can relate them."""
        left = self._worker_of_object.get(pair.left)
        if left is None or left is not self._worker_of_object.get(pair.right):
            return None
        code = left.deduce(pair)
        return None if code is None else LABEL_OF_CODE[code]

    def totals(self) -> dict:
        keys = ("n_objects", "n_clusters", "n_matching_edges", "n_non_matching_edges")
        stats = [worker.stats() for worker in self.workers]
        return {key: sum(s[key] for s in stats) for key in keys}


def assert_split_matches(engine: LabelingEngine, split: WorkerSplit, objects) -> None:
    """The split's graphs hold exactly the one graph's structure."""
    graph = engine.graph
    assert split.totals() == {
        "n_objects": graph.n_objects,
        "n_clusters": graph.n_clusters,
        "n_matching_edges": graph.n_matching_edges,
        "n_non_matching_edges": graph.n_non_matching_edges,
    }
    assert {
        frozenset(cluster) for worker in split.workers for cluster in worker.clusters()
    } == {frozenset(cluster) for cluster in graph.clusters()}
    objects = sorted(objects)
    for i, a in enumerate(objects):
        for b in objects[i + 1:]:
            assert split.deduce(Pair(a, b)) == engine.deduce(Pair(a, b))
    for worker in split.workers:
        worker.check()


class TestWorkerSplitParity:
    """Shard workers hold plain ``ClusterGraph`` objects and never
    coordinate: the in-process split equals one monolithic engine."""

    @given(
        worlds(max_objects=14, max_pairs=40),
        st.randoms(use_true_random=False),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_consistent_answer_sequences(self, world, rnd, n_workers):
        """Oracle-truth answers in random order: identical deductions,
        clusters and counters."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        engine = LabelingEngine(candidates, backend="monolithic")
        split = WorkerSplit(engine.pairs, n_workers)
        pairs = list(engine.pairs)
        rnd.shuffle(pairs)
        for pair in pairs:
            label = truth.label(pair)
            applied, conflict = split.answer(pair, label)
            assert engine.record_answer(pair, label, 0) == applied
            assert conflict is None
        assert_split_matches(engine, split, entity_of)

    @given(
        worlds(max_objects=12, max_pairs=30),
        st.randoms(use_true_random=False),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_noisy_first_wins_sequences(self, world, rnd, n_workers):
        """Under FIRST_WINS with randomly flipped labels, each worker drops
        exactly the edges the one graph drops and reports its conflict."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        policy = ConflictPolicy.FIRST_WINS
        engine = LabelingEngine(candidates, policy=policy, backend="monolithic")
        split = WorkerSplit(engine.pairs, n_workers, policy)
        for pair in engine.pairs:
            label = truth.label(pair)
            if rnd.random() < 0.3:
                label = label.negate()
            n_conflicts = len(engine.graph.conflicts)
            applied, conflict = split.answer(pair, label)
            assert engine.record_answer(pair, label, 0) == applied
            assert engine.graph.conflicts[n_conflicts:] == (
                [] if conflict is None else [conflict]
            )
        assert_split_matches(engine, split, entity_of)

    @given(worlds(max_objects=10, max_pairs=20), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_sweep_via_pending_pair_index(self, world, n_workers):
        """The workers' incremental sweeps, merged by position, resolve
        exactly what the one engine's sweep resolves, answer by answer."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        engine = LabelingEngine(candidates, backend="monolithic")
        split = WorkerSplit(engine.pairs, n_workers)
        for round_index, pair in enumerate(engine.pairs):
            if pair in engine.labeled:
                continue
            label = truth.label(pair)
            engine.record_answer(pair, label, round_index)
            split.answer(pair, label)
            assert split.sweep() == engine.sweep(round_index)
        assert engine.is_done

    @given(worlds(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_merged_frontiers_equal_the_engine_frontier(self, world, n_workers):
        """Round-parallel drive: the position merge of the workers'
        selections is the engine's Algorithm-3 frontier every round."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        engine = LabelingEngine(candidates, backend="monolithic")
        split = WorkerSplit(engine.pairs, n_workers)
        round_index = 0
        while not engine.is_done:
            batch = engine.frontier()
            assert split.frontier() == batch
            engine.publish(batch)
            split.publish(batch)
            assert split.frontier() == engine.frontier() == []
            for pair in batch:
                label = truth.label(pair)
                engine.record_answer(pair, label, round_index)
                split.answer(pair, label)
            assert split.sweep() == engine.sweep(round_index)
            round_index += 1
        assert split.frontier() == []

    def test_all_positive_chain_stays_in_one_worker(self):
        """Adversarial all-positive chain: 30 two-object clusters bridged
        one by one into one, all inside the worker holding the chain,
        while the worker holding an unrelated component sees nothing."""
        n = 60
        chain = [Pair(i, i + 1) for i in range(n - 1)]
        other = [Pair(100, 101), Pair(101, 102)]
        engine = LabelingEngine(chain + other, backend="monolithic")
        split = WorkerSplit(engine.pairs, 2)
        holder, bystander = split.owner(chain[0]), split.owner(other[0])
        assert holder is not bystander
        before = bystander.stats()
        for pair in chain[0::2] + chain[1::2]:
            applied, _ = split.answer(pair, Label.MATCHING)
            assert applied and engine.record_answer(pair, Label.MATCHING, 0)
        assert bystander.stats() == before
        assert holder.stats()["n_clusters"] == 1
        assert_split_matches(engine, split, range(n))
        for i in range(1, n):
            assert split.deduce(Pair(0, i)) is Label.MATCHING
        assert split.deduce(Pair(0, 100)) is None

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_all_positive_random_spanning_order(self, rnd):
        """Two random spanning trees answered all-positive in random order
        converge to one cluster per worker, as in the one graph."""
        n = 30
        order = [Pair(i, rnd.randrange(i)) for i in range(1, n)]
        order += [Pair(100 + i, 100 + rnd.randrange(i)) for i in range(1, n)]
        rnd.shuffle(order)
        engine = LabelingEngine(order, backend="monolithic")
        split = WorkerSplit(engine.pairs, 2)
        assert len(split.workers) == 2
        answers = list(order)
        rnd.shuffle(answers)
        for pair in answers:
            applied, _ = split.answer(pair, Label.MATCHING)
            assert applied and engine.record_answer(pair, Label.MATCHING, 0)
        assert [worker.stats()["n_clusters"] for worker in split.workers] == [1, 1]
        assert_split_matches(engine, split, list(range(n)) + list(range(100, 100 + n)))

    def test_disjoint_components_stay_in_separate_workers(self):
        order = [
            Pair("a1", "a2"),
            Pair("b1", "b2"),
            Pair("c1", "c2"),
            Pair("a1", "b1"),
        ]
        engine = LabelingEngine(order, backend="monolithic")
        split = WorkerSplit(engine.pairs, 3)
        # Two static components, so two workers: a1-b1 ties a and b.
        assert len(split.workers) == 2
        assert split.owner(order[0]) is split.owner(order[1])
        answers = [Label.MATCHING, Label.NON_MATCHING, Label.MATCHING, Label.NON_MATCHING]
        for pair, label in zip(order, answers):
            split.answer(pair, label)
            engine.record_answer(pair, label, 0)
        assert [worker.stats()["n_objects"] for worker in split.workers] == [4, 2]
        # Negative transitivity through the a1-b1 answer, inside one worker...
        assert split.deduce(Pair("a2", "b1")) is Label.NON_MATCHING
        # ...nothing between unrelated clusters of it, nor across workers.
        assert split.deduce(Pair("a1", "b2")) is None
        assert split.deduce(Pair("a1", "c1")) is None
        assert_split_matches(engine, split, ["a1", "a2", "b1", "b2", "c1", "c2"])

    def test_strict_policy_raises_like_monolithic(self):
        order = [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")]
        engine = LabelingEngine(order, backend="monolithic")
        split = WorkerSplit(engine.pairs, 2)
        for pair in order[:2]:
            split.answer(pair, Label.MATCHING)
            engine.record_answer(pair, Label.MATCHING, 0)
        with pytest.raises(InconsistentLabelError):
            engine.record_answer(order[2], Label.NON_MATCHING, 0)
        with pytest.raises(InconsistentLabelError):
            split.answer(order[2], Label.NON_MATCHING)


class TestSpawnSafety:
    def test_full_run_under_spawn_start_method(self):
        order, truth = block_world(n_blocks=4, objects_per_block=4)
        with LabelingEngine(
            order, spawn_local_workers=2, mp_start_method="spawn", **WORKERS
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
        with local_coordinator(order, 3) as executor:
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
        with local_coordinator(order, 2) as executor:
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
        a = local_coordinator(order, 3)
        b = local_coordinator(order, 3)
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
        with local_coordinator(order, 8) as executor:
            assert executor.n_workers == 2  # never more workers than components
            with pytest.raises(ValueError, match="not in the labeling order"):
                executor.record_answer(Pair("x", "y"), Label.MATCHING)

    def test_cross_component_deduce_short_circuits(self):
        order, truth = block_world(n_blocks=2, objects_per_block=3)
        with local_coordinator(order, 2) as executor:
            for pair in order:
                executor.record_answer(pair, truth.label(pair))
            # Objects in different static components: no path can connect
            # them, answered without touching any worker.
            assert executor.deduce(Pair("b0o0", "b1o0")) is None
            assert executor.deduce(order[0]) is truth.label(order[0])

    def test_close_is_idempotent_and_reaps_workers(self):
        order, _ = block_world(n_blocks=2, objects_per_block=3)
        executor = local_coordinator(order, 2)
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
        with local_coordinator(order, 2, worker_fault_hook=die_on_sweep) as ex:
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
        with local_coordinator(
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
        with local_coordinator(order, 3, worker_fault_hook=die_on_frontier) as ex:
            with pytest.raises(ShardWorkerError, match="exit code 5"):
                ex.frontier()

    def test_runtime_surfaces_worker_death_from_live_campaign(self):
        """A campaign over the async runtime must propagate the crash as a
        clear error instead of stalling the event loop."""
        order, truth = block_world(n_blocks=3, objects_per_block=4)
        engine = LabelingEngine(order, spawn_local_workers=2, **WORKERS)
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
        engine = LabelingEngine(order, spawn_local_workers=2, **WORKERS)
        for pid in engine.executor.worker_pids():
            os.kill(pid, 9)
        with pytest.raises(ShardWorkerError):
            engine.frontier()
        engine.close()  # no raise, no hang
        assert engine.executor.closed


class TestBackendRegistration:
    def test_retired_parallel_backend_is_unknown(self):
        """The pipe-worker backend is gone: its name is refused like any
        unknown one (old spec documents decode it as ``auto``)."""
        order, _ = block_world(n_blocks=2, objects_per_block=3)
        with pytest.raises(ValueError, match="backend must be one of"):
            LabelingEngine(order, backend="parallel")

    @pytest.mark.parametrize(
        "remote, count",
        [(False, 0), (False, -3), (True, -3)],
        ids=["local-only-0", "local-only--3", "beside-remote--3"],
    )
    def test_explicit_non_positive_worker_count_rejected(self, remote, count):
        """An explicit local worker count is never read as the CPU-count
        default: zero is refused when no remote host is named (zero local
        workers beside remote hosts is a remote-only topology), and a
        negative count is refused even beside remote hosts — before any
        worker is dialled or spawned."""
        order, _ = block_world(n_blocks=2, objects_per_block=3)
        workers = list(SHARED_HOSTS) if remote else None
        with pytest.raises(ValueError, match="at least one worker"):
            LabelingEngine(
                order, workers=workers, spawn_local_workers=count, **WORKERS
            )

    def test_result_readable_after_close(self):
        order, truth = block_world(n_blocks=2, objects_per_block=3)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS, spawn_local_workers=2, **WORKERS
        )
        result = dispatch.run(order, truth)  # runtime closes the pool
        for pair in order:
            assert result.label_of(pair) is truth.label(pair)
