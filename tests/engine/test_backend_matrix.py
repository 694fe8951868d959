"""The backend parity matrix: every dispatch strategy × every engine backend.

Before this suite existed, backend parity lived in copy-pasted per-backend
test classes (``test_parity.py`` asserted the monolithic backend against the
frozen PR-1 references, ``test_sharding.py`` repeated the same assertions
for ``backend="sharded"``).  This file replaces those copies with one
parametrized matrix, so a future backend gets full parity coverage by adding
one entry to :data:`BACKENDS`.

Every cell of the matrix is pinned to the frozen pre-refactor references in
``tests/engine/reference.py`` (see docs/engine.md, "Testing: the frozen
reference pattern"):

* ``AsyncDispatch(SEQUENTIAL)`` must replicate ``reference_sequential`` —
  labels, outcome records, per-round published lists, and oracle-call
  order — through both of its entry points: the synchronous ``run`` (the
  ``sequential`` column) and ``run_async`` awaited on a running loop (the
  ``async-sequential`` column);
* ``AsyncDispatch(ROUNDS)`` must replicate ``reference_parallel`` the same
  way (the ``rounds`` and ``async-rounds`` columns);
* the runtime's ``instant`` mode over Figure 15's answer-order client
  makes seeded rng-driven choices with no sequential reference, so its
  non-monolithic cells are pinned to the *monolithic* run instead:
  identical frontiers mean identical published pools, so labels, rounds,
  the availability trace, and the publish events must all coincide;
* a matching answer can unlock a must-crowdsource pair through the
  non-matching pair its sweep deduces — the reason the instant mode's
  reselection rule counts deductions, pinned on every backend;
* ``LabelingEngine.record_answers`` folds a tick's completions into one
  call, which with one sweep after it must leave the same
  ``state_fingerprint()`` as applying them one at a time with a sweep
  after each.

The ``parallel`` column runs real worker processes (``parallel_threshold=0``
forces them even on these small worlds), so every cell here is also an
end-to-end differential test of the process-parallel executor.  The
``vectorized`` column exercises the array-native kernels when numpy is
installed; without it the engine's documented fallback makes the column a
second run of the sharded backend, so the matrix passes either way (the
``no-extras`` CI leg relies on that).  The ``distributed`` column spawns
local :class:`~repro.engine.distributed.ShardWorkerHost` processes and runs
the whole command protocol over real TCP sockets, so every cell doubles as
an end-to-end wire-protocol differential (fault injection lives in
``test_distributed.py``).
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.crowd.campaign import InstantRunResult
from repro.crowd.clients import AnswerOrderClient, AnswerPolicy
from repro.engine import AsyncDispatch, CrowdRuntime, LabelingEngine, RuntimeMode

from ..aio import run_async
from ..strategies import worlds
from .reference import RecordingOracle, reference_parallel, reference_sequential

BACKENDS = ("monolithic", "sharded", "vectorized", "parallel", "distributed")

#: Worker processes per parallel-backend engine in this file: enough to
#: split multi-component worlds, small enough to keep per-example spawn
#: cost negligible.
PARALLEL_WORKERS = 2


def backend_options(backend: str) -> dict:
    """Constructor kwargs that force the named backend on tiny worlds."""
    options = {"backend": backend}
    if backend == "parallel":
        options.update(parallel_threshold=0, n_workers=PARALLEL_WORKERS)
    elif backend == "distributed":
        # Spawned local worker hosts over real TCP sockets; the coordinator
        # caps the count at the world's component count, so tiny worlds run
        # with however many workers they can actually use.
        options.update(spawn_local_workers=PARALLEL_WORKERS)
    return options


def sequential_strategy(backend: str) -> AsyncDispatch:
    return AsyncDispatch(RuntimeMode.SEQUENTIAL, **backend_options(backend))


def rounds_strategy(backend: str) -> AsyncDispatch:
    return AsyncDispatch(RuntimeMode.ROUNDS, **backend_options(backend))


def run_column(column: str, dispatch: AsyncDispatch, order, oracle):
    """The ``async-*`` columns await ``run_async``; the others call ``run``."""
    if column.startswith("async-"):
        return run_async(dispatch.run_async(order, oracle))
    return dispatch.run(order, oracle)


class TestSequentialMatrix:
    """One-pair-per-round labelers vs the frozen sequential reference."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy", ["async-sequential", "sequential"])
    @given(worlds())
    @settings(max_examples=15, deadline=None)
    def test_matches_reference(self, backend, strategy, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        ref_oracle = RecordingOracle(truth)
        new_oracle = RecordingOracle(truth)
        reference = reference_sequential(candidates, ref_oracle)
        result = run_column(
            strategy, sequential_strategy(backend), candidates, new_oracle
        )
        assert result.labels() == reference.labels()
        assert result.outcomes == reference.outcomes
        assert result.rounds == reference.rounds
        assert new_oracle.calls == ref_oracle.calls


class TestRoundsMatrix:
    """Frontier-per-round labelers vs the frozen parallel reference."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy", ["async-rounds", "rounds"])
    @given(worlds())
    @settings(max_examples=15, deadline=None)
    def test_matches_reference(self, backend, strategy, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        ref_oracle = RecordingOracle(truth)
        new_oracle = RecordingOracle(truth)
        reference = reference_parallel(candidates, ref_oracle)
        result = run_column(strategy, rounds_strategy(backend), candidates, new_oracle)
        assert result.labels() == reference.labels()
        assert result.outcomes == reference.outcomes
        assert result.rounds == reference.rounds
        assert new_oracle.calls == ref_oracle.calls


def run_answer_order_on(backend: str, order, oracle, *, policy=AnswerPolicy.RANDOM):
    """Instant mode over the answer-order client (seed 17) on ``backend``."""
    engine = LabelingEngine(order, **backend_options(backend))
    client = AnswerOrderClient(oracle, policy, 17, engine.likelihoods)
    report = CrowdRuntime(engine, client, mode=RuntimeMode.HIT_INSTANT).run_sync()
    return InstantRunResult.from_report(engine.result, report, instant_decision=True)


#: The order (b,c) (b,d) (a,b) (a,c) (c,d) over truth a = b, c, d apart.
#: The first frontier is its first three pairs; (b,c) and (b,d) answered
#: non-matching unlock nothing; (a,b) answered matching deduces (a,c)
#: non-matching, and that makes (c,d) must-crowdsource.
UNLOCK_ORDER = [Pair("b", "c"), Pair("b", "d"), Pair("a", "b"), Pair("a", "c"), Pair("c", "d")]
UNLOCK_TRUTH = GroundTruthOracle({"a": 0, "b": 0, "c": 1, "d": 2})


class TestInstantMatrix:
    """Instant mode across backends: rng-driven choices from the published
    pool must coincide whenever the frontiers coincide, so the whole trace
    is pinned to the monolithic run."""

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "monolithic"])
    @given(worlds())
    @settings(max_examples=12, deadline=None)
    def test_identical_to_monolithic(self, backend, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        mono = run_answer_order_on("monolithic", candidates, truth)
        other = run_answer_order_on(backend, candidates, truth)
        assert other.result.labels() == mono.result.labels()
        assert other.result.rounds == mono.result.rounds
        assert other.trace == mono.trace
        assert other.publish_events == mono.publish_events


class TestMatchingAnswerUnlocks:
    """A MATCHING answer alone selects nothing new, but the NON_MATCHING
    pair its sweep deduces can: the reselection rule must count
    deductions, not only answers."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_frontier_after_matching_answer(self, backend):
        bc, bd, ab, ac, cd = UNLOCK_ORDER
        with LabelingEngine(UNLOCK_ORDER, **backend_options(backend)) as engine:
            first = engine.frontier()
            assert first == [bc, bd, ab]
            engine.publish(first)
            for pair in (bc, bd):
                engine.record_answer(pair, Label.NON_MATCHING, 0)
                assert engine.sweep(0) == []
                assert engine.frontier() == []
            engine.record_answer(ab, Label.MATCHING, 0)
            assert engine.sweep(0) == [(ac, Label.NON_MATCHING)]
            assert engine.frontier() == [cd]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_instant_mode_publishes_the_unlocked_pair(self, backend):
        """FIFO answers (b,c), (b,d), (a,b): the run of (a,b) re-selects
        and publishes (c,d), so trace point 3 reads 1, not 0."""
        run = run_answer_order_on(
            backend, UNLOCK_ORDER, UNLOCK_TRUTH, policy=AnswerPolicy.FIFO
        )
        assert run.publish_events == [(0, 3), (3, 1)]
        assert run.result.rounds == [UNLOCK_ORDER[:3], [UNLOCK_ORDER[4]]]
        assert [point.n_available for point in run.trace] == [2, 1, 1, 0]
        assert run.starvation_count() == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unlocked_pair_is_published_while_the_pool_is_busy(self, backend):
        """The same instance plus (e,f), first published and answered
        last.  Above, the pool drains after (a,b), and the runtime's idle
        re-publish would issue (c,d) at the same answer count under any
        rule; here (e,f) is still out, so (c,d) goes out after (a,b)'s run
        only because that run's deduction re-selects."""
        ef = Pair("e", "f")
        order = UNLOCK_ORDER[:3] + [ef] + UNLOCK_ORDER[3:]
        truth = GroundTruthOracle({"a": 0, "b": 0, "c": 1, "d": 2, "e": 3, "f": 3})
        run = run_answer_order_on(backend, order, truth, policy=AnswerPolicy.FIFO)
        assert run.publish_events == [(0, 4), (3, 1)]
        assert [point.n_available for point in run.trace] == [3, 2, 2, 1, 0]


class TestBatchedRecordingMatrix:
    """One ``record_answers()`` per tick vs the same answers one at a time,
    on every backend — the seam per-tick batching changes."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(worlds(), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_record_answers_matches_per_answer_recording(
        self, backend, world, seed
    ):
        """Rounds publish the frontier (withheld, as on the platform) and
        its answers arrive shuffled, in ticks of one to four, each recorded
        with one ``record_answers`` and one sweep; after every tick both
        engines hold the same fingerprint."""
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        rng = random.Random(seed)
        batched = LabelingEngine(candidates, **backend_options(backend))
        single = LabelingEngine(candidates, **backend_options(backend))
        try:
            round_index = 0
            while not single.is_done:
                frontier = single.frontier()
                assert batched.frontier() == frontier
                batched.publish(frontier)
                single.publish(frontier)
                answers = [(pair, truth.label(pair)) for pair in frontier]
                rng.shuffle(answers)
                while answers:
                    tick = answers[: rng.randint(1, 4)]
                    answers = answers[len(tick) :]
                    batched.record_answers(tick, round_index)
                    batched.sweep(round_index)
                    for pair, label in tick:
                        single.record_answer(pair, label, round_index)
                        single.sweep(round_index)
                    assert json.dumps(
                        batched.state_fingerprint(), sort_keys=True
                    ) == json.dumps(single.state_fingerprint(), sort_keys=True)
                round_index += 1
            assert batched.is_done
        finally:
            batched.close()
            single.close()


class TestEdgeCaseMatrix:
    """Deterministic engine edge cases, uniform across backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_pairs_collapse_to_first_occurrence(self, backend):
        truth = GroundTruthOracle({"a": 1, "b": 1, "c": 2})
        order = [Pair("a", "b"), Pair("a", "c"), Pair("a", "b")]
        for make in (sequential_strategy, rounds_strategy):
            result = make(backend).run(order, truth)
            assert result.n_pairs == 2
            assert result.n_crowdsourced == 2
            assert result.label_of(Pair("a", "b")) is Label.MATCHING

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_pair_order(self, backend):
        truth = GroundTruthOracle({"a": 0, "b": 0})
        result = rounds_strategy(backend).run([Pair("a", "b")], truth)
        assert result.labels() == {Pair("a", "b"): Label.MATCHING}
        assert result.rounds == [[Pair("a", "b")]]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fully_deducible_tail(self, backend):
        """A chain whose last pair is implied: only the chain is paid for."""
        truth = GroundTruthOracle({"a": 0, "b": 0, "c": 0})
        order = [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")]
        result = rounds_strategy(backend).run(order, truth)
        assert result.n_crowdsourced == 2
        assert result.n_deduced == 1
        assert result.label_of(Pair("a", "c")) is Label.MATCHING
