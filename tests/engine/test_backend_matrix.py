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
* ``InstantDispatch`` makes seeded rng-driven choices with no sequential
  reference, so its non-monolithic cells are pinned to the *monolithic* run
  instead: identical frontiers mean identical published pools, so labels,
  rounds, the availability trace, and the publish events must all coincide;
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
from repro.engine import AsyncDispatch, InstantDispatch, LabelingEngine, RuntimeMode

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


class TestInstantMatrix:
    """InstantDispatch across backends: rng-driven choices from the
    published pool must coincide whenever the frontiers coincide, so the
    whole trace is pinned to the monolithic run."""

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "monolithic"])
    @given(worlds())
    @settings(max_examples=12, deadline=None)
    def test_identical_to_monolithic(self, backend, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        seed = 17
        mono = InstantDispatch(seed=seed, backend="monolithic").run(candidates, truth)
        other = InstantDispatch(seed=seed, **backend_options(backend)).run(
            candidates, truth
        )
        assert other.result.labels() == mono.result.labels()
        assert other.result.rounds == mono.result.rounds
        assert other.trace == mono.trace
        assert other.publish_events == mono.publish_events


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
