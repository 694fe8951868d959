"""Runs: a poll's completions applied together equal applying them one by one.

When a client reports more events already in hand (``n_ready_events``),
:class:`~repro.engine.async_dispatch.CrowdRuntime` takes each event's
answers into an open *run* and applies the run at its last event: one
``engine.record_answers``, then the mode's tail once.  These tests pin
that:

* a Hypothesis property over the ``rounds``, ``instant`` and ``hit-rounds``
  modes on every backend: a polling campaign whose polls return several
  completions — with expiries, re-issues and late duplicate deliveries
  inside its runs — reaches the byte-identical final ``state_fingerprint()``
  of the same campaign applied per event;
* the ``instant`` mode's reselection rule (re-select only after a run
  holding a NON_MATCHING answer or deduction) changes nothing but the
  number of frontier calls: with perfect and with noisy FIRST_WINS
  answers, a campaign reaches the fingerprint and the HIT batches of the
  same campaign re-selecting after every run;
* a poll of several completions costs one ``record_answers`` and one
  sweep (and at most one frontier reselection);
* the per-answer round indices of a run reach the result as they would
  per event, and a STRICT conflict part-way through a run records exactly
  the answers applied before it.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_graph import ConflictPolicy, InconsistentLabelError
from repro.core.oracle import GroundTruthOracle
from repro.core.pairs import Label, Pair
from repro.crowd.clients import InMemoryCrowdBackend, ManualClock, PollingPlatformClient
from repro.crowd.platform import HITCompletion
from repro.engine import CrowdRuntime, LabelingEngine, RuntimeMode

from ..strategies import worlds
from .test_backend_matrix import BACKENDS, backend_options

MODES = (RuntimeMode.ROUNDS, RuntimeMode.HIT_INSTANT, RuntimeMode.HIT_ROUNDS)


class BurstyClient(PollingPlatformClient):
    """A polling client over a latency-scheduled backend, so one poll often
    returns several completions.  Every ``echo_every``-th completion is
    handed over a second time right behind itself: a late duplicate
    delivery, inside the same run.  With ``runs=False`` the client reports
    no event in hand, so the runtime applies every event on its own — the
    comparison campaign."""

    def __init__(self, backend, *, runs: bool, echo_every: int, **kwargs) -> None:
        super().__init__(backend, **kwargs)
        self._runs = runs
        self._echo_every = echo_every
        self._echo = None
        self._n_completions = 0
        self.longest_run = 0
        self._run = 0

    @property
    def n_ready_events(self) -> int:
        if not self._runs:
            return 0
        return super().n_ready_events + (self._echo is not None)

    async def next_event(self):
        if self._echo is not None:
            event, self._echo = self._echo, None
        else:
            event = await super().next_event()
            if isinstance(event, HITCompletion):
                self._n_completions += 1
                if self._n_completions % self._echo_every == 0:
                    self._echo = event
        self._run += 1
        self.longest_run = max(self.longest_run, self._run)
        if not self.n_ready_events:
            self._run = 0
        return event


def disjoint_pairs(n: int):
    """(pairs, entity_of): ``n`` matching pairs sharing no object — no
    answer deduces another, so every pair is crowdsourced."""
    pairs = [Pair(f"a{i}", f"b{i}") for i in range(n)]
    return pairs, {obj: i for i, pair in enumerate(pairs) for obj in pair}


def flipped_answers(world, share: float, seed: int):
    """An ``answer_fn`` answering ``world``'s truth, with a seeded ``share``
    of its pairs flipped (the same pairs on every call)."""
    candidates, entity_of = world
    truth = GroundTruthOracle(entity_of)
    rng = random.Random(seed)
    flipped = {c.pair for c in candidates if rng.random() < share}
    flip = {Label.MATCHING: Label.NON_MATCHING, Label.NON_MATCHING: Label.MATCHING}

    def answer(pair):
        label = truth.label(pair)
        return flip[label] if pair in flipped else label

    return answer


def run_campaign(
    world, backend, mode, *, runs, latency_seed, drop, echo_every,
    answer_fn=None, policy=ConflictPolicy.STRICT, runtime_class=CrowdRuntime,
):
    """One campaign over a :class:`BurstyClient`; returns (fingerprint,
    client, report).  HITs whose ids are in ``drop`` never complete: they
    expire after four clock units and their pairs are re-issued.  Answers
    come from the world's truth unless ``answer_fn`` is given."""
    candidates, entity_of = world
    if answer_fn is None:
        answer_fn = GroundTruthOracle(entity_of).label
    clock = ManualClock()
    backend_ = InMemoryCrowdBackend(
        answer_fn=answer_fn,
        clock=clock.now,
        latency=lambda rng: rng.choice((1.0, 1.0, 2.0, 3.0)),
        drop_hit_ids=drop,
        seed=latency_seed,
    )
    client = BurstyClient(
        backend_,
        runs=runs,
        echo_every=echo_every,
        batch_size=2,
        n_assignments=1,
        poll_interval=1.0,
        hit_timeout=4.0,
        clock=clock.now,
        sleep=clock.sleep,
    )
    engine = LabelingEngine(candidates, policy=policy, **backend_options(backend))
    report = runtime_class(engine, client, mode=mode).run_sync()
    return json.dumps(engine.state_fingerprint(), sort_keys=True), client, report


class TestRunsMatchPerEventApplication:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        world=worlds(),
        latency_seed=st.integers(0, 2**16),
        drop=st.sets(st.integers(0, 12), max_size=3),
        echo_every=st.integers(1, 4),
    )
    @settings(max_examples=8, deadline=None)
    def test_final_fingerprint_is_byte_identical(
        self, mode, backend, world, latency_seed, drop, echo_every
    ):
        options = dict(latency_seed=latency_seed, drop=drop, echo_every=echo_every)
        batched, _, _ = run_campaign(world, backend, mode, runs=True, **options)
        single, _, _ = run_campaign(world, backend, mode, runs=False, **options)
        assert batched == single

    def test_the_workload_produces_runs(self):
        """The property's client really hands over multi-event runs, with
        an expiry inside one."""
        _, client, _ = run_campaign(
            disjoint_pairs(12), "monolithic", RuntimeMode.HIT_INSTANT,
            runs=True, latency_seed=3, drop={1}, echo_every=2,
        )
        assert client.longest_run >= 3


class EveryRunReselects(CrowdRuntime):
    """Instant mode re-selecting after every run with a completion, as
    before the reselection rule: the comparison runtime."""

    async def _end_run(self) -> None:
        had_completions = self._run_completions > 0
        await super()._end_run()
        if had_completions and not self._engine.is_done and not self._paused():
            self._adapter.select_new()
            await self._flush_chunks()


class TestInstantReselectionRule:
    @pytest.mark.parametrize("noisy", [False, True], ids=["perfect", "noisy"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        world=worlds(),
        latency_seed=st.integers(0, 2**16),
        drop=st.sets(st.integers(0, 12), max_size=3),
        echo_every=st.integers(1, 4),
        runs=st.booleans(),
        flip_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_skipping_reselection_changes_nothing_else(
        self, noisy, backend, world, latency_seed, drop, echo_every, runs, flip_seed
    ):
        """Perfect answers under STRICT, or a fifth of them flipped under
        FIRST_WINS: the same fingerprint and the same HIT batches."""
        options = dict(
            runs=runs, latency_seed=latency_seed, drop=drop, echo_every=echo_every
        )
        if noisy:
            options.update(
                answer_fn=flipped_answers(world, 0.2, flip_seed),
                policy=ConflictPolicy.FIRST_WINS,
            )
        mode = RuntimeMode.HIT_INSTANT
        ruled, _, ruled_report = run_campaign(world, backend, mode, **options)
        every, _, every_report = run_campaign(
            world, backend, mode, runtime_class=EveryRunReselects, **options
        )
        assert ruled == every
        assert ruled_report.hit_batches == every_report.hit_batches


class CountingEngine(LabelingEngine):
    """Counts the calls a run makes into the engine."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = []

    def record_answers(self, answers, round_index):
        answers = list(answers)
        self.calls.append(("record_answers", len(answers)))
        return super().record_answers(answers, round_index)

    def sweep(self, round_index):
        self.calls.append(("sweep", None))
        return super().sweep(round_index)

    def frontier(self):
        self.calls.append(("frontier", None))
        return super().frontier()


def test_one_poll_is_one_record_answers_one_sweep_one_reselection():
    """Instant mode: three HITs complete in the same poll; the runtime
    applies their six answers with one call and sweeps once (the campaign
    is then done, so nothing is re-selected).  Applied per event, the same
    poll costs three calls and three sweeps, and one frontier selection
    between events: the idle re-selection the loop makes because the poll
    left no HIT outstanding.  The run's tail skips its reselection: its
    answers are all MATCHING and deduce nothing, so they unlock no pair."""
    pairs, entity_of = disjoint_pairs(6)
    truth = GroundTruthOracle(entity_of)
    calls = {}
    for runs in (True, False):
        clock = ManualClock()
        backend = InMemoryCrowdBackend(truth, clock=clock.now, latency=lambda rng: 1.0)
        client = BurstyClient(
            backend, runs=runs, echo_every=10**9, batch_size=2,
            poll_interval=1.0, clock=clock.now, sleep=clock.sleep,
        )
        engine = CountingEngine(pairs)
        CrowdRuntime(engine, client, mode=RuntimeMode.HIT_INSTANT).run_sync()
        assert engine.is_done
        calls[runs] = engine.calls
    # The first frontier publishes all six pairs as three HITs.
    assert calls[True] == [
        ("frontier", None),
        ("record_answers", 6),
        ("sweep", None),
    ]
    between = [("frontier", None)]
    assert calls[False] == [
        ("frontier", None),
        ("record_answers", 2), ("sweep", None), *between,
        ("record_answers", 2), ("sweep", None), *between,
        ("record_answers", 2), ("sweep", None),
    ]


class TestRecordAnswers:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_index_per_answer(self, backend):
        order = [Pair("a", "b"), Pair("c", "d"), Pair("e", "f")]
        with LabelingEngine(order, **backend_options(backend)) as engine:
            engine.publish(order)
            flags = engine.record_answers(
                [(pair, Label.MATCHING) for pair in order], [4, 7, 9]
            )
            assert flags == [True, True, True]
            assert engine.sweep(9) == []
        assert [engine.result.outcomes[p].round_index for p in order] == [4, 7, 9]
        assert engine.result.n_crowdsourced == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_conflict_records_the_applied_answers(self, backend):
        """a-b and b-c match, so a-c non-matching conflicts under STRICT;
        d-e sits in another component.  The engine records exactly what its
        core applied: every answer before the conflict, and on the worker-
        backed backends d-e too — its worker applied it (each worker stops
        at its own conflict, not at another's)."""
        ab, bc, ac, de = Pair("a", "b"), Pair("b", "c"), Pair("a", "c"), Pair("d", "e")
        order = [ab, bc, ac, de]
        with LabelingEngine(order, **backend_options(backend)) as engine:
            engine.publish(order)
            run = [
                (ab, Label.MATCHING),
                (bc, Label.MATCHING),
                (ac, Label.NON_MATCHING),
                (de, Label.MATCHING),
            ]
            with pytest.raises(InconsistentLabelError) as raised:
                engine.record_answers(run, 0)
            flags = raised.value.applied_flags
            assert flags[:3] == [True, True, None]
            recorded = {ab, bc} | ({de} if flags[3] else set())
            assert set(engine.labeled) == recorded
            assert set(engine.result.outcomes) == recorded
            assert engine.published == set(order) - recorded
            assert engine.result.n_crowdsourced == len(recorded)
        worker_backed = backend in ("parallel", "distributed")
        assert flags[3] is (True if worker_backed else None)
