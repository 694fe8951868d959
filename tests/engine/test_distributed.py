"""The shard coordinator: differential, chaos, and protocol suites.

``backend="distributed"`` runs the shard command protocol over real TCP
sockets and ``backend="parallel"`` over pipes, both through one
:class:`ShardCoordinator` (``src/repro/engine/distributed.py``); these tests
make its failure contract trustworthy:

* **differential** — the socket transport must be invisible: parity with the
  frozen PR-1 references under FIFO, shuffled, and expiring clients (the
  strategy × backend matrix in ``test_backend_matrix.py`` adds the full
  grid), plus worker-count 1-vs-N equality at *every* frontier;
* **chaos** — injected faults (dropped connections and closed pipes, a
  socket handler stalled past the heartbeat timeout, a worker lost during
  the initial load, real SIGKILL of a worker host or pipe worker) must
  recover via component re-assignment to a ``state_fingerprint()``
  byte-identical to the fault-free run, across sequential and hit-rounds
  runtime modes; shutdown must never hang; losing *every* worker must
  poison with :class:`ShardWorkerError`;
* **protocol** — framing round-trips arbitrary JSON through torn reads,
  rejects oversized frames before allocating, and snapshot re-ship +
  event-log replay converges from any prefix (the reconnect property).

Every receive on the coordinator is liveness-checked (EOF, heartbeat
silence, reply deadline), so none of these tests need an external watchdog;
CI's ``pytest-timeout`` backstop is belt-and-braces only.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.cluster_graph import ConflictPolicy, InconsistentLabelError
from repro.core.oracle import GroundTruthOracle, MappingOracle
from repro.core.pairs import Label, Pair
from repro.crowd.clients import SimulatedPlatformClient
from repro.engine import (
    PROTOCOL_VERSION,
    AsyncDispatch,
    CrowdRuntime,
    FrameDecoder,
    LabelingEngine,
    ProtocolError,
    RuntimeMode,
    ShardCoordinator,
    ShardWorkerError,
    ShardWorkerHost,
    encode_frame,
)
from repro.engine.distributed import _WorkerSession, _parse_address

from ..aio import background_loop, run_async
from ..strategies import worlds
from .reference import (
    RecordingOracle,
    block_world,
    expiring_client_factory,
    reference_parallel,
    shuffled_client_factory,
)

DISTRIBUTED = dict(backend="distributed", spawn_local_workers=2)


# ----------------------------------------------------------------------
# shared drivers
# ----------------------------------------------------------------------
def fingerprint(engine: LabelingEngine) -> str:
    """The byte-identity the chaos differentials assert on."""
    return json.dumps(engine.state_fingerprint(), sort_keys=True)


def run_engine_campaign(
    mode, order, oracle, *, n_workers=3, fault=None, backend="distributed"
):
    """One full campaign on ``backend="distributed"`` (or ``"parallel"``).

    ``fault`` is a callable ``coordinator -> fault_hook`` installed on the
    coordinator's transport before the runtime starts.  Returns the
    fingerprint, the coordinator (closed), and the installed hook.
    """
    engine = LabelingEngine(
        order, backend=backend, parallel_threshold=0, n_workers=n_workers
    )
    coordinator = engine.executor
    hook = None
    if fault is not None:
        hook = fault(coordinator)
        coordinator._fault_hook = hook
    try:
        CrowdRuntime(
            engine,
            SimulatedPlatformClient.for_oracle(oracle, batch_size=4),
            mode=mode,
        ).run_sync()
        return fingerprint(engine), coordinator, hook
    finally:
        engine.close()


class KillWorkerAt:
    """SIGKILL the first live worker host at the Nth command frame."""

    def __init__(self, coordinator: ShardCoordinator, at: int) -> None:
        self.coordinator = coordinator
        self.at = at
        self.count = 0
        self.fired = False

    def __call__(self, worker_id: int, command: str) -> None:
        self.count += 1
        if not self.fired and self.count >= self.at:
            self.fired = True
            os.kill(self.coordinator.worker_pids()[0], signal.SIGKILL)


class DropConnectionAt:
    """Sever the first live worker's TCP connection at the Nth command."""

    def __init__(self, coordinator: ShardCoordinator, at: int) -> None:
        self.coordinator = coordinator
        self.at = at
        self.count = 0
        self.fired = False

    def __call__(self, worker_id: int, command: str) -> None:
        self.count += 1
        if not self.fired and self.count >= self.at:
            self.fired = True
            self.coordinator.drop_connection(
                self.coordinator.live_worker_ids()[0]
            )


class SleepOnFirstSweep:
    """Worker-side hook: worker 0 stalls its first sweep past the
    coordinator's heartbeat timeout (the hung-worker model on sockets — a
    busy handler starves its own session's heartbeat)."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.fired = False

    def __call__(self, worker_id, command: str) -> None:
        if worker_id == 0 and command == "sweep" and not self.fired:
            self.fired = True
            time.sleep(self.seconds)


def exit_worker0_on_load(worker_id, command: str) -> None:
    if worker_id == 0 and command == "load":
        os._exit(7)


def kill_worker0_on_answers(worker_id, command: str) -> None:
    """Worker-side hook: worker 0 is SIGKILLed as it takes up a run of
    answers."""
    if worker_id == 0 and command == "answers":
        os.kill(os.getpid(), signal.SIGKILL)


class DropWorker0OnAnswers:
    """Coordinator-side hook: sever worker 0's socket or pipe as the first
    ``answers`` command to it goes out."""

    def __init__(self, coordinator: ShardCoordinator) -> None:
        self.coordinator = coordinator
        self.fired = False

    def __call__(self, worker_id: int, command: str) -> None:
        if worker_id == 0 and command == "answers" and not self.fired:
            self.fired = True
            self.coordinator.drop_connection(0)


def answers_shares(coordinator: ShardCoordinator) -> list:
    """Spy on ``coordinator``: records ``(worker id, positions)`` for every
    ``answers`` command it sends, in send order."""
    sent = []
    send = coordinator._send_command

    def spy(link, name, args):
        if name == "answers":
            sent.append((link.worker_id, list(args[0])))
        return send(link, name, args)

    coordinator._send_command = spy
    return sent


def committed_answers(coordinator: ShardCoordinator) -> list:
    """Order positions of every answer in the coordinator's log."""
    return sorted(
        event[1]
        for log in coordinator._log_of_root.values()
        for event in log
        if event[0] == "a"
    )


def drive_lockstep(coordinators, oracle, order):
    """Drive several coordinators through identical publish/answer/sweep
    rounds, asserting observable equality at every step.  Returns the
    per-round frontiers of the first coordinator."""
    rounds = []
    frontiers = [c.frontier() for c in coordinators]
    for other in frontiers[1:]:
        assert other == frontiers[0]
    while frontiers[0]:
        rounds.append(frontiers[0])
        for coordinator in coordinators:
            coordinator.publish(frontiers[0], withhold=False)
        for pair in frontiers[0]:
            label = oracle.label(pair)
            applied = [c.record_answer(pair, label) for c in coordinators]
            assert applied == [applied[0]] * len(coordinators)
        sweeps = [c.sweep() for c in coordinators]
        for other in sweeps[1:]:
            assert other == sweeps[0]
        stats = [c.stats() for c in coordinators]
        for other in stats[1:]:
            assert other == stats[0]
        for coordinator in coordinators:
            coordinator.check_invariants()
        frontiers = [c.frontier() for c in coordinators]
        for other in frontiers[1:]:
            assert other == frontiers[0]
    clusters = [
        sorted(sorted(cluster, key=repr) for cluster in c.clusters())
        for c in coordinators
    ]
    for other in clusters[1:]:
        assert other == clusters[0]
    return rounds


# ----------------------------------------------------------------------
# differential suite: the socket transport must be invisible
# ----------------------------------------------------------------------
class TestDifferentialParity:
    @given(worlds())
    @settings(max_examples=5, deadline=None)
    def test_rounds_parity_under_shuffled_completions(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        reference = reference_parallel(candidates, truth)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            client_factory=shuffled_client_factory(seed=3),
            **DISTRIBUTED,
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds
        assert result.n_crowdsourced == reference.n_crowdsourced
        assert result.n_deduced == reference.n_deduced

    @given(worlds())
    @settings(max_examples=5, deadline=None)
    def test_parity_under_expiry_and_reissue(self, world):
        candidates, entity_of = world
        truth = GroundTruthOracle(entity_of)
        reference = reference_parallel(candidates, truth)
        dispatch = AsyncDispatch(
            RuntimeMode.ROUNDS,
            client_factory=expiring_client_factory(seed=5),
            **DISTRIBUTED,
        )
        result = dispatch.run(candidates, truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds

    def test_oracle_call_order_matches_reference(self):
        order, truth = block_world(n_blocks=4, objects_per_block=4)
        ref_oracle = RecordingOracle(truth)
        new_oracle = RecordingOracle(truth)
        reference = reference_parallel(order, ref_oracle)
        result = AsyncDispatch(**DISTRIBUTED).run(order, new_oracle)
        assert result.outcomes == reference.outcomes
        assert new_oracle.calls == ref_oracle.calls

    def test_one_vs_many_workers_agree_at_every_frontier(self):
        """The component partition must be invisible: 1 worker and 3 workers
        produce identical frontiers, sweeps, stats, and clusters at every
        round of the same campaign."""
        order, truth = block_world(n_blocks=5, objects_per_block=4)
        with ShardCoordinator(order, spawn_local_workers=1) as solo:
            with ShardCoordinator(order, spawn_local_workers=3) as trio:
                assert solo.n_workers == 1
                assert trio.n_workers == 3
                rounds = drive_lockstep([solo, trio], truth, order)
        assert len(rounds) >= 2, "world too small to exercise rounds"

    @pytest.mark.parametrize(
        "backend, knob",
        (
            ("distributed", "spawn_local_workers"),
            ("distributed", "n_workers"),
            ("parallel", "n_workers"),
        ),
        ids=("spawn", "n-dist", "n-par"),
    )
    def test_worker_count_capped_at_components(self, backend, knob):
        """Counts are capped at the component count, and an explicit zero
        is an error on either backend — not the CPU-count default."""
        order, _ = block_world(n_blocks=2, objects_per_block=3)
        options = dict(backend=backend, parallel_threshold=0)
        with LabelingEngine(order, **options, **{knob: 5}) as engine:
            coordinator = engine.executor
            assert coordinator.n_workers == 2
            assert coordinator.live_worker_ids() == [0, 1]
            assert len(coordinator.worker_pids()) == 2
        with pytest.raises(ValueError, match="at least one worker"):
            LabelingEngine(order, **options, **{knob: 0})

    def test_non_scalar_object_ids_rejected(self):
        with pytest.raises(TypeError, match="scalar"):
            ShardCoordinator([Pair(("a", 1), ("b", 2))], spawn_local_workers=1)

    def test_tuple_object_ids_on_parallel_reach_reference_labels(self):
        """Pipe workers take any picklable object id, so the JSON-scalar
        contract binds only coordinators with a socket worker."""
        order, truth = block_world(n_blocks=3, objects_per_block=4)
        tuple_order = [Pair(tuple(p.left), tuple(p.right)) for p in order]
        tuple_truth = MappingOracle(
            {new: truth.label(old) for old, new in zip(order, tuple_order)}
        )
        reference = reference_parallel(tuple_order, tuple_truth)
        result = AsyncDispatch(
            backend="parallel", parallel_threshold=0, n_workers=2
        ).run(tuple_order, tuple_truth)
        assert result.labels() == reference.labels()
        assert result.rounds == reference.rounds

    def test_strict_conflict_ships_inconsistent_label_error(self):
        order = [Pair("a", "b"), Pair("b", "c"), Pair("a", "c")]
        with ShardCoordinator(order, spawn_local_workers=1) as coordinator:
            coordinator.publish(order, withhold=False)
            assert coordinator.record_answer(order[0], Label.MATCHING)
            assert coordinator.record_answer(order[1], Label.MATCHING)
            with pytest.raises(InconsistentLabelError):
                coordinator.record_answer(order[2], Label.NON_MATCHING)


# ----------------------------------------------------------------------
# remote workers: pre-started hosts instead of spawned children
# ----------------------------------------------------------------------
class TestRemoteWorkers:
    def test_two_coordinators_share_one_host(self):
        """Sessions are per-connection: two coordinators pointed at the same
        `workers=` address stay fully independent."""
        with background_loop() as loop:
            host = ShardWorkerHost("127.0.0.1", 0)
            ready = threading.Event()
            ports = []

            def on_ready(port: int) -> None:
                ports.append(port)
                ready.set()

            serving = loop.submit(host.serve(ready_callback=on_ready))
            assert ready.wait(10), "worker host did not bind"
            address = f"127.0.0.1:{ports[0]}"
            order, truth = block_world(n_blocks=3, objects_per_block=3)
            with ShardCoordinator(order, workers=[address]) as first:
                with ShardCoordinator(order, workers=[address]) as second:
                    assert first.worker_pids() == [os.getpid()]
                    drive_lockstep([first, second], truth, order)
            serving.cancel()

    def test_runbook_cli_worker(self, tmp_path):
        """The documented deployment path: ``python -m
        repro.engine.distributed --worker host:port`` starts a host a
        coordinator can attach to."""
        src = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(src, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.distributed",
             "--worker", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "shard worker listening on" in line
            address = line.rsplit(" ", 1)[-1].strip()
            order, truth = block_world(n_blocks=2, objects_per_block=3)
            with ShardCoordinator(order, workers=[address]) as coordinator:
                drive_lockstep([coordinator], truth, order)
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_parse_address(self):
        assert _parse_address("host:9000") == ("host", 9000)
        assert _parse_address("[::1]:9000") == ("::1", 9000)
        assert _parse_address(":9000") == ("127.0.0.1", 9000)
        with pytest.raises(ValueError):
            _parse_address("no-port")
        with pytest.raises(ValueError):
            _parse_address("host:not-a-number")

    def test_protocol_version_mismatch_is_refused(self):
        """A worker host from another build greets with another protocol
        version: the coordinator refuses it before shipping any state."""
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def other_build_host() -> None:
            conn, _ = server.accept()
            with conn:
                conn.sendall(
                    encode_frame(["hello", PROTOCOL_VERSION - 1, os.getpid()])
                )
                conn.recv(1024)  # hold the link until the coordinator drops it

        thread = threading.Thread(target=other_build_host, daemon=True)
        thread.start()
        try:
            with pytest.raises(ShardWorkerError, match="spoke protocol"):
                ShardCoordinator([Pair("a", "b")], workers=[f"127.0.0.1:{port}"])
        finally:
            thread.join(timeout=10)
            server.close()
        assert not thread.is_alive()


def decode_frame(frame: bytes) -> list:
    decoder = FrameDecoder()
    decoder.feed(frame)
    return decoder.next_frame()


class ResetAfterHelloWriter:
    """A stream writer whose coordinator closes right after the hello, as
    ``ShardCoordinator.close()`` does without waiting for the ``stop`` ack:
    every later drain raises ``ConnectionResetError``."""

    def __init__(self) -> None:
        self.frames = []

    def write(self, data: bytes) -> None:
        self.frames.append(data)

    async def drain(self) -> None:
        if len(self.frames) > 1:
            raise ConnectionResetError("Connection lost")

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


class TestWorkerHostShutdown:
    @pytest.mark.parametrize("command", (["stop", 1], ["init", 1, 0, 60.0]))
    def test_ack_to_a_vanished_coordinator_ends_the_session(self, command):
        async def session():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(command))
            writer = ResetAfterHelloWriter()
            await ShardWorkerHost()._handle_connection(reader, writer)
            return writer.frames

        frames = run_async(session())
        assert [decode_frame(frame)[0] for frame in frames] == ["hello", "ok"]


# ----------------------------------------------------------------------
# chaos: worker loss must be invisible to the campaign
# ----------------------------------------------------------------------
class TestChaosRecovery:
    MODES = (RuntimeMode.SEQUENTIAL, RuntimeMode.HIT_ROUNDS)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("kill_at", (1, 7, 33))
    def test_sigkill_recovers_byte_identical(self, mode, kill_at):
        """The acceptance criterion: a real SIGKILL mid-campaign recovers
        via re-assignment to a byte-identical ``state_fingerprint()``."""
        order, truth = block_world(n_blocks=6, objects_per_block=4)
        clean, _, _ = run_engine_campaign(mode, order, truth)
        got, coordinator, hook = run_engine_campaign(
            mode, order, truth,
            fault=lambda c: KillWorkerAt(c, kill_at),
        )
        assert hook.fired, "kill point beyond the campaign's command count"
        assert got == clean
        assert len(coordinator.reassignments) == 1
        record = coordinator.reassignments[0]
        assert record["moved_components"] >= 1
        assert record["targets"], "components must land on survivors"
        assert len(coordinator.live_worker_ids()) == 2

    # Drop points count coordinator commands; the rounds campaign sends 32
    # (one ``answers`` per worker per completion), so 12 and 26 land on
    # ``answers`` commands of its first and second rounds.
    @pytest.mark.parametrize("drop_at", (1, 12, 26))
    def test_dropped_connection_recovers_byte_identical(self, drop_at):
        order, truth = block_world(n_blocks=6, objects_per_block=4)
        clean, _, _ = run_engine_campaign(RuntimeMode.ROUNDS, order, truth)
        got, coordinator, hook = run_engine_campaign(
            RuntimeMode.ROUNDS, order, truth,
            fault=lambda c: DropConnectionAt(c, drop_at),
        )
        assert hook.fired
        assert got == clean
        assert len(coordinator.reassignments) == 1

    def test_handler_stalled_past_heartbeat_is_declared_dead(self):
        """A worker that stops heartbeating (here: a handler sleeping well
        past the timeout) is treated exactly like a crashed one."""
        order, truth = block_world(n_blocks=4, objects_per_block=4)
        with ShardCoordinator(order, spawn_local_workers=2) as clean:
            clean_rounds = drive_lockstep([clean], truth, order)
            clean_stats = clean.stats()
        with ShardCoordinator(
            order,
            spawn_local_workers=2,
            worker_fault_hook=SleepOnFirstSweep(6.0),
            heartbeat_interval=0.1,
            heartbeat_timeout=0.8,
        ) as coordinator:
            rounds = drive_lockstep([coordinator], truth, order)
            assert rounds == clean_rounds
            assert coordinator.stats() == clean_stats
            assert len(coordinator.reassignments) == 1
            assert "no heartbeat" in coordinator.reassignments[0]["reason"]
            assert coordinator.live_worker_ids() == [1]

    def test_pipe_handler_past_heartbeat_timeout_is_not_reassigned(self):
        """Pipe workers have no heartbeat bound: a long handler is slow, not
        dead."""
        order, truth = block_world(n_blocks=4, objects_per_block=4)
        with ShardCoordinator(order, spawn_local_workers=2) as clean:
            with ShardCoordinator(
                order,
                spawn_local_workers=2,
                local_transport="pipe",
                worker_fault_hook=SleepOnFirstSweep(1.5),
                heartbeat_interval=0.1,
                heartbeat_timeout=0.3,
            ) as coordinator:
                started = time.monotonic()
                drive_lockstep([clean, coordinator], truth, order)
                assert time.monotonic() - started >= 1.5  # the stall ran
                assert coordinator.reassignments == []
                assert coordinator.live_worker_ids() == [0, 1]

    def test_worker_lost_during_initial_load_is_recovered(self):
        """The concurrent initial ``load``: a worker that dies on its
        snapshot goes through re-assignment like any later loss."""
        order, truth = block_world(n_blocks=4, objects_per_block=4)
        with ShardCoordinator(order, spawn_local_workers=2) as clean:
            with ShardCoordinator(
                order,
                spawn_local_workers=2,
                worker_fault_hook=exit_worker0_on_load,
            ) as coordinator:
                assert len(coordinator.reassignments) == 1
                assert coordinator.reassignments[0]["worker_id"] == 0
                assert coordinator.live_worker_ids() == [1]
                drive_lockstep([clean, coordinator], truth, order)

    def test_consecutive_losses_until_one_survivor(self):
        """Losing workers one at a time keeps converging while anyone
        survives."""
        order, truth = block_world(n_blocks=6, objects_per_block=4)
        with ShardCoordinator(order, spawn_local_workers=1) as reference:
            clean_rounds = drive_lockstep([reference], truth, order)
        engine = LabelingEngine(order, backend="distributed", spawn_local_workers=3)
        coordinator = engine.executor
        try:
            frontier = coordinator.frontier()
            rounds = []
            losses = 0
            while frontier:
                rounds.append(frontier)
                coordinator.publish(frontier, withhold=False)
                for pair in frontier:
                    coordinator.record_answer(pair, truth.label(pair))
                if losses < 2:
                    losses += 1
                    os.kill(coordinator.worker_pids()[0], signal.SIGKILL)
                coordinator.sweep()
                frontier = coordinator.frontier()
            assert rounds == clean_rounds
            assert len(coordinator.reassignments) == 2
            assert len(coordinator.live_worker_ids()) == 1
        finally:
            engine.close()

    def test_all_workers_lost_poisons_with_shard_worker_error(self):
        """The PR-4 contract survives: zero survivors is unrecoverable."""
        order, truth = block_world(n_blocks=1, objects_per_block=4)
        with ShardCoordinator(order, spawn_local_workers=1) as coordinator:
            assert coordinator.n_workers == 1
            os.kill(coordinator.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(ShardWorkerError, match="no shard workers survive"):
                coordinator.publish(order, withhold=False)
            # Poisoned for good, like the pipe executor.
            with pytest.raises(ShardWorkerError):
                coordinator.stats()

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("kill_at", (1, 7, 33))
    def test_parallel_sigkill_recovers_byte_identical(self, mode, kill_at):
        """The same contract on ``backend="parallel"``: a SIGKILLed pipe
        worker's components re-ship to the survivors."""
        order, truth = block_world(n_blocks=6, objects_per_block=4)
        clean, _, _ = run_engine_campaign(mode, order, truth, backend="parallel")
        got, coordinator, hook = run_engine_campaign(
            mode, order, truth,
            backend="parallel",
            fault=lambda c: KillWorkerAt(c, kill_at),
        )
        assert hook.fired, "kill point beyond the campaign's command count"
        assert got == clean
        assert len(coordinator.reassignments) == 1
        record = coordinator.reassignments[0]
        assert "died with exit code -9" in record["reason"]
        assert record["moved_components"] >= 1
        assert record["targets"], "components must land on survivors"
        assert len(coordinator.live_worker_ids()) == 2

    @pytest.mark.parametrize("drop_at", (1, 12, 26))
    def test_parallel_closed_pipe_recovers_byte_identical(self, drop_at):
        order, truth = block_world(n_blocks=6, objects_per_block=4)
        clean, _, _ = run_engine_campaign(
            RuntimeMode.ROUNDS, order, truth, backend="parallel"
        )
        got, coordinator, hook = run_engine_campaign(
            RuntimeMode.ROUNDS, order, truth,
            backend="parallel",
            fault=lambda c: DropConnectionAt(c, drop_at),
        )
        assert hook.fired
        assert got == clean
        assert len(coordinator.reassignments) == 1

    def test_parallel_all_workers_lost_poisons(self):
        order, _ = block_world(n_blocks=2, objects_per_block=4)
        with LabelingEngine(
            order, backend="parallel", parallel_threshold=0, n_workers=2
        ) as engine:
            coordinator = engine.executor
            for pid in coordinator.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(
                ShardWorkerError, match="no shard workers survive.*exit code -9"
            ):
                coordinator.publish(order, withhold=False)
            with pytest.raises(ShardWorkerError):
                coordinator.stats()

    @pytest.mark.parametrize("fault", ("sigkill", "drop"))
    @pytest.mark.parametrize("transport", ("socket", "pipe"))
    def test_worker_lost_during_answers_retries_only_its_share(
        self, transport, fault
    ):
        """A run of answers spans three workers, and worker 0 is lost with
        its share in flight: SIGKILLed as it takes the command up, or its
        socket or pipe severed as the command goes out.  Its components
        re-ship to the survivors, only its share goes out again, every
        answer commits once, and the campaign stays lockstep-equal to a
        clean coordinator to the end."""
        order, truth = block_world(n_blocks=6, objects_per_block=4)
        hook = kill_worker0_on_answers if fault == "sigkill" else None
        with ShardCoordinator(order, spawn_local_workers=3) as clean, ShardCoordinator(
            order,
            spawn_local_workers=3,
            local_transport=transport,
            worker_fault_hook=hook,
        ) as coordinator:
            if fault == "drop":
                coordinator._fault_hook = DropWorker0OnAnswers(coordinator)
            sent = answers_shares(coordinator)
            frontier = clean.frontier()
            assert coordinator.frontier() == frontier
            for c in (clean, coordinator):
                c.publish(frontier, withhold=False)
            run = [(pair, truth.label(pair)) for pair in frontier]
            assert coordinator.record_answers(run) == clean.record_answers(run)
            assert len(coordinator.reassignments) == 1
            assert coordinator.live_worker_ids() == [1, 2]
            first_round = dict(sent[:3])
            assert sorted(first_round) == [0, 1, 2], "the run spans every worker"
            retried = sorted(gpos for _, share in sent[3:] for gpos in share)
            assert retried == sorted(first_round[0])
            assert committed_answers(coordinator) == sorted(
                coordinator._position[pair] for pair, _ in run
            )
            assert coordinator.sweep() == clean.sweep()
            drive_lockstep([clean, coordinator], truth, order)

    @pytest.mark.parametrize("transport", ("socket", "pipe"))
    def test_strict_conflict_mid_answers_commits_the_applied_prefix(
        self, transport
    ):
        """A STRICT conflict part-way through a worker's share: the worker
        replies with the prefix it applied, exactly that prefix commits,
        and the error re-raises once every reply is in (the other worker's
        share, after the conflict in the run, still applies).  A re-ship
        from the log then rebuilds the same state as a coordinator that
        only ever saw the applied answers."""
        ab, bc, ac, xy = Pair("a", "b"), Pair("b", "c"), Pair("a", "c"), Pair("x", "y")
        order = [ab, bc, ac, xy]
        run = [
            (ab, Label.MATCHING),
            (bc, Label.MATCHING),
            (ac, Label.NON_MATCHING),
            (xy, Label.MATCHING),
        ]
        with ShardCoordinator(
            order, spawn_local_workers=2, local_transport=transport
        ) as coordinator:
            coordinator.publish(order, withhold=False)
            with pytest.raises(InconsistentLabelError):
                coordinator.record_answers(run)
            assert committed_answers(coordinator) == [0, 1, 3]
            stats = coordinator.stats()
            coordinator.drop_connection(coordinator._worker_of_root[coordinator._root_of(ab)])
            assert coordinator.stats() == stats  # re-shipped from the log
            assert len(coordinator.reassignments) == 1
            with ShardCoordinator(order, spawn_local_workers=1) as prefix_only:
                prefix_only.publish(order, withhold=False)
                prefix_only.record_answers([run[0], run[1], run[3]])
                assert prefix_only.stats() == coordinator.stats()
                assert prefix_only.sweep() == coordinator.sweep()
                assert prefix_only.frontier() == coordinator.frontier()

    def test_shutdown_never_hangs(self):
        """close() with every worker SIGKILLed (stop frames go nowhere,
        children need reaping) still returns promptly."""
        order, _ = block_world(n_blocks=4, objects_per_block=4)
        coordinator = ShardCoordinator(order, spawn_local_workers=2)
        for pid in coordinator.worker_pids():
            os.kill(pid, signal.SIGKILL)
        started = time.monotonic()
        coordinator.close()
        assert time.monotonic() - started < 10.0
        assert coordinator.closed
        coordinator.close()  # idempotent
        with pytest.raises(ShardWorkerError, match="closed"):
            coordinator.frontier()


# ----------------------------------------------------------------------
# protocol: framing and the replay/reconnect convergence property
# ----------------------------------------------------------------------
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


#: Wire messages are always JSON arrays (enforced by the framing layer —
#: it keeps the decoder's ``None``/"need more bytes" unambiguous).
WIRE_MESSAGES = st.lists(JSON_VALUES, max_size=4)


class TestFraming:
    @given(messages=st.lists(WIRE_MESSAGES, min_size=1, max_size=5), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_through_torn_reads(self, messages, data):
        """Any frame sequence survives arbitrary re-chunking of the byte
        stream (TCP tears at any boundary)."""
        blob = b"".join(encode_frame(message) for message in messages)
        decoder = FrameDecoder()
        decoded = []
        offset = 0
        while offset < len(blob):
            step = data.draw(
                st.integers(1, max(1, min(7, len(blob) - offset))), label="chunk"
            )
            decoder.feed(blob[offset : offset + step])
            offset += step
            while True:
                frame = decoder.next_frame()
                if frame is None:
                    break
                decoded.append(frame)
        assert decoded == messages

    def test_incomplete_frames_wait_for_bytes(self):
        frame = encode_frame(["sweep", 7])
        decoder = FrameDecoder()
        decoder.feed(frame[:3])
        assert decoder.next_frame() is None  # torn length prefix
        decoder.feed(frame[3:-1])
        assert decoder.next_frame() is None  # torn body
        decoder.feed(frame[-1:])
        assert decoder.next_frame() == ["sweep", 7]
        assert decoder.next_frame() is None  # drained

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(["x" * 100], max_frame_bytes=16)

    def test_non_array_messages_rejected_both_ways(self):
        """Top-level null/scalars are banned on the wire: a ``null`` body
        would collide with the decoder's "need more bytes" None."""
        with pytest.raises(ProtocolError, match="arrays"):
            encode_frame(None)
        with pytest.raises(ProtocolError, match="arrays"):
            encode_frame({"not": "an array"})
        import struct

        body = b"null"
        decoder = FrameDecoder()
        decoder.feed(struct.pack("!I", len(body)) + body)
        with pytest.raises(ProtocolError, match="arrays"):
            decoder.next_frame()

    def test_oversized_incoming_prefix_rejected_before_body(self):
        """A hostile/corrupt length prefix must fail fast, not allocate."""
        import struct

        decoder = FrameDecoder(max_frame_bytes=1024)
        decoder.feed(struct.pack("!I", 1 << 30))
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.next_frame()


def session_digest(session: _WorkerSession):
    """Everything a worker session can observably report."""
    return (
        session.stats(),
        sorted(tuple(cluster) for cluster in session.clusters()),
        session.sweep(),
        session.frontier(),
    )


def campaign_bundle(order, truth):
    """(bundle, events): a finished campaign's authoritative snapshot, as a
    recovery re-ship would carry it."""
    with ShardCoordinator(order, spawn_local_workers=1) as coordinator:
        drive_lockstep([coordinator], truth, order)
        return coordinator._encode_bundle(list(coordinator._entries_of_root))


class TestReplayConvergence:
    def test_reship_is_deterministic(self):
        """Identical (bundle, events) loaded anywhere produce identical
        state — a re-shipped component cannot depend on which worker it
        lands on."""
        order, truth = block_world(n_blocks=3, objects_per_block=4)
        bundle, events = campaign_bundle(order, truth)
        first, second = _WorkerSession(), _WorkerSession()
        assert first.load(bundle, "strict", events) == len(order)
        assert second.load(bundle, "strict", events) == len(order)
        assert session_digest(first) == session_digest(second)

    def test_replaying_any_prefix_converges(self):
        """The reconnect property: a worker loaded with any committed-log
        prefix, then fed the remaining events as live commands, converges to
        the full-replay state.  This is exactly the window a worker death
        leaves — events committed only after acknowledgement, the in-flight
        command replayed on the new owner."""
        order, truth = block_world(n_blocks=3, objects_per_block=4)
        bundle, events = campaign_bundle(order, truth)
        assert len(events) >= 10, "world too small to exercise replay"
        full = _WorkerSession()
        full.load(bundle, "strict", events)
        reference = session_digest(full)
        for cut in range(len(events) + 1):
            session = _WorkerSession()
            session.load(bundle, "strict", events[:cut])
            for event in events[cut:]:
                kind = event[0]
                if kind == "a":
                    session.answer(event[1], event[2])
                elif kind == "d":
                    session.deduced(event[1], event[2])
                elif kind == "p":
                    session.publish(event[1], event[2])
                else:
                    assert kind == "w"
                    session.withhold(event[1])
            assert session_digest(session) == reference, f"diverged at {cut}"

    def test_answers_are_idempotent_by_position_and_label(self):
        """A retried in-flight answer (applied but unacknowledged before the
        death) leaves the partition, pending deductions, and frontier
        unchanged — the exactly-once guarantee the commit-after-ack log
        relies on."""
        order, truth = block_world(n_blocks=2, objects_per_block=3)
        bundle, _ = campaign_bundle(order, truth)
        session = _WorkerSession()
        session.load(bundle, "strict", [])
        session.publish(list(range(len(order))), False)
        applied, conflict = session.answer(0, 1)
        assert applied and conflict is None
        session.sweep()  # drain the first application's deductions
        clusters = sorted(tuple(cluster) for cluster in session.clusters())
        frontier = session.frontier()
        applied_again, conflict = session.answer(0, 1)  # the replay
        assert applied_again and conflict is None  # consistent, not a conflict
        assert session.sweep() == []  # nothing newly resolved
        assert sorted(tuple(c) for c in session.clusters()) == clusters
        reply = session.frontier()
        assert reply == "same" or reply == frontier
