"""Distributed shard execution: the PR-4 executor protocol over TCP sockets.

:class:`~repro.engine.parallel.ProcessShardExecutor` already speaks a
shared-nothing command protocol — component snapshots ship once, then the hot
path carries only order positions and label codes.  This module swaps the
multiprocessing pipe for a socket, which turns worker *processes* into worker
*hosts*: the path past one machine for 100M+ pair workloads.

Two halves:

* :class:`ShardWorkerHost` — an ``asyncio`` TCP server (stdlib only) that a
  coordinator connects to.  Each connection gets an independent session: the
  coordinator ships component snapshots (``load``), and the session executes
  answers, deduction sweeps, and frontier recomputes with the *same*
  :class:`~repro.engine.parallel._WorkerState` the in-process pool uses —
  byte-identical behaviour is the whole point, and the differential suite
  pins it.  A background task heartbeats while the session is idle; a
  handler that stalls starves its own heartbeat, which is exactly how the
  coordinator detects a hung worker.  Run one standalone with
  ``python -m repro.engine.distributed --worker host:port``.
* :class:`ShardCoordinator` — the engine core of ``backend="distributed"``:
  it implements the same core methods as ``ProcessShardExecutor``, and
  ``LabelingEngine`` forwards every event to it.  It connects out to each
  worker with plain *blocking* sockets — engine calls are synchronous, and on
  the async runtime they happen inside a running event loop, where nesting
  ``asyncio.run`` is impossible — and keeps an **authoritative event log**
  per static component.

Wire format: length-prefixed JSON — a 4-byte big-endian size then a UTF-8
JSON array, no new dependencies.  Snapshots reuse the PR-8 column packing
(:func:`~repro.engine.engine._pack_ints`: base64 little-endian int arrays),
so a 250k-position bundle decodes with a memcpy instead of a 250k-element
JSON array parse.  Object ids must be JSON scalars (str/int/float/bool/None)
— the same contract :func:`repro.spec.encode_object` enforces — and the
coordinator validates this up front.

Failure contract (the extension of :class:`ShardWorkerError` this PR adds):
a dropped connection, heartbeat silence, or reply timeout marks a worker
**dead** — but instead of poisoning the executor, the coordinator re-ships
the dead worker's components to the surviving workers from its authoritative
snapshot (the static entries plus the committed event log) and replays the
in-flight command.  Events commit to the log only after the owning worker
acknowledged them, so a worker that died *after* applying a command but
*before* replying is replayed without it and the retried command applies it
exactly once.  Only when **no** workers survive does the executor poison
itself and raise :class:`ShardWorkerError`, the PR-4 contract.
"""

from __future__ import annotations

import argparse
import asyncio
import heapq
import json
import multiprocessing
import os
import socket
import struct
import sys
import time
import weakref
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.cluster_graph import Conflict, ConflictPolicy, InconsistentLabelError
from ..core.pairs import LABEL_CODE, LABEL_OF_CODE, CandidatePair, Label, Pair
from ..core.union_find import UnionFind
from .parallel import (
    _MAX_DEFAULT_WORKERS,
    _UNCHANGED,
    _WorkerState,
    ShardWorkerError,
    _as_pairs,
    available_cpus,
)

#: Version stamp of the coordinator/worker wire protocol; a mismatch at the
#: hello handshake refuses the connection instead of desyncing later.
#: Version 2 moved label codes to :data:`~repro.core.pairs.LABEL_CODE`.
PROTOCOL_VERSION = 2

#: Frames larger than this are rejected on both sides (a torn or hostile
#: length prefix must not allocate unbounded memory).  Generous: a 1M-pair
#: snapshot bundle is ~30 MB of JSON.
DEFAULT_MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Worker -> coordinator keepalive cadence while a session is idle.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Heartbeat silence after which the coordinator declares a worker dead.
#: This also bounds single-handler compute time (a busy handler starves its
#: own heartbeat), so the default is generous; chaos tests tune it down.
DEFAULT_HEARTBEAT_TIMEOUT = 60.0

#: Socket poll slice while waiting for a reply — liveness (connection state,
#: heartbeat recency, deadline) is re-checked this often, mirroring the
#: ``conn.poll(0.05)`` cadence of the pipe executor.
_POLL_INTERVAL = 0.05

_HELLO = "hello"
_HEARTBEAT_FRAME = None  # built after encode_frame is defined

#: JSON-scalar types an object id may have on the distributed backend.
_SCALAR_TYPES = (str, int, float, bool, type(None))

#: Exception types a worker may ship by name; anything else arrives as a
#: RuntimeError carrying the original type name.  InconsistentLabelError is
#: the one the STRICT conflict contract requires.
_EXC_TYPES: Dict[str, type] = {
    "InconsistentLabelError": InconsistentLabelError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "IndexError": IndexError,
    "RuntimeError": RuntimeError,
    "AssertionError": AssertionError,
    "NotImplementedError": NotImplementedError,
}


class ProtocolError(RuntimeError):
    """A malformed, oversized, or out-of-sequence frame on the wire."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(message: Any, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """One wire frame: 4-byte big-endian length + compact UTF-8 JSON body.

    Messages must be JSON *arrays* — every protocol frame is one, and the
    restriction keeps :meth:`FrameDecoder.next_frame`'s ``None`` ("need more
    bytes") unambiguous.
    """
    if not isinstance(message, (list, tuple)):
        raise ProtocolError(
            f"wire messages must be JSON arrays, got {type(message).__name__}"
        )
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    return struct.pack("!I", len(body)) + body


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte stream.

    Feed whatever the socket produced — bytes arrive torn at any boundary —
    and pull complete frames out as they become decodable.  An oversized
    length prefix raises :class:`ProtocolError` immediately (before any
    body bytes are read), so a corrupt stream cannot demand an unbounded
    allocation.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_frame(self) -> Optional[Any]:
        """The next complete frame, or None until more bytes arrive."""
        if len(self._buffer) < 4:
            return None
        (length,) = struct.unpack_from("!I", self._buffer)
        if length > self._max_frame_bytes:
            raise ProtocolError(
                f"incoming frame of {length} bytes exceeds the "
                f"{self._max_frame_bytes}-byte limit"
            )
        if len(self._buffer) < 4 + length:
            return None
        body = bytes(self._buffer[4 : 4 + length])
        del self._buffer[: 4 + length]
        message = json.loads(body.decode("utf-8"))
        if not isinstance(message, list):
            raise ProtocolError(
                f"wire messages must be JSON arrays, got {type(message).__name__}"
            )
        return message


_HEARTBEAT_FRAME = encode_frame(["hb"])


async def _read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int
) -> Any:
    """Worker-side frame read (exact, so torn writes just wait for bytes)."""
    header = await reader.readexactly(4)
    (length,) = struct.unpack("!I", header)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    body = await reader.readexactly(length)
    message = json.loads(body.decode("utf-8"))
    if not isinstance(message, list):
        raise ProtocolError(
            f"wire messages must be JSON arrays, got {type(message).__name__}"
        )
    return message


async def _write_frame(writer: asyncio.StreamWriter, frame: bytes) -> bool:
    """Worker-side frame write; False when the coordinator has already gone
    (it closes without waiting for the ``stop`` ack, for one)."""
    try:
        writer.write(frame)
        await writer.drain()
    except ConnectionError:
        return False
    return True


def _parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` (IPv6 hosts may be bracketed) -> (host, port)."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"worker address must look like host:port, got {address!r}"
        )
    return host.strip("[]") or "127.0.0.1", int(port)


# ----------------------------------------------------------------------
# worker host (asyncio server)
# ----------------------------------------------------------------------
class _WorkerSession:
    """Per-connection shard state on a worker host.

    One :class:`_WorkerState` *bundle* per ``load`` command — the initial
    snapshot plus one per re-assignment — each holding whole components, so
    bundles never interact.  Routing by order position picks the bundle; the
    broadcast commands (sweep/frontier/stats/...) merge across bundles
    exactly as the coordinator merges across workers.
    """

    def __init__(self) -> None:
        self.worker_id: Optional[int] = None
        self._bundles: Dict[int, _WorkerState] = {}
        self._bundle_of: Dict[int, _WorkerState] = {}
        self._frontiers: Dict[int, List[int]] = {}
        self._next_bundle = 0

    # -- command handlers ---------------------------------------------
    def load(self, bundle: dict, policy_value: str, events: List[list]) -> int:
        from .engine import _unpack_ints  # lazy: engine imports this module

        positions = list(_unpack_ints(bundle["pos"]))
        entries = [
            (gpos, Pair(left, right))
            for gpos, left, right in zip(positions, bundle["left"], bundle["right"])
        ]
        state = _WorkerState(entries, ConflictPolicy(policy_value))
        for event in events:
            kind = event[0]
            if kind == "a":
                state.answer(event[1], event[2])
            elif kind == "d":
                state.deduced(event[1], event[2])
            elif kind == "p":
                state.publish(event[1], event[2])
            elif kind == "w":
                state.withhold(event[1])
            else:  # pragma: no cover - coordinator never sends others
                raise ProtocolError(f"unknown replay event kind {kind!r}")
        key = self._next_bundle
        self._next_bundle += 1
        self._bundles[key] = state
        self._frontiers[key] = []
        for gpos in positions:
            self._bundle_of[gpos] = state
        return len(entries)

    def answer(self, gpos: int, code: int) -> list:
        applied, conflict = self._bundle_of[gpos].answer(gpos, code)
        packed = (
            None
            if conflict is None
            else [LABEL_CODE[conflict.label], LABEL_CODE[conflict.implied]]
        )
        return [applied, packed]

    def deduced(self, gpos: int, code: int) -> None:
        self._bundle_of[gpos].deduced(gpos, code)

    def _grouped(self, positions: Sequence[int]) -> List[Tuple[_WorkerState, List[int]]]:
        groups: Dict[int, Tuple[_WorkerState, List[int]]] = {}
        for gpos in positions:
            state = self._bundle_of[gpos]
            groups.setdefault(id(state), (state, []))[1].append(gpos)
        return list(groups.values())

    def publish(self, positions: Sequence[int], withhold: bool) -> None:
        for state, group in self._grouped(positions):
            state.publish(group, withhold)

    def withhold(self, positions: Sequence[int]) -> None:
        for state, group in self._grouped(positions):
            state.withhold(group)

    def sweep(self) -> List[List[int]]:
        runs = [state.sweep() for state in self._bundles.values()]
        runs = [run for run in runs if run]
        if not runs:
            return []
        if len(runs) == 1:
            return [list(item) for item in runs[0]]
        return [list(item) for item in heapq.merge(*runs)]

    def frontier(self) -> Union[str, List[int]]:
        changed = False
        for key, state in self._bundles.items():
            reply = state.frontier()
            if reply != _UNCHANGED:
                self._frontiers[key] = reply
                changed = True
        if not changed:
            return _UNCHANGED
        runs = [run for run in self._frontiers.values() if run]
        if not runs:
            return []
        if len(runs) == 1:
            return list(runs[0])
        return list(heapq.merge(*runs))

    def deduce(self, left: Hashable, right: Hashable) -> Optional[int]:
        pair = Pair(left, right)
        for state in self._bundles.values():
            code = state.deduce(pair)
            if code is not None:
                return code
        return None

    def stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for state in self._bundles.values():
            for key, value in state.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def clusters(self) -> List[List[Hashable]]:
        out: List[List[Hashable]] = []
        for state in self._bundles.values():
            out.extend(sorted(cluster, key=repr) for cluster in state.clusters())
        return out

    def check(self) -> None:
        for state in self._bundles.values():
            state.check()


class ShardWorkerHost:
    """A TCP server hosting shard worker sessions (one per connection).

    Args:
        host / port: bind address; port 0 picks a free port (readable from
            :attr:`port` once serving, and reported via ``ready_callback``).
        fault_hook: test-only callable ``(worker_id, command_name)`` invoked
            before each command is handled — raising models a handler error
            (shipped to the coordinator), ``os._exit`` models a crash, and
            ``time.sleep`` past the coordinator's heartbeat timeout models a
            hang (the sleeping handler starves this session's heartbeat).
            Must be picklable when the host is spawned as a child process.
        max_frame_bytes: oversized-frame rejection limit.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        fault_hook: Optional[Callable[[Optional[int], str], None]] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self._fault_hook = fault_hook
        self._max_frame_bytes = max_frame_bytes
        self._server: Optional[asyncio.AbstractServer] = None

    async def serve(
        self, *, ready_callback: Optional[Callable[[int], None]] = None
    ) -> None:
        """Bind, report the bound port, and serve sessions until cancelled."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if ready_callback is not None:
            ready_callback(self.port)
        async with self._server:
            await self._server.serve_forever()

    async def _heartbeat(self, writer: asyncio.StreamWriter, interval: float) -> None:
        """Idle keepalive.  Never drained: a backpressured connection must
        not wedge this task, and a blocked event loop (busy handler) simply
        stops scheduling it — which the coordinator reads as a hang."""
        try:
            while True:
                await asyncio.sleep(interval)
                transport = writer.transport
                if transport is None or transport.is_closing():
                    return
                if transport.get_write_buffer_size() < 1 << 16:
                    writer.write(_HEARTBEAT_FRAME)
        except (asyncio.CancelledError, ConnectionError):  # pragma: no cover
            return

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _WorkerSession()
        heartbeat_task: Optional[asyncio.Task] = None
        try:
            if not await _write_frame(
                writer, encode_frame([_HELLO, PROTOCOL_VERSION, os.getpid()])
            ):
                return
            while True:
                try:
                    frame = await _read_frame(reader, self._max_frame_bytes)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    ProtocolError,
                    json.JSONDecodeError,
                ):
                    return  # coordinator gone or stream corrupt: drop session
                name = frame[0]
                if name == "hb":
                    continue
                seq = frame[1]
                if name == "init":
                    session.worker_id = frame[2]
                    if heartbeat_task is None:
                        heartbeat_task = asyncio.create_task(
                            self._heartbeat(writer, float(frame[3]))
                        )
                    if not await _write_frame(writer, encode_frame(["ok", seq, None])):
                        return
                    continue
                if name == "stop":
                    await _write_frame(writer, encode_frame(["ok", seq, None]))
                    return
                try:
                    if self._fault_hook is not None:
                        self._fault_hook(session.worker_id, name)
                    handler = getattr(session, name, None)
                    if handler is None or name.startswith("_"):
                        raise ProtocolError(f"unknown command {name!r}")
                    payload = handler(*frame[2:])
                except Exception as exc:  # shipped to the coordinator
                    reply = ["exc", seq, type(exc).__name__, str(exc)]
                else:
                    reply = ["ok", seq, payload]
                frame = encode_frame(reply, self._max_frame_bytes)
                if not await _write_frame(writer, frame):
                    return
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


def _local_worker_host_main(conn, fault_hook, max_frame_bytes: int) -> None:
    """Child-process entry point for ``spawn_local_workers``: serve on a
    fresh loopback port and report it through the pipe once bound."""

    def report(port: int) -> None:
        conn.send(port)
        conn.close()

    host = ShardWorkerHost(
        "127.0.0.1", 0, fault_hook=fault_hook, max_frame_bytes=max_frame_bytes
    )
    try:
        asyncio.run(host.serve(ready_callback=report))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


# ----------------------------------------------------------------------
# coordinator (blocking sockets; usable from inside a running event loop)
# ----------------------------------------------------------------------
class _WorkerDied(Exception):
    """Internal control flow: a worker was detected dead mid-operation."""

    def __init__(self, link: "_WorkerLink", reason: str) -> None:
        super().__init__(reason)
        self.link = link
        self.reason = reason


@dataclass
class _WorkerLink:
    worker_id: int
    address: Tuple[str, int]
    sock: Optional[socket.socket]
    decoder: FrameDecoder
    pid: Optional[int] = None
    process: Optional["multiprocessing.process.BaseProcess"] = None
    seq: int = 0
    last_heard: float = 0.0
    alive: bool = True
    n_pairs: int = 0
    roots: Set[Hashable] = field(default_factory=set)


def _shutdown_links(links: List[_WorkerLink]) -> None:
    """Best-effort shutdown shared by close() and the GC finalizer.  Sends
    ``stop`` without waiting for acknowledgements — shutdown never hangs on
    a dead or wedged worker — then reaps any local child processes."""
    for link in links:
        if link.sock is None:
            continue
        try:
            link.sock.settimeout(0.5)
            link.seq += 1
            link.sock.sendall(encode_frame(["stop", link.seq]))
        except OSError:
            pass
    for link in links:
        if link.sock is not None:
            try:
                link.sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            link.sock = None
    for link in links:
        process = link.process
        if process is None:
            continue
        process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - stuck worker
            process.kill()
            process.join(timeout=1.0)


class ShardCoordinator:
    """The engine core of ``backend="distributed"``: the
    ``ProcessShardExecutor`` core methods over socket-attached workers, with
    re-assignment on worker loss.

    The labeling order is partitioned by static candidate-graph component and
    whole components are assigned to workers greedily (largest first onto the
    least-loaded worker — deterministic), exactly as the in-process pool.
    Each worker receives its components once as a snapshot bundle; hot-path
    messages carry only order positions and label codes.

    Unlike the pipe executor, a worker death does not poison the campaign:
    the coordinator re-ships the dead worker's components (static entries +
    the committed per-component event log) to the survivors and replays the
    in-flight command.  See the module docstring for the exact contract.

    Args:
        order: the labeling order (object ids must be JSON scalars).
        positions: optional pair -> order position map (reuses the engine's).
        policy: conflict policy for the workers' deduction graphs.
        workers: ``"host:port"`` addresses of running
            :class:`ShardWorkerHost` processes to connect to.
        spawn_local_workers: additionally spawn this many loopback worker
            hosts as child processes (the tests/examples convenience).  When
            neither knob is given, spawns ``min(cpus, 8)`` local workers.
        heartbeat_interval: keepalive cadence workers are instructed to use.
        heartbeat_timeout: heartbeat silence after which a worker is declared
            dead while a command is in flight.  Bounds single-handler compute
            time — see :data:`DEFAULT_HEARTBEAT_TIMEOUT`.
        response_timeout: hard per-command reply deadline (a worker that
            heartbeats but never replies is declared dead too).
        connect_timeout: TCP connect + handshake deadline per worker.
        fault_hook: test-only callable ``(worker_id, command_name)`` invoked
            before each command frame is sent — the coordinator-side
            transport injection point (close the socket, SIGKILL the worker,
            ...).  Worker-side injection is ``ShardWorkerHost(fault_hook=)``,
            forwarded to spawned locals via ``worker_fault_hook``.
        worker_fault_hook: forwarded to spawned local worker hosts (must be
            picklable under the spawn start method).
        mp_start_method: start method for spawned local workers.
        max_frame_bytes: oversized-frame rejection limit.
    """

    def __init__(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        *,
        positions: Optional[Dict[Pair, int]] = None,
        policy: ConflictPolicy = ConflictPolicy.STRICT,
        workers: Optional[Sequence[str]] = None,
        spawn_local_workers: Optional[int] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        response_timeout: float = 600.0,
        connect_timeout: float = 10.0,
        fault_hook: Optional[Callable[[int, str], None]] = None,
        worker_fault_hook: Optional[Callable[[Optional[int], str], None]] = None,
        mp_start_method: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._pairs = _as_pairs(order)
        for pair in self._pairs:
            for obj in (pair.left, pair.right):
                if not isinstance(obj, _SCALAR_TYPES):
                    raise TypeError(
                        "the distributed backend ships object ids as JSON "
                        f"and requires scalar ids (str/int/float/bool/None), "
                        f"got {type(obj).__name__}: {obj!r}"
                    )
        if positions is None:
            positions = {pair: i for i, pair in enumerate(self._pairs)}
        self._position = positions
        self._policy = policy
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._response_timeout = response_timeout
        self._connect_timeout = connect_timeout
        self._fault_hook = fault_hook
        self._max_frame_bytes = max_frame_bytes
        self._failure: Optional[str] = None
        self._closed = False
        #: Chronological FIRST_WINS conflicts, coordinator-side.
        self.conflicts: List[Conflict] = []
        #: One record per worker-loss recovery (for tests and diagnostics).
        self.reassignments: List[Dict[str, Any]] = []

        components = UnionFind()
        for pair in self._pairs:
            components.union(pair.left, pair.right)
        self._components = components
        grouped: Dict[Hashable, List[Tuple[int, Pair]]] = {}
        for gpos, pair in enumerate(self._pairs):
            grouped.setdefault(components.find(pair.left), []).append((gpos, pair))
        self._entries_of_root = grouped
        self.n_components = len(grouped)
        self._log_of_root: Dict[Hashable, List[list]] = {
            root: [] for root in grouped
        }

        addresses = [_parse_address(address) for address in (workers or [])]
        n_spawn = spawn_local_workers or 0
        if n_spawn < 0:
            raise ValueError(f"spawn_local_workers must be >= 0, got {n_spawn}")
        if not addresses and not n_spawn:
            n_spawn = min(available_cpus(), _MAX_DEFAULT_WORKERS)
        n_workers = len(addresses) + n_spawn
        n_workers = min(n_workers, self.n_components)
        self.n_workers = n_workers
        addresses = addresses[:n_workers]
        n_spawn = n_workers - len(addresses)

        # Greedy balanced assignment, identical to the pipe executor.
        assigned_roots: List[List[Hashable]] = [[] for _ in range(n_workers)]
        self._worker_of_root: Dict[Hashable, int] = {}
        if n_workers:
            ranked = sorted(
                grouped.items(), key=lambda item: (-len(item[1]), item[1][0][0])
            )
            load: List[Tuple[int, int]] = [(0, wid) for wid in range(n_workers)]
            heapq.heapify(load)
            for root, entries in ranked:
                n_pairs, wid = heapq.heappop(load)
                assigned_roots[wid].append(root)
                self._worker_of_root[root] = wid
                heapq.heappush(load, (n_pairs + len(entries), wid))

        self._links: Dict[int, _WorkerLink] = {}
        self._worker_frontiers: Dict[int, List[int]] = {}
        spawned: List[Tuple["multiprocessing.process.BaseProcess", Any]] = []
        try:
            if n_spawn:
                if mp_start_method is None:
                    methods = multiprocessing.get_all_start_methods()
                    mp_start_method = "fork" if "fork" in methods else "spawn"
                ctx = multiprocessing.get_context(mp_start_method)
                for index in range(n_spawn):
                    parent_conn, child_conn = ctx.Pipe()
                    process = ctx.Process(
                        target=_local_worker_host_main,
                        args=(child_conn, worker_fault_hook, max_frame_bytes),
                        name=f"repro-shard-host-{index}",
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    spawned.append((process, parent_conn))
                for process, parent_conn in spawned:
                    if not parent_conn.poll(self._connect_timeout):
                        raise ShardWorkerError(
                            f"local worker host pid {process.pid} did not "
                            f"report a port within {self._connect_timeout:.0f}s"
                        )
                    addresses.append(("127.0.0.1", parent_conn.recv()))
                    parent_conn.close()

            for wid, address in enumerate(addresses):
                process = spawned[wid - (n_workers - n_spawn)][0] if (
                    wid >= n_workers - n_spawn
                ) else None
                link = self._connect(wid, address, process)
                self._links[wid] = link
                self._worker_frontiers[wid] = []

            # Initial snapshot shipment; a worker lost here already goes
            # through the normal re-assignment path.
            failures: List[_WorkerDied] = []
            for wid, roots in enumerate(assigned_roots):
                link = self._links[wid]
                try:
                    self._load_roots(link, roots)
                except _WorkerDied as died:
                    failures.append(died)
                    continue
                for root in roots:
                    link.roots.add(root)
                    link.n_pairs += len(grouped[root])
            for died in failures:
                for root in assigned_roots[died.link.worker_id]:
                    # never loaded anywhere: make them the dead link's to move
                    died.link.roots.add(root)
                self._recover(died.link, died.reason)
        except BaseException:
            _shutdown_links(list(self._links.values()))
            for process, parent_conn in spawned:
                if all(link.process is not process for link in self._links.values()):
                    process.terminate()
                    process.join(timeout=2.0)
            raise
        self._finalizer = weakref.finalize(
            self, _shutdown_links, list(self._links.values())
        )

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------
    def _connect(
        self,
        worker_id: int,
        address: Tuple[str, int],
        process: Optional["multiprocessing.process.BaseProcess"],
    ) -> _WorkerLink:
        try:
            sock = socket.create_connection(address, timeout=self._connect_timeout)
        except OSError as exc:
            raise ShardWorkerError(
                f"could not connect to shard worker {worker_id} at "
                f"{address[0]}:{address[1]}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_POLL_INTERVAL)
        link = _WorkerLink(
            worker_id=worker_id,
            address=address,
            sock=sock,
            decoder=FrameDecoder(self._max_frame_bytes),
            process=process,
            last_heard=time.monotonic(),
        )
        try:
            hello = self._recv_frame(link, _HELLO, deadline_override=self._connect_timeout)
            if hello[0] != _HELLO or hello[1] != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"worker {worker_id} spoke protocol {hello[:2]!r}, "
                    f"expected ['hello', {PROTOCOL_VERSION}]"
                )
            link.pid = hello[2]
            kind, payload = self._recv_payload(
                link, "init", self._send_command(link, "init", [worker_id, self._heartbeat_interval])
            )
            if kind != "ok":
                raise payload
        except (_WorkerDied, ProtocolError) as exc:
            sock.close()
            raise ShardWorkerError(
                f"handshake with shard worker {worker_id} at "
                f"{address[0]}:{address[1]} failed: {exc}"
            ) from exc
        return link

    def _ensure_usable(self) -> None:
        if self._closed:
            raise ShardWorkerError("ShardCoordinator is closed")
        if self._failure is not None:
            raise ShardWorkerError(self._failure)

    def _fail(self, message: str) -> ShardWorkerError:
        self._failure = message
        return ShardWorkerError(message)

    def _send_command(self, link: _WorkerLink, name: str, args: Sequence) -> int:
        """Frame and send one command; returns its sequence number."""
        if self._fault_hook is not None:
            self._fault_hook(link.worker_id, name)
        link.seq += 1
        frame = encode_frame([name, link.seq, *args], self._max_frame_bytes)
        if link.sock is None:
            raise _WorkerDied(link, self._death_message(link, name, "connection closed"))
        try:
            link.sock.settimeout(self._response_timeout)
            link.sock.sendall(frame)
        except OSError as exc:
            raise _WorkerDied(
                link, self._death_message(link, name, f"send failed: {exc}")
            ) from None
        finally:
            if link.sock is not None:
                try:
                    link.sock.settimeout(_POLL_INTERVAL)
                except OSError:  # pragma: no cover - closed concurrently
                    pass
        return link.seq

    def _death_message(self, link: _WorkerLink, command: str, cause: str) -> str:
        return (
            f"shard worker {link.worker_id} at "
            f"{link.address[0]}:{link.address[1]} (pid {link.pid}, "
            f"{len(link.roots)} components / {link.n_pairs} pairs) was lost "
            f"while handling {command!r}: {cause}"
        )

    def _recv_frame(
        self,
        link: _WorkerLink,
        command_name: str,
        *,
        deadline_override: Optional[float] = None,
    ) -> Any:
        """One frame, liveness-checked while waiting: EOF, reset, heartbeat
        silence, and the reply deadline all surface as :class:`_WorkerDied`
        (never a hang)."""
        deadline = time.monotonic() + (
            self._response_timeout if deadline_override is None else deadline_override
        )
        while True:
            try:
                frame = link.decoder.next_frame()
            except (ProtocolError, json.JSONDecodeError) as exc:
                raise _WorkerDied(
                    link, self._death_message(link, command_name, f"bad frame: {exc}")
                ) from None
            if frame is not None:
                link.last_heard = time.monotonic()
                return frame
            if link.sock is None:
                raise _WorkerDied(
                    link,
                    self._death_message(link, command_name, "connection closed"),
                )
            try:
                chunk = link.sock.recv(1 << 20)
            except socket.timeout:
                now = time.monotonic()
                if now - link.last_heard > self._heartbeat_timeout:
                    raise _WorkerDied(
                        link,
                        self._death_message(
                            link,
                            command_name,
                            f"no heartbeat for {self._heartbeat_timeout:.1f}s",
                        ),
                    ) from None
                if now > deadline:
                    raise _WorkerDied(
                        link,
                        self._death_message(
                            link, command_name, "reply deadline exceeded"
                        ),
                    ) from None
                continue
            except OSError as exc:
                raise _WorkerDied(
                    link,
                    self._death_message(link, command_name, f"recv failed: {exc}"),
                ) from None
            if not chunk:
                raise _WorkerDied(
                    link,
                    self._death_message(link, command_name, "connection dropped"),
                ) from None
            link.last_heard = time.monotonic()
            link.decoder.feed(chunk)

    def _recv_payload(
        self, link: _WorkerLink, command_name: str, seq: int
    ) -> Tuple[str, Any]:
        """The reply to command ``seq``: ``("ok", payload)`` or ``("exc",
        exception_instance)`` — heartbeats are consumed along the way."""
        while True:
            frame = self._recv_frame(link, command_name)
            if frame[0] == "hb":
                continue
            kind, reply_seq = frame[0], frame[1]
            if reply_seq != seq or kind not in ("ok", "exc"):
                raise _WorkerDied(
                    link,
                    self._death_message(
                        link,
                        command_name,
                        f"protocol desync (got {kind!r} seq {reply_seq}, "
                        f"expected seq {seq})",
                    ),
                )
            if kind == "ok":
                return "ok", frame[2]
            exc_type = _EXC_TYPES.get(frame[2])
            if exc_type is None:
                return "exc", RuntimeError(f"{frame[2]}: {frame[3]}")
            return "exc", exc_type(frame[3])

    def _request(self, link: _WorkerLink, name: str, args: Sequence = ()) -> Any:
        seq = self._send_command(link, name, args)
        kind, payload = self._recv_payload(link, name, seq)
        if kind == "exc":
            raise payload
        return payload

    # ------------------------------------------------------------------
    # death, recovery, re-assignment
    # ------------------------------------------------------------------
    def _note_death(self, link: _WorkerLink, reason: str) -> None:
        if not link.alive:
            return
        link.alive = False
        if link.sock is not None:
            try:
                link.sock.close()
            except OSError:  # pragma: no cover
                pass
            link.sock = None
        if link.process is not None:
            # A local worker declared dead must actually die (it may merely
            # be wedged): kill it so it cannot write stale frames later.
            link.process.kill()
            link.process.join(timeout=2.0)
        self._worker_frontiers.pop(link.worker_id, None)

    def _encode_bundle(self, roots: Sequence[Hashable]) -> Tuple[dict, List[list]]:
        from .engine import _pack_ints  # lazy: engine imports this module

        entries: List[Tuple[int, Pair]] = []
        events: List[list] = []
        for root in roots:
            entries.extend(self._entries_of_root[root])
            events.extend(self._log_of_root[root])
        entries.sort()  # _WorkerState expects ascending order positions
        bundle = {
            "pos": _pack_ints([gpos for gpos, _ in entries]),
            "left": [pair.left for _, pair in entries],
            "right": [pair.right for _, pair in entries],
        }
        return bundle, events

    def _load_roots(self, link: _WorkerLink, roots: Sequence[Hashable]) -> None:
        if not roots:
            return
        bundle, events = self._encode_bundle(roots)
        self._request(link, "load", [bundle, self._policy.value, events])

    def _recover(self, dead: _WorkerLink, reason: str) -> Set[int]:
        """Re-ship a dead worker's components to the survivors.

        Returns the worker ids that received new bundles (their cached
        broadcast replies are stale).  Raises the poisoning
        :class:`ShardWorkerError` when no workers survive.
        """
        self._note_death(dead, reason)
        homeless = list(dead.roots)
        dead.roots = set()
        touched: Set[int] = set()
        moved_components = len(homeless)
        moved_pairs = sum(len(self._entries_of_root[root]) for root in homeless)
        while homeless:
            survivors = [link for link in self._links.values() if link.alive]
            if not survivors:
                raise self._fail(
                    f"no shard workers survive; last loss: {reason}"
                )
            # Largest components first onto the least-loaded survivor — the
            # same deterministic greedy rule as the initial assignment.
            homeless.sort(
                key=lambda root: (
                    -len(self._entries_of_root[root]),
                    self._entries_of_root[root][0][0],
                )
            )
            plan: Dict[int, List[Hashable]] = {}
            load = {link.worker_id: link.n_pairs for link in survivors}
            for root in homeless:
                wid = min(load, key=lambda w: (load[w], w))
                plan.setdefault(wid, []).append(root)
                load[wid] += len(self._entries_of_root[root])
            homeless = []
            for wid, roots in plan.items():
                link = self._links[wid]
                try:
                    self._load_roots(link, roots)
                except _WorkerDied as died:
                    self._note_death(died.link, died.reason)
                    homeless.extend(roots)
                    homeless.extend(died.link.roots)
                    died.link.roots = set()
                    touched.discard(wid)
                    continue
                for root in roots:
                    link.roots.add(root)
                    link.n_pairs += len(self._entries_of_root[root])
                    self._worker_of_root[root] = wid
                touched.add(wid)
        self.reassignments.append(
            {
                "worker_id": dead.worker_id,
                "reason": reason,
                "moved_components": moved_components,
                "moved_pairs": moved_pairs,
                "targets": sorted(touched),
            }
        )
        return touched

    def _routed_request(self, root: Hashable, name: str, args: Sequence) -> Any:
        """Send a single-owner command, recovering and re-routing on loss."""
        self._ensure_usable()
        for _ in range(len(self._links) + 2):
            link = self._links[self._worker_of_root[root]]
            try:
                return self._request(link, name, args)
            except _WorkerDied as died:
                self._recover(died.link, died.reason)
        raise self._fail(
            f"worker re-assignment did not converge while retrying {name!r}"
        )

    def _broadcast(
        self, name: str, args: Sequence = (), accumulate: bool = False
    ) -> Dict[int, Any]:
        """Send ``name`` to every live worker and gather one reply each.

        Workers lost mid-broadcast are recovered and the command is re-sent
        to every worker that received re-shipped components (and, for
        non-``accumulate`` commands, polled fresh).  With ``accumulate``
        (the sweep), a re-polled worker's earlier reply is *kept* and the
        re-poll only adds what its new bundles resolve — its own components
        already applied the first reply internally — while a reply from a
        worker that later died is *dropped*: those resolutions were never
        committed, and its components' new owner re-derives them.
        """
        self._ensure_usable()
        collected: Dict[int, Any] = {}
        done: Set[int] = set()
        pending_exc: Optional[BaseException] = None
        for _ in range(len(self._links) + 2):
            targets = [
                link
                for link in self._links.values()
                if link.alive and link.worker_id not in done
            ]
            if not targets:
                if pending_exc is not None:
                    raise pending_exc
                return collected
            sent: List[Tuple[_WorkerLink, int]] = []
            deaths: List[_WorkerDied] = []
            for link in targets:
                try:
                    sent.append((link, self._send_command(link, name, args)))
                except _WorkerDied as died:
                    deaths.append(died)
            # Consume every outstanding reply before raising anything, so a
            # shipped handler error cannot desync sibling request streams.
            for link, seq in sent:
                try:
                    kind, payload = self._recv_payload(link, name, seq)
                except _WorkerDied as died:
                    deaths.append(died)
                    continue
                if kind == "exc":
                    pending_exc = payload
                    done.add(link.worker_id)
                    continue
                if accumulate:
                    collected.setdefault(link.worker_id, []).append(payload)
                else:
                    collected[link.worker_id] = payload
                done.add(link.worker_id)
            for died in deaths:
                collected.pop(died.link.worker_id, None)
                done.discard(died.link.worker_id)
                touched = self._recover(died.link, died.reason)
                done -= touched
                if not accumulate:
                    for wid in touched:
                        collected.pop(wid, None)
        raise self._fail(
            f"worker re-assignment did not converge while broadcasting {name!r}"
        )

    def _root_of(self, pair: Pair) -> Hashable:
        gpos = self._position.get(pair)
        if gpos is None:
            raise ValueError(
                f"{pair!r} is not in the labeling order: the distributed "
                "backend routes events by order position and cannot place "
                "foreign pairs"
            )
        return self._components.find(pair.left)

    # ------------------------------------------------------------------
    # the engine core methods (as ProcessShardExecutor)
    # ------------------------------------------------------------------
    def record_answer(self, pair: Pair, label: Label) -> bool:
        """Apply a crowd answer on the owning worker; commits to the
        authoritative log only after the worker acknowledged it."""
        root = self._root_of(pair)
        gpos = self._position[pair]
        code = LABEL_CODE[label]
        applied, conflict = self._routed_request(root, "answer", [gpos, code])
        self._log_of_root[root].append(["a", gpos, code])
        if conflict is not None:
            self.conflicts.append(
                Conflict(pair, LABEL_OF_CODE[conflict[0]], LABEL_OF_CODE[conflict[1]])
            )
        return applied

    def record_deduced(self, pair: Pair, label: Label) -> None:
        """A deduction decided in the parent (sequential visit-time path)."""
        root = self._root_of(pair)
        gpos = self._position[pair]
        code = LABEL_CODE[label]
        self._routed_request(root, "deduced", [gpos, code])
        self._log_of_root[root].append(["d", gpos, code])

    def _routed_positions(
        self, pairs: Sequence[Pair]
    ) -> Dict[Hashable, List[int]]:
        by_root: Dict[Hashable, List[int]] = {}
        for pair in pairs:
            by_root.setdefault(self._root_of(pair), []).append(
                self._position[pair]
            )
        return by_root

    def _fan_out_positions(
        self, name: str, pairs: Sequence[Pair], extra: Sequence, event: str
    ) -> None:
        self._ensure_usable()
        remaining = self._routed_positions(pairs)
        for _ in range(len(self._links) + 2):
            if not remaining:
                return
            by_wid: Dict[int, List[Hashable]] = {}
            for root in remaining:
                by_wid.setdefault(self._worker_of_root[root], []).append(root)
            for wid, roots in by_wid.items():
                link = self._links[wid]
                positions = [g for root in roots for g in remaining[root]]
                try:
                    self._request(link, name, [positions, *extra])
                except _WorkerDied as died:
                    self._recover(died.link, died.reason)
                    break  # routing changed: regroup what's left
                for root in roots:
                    self._log_of_root[root].append(
                        [event, remaining.pop(root), *extra]
                    )
        if remaining:
            raise self._fail(
                f"worker re-assignment did not converge while retrying {name!r}"
            )

    def publish(self, pairs: Sequence[Pair], *, withhold: bool) -> None:
        """Mark ``pairs`` published (and optionally withheld from the sweep)
        on their owning workers."""
        self._fan_out_positions("publish", pairs, [withhold], "p")

    def withhold(self, pairs: Sequence[Pair]) -> None:
        """Take already-published pairs out of the workers' deduction sweeps."""
        self._fan_out_positions("withhold", pairs, [], "w")

    def sweep(self) -> List[Tuple[Pair, Label]]:
        """Run the incremental deduction sweep on every worker; returns newly
        resolved (pair, label) in global order position.  Resolutions commit
        to the event log here — their workers already applied them."""
        collected = self._broadcast("sweep", accumulate=True)
        runs = [run for replies in collected.values() for run in replies if run]
        if not runs:
            return []
        merged = heapq.merge(*runs) if len(runs) > 1 else iter(runs[0])
        out: List[Tuple[Pair, Label]] = []
        for gpos, code in merged:
            pair = self._pairs[gpos]
            self._log_of_root[self._components.find(pair.left)].append(
                ["d", gpos, code]
            )
            out.append((pair, LABEL_OF_CODE[code]))
        return out

    def frontier(self) -> List[Pair]:
        """The current must-crowdsource frontier, in order position.  Workers
        reply with fresh position lists or an "unchanged" marker, and the
        coordinator merges its per-worker caches — re-assigned components
        always arrive dirty, so a recovered worker's next reply is fresh."""
        collected = self._broadcast("frontier")
        for wid, payload in collected.items():
            if payload != _UNCHANGED:
                self._worker_frontiers[wid] = payload
        runs = [run for run in self._worker_frontiers.values() if run]
        if not runs:
            return []
        if len(runs) == 1:
            return [self._pairs[gpos] for gpos in runs[0]]
        return [self._pairs[gpos] for gpos in heapq.merge(*runs)]

    def deduce(self, pair: Pair) -> Optional[Label]:
        """Algorithm-1 deduction, routed to the owning worker (cross-worker
        pairs are ``None`` without any messaging, as in-process sharding)."""
        left, right = pair.left, pair.right
        if left not in self._components or right not in self._components:
            return None
        root = self._components.find(left)
        if root != self._components.find(right):
            return None
        code = self._routed_request(root, "deduce", [left, right])
        return None if code is None else LABEL_OF_CODE[code]

    def stats(self) -> Dict[str, int]:
        """Aggregated graph statistics across all workers."""
        totals = {
            "n_shards": 0,
            "n_objects": 0,
            "n_clusters": 0,
            "n_matching_edges": 0,
            "n_non_matching_edges": 0,
            "n_components": 0,
        }
        for reply in self._broadcast("stats").values():
            for key, value in reply.items():
                totals[key] += value
        return totals

    def clusters(self) -> List[Set[Hashable]]:
        """All clusters across all workers."""
        out: List[Set[Hashable]] = []
        for reply in self._broadcast("clusters").values():
            out.extend(set(cluster) for cluster in reply)
        return out

    def check_invariants(self) -> None:
        """Run every worker's graph/index invariant checks (for tests)."""
        self._broadcast("check")

    def worker_pids(self) -> List[int]:
        """Pids of the live workers, in worker-id order (for tests, chaos
        injection, and diagnostics).  Remote workers report their pid at the
        hello handshake."""
        return [
            link.pid
            for _, link in sorted(self._links.items())
            if link.alive and link.pid is not None
        ]

    def live_worker_ids(self) -> List[int]:
        """Worker ids still serving components, in id order."""
        return sorted(wid for wid, link in self._links.items() if link.alive)

    def drop_connection(self, worker_id: int) -> None:
        """Sever the TCP connection to ``worker_id`` without telling it —
        the sanctioned fault-injection surface for "network died
        mid-command" chaos tests.  The next interaction detects the loss
        and triggers re-assignment."""
        link = self._links[worker_id]
        if link.sock is not None:
            link.sock.close()
            link.sock = None

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop workers and reap local child processes.  Idempotent, and
        never hangs: ``stop`` is fire-and-forget and child reaping escalates
        terminate -> kill on a bounded clock."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()  # runs _shutdown_links exactly once

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._closed:
            state = "closed"
        else:
            state = f"{len(self.live_worker_ids())}/{self.n_workers} workers live"
        return (
            f"ShardCoordinator({len(self._pairs)} pairs, "
            f"{self.n_components} components, {state})"
        )


# ----------------------------------------------------------------------
# CLI: python -m repro.engine.distributed --worker host:port
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.distributed",
        description=(
            "Run a shard worker host: binds host:port and serves shard "
            "sessions for ShardCoordinator connections (one independent "
            "session per connection)."
        ),
    )
    parser.add_argument(
        "--worker",
        metavar="HOST:PORT",
        required=True,
        help="bind address; port 0 picks a free port (printed once bound)",
    )
    args = parser.parse_args(argv)
    host, port = _parse_address(args.worker)
    worker = ShardWorkerHost(host, port)

    def announce(bound_port: int) -> None:
        print(f"shard worker listening on {host}:{bound_port}", flush=True)

    try:
        asyncio.run(worker.serve(ready_callback=announce))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
