"""Shard execution across worker processes and hosts: one coordinator over sockets.

The distributed backend fans the per-component decomposition out over a
shared-nothing command protocol: component snapshots ship once, then the
hot path carries only order positions and label codes.
:class:`ShardCoordinator` speaks it to every worker through one channel (a
blocking TCP socket) and :class:`ShardWorkerHost` serves it: an
``asyncio`` TCP server (stdlib only) that turns worker *processes* into
worker *hosts*, the path past one machine for 100M+ pair workloads.  Each
connection gets an independent session; the coordinator ships component
snapshots (``load``).  A background task heartbeats while the session is
idle; a handler that stalls starves its own heartbeat, which is exactly how
the coordinator detects a hung worker.  Run one standalone with
``python -m repro.engine.distributed --worker host:port``;
``backend="distributed"`` connects to such hosts and/or spawns local ones
on loopback (``spawn_local_workers``).

Every worker runs the same :class:`_WorkerSession` dispatch over the same
:class:`~repro.engine.parallel._WorkerState`, whose handlers mirror the
in-process engine step for step — byte-identical behaviour is the whole
point, and the differential suite pins it.  The coordinator uses plain
*blocking* I/O — engine calls are synchronous, and on the async runtime they
happen inside a running event loop, where nesting ``asyncio.run`` is
impossible — and keeps an **authoritative event log** per static component.

Wire format: length-prefixed JSON — a 4-byte big-endian size then a UTF-8
JSON array led by its command or reply kind, no new dependencies.  Both ends
decode a body through one helper, so a malformed frame is a
:class:`ProtocolError` wherever it lands.  Snapshots reuse the engine
snapshot's column packing (:func:`~repro.engine.engine._pack_ints`: base64
little-endian int arrays), so a 250k-position bundle decodes with a memcpy
instead of a 250k-element JSON array parse.  Object ids must be JSON scalars
(str/int/float/bool/None) — the same contract
:func:`repro.spec.encode_object` enforces — and the coordinator validates
this up front.

Failure contract: a dropped connection, heartbeat silence, a reply timeout
or a malformed reply marks a worker **dead** — but instead of poisoning the
coordinator, it re-ships the dead worker's components to the surviving
workers from its authoritative snapshot (the static entries plus the
committed event log) and replays the in-flight command.  Events commit to
the log only after the owning worker acknowledged them, so a worker that
died *after* applying a command but *before* replying is replayed without
it and the retried command applies it exactly once.  A run of answers goes
out as one ``answers`` command per worker that owns part of it, and a loss
retries only the lost worker's share.  Only when **no** workers survive does
the coordinator poison itself and raise :class:`ShardWorkerError`.
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
    Iterable,
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
from .frontier import _as_pairs
from .parallel import (
    _MAX_DEFAULT_WORKERS,
    _UNCHANGED,
    _WorkerState,
    ShardWorkerError,
    available_cpus,
)

#: Version stamp of the coordinator/worker wire protocol; a mismatch at the
#: hello handshake refuses the connection instead of desyncing later.
#: Version 2 moved label codes to :data:`~repro.core.pairs.LABEL_CODE`;
#: version 3 replaced the one-answer ``answer`` command with ``answers``.
PROTOCOL_VERSION = 3

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

#: Poll slice while waiting for a reply — liveness (connection state,
#: heartbeat recency, deadline) is re-checked this often.  A local worker
#: whose link went away also gets this long to exit, so its loss reports
#: the exit code.
_POLL_INTERVAL = 0.05

_HELLO = "hello"
_HEARTBEAT_FRAME = None  # built after encode_frame is defined

#: Frame length of each reply kind: ``["ok", seq, payload]`` and
#: ``["exc", seq, type name, message]``.
_REPLY_LENGTH = {"ok": 3, "exc": 4}

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


def _shipped_exception(type_name: str, message: str) -> BaseException:
    """Rebuild an exception a worker shipped by type name."""
    exc_type = _EXC_TYPES.get(str(type_name))
    if exc_type is None:
        return RuntimeError(f"{type_name}: {message}")
    return exc_type(message)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def _check_message(message: Any) -> None:
    """Every protocol frame is a JSON array led by its command or reply
    kind; the restriction keeps :meth:`FrameDecoder.next_frame`'s ``None``
    ("need more bytes") unambiguous and ``message[0]`` always readable."""
    if not isinstance(message, (list, tuple)):
        raise ProtocolError(
            f"wire messages must be JSON arrays, got {type(message).__name__}"
        )
    if not message or not isinstance(message[0], str):
        raise ProtocolError(
            f"wire messages must lead with a kind string, got {list(message[:1])!r}"
        )


def _decode_body(body: bytes) -> list:
    """A frame body as its message, on either end of the wire.  Invalid
    UTF-8, malformed JSON, nesting past the interpreter's recursion limit
    and a message of the wrong shape all raise :class:`ProtocolError`."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ProtocolError(f"undecodable frame body: {exc}") from None
    _check_message(message)
    return message


def encode_frame(message: Any, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """One wire frame: 4-byte big-endian length + compact UTF-8 JSON body
    (a JSON array led by its kind string)."""
    _check_message(message)
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
        return _decode_body(body)


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
    return _decode_body(await reader.readexactly(length))


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
# worker side: the session and the asyncio host
# ----------------------------------------------------------------------
class _WorkerSession:
    """One worker's shard state, behind the command dispatch of a
    :class:`ShardWorkerHost` connection.

    One :class:`_WorkerState` *bundle* per snapshot — the initial one plus
    one per re-assignment — each holding whole components, so bundles never
    interact.  Routing by order position picks the bundle that owns it; the
    broadcast commands (sweep/frontier/stats/...) merge across bundles
    exactly as the coordinator merges across workers.
    """

    #: The command names :meth:`dispatch` serves.
    COMMANDS = frozenset(
        (
            "load", "answers", "deduced", "publish", "withhold", "sweep",
            "frontier", "deduce", "stats", "clusters", "check",
        )
    )

    def __init__(self, worker_id: Optional[int] = None) -> None:
        self.worker_id = worker_id
        self._bundles: List[_WorkerState] = []
        self._frontiers: List[List[int]] = []

    def dispatch(
        self, frame: list, fault_hook: Optional[Callable[[Optional[int], str], None]]
    ) -> list:
        """Run one command frame ``[name, seq, *args]`` and return its reply
        frame: ``["ok", seq, payload]``, or ``["exc", seq, type name,
        message]`` for a handler error (shipped by name, re-raised by the
        coordinator).  ``fault_hook(worker_id, name)`` runs first: raising
        models a handler error, ``os._exit`` a crash, sleeping a hang."""
        name, seq = frame[0], frame[1]
        try:
            if fault_hook is not None:
                fault_hook(self.worker_id, name)
            if name not in self.COMMANDS:
                raise ProtocolError(f"unknown command {name!r}")
            payload = getattr(self, name)(*frame[2:])
        except Exception as exc:  # shipped to the coordinator
            return ["exc", seq, type(exc).__name__, str(exc)]
        return ["ok", seq, payload]

    # -- command handlers ---------------------------------------------
    def load(self, bundle: dict, policy_value: str, events: List[list]) -> int:
        """Build a bundle from a shipped snapshot (ascending order
        positions) and replay its committed events; returns the pair
        count."""
        from .engine import _unpack_ints  # lazy: engine imports this module

        entries = [
            (gpos, Pair(left, right))
            for gpos, left, right in zip(
                _unpack_ints(bundle["pos"]), bundle["left"], bundle["right"]
            )
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
        self._bundles.append(state)
        self._frontiers.append([])
        return len(entries)

    def _bundle(self, gpos: int) -> _WorkerState:
        """The bundle owning order position ``gpos``.  Bundles are few (one
        until a re-assignment lands here), so a scan beats a per-position
        index the size of the shard."""
        if len(self._bundles) == 1:
            return self._bundles[0]
        for state in self._bundles:
            if state.owns(gpos):
                return state
        raise KeyError(gpos)

    def answer(self, gpos: int, code: int) -> list:
        applied, conflict = self._bundle(gpos).answer(gpos, code)
        packed = (
            None
            if conflict is None
            else [LABEL_CODE[conflict.label], LABEL_CODE[conflict.implied]]
        )
        return [applied, packed]

    def answers(self, positions: Sequence[int], codes: Sequence[int]) -> list:
        """Apply a run of answers in order, each as :meth:`answer`.

        Replies ``[results, error]``: one ``[applied, conflict]`` per answer
        applied, and ``None`` — or, when an answer raised (a STRICT
        conflict), ``[type name, message]``, with ``results`` the prefix
        applied before it.  The coordinator commits exactly that prefix.
        """
        results: List[list] = []
        for gpos, code in zip(positions, codes):
            try:
                results.append(self.answer(gpos, code))
            except Exception as exc:
                return [results, [type(exc).__name__, str(exc)]]
        return [results, None]

    def deduced(self, gpos: int, code: int) -> None:
        self._bundle(gpos).deduced(gpos, code)

    def _grouped(self, positions: Sequence[int]) -> List[Tuple[_WorkerState, List[int]]]:
        groups: Dict[int, Tuple[_WorkerState, List[int]]] = {}
        for gpos in positions:
            state = self._bundle(gpos)
            groups.setdefault(id(state), (state, []))[1].append(gpos)
        return list(groups.values())

    def publish(self, positions: Sequence[int], withhold: bool) -> None:
        for state, group in self._grouped(positions):
            state.publish(group, withhold)

    def withhold(self, positions: Sequence[int]) -> None:
        for state, group in self._grouped(positions):
            state.withhold(group)

    def sweep(self) -> List[Tuple[int, int]]:
        runs = [state.sweep() for state in self._bundles]
        runs = [run for run in runs if run]
        if len(runs) > 1:
            return list(heapq.merge(*runs))
        return runs[0] if runs else []

    def frontier(self) -> Union[str, List[int]]:
        changed = False
        for key, state in enumerate(self._bundles):
            reply = state.frontier()
            if reply != _UNCHANGED:
                self._frontiers[key] = reply
                changed = True
        if not changed:
            return _UNCHANGED
        runs = [run for run in self._frontiers if run]
        if len(runs) > 1:
            return list(heapq.merge(*runs))
        return runs[0] if runs else []

    def deduce(self, left: Hashable, right: Hashable) -> Optional[int]:
        pair = Pair(left, right)
        for state in self._bundles:
            code = state.deduce(pair)
            if code is not None:
                return code
        return None

    def stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for state in self._bundles:
            for key, value in state.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def clusters(self) -> List[List[Hashable]]:
        out: List[List[Hashable]] = []
        for state in self._bundles:
            out.extend(sorted(cluster, key=repr) for cluster in state.clusters())
        return out

    def check(self) -> None:
        for state in self._bundles:
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
                except (asyncio.IncompleteReadError, ConnectionError, ProtocolError):
                    return  # coordinator gone or stream corrupt: drop session
                name = frame[0]
                if name == "hb":
                    continue
                if len(frame) < (4 if name == "init" else 2):
                    return  # a command short of its arguments: stream corrupt
                seq = frame[1]
                if name == "init":
                    try:
                        interval = float(frame[3])
                    except (TypeError, ValueError):
                        return  # no heartbeat cadence: stream corrupt
                    session.worker_id = frame[2]
                    if heartbeat_task is None:
                        heartbeat_task = asyncio.create_task(
                            self._heartbeat(writer, interval)
                        )
                    if not await _write_frame(writer, encode_frame(["ok", seq, None])):
                        return
                    continue
                if name == "stop":
                    await _write_frame(writer, encode_frame(["ok", seq, None]))
                    return
                reply = session.dispatch(frame, self._fault_hook)
                if not await _write_frame(
                    writer, encode_frame(reply, self._max_frame_bytes)
                ):
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
    """Child-process entry point for a spawned socket worker: serve on a
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


class _ChannelLost(Exception):
    """Internal: a channel found its worker gone; the message is the cause."""


class _SocketChannel:
    """Length-prefixed JSON frames to a :class:`ShardWorkerHost` over a
    blocking TCP socket.  Liveness while waiting for a reply: EOF or reset,
    heartbeat silence, and the reply deadline."""

    def __init__(
        self,
        sock: socket.socket,
        address: Tuple[str, int],
        *,
        max_frame_bytes: int,
        heartbeat_timeout: float,
        send_timeout: float,
    ) -> None:
        self._sock: Optional[socket.socket] = sock
        self.where = f"at {address[0]}:{address[1]}"
        self._decoder = FrameDecoder(max_frame_bytes)
        self._max_frame_bytes = max_frame_bytes
        self._heartbeat_timeout = heartbeat_timeout
        self._send_timeout = send_timeout
        self._last_heard = time.monotonic()

    def send(self, message: list) -> None:
        frame = encode_frame(message, self._max_frame_bytes)
        if self._sock is None:
            raise _ChannelLost("connection closed")
        try:
            self._sock.settimeout(self._send_timeout)
            self._sock.sendall(frame)
        except OSError as exc:
            raise _ChannelLost(f"send failed: {exc}") from None
        finally:
            if self._sock is not None:
                try:
                    self._sock.settimeout(_POLL_INTERVAL)
                except OSError:  # pragma: no cover - closed concurrently
                    pass

    def recv(self, deadline: float) -> list:
        """The next frame that is not a heartbeat."""
        while True:
            try:
                frame = self._decoder.next_frame()
            except ProtocolError as exc:
                raise _ChannelLost(f"bad frame: {exc}") from None
            if frame is not None:
                if frame[0] != "hb":
                    return frame
                continue
            if self._sock is None:
                raise _ChannelLost("connection closed")
            try:
                chunk = self._sock.recv(1 << 20)
            except socket.timeout:
                now = time.monotonic()
                if now - self._last_heard > self._heartbeat_timeout:
                    raise _ChannelLost(
                        f"no heartbeat for {self._heartbeat_timeout:.1f}s"
                    ) from None
                if now > deadline:
                    raise _ChannelLost("reply deadline exceeded") from None
                continue
            except OSError as exc:
                raise _ChannelLost(f"recv failed: {exc}") from None
            if not chunk:
                raise _ChannelLost("connection dropped")
            self._last_heard = time.monotonic()
            self._decoder.feed(chunk)

    def close(self, stop: bool = False) -> None:
        """Close the socket; with ``stop``, first ask the host to end the
        session (fire-and-forget on a short clock, so a dead or wedged
        worker never holds shutdown up)."""
        if self._sock is None:
            return
        if stop:
            try:
                self._sock.settimeout(0.5)
                self._sock.sendall(encode_frame(["stop", 0]))
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._sock = None


@dataclass
class _WorkerLink:
    worker_id: int
    channel: _SocketChannel
    pid: Optional[int] = None
    process: Optional["multiprocessing.process.BaseProcess"] = None
    seq: int = 0
    alive: bool = True
    n_pairs: int = 0
    roots: Set[Hashable] = field(default_factory=set)


def _shutdown_links(links: List[_WorkerLink]) -> None:
    """Best-effort shutdown shared by close() and the GC finalizer: every
    host gets a fire-and-forget ``stop`` and its connection closes, and
    local child processes are reaped (terminate, escalating to kill)."""
    for link in links:
        link.channel.close(stop=True)
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
    """The engine core of ``backend="distributed"``: the shard protocol over
    socket-attached worker hosts, spawned locally or running remotely, with
    re-assignment on worker loss.

    The labeling order is partitioned by static candidate-graph component and
    whole components are assigned to workers greedily (largest first onto the
    least-loaded worker — deterministic), so every event for a component is
    handled by exactly one worker.  Each worker receives its components once
    as a snapshot (a ``load`` bundle), and hot-path messages carry only
    order positions and label codes.  ``sweep()`` and ``frontier()``
    broadcast, the workers recompute their dirty components concurrently,
    and the coordinator only merges position lists.

    A worker death does not poison the campaign: the coordinator re-ships
    the dead worker's components (static entries + the committed
    per-component event log) to the survivors and replays the in-flight
    command.  See the module docstring for the exact contract.

    Args:
        order: the labeling order (pairs or candidate pairs; duplicates must
            already be collapsed, as ``LabelingEngine`` does).  Object ids
            must be JSON scalars.
        positions: optional pair -> order position map (reuses the engine's).
        policy: conflict policy for the workers' deduction graphs.
        workers: ``"host:port"`` addresses of running
            :class:`ShardWorkerHost` processes to connect to.
        spawn_local_workers: additionally spawn this many loopback
            :class:`ShardWorkerHost` child processes.  When neither knob is
            given, spawns ``min(cpus, 8)``; an explicit total of zero
            workers is a ``ValueError``.  The count is capped at the number
            of components.
        heartbeat_interval: keepalive cadence workers are instructed to use.
        heartbeat_timeout: heartbeat silence after which a worker is
            declared dead while a command is in flight.  Bounds
            single-handler compute time — see
            :data:`DEFAULT_HEARTBEAT_TIMEOUT`.
        response_timeout: hard per-command reply deadline (a worker that is
            alive but never replies is declared dead too).
        connect_timeout: TCP connect + handshake deadline per worker.
        fault_hook: test-only callable ``(worker_id, command_name)`` invoked
            before each command is sent — the coordinator-side transport
            injection point (close the channel, SIGKILL the worker, ...).
            Worker-side injection is ``ShardWorkerHost(fault_hook=)``,
            forwarded to spawned locals via ``worker_fault_hook``.
        worker_fault_hook: forwarded to spawned local workers (must be
            picklable under the spawn start method).
        mp_start_method: start method for spawned local workers (default:
            ``fork`` where available, else ``spawn``); recorded as
            :attr:`start_method`.
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
        addresses = [_parse_address(address) for address in (workers or [])]
        n_spawn = spawn_local_workers
        if n_spawn is None:
            n_spawn = 0 if addresses else min(available_cpus(), _MAX_DEFAULT_WORKERS)
        if n_spawn < 0 or not (addresses or n_spawn):
            raise ValueError(
                "a shard coordinator needs at least one worker, got "
                f"{len(addresses)} worker addresses and {n_spawn} local workers"
            )
        self._pairs = _as_pairs(order)
        for pair in self._pairs:
            for obj in (pair.left, pair.right):
                if not isinstance(obj, _SCALAR_TYPES):
                    raise TypeError(
                        "shard workers receive object ids as JSON and require "
                        "scalar ids (str/int/float/bool/None), "
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
        #: Chronological FIRST_WINS conflicts, coordinator-side (workers
        #: report each rejected insert with its reply, so global order is the
        #: answer-application order, exactly as on the in-process backends).
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

        n_workers = min(len(addresses) + n_spawn, self.n_components)
        self.n_workers = n_workers
        addresses = addresses[:n_workers]
        first_local = len(addresses)

        # Greedy balanced assignment: biggest components first, each onto the
        # least-loaded worker.  Sort keys are pair counts and first order
        # positions, so the assignment is deterministic for a given order.
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

        #: Start method of the spawned local workers (None when none spawned).
        self.start_method: Optional[str] = None
        self._links: Dict[int, _WorkerLink] = {}
        self._worker_frontiers: Dict[int, List[int]] = {}
        hosts: List[Tuple["multiprocessing.process.BaseProcess", Any]] = []
        try:
            if first_local < n_workers:
                if mp_start_method is None:
                    methods = multiprocessing.get_all_start_methods()
                    mp_start_method = "fork" if "fork" in methods else "spawn"
                self.start_method = mp_start_method
                ctx = multiprocessing.get_context(mp_start_method)
                for wid in range(first_local, n_workers):
                    # The pipe only reports the port the child bound.
                    parent_conn, child_conn = ctx.Pipe()
                    process = ctx.Process(
                        target=_local_worker_host_main,
                        args=(child_conn, worker_fault_hook, max_frame_bytes),
                        name=f"repro-shard-worker-{wid}",
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    hosts.append((process, parent_conn))
                for process, parent_conn in hosts:
                    if not parent_conn.poll(self._connect_timeout):
                        raise ShardWorkerError(
                            f"local worker host pid {process.pid} did not "
                            f"report a port within {self._connect_timeout:.0f}s"
                        )
                    addresses.append(("127.0.0.1", parent_conn.recv()))
                    parent_conn.close()

            for wid, address in enumerate(addresses):
                process = hosts[wid - first_local][0] if wid >= first_local else None
                self._links[wid] = self._connect(wid, address, process)

            # Workers get their snapshots as concurrent ``load`` commands; a
            # worker lost here goes through the normal re-assignment path.
            replies, deaths = self._gather(
                (self._links[wid], "load", self._load_args(assigned_roots[wid]))
                for wid in range(n_workers)
            )
            for kind, payload in replies.values():
                if kind == "exc":
                    raise payload
            for wid in replies:
                self._adopt(self._links[wid], assigned_roots[wid])
            for died in deaths:
                # never loaded anywhere: make them the dead link's to move
                died.link.roots.update(assigned_roots[died.link.worker_id])
                self._recover(died.link, died.reason)
        except BaseException:
            _shutdown_links(list(self._links.values()))
            for process, _ in hosts:
                if all(link.process is not process for link in self._links.values()):
                    process.terminate()
                    process.join(timeout=2.0)
            raise
        # GC/exit backstop: daemon workers die with the interpreter anyway,
        # but the finalizer reclaims them promptly when a coordinator is
        # dropped without close() — e.g. a failing test.
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
        channel = _SocketChannel(
            sock,
            address,
            max_frame_bytes=self._max_frame_bytes,
            heartbeat_timeout=self._heartbeat_timeout,
            send_timeout=self._response_timeout,
        )
        link = _WorkerLink(worker_id=worker_id, channel=channel, process=process)
        try:
            try:
                hello = channel.recv(time.monotonic() + self._connect_timeout)
            except _ChannelLost as lost:
                raise _WorkerDied(
                    link, self._death_message(link, _HELLO, str(lost))
                ) from None
            if hello[:2] != [_HELLO, PROTOCOL_VERSION] or len(hello) != 3:
                raise ProtocolError(
                    f"worker {worker_id} spoke protocol {hello[:2]!r}, "
                    f"expected ['hello', {PROTOCOL_VERSION}]"
                )
            link.pid = hello[2]
            self._request(link, "init", [worker_id, self._heartbeat_interval])
        except (_WorkerDied, ProtocolError) as exc:
            channel.close()
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
        """Send one command; returns its sequence number."""
        if self._fault_hook is not None:
            self._fault_hook(link.worker_id, name)
        link.seq += 1
        try:
            link.channel.send([name, link.seq, *args])
        except _ChannelLost as lost:
            raise _WorkerDied(
                link, self._death_message(link, name, str(lost))
            ) from None
        return link.seq

    def _death_message(self, link: _WorkerLink, command: str, cause: str) -> str:
        process = link.process
        if process is not None:
            # A local worker that died took its link down with it: reap it,
            # so the loss reports its exit code.
            process.join(timeout=_POLL_INTERVAL)
            if process.exitcode is not None:
                cause = f"{cause}; died with exit code {process.exitcode}"
        return (
            f"shard worker {link.worker_id} {link.channel.where} "
            f"(pid {link.pid}, {len(link.roots)} components / {link.n_pairs} "
            f"pairs) was lost while handling {command!r}: {cause}"
        )

    def _recv_payload(
        self, link: _WorkerLink, command_name: str, seq: int
    ) -> Tuple[str, Any]:
        """The reply to command ``seq``: ``("ok", payload)`` or ``("exc",
        exception_instance)``, liveness-checked while waiting — a lost
        worker surfaces as :class:`_WorkerDied`, never a hang."""
        try:
            frame = link.channel.recv(time.monotonic() + self._response_timeout)
        except _ChannelLost as lost:
            raise _WorkerDied(
                link, self._death_message(link, command_name, str(lost))
            ) from None
        kind = frame[0]
        if len(frame) != _REPLY_LENGTH.get(kind) or frame[1] != seq:
            raise _WorkerDied(
                link,
                self._death_message(
                    link,
                    command_name,
                    f"protocol desync (got {frame[:2]!r} in a frame of "
                    f"length {len(frame)}, expected seq {seq})",
                ),
            )
        if kind == "ok":
            return "ok", frame[2]
        return "exc", _shipped_exception(frame[2], frame[3])

    def _request(self, link: _WorkerLink, name: str, args: Sequence = ()) -> Any:
        seq = self._send_command(link, name, args)
        kind, payload = self._recv_payload(link, name, seq)
        if kind == "exc":
            raise payload
        return payload

    def _gather(
        self, requests: Iterable[Tuple[_WorkerLink, str, Sequence]]
    ) -> Tuple[Dict[int, Tuple[str, Any]], List[_WorkerDied]]:
        """Send every ``(link, name, args)`` request, then consume every
        reply — the workers handle their commands concurrently, and no
        shipped handler error can desync a sibling's request stream.
        Returns each answering worker's ``(kind, payload)`` reply and the
        workers lost on the way."""
        sent: List[Tuple[_WorkerLink, str, int]] = []
        deaths: List[_WorkerDied] = []
        for link, name, args in requests:
            try:
                sent.append((link, name, self._send_command(link, name, args)))
            except _WorkerDied as died:
                deaths.append(died)
        replies: Dict[int, Tuple[str, Any]] = {}
        for link, name, seq in sent:
            try:
                replies[link.worker_id] = self._recv_payload(link, name, seq)
            except _WorkerDied as died:
                deaths.append(died)
        return replies, deaths

    # ------------------------------------------------------------------
    # death, recovery, re-assignment
    # ------------------------------------------------------------------
    def _note_death(self, link: _WorkerLink, reason: str) -> None:
        if not link.alive:
            return
        link.alive = False
        link.channel.close()
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

    def _load_args(self, roots: Sequence[Hashable]) -> list:
        """The arguments of a ``load`` command shipping ``roots``."""
        bundle, events = self._encode_bundle(roots)
        return [bundle, self._policy.value, events]

    def _adopt(self, link: _WorkerLink, roots: Sequence[Hashable]) -> None:
        """Record that ``link``'s worker now holds ``roots``."""
        for root in roots:
            link.roots.add(root)
            link.n_pairs += len(self._entries_of_root[root])
            self._worker_of_root[root] = link.worker_id

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
                    self._request(link, "load", self._load_args(roots))
                except _WorkerDied as died:
                    self._note_death(died.link, died.reason)
                    homeless.extend(roots)
                    homeless.extend(died.link.roots)
                    died.link.roots = set()
                    touched.discard(wid)
                    continue
                self._adopt(link, roots)
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
            replies, deaths = self._gather((link, name, args) for link in targets)
            for wid, (kind, payload) in replies.items():
                done.add(wid)
                if kind == "exc":
                    pending_exc = payload
                elif accumulate:
                    collected.setdefault(wid, []).append(payload)
                else:
                    collected[wid] = payload
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
                f"{pair!r} is not in the labeling order: shard workers "
                "receive events by order position and cannot place foreign "
                "pairs"
            )
        return self._components.find(pair.left)

    # ------------------------------------------------------------------
    # the engine core methods
    # ------------------------------------------------------------------
    def record_answer(self, pair: Pair, label: Label) -> bool:
        """One crowd answer: :meth:`record_answers` for a run of one."""
        return self.record_answers(((pair, label),))[0]

    def record_answers(self, answers: Sequence[Tuple[Pair, Label]]) -> List[bool]:
        """Apply a run of crowd answers: one ``answers`` command to each
        worker owning part of the run, all sent before any reply is read.

        An answer commits to the authoritative log only after its worker
        acknowledged it.  A worker lost mid-command re-ships its components
        from the committed log, and only its uncommitted answers are
        re-routed to their new owners.  A worker whose handler raised
        part-way (a STRICT conflict) replies with the prefix it applied:
        exactly that prefix commits, then the error re-raises carrying the
        run's ``applied_flags`` (``None`` where an answer was not applied).
        """
        self._ensure_usable()
        position = self._position
        pending = [
            (index, self._root_of(pair), position[pair], LABEL_CODE[label])
            for index, (pair, label) in enumerate(answers)
        ]
        flags: List[Optional[bool]] = [None] * len(pending)
        conflicts: Dict[int, Conflict] = {}
        error: Optional[BaseException] = None
        for _ in range(len(self._links) + 2):
            if not pending:
                break
            shares: Dict[int, list] = {}
            for entry in pending:
                shares.setdefault(self._worker_of_root[entry[1]], []).append(entry)
            replies, deaths = self._gather(
                (
                    self._links[wid],
                    "answers",
                    [[entry[2] for entry in share], [entry[3] for entry in share]],
                )
                for wid, share in shares.items()
            )
            # Commit every acknowledged prefix before recovering a loss: a
            # re-ship reads the log.
            for wid, (kind, payload) in replies.items():
                if kind == "exc":
                    error = payload  # refused whole: nothing applied
                    continue
                results, failure = payload
                for (index, root, gpos, code), (applied, conflict) in zip(
                    shares[wid], results
                ):
                    self._log_of_root[root].append(["a", gpos, code])
                    flags[index] = applied
                    if conflict is not None:
                        conflicts[index] = Conflict(
                            answers[index][0],
                            LABEL_OF_CODE[conflict[0]],
                            LABEL_OF_CODE[conflict[1]],
                        )
                if failure is not None:
                    error = _shipped_exception(*failure)
            pending = []
            for died in deaths:
                pending.extend(shares[died.link.worker_id])
                self._recover(died.link, died.reason)
            pending.sort()
        if pending:
            raise self._fail(
                "worker re-assignment did not converge while retrying 'answers'"
            )
        # Chronological, as on the in-process backends: by position in the run.
        self.conflicts.extend(conflicts[index] for index in sorted(conflicts))
        if error is not None:
            error.applied_flags = flags
            raise error
        return flags

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
        pairs are ``None`` without any messaging)."""
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
        the sanctioned fault-injection surface for "link died mid-command"
        chaos tests.  The next interaction detects the loss and triggers
        re-assignment."""
        self._links[worker_id].channel.close()

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
