"""Process-parallel shard execution: the sharded backend across worker processes.

The sharded backend (:mod:`repro.engine.sharding`) proved that both halves of
the per-answer hot path — the deduction sweep and the Algorithm-3 frontier
recompute — decompose exactly by connected component of the candidate-pair
graph.  Components share no objects, so they also share no *work*: after PR 2
nothing but the GIL kept a 10M-pair workload from using every core.  This
module removes that limit.

:class:`ProcessShardExecutor` partitions the labeling order by static
candidate-graph component (the same decomposition :class:`ShardedFrontier`
relies on), assigns whole components to a pool of worker processes, and fans
per-shard sweeps and frontier recomputes out across them:

* **spawn-safe shard snapshots** — each worker receives its slice of the
  order once, at startup, and builds its own per-component state
  (:class:`~repro.engine.sharding.ShardedClusterGraph` +
  :class:`~repro.core.sweep.PendingPairIndex` + one
  :class:`~repro.engine.frontier.FrontierCursor` per component) from that
  snapshot.  Workers run under any multiprocessing start method; ``fork`` is
  the default where available (zero-copy snapshots), and spawn-safety is
  pinned by a test.
* **shared-nothing messaging** — no graph structure ever crosses a process
  boundary after startup.  Hot-path messages carry only order positions and
  small integers (an answer is ``("answer", position, label_code)``); replies
  are position lists the parent merges by :func:`heapq.merge`, exactly as the
  in-process :class:`ShardedFrontier` merges per-component selections.
* **lazy ``absorb`` as the only merge synchronisation** — an answer can only
  bridge two answer-graph shards *within* one static component (answers are
  order pairs, and order pairs never cross static components), so every
  cross-shard merge happens inside exactly one worker through the existing
  small-into-large ``absorb`` splice.  Workers never coordinate with each
  other.

The executor is the engine core of ``backend="parallel"``:
:class:`~repro.engine.engine.LabelingEngine` forwards every event to it —
with auto-fallback to in-process sharding below a pair threshold, because
process orchestration only pays for itself at scale.

Crash safety: every receive is liveness-checked.  A worker that dies
mid-command surfaces as :class:`ShardWorkerError` naming the worker, its exit
code, and the command in flight — never a hang — and the executor refuses
further work (its shard state is gone; the campaign must be rebuilt, the
same contract as an expired-and-unrecoverable HIT batch).  The ``fault_hook``
constructor knob lets tests inject worker deaths deterministically.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
import os
import time
import weakref
from dataclasses import dataclass
from typing import (
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

from ..core.cluster_graph import Conflict, ConflictPolicy
from ..core.pairs import LABEL_CODE, LABEL_OF_CODE, CandidatePair, Label, Pair
from ..core.sweep import PendingPairIndex
from ..core.union_find import UnionFind
from .frontier import FrontierCursor
from .sharding import ShardedClusterGraph

#: Below this many pairs ``backend="parallel"`` falls back to the in-process
#: sharded backend: per-message pipe latency (~0.1 ms) dwarfs per-component
#: work on small orders, and the in-process backend is already O(component).
DEFAULT_PARALLEL_THRESHOLD = 250_000

#: Ceiling for the default worker count; past this, per-worker component
#: slices get too thin for the merge step to keep up.
_MAX_DEFAULT_WORKERS = 8

#: Sentinel reply meaning "my frontier is unchanged since your last call".
_UNCHANGED = "same"


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _as_pairs(order: Sequence[Union[Pair, CandidatePair]]) -> List[Pair]:
    return [item.pair if isinstance(item, CandidatePair) else item for item in order]


class ShardWorkerError(RuntimeError):
    """A shard worker process died (or the executor was poisoned by a prior
    worker death).  The worker's shard state is lost, so the executor refuses
    further commands; rebuild the engine (or rerun with
    ``backend="sharded"``) to recover."""


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """One worker's shard state: its components of the order, mirrored from
    the in-process backend.

    Per component this holds exactly what ``LabelingEngine`` +
    ``ShardedFrontier`` hold in-process — a :class:`FrontierCursor` with
    global order positions — and one worker-wide
    :class:`ShardedClusterGraph` + :class:`PendingPairIndex` for answers and
    the incremental deduction sweep.  Handlers replicate the engine's event
    bookkeeping step for step, which is what the differential tests pin.
    """

    def __init__(self, entries: List[Tuple[int, Pair]], policy: ConflictPolicy) -> None:
        self._pair_of: Dict[int, Pair] = dict(entries)
        self._gpos_of: Dict[Pair, int] = {pair: gpos for gpos, pair in entries}
        components = UnionFind()
        for _, pair in entries:
            components.union(pair.left, pair.right)
        grouped: Dict[Hashable, Tuple[List[int], List[Pair]]] = {}
        for gpos, pair in entries:  # entries arrive in ascending position order
            positions, members = grouped.setdefault(
                components.find(pair.left), ([], [])
            )
            positions.append(gpos)
            members.append(pair)
        self._components = components
        self._cursors: Dict[Hashable, FrontierCursor] = {
            root: FrontierCursor(members, positions)
            for root, (positions, members) in grouped.items()
        }
        self._graph = ShardedClusterGraph(policy=policy)
        self._index = PendingPairIndex(self._graph, (pair for _, pair in entries))
        self._labeled: Dict[Pair, Label] = {}
        self._published: Set[Pair] = set()
        self._selected: Dict[Hashable, List[Tuple[int, Pair]]] = {}
        self._dirty: Set[Hashable] = set(self._cursors)
        self._frontier_fresh = False

    def _mark_dirty(self, pair: Pair) -> None:
        if pair.left not in self._components:
            return
        root = self._components.find(pair.left)
        if root in self._cursors:
            self._dirty.add(root)
            self._frontier_fresh = False

    # -- event handlers (each mirrors one LabelingEngine event) --------
    def answer(self, gpos: int, code: int) -> Tuple[bool, Optional[Conflict]]:
        pair = self._pair_of[gpos]
        label = LABEL_OF_CODE[code]
        self._published.discard(pair)
        self._labeled[pair] = label
        self._mark_dirty(pair)
        n_conflicts = len(self._graph.conflicts)
        applied = self._graph.add(pair, label)
        conflict = (
            self._graph.conflicts[-1]
            if len(self._graph.conflicts) > n_conflicts
            else None
        )
        self._index.remove(pair)
        self._index.note_objects_seen(pair.left, pair.right)
        return applied, conflict

    def deduced(self, gpos: int, code: int) -> None:
        """A deduction decided in the parent (sequential visit-time path)."""
        pair = self._pair_of[gpos]
        if pair in self._labeled:
            return
        self._labeled[pair] = LABEL_OF_CODE[code]
        self._published.discard(pair)
        self._mark_dirty(pair)
        self._index.remove(pair)

    def publish(self, positions: Sequence[int], withhold: bool) -> None:
        for gpos in positions:
            pair = self._pair_of[gpos]
            self._published.add(pair)
            self._mark_dirty(pair)
        if withhold:
            for gpos in positions:
                self._index.remove(self._pair_of[gpos])

    def withhold(self, positions: Sequence[int]) -> None:
        for gpos in positions:
            self._index.remove(self._pair_of[gpos])

    def sweep(self) -> List[Tuple[int, int]]:
        resolved = self._index.sweep()
        out: List[Tuple[int, int]] = []
        for pair, label in resolved:
            self._labeled[pair] = label
            self._published.discard(pair)
            self._mark_dirty(pair)
            out.append((self._gpos_of[pair], LABEL_CODE[label]))
        out.sort()
        return out

    def frontier(self) -> Union[str, List[int]]:
        if self._frontier_fresh:
            return _UNCHANGED
        for root in self._dirty:
            self._selected[root] = self._cursors[root].select(
                self._labeled, self._published
            )
        self._dirty.clear()
        runs = [run for run in self._selected.values() if run]
        if not runs:
            merged: List[int] = []
        elif len(runs) == 1:
            merged = [gpos for gpos, _ in runs[0]]
        else:
            merged = [gpos for gpos, _ in heapq.merge(*runs)]
        self._frontier_fresh = True
        return merged

    def deduce(self, pair: Pair) -> Optional[int]:
        label = self._graph.deduce(pair)
        return None if label is None else LABEL_CODE[label]

    def stats(self) -> Dict[str, int]:
        graph = self._graph
        return {
            "n_shards": graph.n_shards,
            "n_objects": graph.n_objects,
            "n_clusters": graph.n_clusters,
            "n_matching_edges": graph.n_matching_edges,
            "n_non_matching_edges": graph.n_non_matching_edges,
            "n_components": len(self._cursors),
        }

    def clusters(self) -> List[Set[Hashable]]:
        return self._graph.clusters()

    def check(self) -> None:
        self._graph.check_invariants()
        self._index.check_invariants()


def _shard_worker_main(
    worker_id: int,
    conn,
    entries: List[Tuple[int, Pair]],
    policy_value: str,
    fault_hook: Optional[Callable[[int, str], None]],
) -> None:
    """Worker process entry point: build the shard snapshot, then serve
    commands until ``stop`` or EOF.  Handler exceptions are shipped back and
    re-raised in the parent; the loop itself only exits on request."""
    state = _WorkerState(entries, ConflictPolicy(policy_value))
    # The snapshot (and, under fork, the entire inherited parent heap) is
    # permanent for this worker's lifetime: move it out of the collector's
    # reach so gen-2 passes during the serve loop never scan it — and, under
    # fork, never unshare its copy-on-write pages by touching gc headers.
    # (No gc.collect() first: a full pass over a large inherited heap costs
    # more than the bounded garbage it would reclaim.)
    gc.freeze()
    handlers = {
        "answer": state.answer,
        "deduced": state.deduced,
        "publish": state.publish,
        "withhold": state.withhold,
        "sweep": state.sweep,
        "frontier": state.frontier,
        "deduce": state.deduce,
        "stats": state.stats,
        "clusters": state.clusters,
        "check": state.check,
    }
    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError):  # parent went away
            return
        name = command[0]
        if name == "stop":
            conn.send(("ok", None))
            conn.close()
            return
        try:
            # Inside the try: a fault hook that *raises* models a handler
            # error (shipped to the parent); one that calls os._exit models
            # a worker death.
            if fault_hook is not None:
                fault_hook(worker_id, name)
            reply = handlers[name](*command[1:])
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            conn.send(("exc", exc))
        else:
            conn.send(("ok", reply))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    worker_id: int
    process: "multiprocessing.process.BaseProcess"
    conn: object
    n_components: int
    n_pairs: int


def _terminate_workers(handles: List[_WorkerHandle]) -> None:
    """Best-effort shutdown shared by close() and the GC finalizer."""
    for handle in handles:
        try:
            if handle.process.is_alive():
                handle.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for handle in handles:
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():  # pragma: no cover - stuck worker
            handle.process.terminate()
            handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class ProcessShardExecutor:
    """Fans per-shard sweeps and frontier recomputes across worker processes.

    The labeling order is partitioned by static candidate-graph component;
    whole components are assigned to workers greedily (largest first onto the
    least-loaded worker — deterministic), so every answer, publish, sweep,
    and frontier event for a component is handled by exactly one process.
    ``sweep()`` and ``frontier()`` broadcast and the workers recompute their
    dirty components concurrently; the parent only merges position lists.

    Args:
        order: the labeling order (pairs or candidate pairs; duplicates must
            already be collapsed, as ``LabelingEngine`` does).
        positions: optional pair -> order position map (reuses the engine's);
            built from ``order`` when omitted.
        policy: conflict policy for the workers' deduction graphs.
        n_workers: worker process count; defaults to the available CPUs
            (affinity-aware) capped at 8, and is never more than the number
            of components.
        start_method: multiprocessing start method (``"fork"``, ``"spawn"``,
            ``"forkserver"``); defaults to ``fork`` where available (zero-copy
            shard snapshots), else ``spawn``.
        fault_hook: test-only callable ``(worker_id, command_name)`` invoked
            in the worker before each command is handled — the injection
            point for crash-safety tests.  Must be picklable under spawn.
        response_timeout: seconds to wait for a single worker reply before
            declaring it hung (liveness is checked continuously either way,
            so a *dead* worker surfaces in well under a second).
    """

    def __init__(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        *,
        positions: Optional[Dict[Pair, int]] = None,
        policy: ConflictPolicy = ConflictPolicy.STRICT,
        n_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        fault_hook: Optional[Callable[[int, str], None]] = None,
        response_timeout: float = 600.0,
    ) -> None:
        self._pairs = _as_pairs(order)
        if positions is None:
            positions = {pair: i for i, pair in enumerate(self._pairs)}
        self._position = positions
        self._response_timeout = response_timeout
        self._failure: Optional[str] = None
        self._closed = False
        #: Chronological FIRST_WINS conflicts, parent-side (workers report
        #: each rejected insert with its reply, so global order is the
        #: answer-application order, exactly as on the in-process backends).
        self.conflicts: List[Conflict] = []

        components = UnionFind()
        for pair in self._pairs:
            components.union(pair.left, pair.right)
        self._components = components
        grouped: Dict[Hashable, List[Tuple[int, Pair]]] = {}
        for gpos, pair in enumerate(self._pairs):
            grouped.setdefault(components.find(pair.left), []).append((gpos, pair))
        self.n_components = len(grouped)

        if n_workers is None:
            n_workers = min(available_cpus(), _MAX_DEFAULT_WORKERS)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        n_workers = min(n_workers, self.n_components) if grouped else 0
        self.n_workers = n_workers

        # Greedy balanced assignment: biggest components first, each onto the
        # least-loaded worker.  Sort keys are pair counts and first order
        # positions, so the assignment is deterministic for a given order.
        assignments: List[List[Tuple[int, Pair]]] = [[] for _ in range(n_workers)]
        self._worker_of_root: Dict[Hashable, int] = {}
        if n_workers:
            ranked = sorted(
                grouped.items(), key=lambda item: (-len(item[1]), item[1][0][0])
            )
            load: List[Tuple[int, int]] = [(0, wid) for wid in range(n_workers)]
            heapq.heapify(load)
            for root, entries in ranked:
                n_pairs, wid = heapq.heappop(load)
                assignments[wid].extend(entries)
                self._worker_of_root[root] = wid
                heapq.heappush(load, (n_pairs + len(entries), wid))
            for entries in assignments:
                entries.sort()  # ascending order position within each worker

        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self._handles: List[_WorkerHandle] = []
        self._worker_frontiers: Dict[int, List[int]] = {}
        for wid in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker_main,
                args=(wid, child_conn, assignments[wid], policy.value, fault_hook),
                name=f"repro-shard-worker-{wid}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._handles.append(
                _WorkerHandle(
                    worker_id=wid,
                    process=process,
                    conn=parent_conn,
                    n_components=sum(
                        1 for w in self._worker_of_root.values() if w == wid
                    ),
                    n_pairs=len(assignments[wid]),
                )
            )
            self._worker_frontiers[wid] = []
        # GC/exit backstop: daemon workers die with the interpreter anyway,
        # but the finalizer reclaims them (and their pipes) promptly when an
        # executor is dropped without close() — e.g. a failing test.
        self._finalizer = weakref.finalize(self, _terminate_workers, self._handles)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _ensure_usable(self) -> None:
        if self._closed:
            raise ShardWorkerError("ProcessShardExecutor is closed")
        if self._failure is not None:
            raise ShardWorkerError(self._failure)

    def _fail(self, message: str) -> ShardWorkerError:
        self._failure = message
        return ShardWorkerError(message)

    def _dead_worker_message(self, handle: _WorkerHandle, command: str) -> str:
        handle.process.join(timeout=0.5)  # reap, so exitcode is reportable
        return (
            f"shard worker {handle.worker_id} (pid {handle.process.pid}, "
            f"{handle.n_components} components / {handle.n_pairs} pairs) died "
            f"with exit code {handle.process.exitcode} while handling "
            f"{command!r}; its shard state is lost — rebuild the engine or "
            "fall back to backend='sharded'"
        )

    def _send(self, handle: _WorkerHandle, command: Tuple) -> None:
        try:
            handle.conn.send(command)
        except (BrokenPipeError, OSError):
            raise self._fail(self._dead_worker_message(handle, command[0])) from None

    def _recv_reply(self, handle: _WorkerHandle, command_name: str) -> Tuple:
        """One (kind, payload) reply, liveness-checked while waiting."""
        deadline = time.monotonic() + self._response_timeout
        while not handle.conn.poll(0.05):
            if not handle.process.is_alive():
                raise self._fail(self._dead_worker_message(handle, command_name))
            if time.monotonic() > deadline:
                raise self._fail(
                    f"shard worker {handle.worker_id} (pid {handle.process.pid}) "
                    f"did not answer {command_name!r} within "
                    f"{self._response_timeout:.0f}s"
                )
        try:
            return handle.conn.recv()
        except (EOFError, OSError):
            raise self._fail(self._dead_worker_message(handle, command_name)) from None

    def _request(self, handle: _WorkerHandle, command: Tuple):
        self._ensure_usable()
        self._send(handle, command)
        kind, payload = self._recv_reply(handle, command[0])
        if kind == "exc":
            raise payload
        return payload

    def _broadcast(self, command: Tuple) -> List:
        """Send ``command`` to every worker, then gather replies in worker
        order — the workers handle it concurrently.

        Every reply is consumed before a shipped worker exception re-raises,
        so a handler error cannot leave sibling replies queued and desync
        the request/reply protocol on their pipes.
        """
        self._ensure_usable()
        for handle in self._handles:
            self._send(handle, command)
        replies = [
            self._recv_reply(handle, command[0]) for handle in self._handles
        ]
        for kind, payload in replies:
            if kind == "exc":
                raise payload
        return [payload for _, payload in replies]

    def _handle_for_pair(self, pair: Pair) -> _WorkerHandle:
        gpos = self._position.get(pair)
        if gpos is None:
            raise ValueError(
                f"{pair!r} is not in the labeling order: the parallel backend "
                "routes events by order position and cannot place foreign pairs"
            )
        return self._handles[self._worker_of_root[self._components.find(pair.left)]]

    def _positions_by_worker(self, pairs: Sequence[Pair]) -> Dict[int, List[int]]:
        routed: Dict[int, List[int]] = {}
        for pair in pairs:
            gpos = self._position.get(pair)
            if gpos is None:
                raise ValueError(
                    f"{pair!r} is not in the labeling order: the parallel "
                    "backend routes events by order position"
                )
            wid = self._worker_of_root[self._components.find(pair.left)]
            routed.setdefault(wid, []).append(gpos)
        return routed

    # ------------------------------------------------------------------
    # the engine-facing surface
    # ------------------------------------------------------------------
    def record_answer(self, pair: Pair, label: Label) -> bool:
        """Apply a crowd answer on the owning worker; returns ``applied``
        exactly as ``ClusterGraph.add`` (conflicts are recorded on
        :attr:`conflicts`; STRICT inconsistencies re-raise here)."""
        handle = self._handle_for_pair(pair)
        gpos = self._position[pair]
        applied, conflict = self._request(handle, ("answer", gpos, LABEL_CODE[label]))
        if conflict is not None:
            self.conflicts.append(conflict)
        return applied

    def record_deduced(self, pair: Pair, label: Label) -> None:
        """Tell the owning worker about a deduction decided in the parent
        (the sequential strategy deduces at visit time)."""
        handle = self._handle_for_pair(pair)
        self._request(handle, ("deduced", self._position[pair], LABEL_CODE[label]))

    def publish(self, pairs: Sequence[Pair], *, withhold: bool) -> None:
        """Mark ``pairs`` published (and optionally withheld from the sweep)
        on their owning workers."""
        for wid, positions in self._positions_by_worker(pairs).items():
            self._request(self._handles[wid], ("publish", positions, withhold))

    def withhold(self, pairs: Sequence[Pair]) -> None:
        """Take already-published pairs out of the workers' deduction sweeps
        (the HIT adapter flushes buffered pairs through this)."""
        for wid, positions in self._positions_by_worker(pairs).items():
            self._request(self._handles[wid], ("withhold", positions))

    def sweep(self) -> List[Tuple[Pair, Label]]:
        """Run the incremental deduction sweep on every worker concurrently;
        returns newly resolved (pair, label) in global order position."""
        replies = self._broadcast(("sweep",))
        merged = heapq.merge(*replies) if len(replies) > 1 else iter(replies[0] if replies else ())
        return [(self._pairs[gpos], LABEL_OF_CODE[code]) for gpos, code in merged]

    def frontier(self) -> List[Pair]:
        """The current must-crowdsource frontier, in order position.

        Each worker recomputes only its dirty components (concurrently) and
        replies with a position list — or an "unchanged" marker, in which
        case the parent reuses its cached copy.
        """
        replies = self._broadcast(("frontier",))
        for handle, payload in zip(self._handles, replies):
            if payload != _UNCHANGED:
                self._worker_frontiers[handle.worker_id] = payload
        runs = [run for run in self._worker_frontiers.values() if run]
        if not runs:
            return []
        if len(runs) == 1:
            return [self._pairs[gpos] for gpos in runs[0]]
        return [self._pairs[gpos] for gpos in heapq.merge(*runs)]

    def deduce(self, pair: Pair) -> Optional[Label]:
        """Algorithm-1 deduction, routed to the owning worker.

        Objects in different workers live in different static components, and
        no labeled path can cross a static component (answers are order
        pairs), so cross-worker queries are ``None`` without any messaging —
        the same short-circuit the in-process sharded graph uses.
        """
        left, right = pair.left, pair.right
        if left not in self._components or right not in self._components:
            return None
        root_left = self._components.find(left)
        if root_left != self._components.find(right):
            return None
        handle = self._handles[self._worker_of_root[root_left]]
        code = self._request(handle, ("deduce", pair))
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
        for reply in self._broadcast(("stats",)):
            for key, value in reply.items():
                totals[key] += value
        return totals

    def clusters(self) -> List[Set[Hashable]]:
        """All clusters across all workers."""
        out: List[Set[Hashable]] = []
        for reply in self._broadcast(("clusters",)):
            out.extend(reply)
        return out

    def check_invariants(self) -> None:
        """Run every worker's graph/index invariant checks (for tests)."""
        self._broadcast(("check",))

    def worker_pids(self) -> List[int]:
        """Live worker process ids (for tests and diagnostics)."""
        return [handle.process.pid for handle in self._handles]

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop and reap the worker processes.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()  # runs _terminate_workers exactly once

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{self.n_workers} workers"
        return (
            f"ProcessShardExecutor({len(self._pairs)} pairs, "
            f"{self.n_components} components, {state})"
        )
