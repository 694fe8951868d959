"""Span tracing for the traced run, and the per-layer metrics it yields.

:class:`Tracer` wraps calls into each layer's public functions, from the
benchmark's own files; the program under test is not changed.  Each wrapped
call records a span: its name, start and end, the span that was open when
it started (its parent), the id of the tick or status request that caused
it, the asyncio task it ran in, and the cycle phase.  A context variable
carries the parent span, so spans from interleaved tenants never nest into
each other.  Spans are kept in memory and written out when the run ends.

Layers are named after their modules:

=============  ========================================================
``engine``     ``LabelingEngine`` (``engine/engine.py``), any backend
``runtime``    ``CrowdRuntime`` and ``hit_adapter.py``: tick time no
               other layer's span covers
``client``     ``PollingPlatformClient`` and ``InMemoryCrowdBackend``
``journaling`` ``JournalingPlatformClient`` self time
``journal``    ``Journal`` append, fsync and read
``service``    ``CampaignService`` / ``Campaign`` and ``spec.py``
``http``       ``CampaignHTTPServer``, seen from the load generator
``shards``     ``ShardCoordinator`` (``engine/distributed.py``)
``gc``         the CPython collector, through ``gc.callbacks``
=============  ========================================================

A layer's self time is the length of its spans minus the part their
children cover.  The runtime has no span of its own: its self time is the
part of each tick that no top-level span of the ticking task covers.
"""

from __future__ import annotations

import asyncio
import bisect
from array import array
import contextvars
import functools
import gc
import itertools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: The tick (``tick:<n>``), status probe (``status:<n>``), creation
#: (``create:<n>``) or recovery that caused the current work.
request_root: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_request_root", default=""
)
_parent: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_parent_span", default=0
)

# Span tuple fields.
SID, NAME, START, END, PARENT, ROOT, TASK, PHASE, SIZE = range(9)
_FIELDS = "sid name start end parent root task phase size".split()


def _task_id() -> int:
    task = asyncio.current_task()
    return id(task) if task is not None else 0


class Tracer:
    """Collects spans while :meth:`installed` is active.

    ``phase`` is set by the harness (``setup``, ``live``, ``recover`` or
    ``other``) and stamped on every span, tick and GC pause.  While
    installed, spans are appended to integer columns (strings interned to
    indexes), so recording allocates no object the collector must track;
    :attr:`spans` holds them as tuples once the wrappers are removed.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._columns = {name: array("q") for name in _FIELDS}
        self._strings: Dict[str, int] = {}
        self.ticks: List[Tuple[int, int, int, int, str]] = []
        self.gc_pauses: List[Tuple[int, int, int, str]] = []
        self.phase = "other"
        self._ids = itertools.count(1)
        self._tick_ids = itertools.count(1)
        self._create_ids = itertools.count(1)
        self._open_ticks: Dict[int, Tuple[int, int]] = {}
        self._gc_start = 0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _index(self, text: str) -> int:
        index = self._strings.get(text)
        if index is None:
            index = self._strings[text] = len(self._strings)
        return index

    def _recorder(self) -> Callable:
        (a_sid, a_name, a_start, a_end, a_parent, a_root, a_task, a_phase,
         a_size) = (self._columns[f].append for f in _FIELDS)
        perf, index = time.perf_counter_ns, self._index

        def record(sid, name, start, parent, size) -> None:
            end = perf()
            a_sid(sid)
            a_name(name)
            a_start(start)
            a_end(end)
            a_parent(parent)
            a_root(index(request_root.get()))
            a_task(_task_id())
            a_phase(index(self.phase))
            a_size(size)

        return record

    def _materialize(self) -> None:
        """Turn the recorded columns into span tuples (after measuring)."""
        text = {index: value for value, index in self._strings.items()}
        c = self._columns
        self.spans = [
            (sid, text[name], start, end, parent, text[root], task, text[phase],
             size)
            for sid, name, start, end, parent, root, task, phase, size in zip(
                *(c[f] for f in _FIELDS)
            )
        ]

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None):
        """A span-recording wrapper around ``fn`` (sync or async)."""
        ids, record, perf = self._ids, self._recorder(), time.perf_counter_ns
        name = self._index(name)

        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(ids)
                parent = _parent.get()
                token = _parent.set(sid)
                start = perf()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    _parent.reset(token)
                    record(sid, name, start, parent,
                           size(result) if size and result is not None else -1)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = _parent.get()
            token = _parent.set(sid)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _parent.reset(token)
                record(sid, name, start, parent,
                       size(result) if size and result is not None else -1)

        return wrapper

    def _close_tick(self) -> None:
        opened = self._open_ticks.pop(_task_id(), None)
        if opened is not None:
            tick_id, start = opened
            self.ticks.append(
                (tick_id, start, time.perf_counter_ns(), _task_id(), self.phase)
            )
            request_root.set("")

    def _tick_client(self, next_event: Callable, drain: Callable):
        """Wrappers that open a tick when the client hands the runtime a
        completion and close it at the runtime's next request."""
        from repro.crowd.platform import HITCompletion

        traced_next = self.wrap("client.next_event", next_event)
        traced_drain = self.wrap("client.drain", drain)

        @functools.wraps(next_event)
        async def tick_next_event(client):
            self._close_tick()
            event = await traced_next(client)
            if isinstance(event, HITCompletion):
                tick_id = next(self._tick_ids)
                self._open_ticks[_task_id()] = (tick_id, time.perf_counter_ns())
                request_root.set(f"tick:{tick_id}")
            return event

        @functools.wraps(drain)
        async def tick_drain(client):
            self._close_tick()
            return await traced_drain(client)

        return tick_next_event, tick_drain

    def _rooted(self, fn: Callable, root: Callable[[], str]):
        """Set the request root before ``fn`` runs: the campaign tasks it
        starts, and the rest of its caller's task, inherit it."""

        @functools.wraps(fn)
        async def rooted(*args, **kwargs):
            request_root.set(root())
            return await fn(*args, **kwargs)

        return rooted

    def _targets(self) -> List[Tuple[type, str, Callable]]:
        """``(class, attribute, wrapper)`` for every wrapped call."""
        from repro.crowd.clients import InMemoryCrowdBackend
        from repro.engine.distributed import ShardCoordinator
        from repro.engine.engine import LabelingEngine
        from repro.service.journal import Journal
        from repro.service.journaling import JournalingPlatformClient
        from repro.service.service import Campaign, CampaignService
        from repro.spec import CampaignSpec

        from crowd import TimedPollingClient

        table = [
            (CampaignSpec, "build_engine", "engine.build"),
            (LabelingEngine, "frontier", "engine.frontier"),
            (LabelingEngine, "sweep", "engine.sweep"),
            (LabelingEngine, "record_answer", "engine.record_answer"),
            (LabelingEngine, "publish", "engine.publish"),
            (LabelingEngine, "withhold", "engine.withhold"),
            (TimedPollingClient, "submit_pairs", "client.submit"),
            (InMemoryCrowdBackend, "fetch_completed", "client.poll"),
            (InMemoryCrowdBackend, "create_hits", "client.create_hits"),
            (JournalingPlatformClient, "submit_pairs", "journaling.submit_pairs"),
            (JournalingPlatformClient, "next_event", "journaling.next_event"),
            # Each client binds its public review_hit to this method.
            (JournalingPlatformClient, "_review_hit", "journaling.review_hit"),
            (JournalingPlatformClient, "drain", "journaling.drain"),
            (Journal, "append", "journal.append"),
            (Journal, "flush", "journal.fsync"),
            (Journal, "read", "journal.read"),
            (CampaignService, "create", "service.create"),
            (CampaignService, "recover", "service.recover"),
            (CampaignSpec, "from_json", "spec.decode"),
            (CampaignSpec, "from_dict", "spec.decode"),
            (CampaignSpec, "to_dict", "spec.encode"),
            (Campaign, "status", "service.status"),
            (ShardCoordinator, "__init__", "shards.build"),
        ] + [
            (ShardCoordinator, name, f"shards.{name}")
            for name in (
                "record_answer", "record_deduced", "publish", "withhold",
                "sweep", "frontier",
            )
        ]
        sizes = {
            "engine.frontier": len,
            "engine.sweep": len,
            "client.poll": len,
            "journal.read": lambda header_events: 1 + len(header_events[1]),
        }
        roots = {
            "service.create": lambda: f"create:{next(self._create_ids)}",
            "service.recover": lambda: "recover",
        }
        targets = []
        for cls, attr, name in table:
            raw = cls.__dict__[attr]
            bound = isinstance(raw, (staticmethod, classmethod))
            fn = raw.__func__ if bound else raw
            wrapper = self.wrap(name, fn, sizes.get(name))
            if name in roots:
                wrapper = self._rooted(wrapper, roots[name])
            targets.append((cls, attr, type(raw)(wrapper) if bound else wrapper))
        tick_next, tick_drain = self._tick_client(
            TimedPollingClient.__dict__["next_event"],
            TimedPollingClient.__dict__["drain"],
        )
        targets.append((TimedPollingClient, "next_event", tick_next))
        targets.append((TimedPollingClient, "drain", tick_drain))
        return targets

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pauses.append(
                (info["generation"], self._gc_start, time.perf_counter_ns(),
                 self.phase)
            )

    @contextmanager
    def installed(self):
        """Install every wrapper; remove them on exit."""
        targets = self._targets()
        saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in targets]
        for cls, name, wrapper in targets:
            setattr(cls, name, wrapper)
        try:
            yield self
        finally:
            for cls, name, original in saved:
                setattr(cls, name, original)
            self._materialize()

    @contextmanager
    def gc_recorded(self):
        """Record every collector pause (used around the untraced cycles,
        so the spans' own memory does not inflate them)."""
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)

    def write(self, path) -> None:
        """Write every span and tick as CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid,name,start_ns,end_ns,parent,root,task,phase,size\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
            for tick_id, start, end, task, phase in self.ticks:
                fh.write(
                    f"0,runtime.tick,{start},{end},0,tick:{tick_id},{task},{phase},-1\n"
                )


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _ms(ns: float) -> float:
    return ns / 1e6


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _runtime_self_ns(tracer: Tracer, ticks, task_of: Dict[int, int]) -> float:
    """Tick time not covered by a top-level span of the ticking task.

    A span is top-level in its task when its parent ran in another task (a
    campaign task inherits the span that created it) or it has none.
    """
    tops: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in tracer.spans:
        if task_of.get(span[PARENT]) != span[TASK]:
            tops[span[TASK]].append((span[START], span[END]))
    starts: Dict[int, List[int]] = {}
    for task, intervals in tops.items():
        intervals.sort()
        starts[task] = [s for s, _ in intervals]
    total = 0.0
    for _, start, end, task, _ in ticks:
        intervals = tops.get(task, [])
        i = max(bisect.bisect_right(starts.get(task, []), start) - 1, 0)
        covered = 0
        while i < len(intervals) and intervals[i][0] < end:
            s, e = intervals[i]
            covered += max(0, min(e, end) - max(s, start))
            i += 1
        total += (end - start) - covered
    return total


def layer_metrics(workload, untraced, cycles, tracer: Tracer) -> Dict[str, tuple]:
    """The per-layer metrics of the traced cycles, ``name -> (value, unit)``.

    Counts and times summed over a phase are per cycle; ``*_p50_ms`` and
    ``*_p99_ms`` are over calls; ``*_per_call`` and ``*_share`` over calls
    too.  ``engine``, ``runtime``, ``client``, ``journaling`` and the
    journal's append/fsync figures cover the live phase only.  ``gc.*``
    come from the ``untraced`` cycles, run alternately with the traced
    ones, so the spans' own memory does not inflate them.
    """
    n = len(cycles)
    by_name: Dict[str, List[tuple]] = defaultdict(list)
    task_of = {span[SID]: span[TASK] for span in tracer.spans}
    child_ns: Dict[int, int] = defaultdict(int)
    for span in tracer.spans:
        by_name[span[NAME]].append(span)
        if task_of.get(span[PARENT]) == span[TASK]:
            child_ns[span[PARENT]] += span[END] - span[START]

    def spans(name: str, phase: Optional[str] = "live") -> List[tuple]:
        return [s for s in by_name[name] if phase is None or s[PHASE] == phase]

    def durations(name: str, phase: Optional[str] = "live") -> List[float]:
        return [_ms(s[END] - s[START]) for s in spans(name, phase)]

    def outermost(name: str) -> List[float]:
        ids = {s[SID] for s in by_name[name]}
        return [
            _ms(s[END] - s[START]) for s in by_name[name] if s[PARENT] not in ids
        ]

    def sizes(name: str) -> List[int]:
        return [s[SIZE] for s in spans(name)]

    live_ticks = [t for t in tracer.ticks if t[4] == "live"]
    frontier, sweep = sizes("engine.frontier"), sizes("engine.sweep")
    polls = sizes("client.poll")
    full_polls = [p for p in polls if p > 0]
    appends = len(spans("journal.append"))
    fsyncs = len(spans("journal.fsync"))
    journaling_self = sum(
        s[END] - s[START] - child_ns[s[SID]]
        for name in by_name if name.startswith("journaling.")
        for s in spans(name)
    )
    status_spans = [
        s for s in spans("service.status") if not s[ROOT].startswith("create:")
    ]
    get_spans = [_ms(s[END] - s[START]) for s in status_spans if s[ROOT] == ""]
    http_loads = [c.http for c in cycles if c.http is not None]
    http_sent = [t * 1e3 for load in http_loads for t in load.sent_latency]
    shard_calls = [
        s for name in by_name
        if name.startswith("shards.") and name != "shards.build"
        for s in spans(name)
    ]
    live_pauses = [p for p in tracer.gc_pauses if p[3] == "live"]
    # Both at the reference host speed, so the host's drift from one cycle
    # to the next does not pass for tracing overhead.
    overhead = (
        statistics.median(c.live_s * c.host.scale("live") for c in cycles)
        / statistics.median(c.live_s * c.host.scale("live") for c in untraced)
        - 1.0
    )
    replays = cycles if workload.recovery == "replay" else []

    metrics = {
        "workload.n_pairs": (cycles[0].n_pairs, "pairs"),
        "trace.overhead_share": (overhead, "share"),
        "trace.spans": (len(tracer.spans) / n, "count"),
        # How fast the host ran: the calibration kernel's mean time over
        # every cycle of the run.  Per-layer times are as measured, not
        # scaled to the reference host speed.
        "host.kernel_ms": (
            _mean(c.host.kernel_ms() for c in untraced + cycles), "ms"
        ),
        "engine.build_ms": (_mean(durations("engine.build", None)), "ms"),
        "engine.frontier_calls": (len(frontier) / n, "count"),
        "engine.frontier_ms": (sum(durations("engine.frontier")) / n, "ms"),
        "engine.frontier_p99_ms": (
            percentile(durations("engine.frontier"), 99), "ms"
        ),
        "engine.frontier_pairs_per_call": (_mean(frontier), "pairs"),
        "engine.frontier_empty_share": (_mean(p == 0 for p in frontier), "share"),
        "engine.sweep_calls": (len(sweep) / n, "count"),
        "engine.sweep_ms": (sum(durations("engine.sweep")) / n, "ms"),
        "engine.sweep_deduced_per_call": (_mean(sweep), "pairs"),
        "engine.sweep_empty_share": (_mean(p == 0 for p in sweep), "share"),
        "engine.record_answer_calls": (
            len(spans("engine.record_answer")) / n, "count"
        ),
        "engine.record_answer_ms": (
            sum(durations("engine.record_answer")) / n, "ms"
        ),
        "engine.publish_ms": (
            sum(durations("engine.publish") + durations("engine.withhold")) / n,
            "ms",
        ),
        "engine.deduced_share": (
            sum(c.n_deduced for c in cycles) / sum(c.n_pairs for c in cycles), "share"
        ),
        "runtime.ticks": (len(live_ticks) / n, "count"),
        "runtime.self_ms": (
            _ms(_runtime_self_ns(tracer, live_ticks, task_of)) / n, "ms"
        ),
        "runtime.hit_fill": (
            sum(c.hit_pairs for c in cycles)
            / max(1, sum(c.hits for c in cycles) * workload.batch_size),
            "share",
        ),
        "client.polls": (len(polls) / n, "count"),
        "client.poll_ms": (sum(durations("client.poll")) / n, "ms"),
        "client.completions_per_poll": (_mean(full_polls), "count"),
        "client.completions_per_poll_max": (max(polls, default=0), "count"),
        "client.empty_poll_share": (_mean(p == 0 for p in polls), "share"),
        "client.submit_calls": (len(spans("client.submit")) / n, "count"),
        "client.submit_ms": (sum(durations("client.submit")) / n, "ms"),
        "journaling.self_ms": (_ms(journaling_self) / n, "ms"),
        "journal.append_calls": (appends / n, "count"),
        "journal.append_ms": (sum(durations("journal.append")) / n, "ms"),
        "journal.fsyncs": (fsyncs / n, "count"),
        "journal.fsync_ms": (sum(durations("journal.fsync")) / n, "ms"),
        "journal.fsync_p99_ms": (
            percentile(durations("journal.fsync"), 99), "ms"
        ),
        "journal.records_per_fsync": (
            appends / fsyncs if fsyncs else 0.0, "records"
        ),
        "journal.bytes_per_answer": (
            sum(c.journal_bytes for c in cycles)
            / max(1, sum(c.answers for c in cycles)),
            "B",
        ),
        "journal.read_ms": (
            sum(durations("journal.read", "recover"))
            / max(1, sum(len(c.recover) for c in cycles)),
            "ms",
        ),
        # Only a full replay reads the whole journal back; 0 where the
        # recovery loads a compacted snapshot instead.
        "journal.replay_records_per_s": (
            sum(c.records_recovered for c in replays)
            / sum(sum(c.recover) for c in replays)
            if replays
            else 0.0,
            "records/s",
        ),
        "service.create_ms": (_mean(durations("service.create", None)), "ms"),
        "spec.encode_ms": (_mean(outermost("spec.encode")), "ms"),
        "spec.decode_ms": (_mean(outermost("spec.decode")), "ms"),
        "service.recover_ms": (
            _mean(durations("service.recover", "recover")), "ms"
        ),
        "service.status_ms": (
            _mean(_ms(s[END] - s[START]) for s in status_spans), "ms"
        ),
        "http.requests": (
            sum(len(load.latency) for load in http_loads) / n, "count"
        ),
        "http.non_200": (sum(load.failed for load in http_loads) / n, "count"),
        "http.wait_ms": (
            _mean(http_sent) - _mean(get_spans) if http_sent else 0.0, "ms"
        ),
        "loadgen.late_ms": (
            _mean(t * 1e3 for c in cycles for t in c.status.late), "ms"
        ),
        "shards.build_ms": (_mean(durations("shards.build", None)), "ms"),
        "shards.requests": (len(shard_calls) / n, "count"),
        "shards.request_ms": (
            sum(_ms(s[END] - s[START]) for s in shard_calls) / n, "ms"
        ),
        "shards.record_answer_p50_ms": (
            percentile(durations("shards.record_answer"), 50), "ms"
        ),
        "shards.reassignments": (
            sum(c.reassignments for c in cycles) / n, "count"
        ),
        # From the untraced cycles.
        "gc.gen2_collections": (
            sum(1 for p in live_pauses if p[0] == 2) / len(untraced), "count"
        ),
        "gc.pause_ms": (
            sum(_ms(p[2] - p[1]) for p in live_pauses) / len(untraced), "ms"
        ),
        "gc.pause_max_ms": (
            max((_ms(p[2] - p[1]) for p in live_pauses), default=0.0), "ms"
        ),
    }
    return metrics
