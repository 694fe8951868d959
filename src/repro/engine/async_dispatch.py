"""The async-first crowd runtime: one event loop for every labeler.

Historically the discrete-event simulator was the primary abstraction —
each labeling loop *stepped* it and the idea of "a crowd answer arrived"
was buried inside four different while-loops.  This module inverts that:
:class:`CrowdRuntime` drives a :class:`~repro.engine.engine.LabelingEngine`
from an asyncio loop over the :class:`~repro.crowd.clients.PlatformClient`
seam, and the simulator is just one client among several
(:class:`~repro.crowd.clients.SimulatedPlatformClient`,
:class:`~repro.crowd.clients.PollingPlatformClient`,
:class:`~repro.crowd.clients.CallbackPlatformClient`).

The runtime owns everything a live campaign needs that a simulator got for
free:

* in-flight HIT bookkeeping and *out-of-order* completion application
  through the engine's ``record_answers``/``sweep`` seam (any backend —
  the runtime never looks inside).  Events a client hands over back to
  back (a poll that fetched several) are applied as one *run*: one
  ``record_answers``, then the mode's sweep and reselection once;
* re-issue of expired HITs (unanswered pairs go back out as fresh HITs);
* budget (:class:`~repro.crowd.budget.BudgetPolicy`) and latency
  (:class:`~repro.crowd.latency.TimeoutPolicy`) limits enforced at
  submission time as *runtime policies*, not simulator features.

Dispatch semantics are a :class:`RuntimeMode`: the paper's sequential and
round-based labelers, the HIT-granularity campaign modes (instant decision
or re-publish-on-drain), the publish-everything baseline, and the serial
HIT replay.  :class:`AsyncDispatch` is the one pair-granularity entry point
(the sequential and round-based labelers, awaitable or synchronous, and the
expected-value ordering), and the campaign runners in
:mod:`repro.crowd.campaign` run the HIT-granularity modes, Figure 15's
answer-at-a-time labelers included — there is exactly one code path for
applying crowd answers.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.cluster_graph import ConflictPolicy
from ..core.oracle import LabelOracle
from ..core.pairs import CandidatePair, Label, Pair
from ..core.result import LabelingResult
from ..crowd.budget import BudgetPolicy
from ..crowd.clients import (
    HITExpiry,
    PlatformClient,
    SimulatedPlatformClient,
)
from ..crowd.hit import HIT, n_hits_needed
from ..crowd.latency import TimeoutPolicy
from ..crowd.platform import HITCompletion
from ..crowd.review import ReviewDecision, ReviewPolicy
from .engine import LabelingEngine, _pack_ints, _unpack_ints
from .hit_adapter import HITDispatchAdapter

#: Sentinel distinguishing "argument not given" from an explicit ``None``
#: (with a spec, an explicit ``None`` *overrides* the spec's policy).
_UNSET = object()

#: Labeling orders the runtime knows how to drive: ``"static"`` walks the
#: order/frontier as given (the paper's behaviour), ``"expected-value"``
#: re-picks the next question adaptively by expected transitive deductions
#: (SEQUENTIAL mode only — there is exactly one question in flight to pick).
ORDERINGS = ("static", "expected-value")

#: Aggregations whose winning side holds less than this share of the vote
#: weight are counted as low-margin in the report (matches the default
#: :class:`~repro.crowd.review.EscalateOnLowConfidence` threshold).
LOW_CONFIDENCE = 0.75

#: A publish burst yields the event loop after every this many HIT
#: submissions, so a campaign's first publish (hundreds of HITs) does not
#: hold up status requests and the other campaigns on the loop.
_SUBMITS_PER_YIELD = 32


def _check_ordering(ordering: str, mode: RuntimeMode) -> None:
    """Reject an unknown ordering, or expected-value outside SEQUENTIAL."""
    if ordering not in ORDERINGS:
        raise ValueError(
            f"unknown ordering {ordering!r}; expected one of {ORDERINGS}"
        )
    if ordering == "expected-value" and mode is not RuntimeMode.SEQUENTIAL:
        raise ValueError(
            "expected-value ordering requires SEQUENTIAL mode (it picks "
            f"one next question at a time), got mode {mode.value!r}"
        )


def _pack_hit_batches(hit_batches, position) -> dict:
    """Encode the HIT publication history as flat+sizes packed columns."""
    flat, sizes = array("i"), array("i")
    for batch in hit_batches:
        sizes.append(len(batch))
        for pair in batch:
            flat.append(position[pair])
    return {"flat": _pack_ints(flat), "sizes": _pack_ints(sizes)}


class RuntimeMode(enum.Enum):
    """When the runtime publishes which pairs (the dispatch semantics).

    SEQUENTIAL:  one pair in flight at a time, deduction at visit time —
                 the paper's Section 3.2 labeler.
    ROUNDS:      the full must-crowdsource frontier per round; the next
                 round is decided only once every answer of the current
                 one has arrived (Section 5.1, Algorithms 2-3).
    HIT_INSTANT: HIT granularity with instant decision — re-select after
                 every run whose answers or deductions hold a NON_MATCHING
                 label (only those can unlock a pair), buffering toward
                 full HITs (Sections 5.2 and 6.4, Parallel(ID)).
    HIT_ROUNDS:  HIT granularity, re-selecting only when the platform
                 drains (round-based Parallel).
    FLOOD:       publish every pair up front, no deduction — the
                 non-transitive baseline.
    SERIAL:      publish pre-batched HITs strictly one at a time (Table 1's
                 Non-Parallel opponent); requires ``preplanned``.
    """

    SEQUENTIAL = "sequential"
    ROUNDS = "rounds"
    HIT_INSTANT = "instant"
    HIT_ROUNDS = "hit-rounds"
    FLOOD = "flood"
    SERIAL = "serial"


#: Modes that apply the events a client hands over back to back as one run
#: (one ``record_answers``, then the mode's tail once).  SEQUENTIAL keeps
#: one question in flight and SERIAL one HIT, so they apply per event.
_RUN_MODES = frozenset(
    (
        RuntimeMode.ROUNDS,
        RuntimeMode.HIT_INSTANT,
        RuntimeMode.HIT_ROUNDS,
        RuntimeMode.FLOOD,
    )
)


@dataclass
class RuntimeReport:
    """Everything the runtime observed that the engine result does not hold.

    Attributes:
        publish_events: (client time, HITs published) per submission burst.
        hit_batches: pair composition of every published HIT, in
            publication order (re-issues included).
        conflicts: pairs whose crowd answer contradicted the deduction
            graph (possible only with noisy answers under FIRST_WINS).
        completion_hours: client time when the last *needed* label became
            known.
        n_completions: HIT completions applied.
        n_expired_hits: expiry events received.
        n_reissued_hits: fresh HITs published to replace expired ones.
        assignments_committed: assignments submitted (the budget metric).
        n_assignments_approved: assignments approved by the review policy.
        n_assignments_rejected: assignments rejected by the review policy.
        n_tie_broken: pairs whose aggregation was decided by the tie-break
            fallback, not a worker consensus (a coin flip wearing a label).
        n_low_margin: non-tied aggregations whose winning share fell below
            :data:`LOW_CONFIDENCE`.
        n_escalations: aggregated labels the review policy refused and the
            runtime re-issued for fresh assignments instead of applying.
        vote_margins: last observed vote margin per pair (winning weight
            minus losing weight), for completions carrying vote summaries.
        leftovers: completions that arrived after the campaign was already
            decided (outstanding work settled by ``drain``); still shown
            to the review policy — the work was done and must be paid.
    """

    publish_events: List[Tuple[float, int]] = field(default_factory=list)
    hit_batches: List[List[Pair]] = field(default_factory=list)
    conflicts: List[Pair] = field(default_factory=list)
    completion_hours: float = 0.0
    n_completions: int = 0
    n_expired_hits: int = 0
    n_reissued_hits: int = 0
    assignments_committed: int = 0
    n_assignments_approved: int = 0
    n_assignments_rejected: int = 0
    n_tie_broken: int = 0
    n_low_margin: int = 0
    n_escalations: int = 0
    vote_margins: Dict[Pair, float] = field(default_factory=dict)
    leftovers: List[HITCompletion] = field(default_factory=list)

    def defer_restore(self, thunk) -> None:
        """Register ``thunk(self)`` to rebuild the per-HIT history lazily.

        Runs at most once, on the first read of ``publish_events`` or
        ``hit_batches`` (both rebuilt together); set by
        :meth:`CrowdRuntime.restore_state` so snapshot recovery skips
        materialising one list entry per historical HIT.
        """
        self.__dict__["_restore_thunk"] = thunk


def _lazy_report_field(name: str) -> property:
    """Instance storage under ``name`` that first materialises a pending
    :meth:`RuntimeReport.defer_restore` thunk on read (cf. the identical
    mechanism on :class:`~repro.core.result.LabelingResult`)."""

    def fget(self):
        d = self.__dict__
        thunk = d.get("_restore_thunk")
        if thunk is not None:
            d["_restore_thunk"] = None
            thunk(self)
        return d[name]

    def fset(self, value) -> None:
        self.__dict__[name] = value

    return property(fget, fset)


RuntimeReport.publish_events = _lazy_report_field("publish_events")
RuntimeReport.hit_batches = _lazy_report_field("hit_batches")


class PauseGate:
    """A pause/resume switch shared between a runtime and its operator.

    The campaign service hands one gate to each hosted
    :class:`CrowdRuntime`.  While paused, the runtime issues **no new
    HITs** — completion-triggered publishes are deferred, and the
    idle-republish path is skipped — but it keeps consuming events, so
    in-flight completions are still applied, reviewed, and journaled.
    Deferred publishes fire on :meth:`resume`.

    The gate is asyncio-native (no locks: all transitions happen on the
    loop thread) and reusable across pause/resume cycles.
    """

    def __init__(self) -> None:
        self._resumed = asyncio.Event()
        self._resumed.set()

    @property
    def paused(self) -> bool:
        return not self._resumed.is_set()

    def pause(self) -> None:
        self._resumed.clear()

    def resume(self) -> None:
        self._resumed.set()

    def poke(self) -> None:
        """Wake a parked waiter for one pass without resuming.

        The campaign service uses this to route a paused-but-idle runtime
        through one safe-point check (e.g. an on-demand journal
        compaction); the gate stays paused, so the pass issues nothing.
        """
        if self.paused:
            self._resumed.set()
            self._resumed.clear()

    async def wait_resumed(self) -> None:
        """Block until :meth:`resume` (returns immediately when running)."""
        await self._resumed.wait()


class CrowdRuntime:
    """Asyncio event loop driving a :class:`LabelingEngine` over a client.

    Args:
        engine: the labeling engine (any backend; the runtime only uses
            the ``frontier``/``publish``/``record_answers``/``sweep`` seam).
        client: the platform client to submit to and await events from.
        spec: optional :class:`~repro.spec.CampaignSpec` supplying the
            dispatch mode and runtime policies in one object; any of the
            explicit keyword arguments below overrides the spec's value
            (an explicit ``None`` clears a spec-carried policy).
        mode: dispatch semantics (:class:`RuntimeMode` or its value).
        budget: optional spending cap checked before every submission.
        timeout: optional per-HIT expiry deadline + re-issue cap; without
            it the runtime requests no deadline and re-issues expired HITs
            without limit (clients that inject expiry cap themselves).
        review: optional :class:`~repro.crowd.review.ReviewPolicy` —
            every applied completion's verdicts are forwarded to the
            client's ``review_hit`` (live backends approve/reject the
            underlying assignments; clients without a review surface skip
            it silently).  Live campaigns should always set one: unreviewed
            work leaves workers waiting on the platform's auto-approval.
            A policy may also *escalate* pairs (see
            :class:`~repro.crowd.review.EscalateOnLowConfidence`): their
            aggregated labels are withheld and the pairs re-issued for
            fresh assignments, at most ``max_escalations`` times per pair.
        max_rounds: ROUNDS-mode safety cap (the algorithm provably
            terminates; the cap exists to fail fast on bugs).
        ordering: labeling-order strategy, one of :data:`ORDERINGS`.
            ``"expected-value"`` (SEQUENTIAL mode only) picks each next
            question adaptively by expected transitive deductions via
            :class:`~repro.engine.expected.ExpectedDeductionScorer`
            instead of walking the static order.
        aggregation: optional
            :class:`~repro.crowd.aggregation.WeightedAggregation` — when
            set, completions carrying raw assignments are re-aggregated
            with quality-aware weighted majority before their labels are
            applied (completions without assignments pass through).
        max_escalations: per-pair bound on review-policy escalations; once
            exhausted the dubious label is accepted rather than re-asked.
        preplanned: SERIAL-mode HIT contents, one inner sequence per HIT.
        gate: optional :class:`PauseGate` for operator pause/resume; while
            paused the runtime defers all new HIT issuance but still
            applies in-flight completions.

    The runtime asks the client for one event at a time.  While the client
    reports another already in hand (``n_ready_events``), the ROUNDS, HIT
    and FLOOD modes only take the event's answers into the open *run*; the
    run's last event applies them with one ``engine.record_answers`` and
    runs the mode's tail once (the round-end check in ROUNDS, one sweep and
    at most one reselection in HIT_INSTANT).  With consistent answers a
    campaign ends in the state applying its events one at a time reaches: a
    run answers only pairs already on the platform, which the sweep
    withholds, and every pair the frontier selects is one the sequential
    labeler asks too — only the HITs published after a run are composed
    differently.
    Safe points fire only between runs.  SEQUENTIAL and SERIAL apply every
    event on its own.

    The runtime is single-shot: build, ``await run()`` (or ``run_sync()``
    from synchronous code), read the report.
    """

    def __init__(
        self,
        engine: LabelingEngine,
        client: PlatformClient,
        *,
        spec=None,
        mode: Union[RuntimeMode, str, None] = None,
        budget=_UNSET,
        timeout=_UNSET,
        review=_UNSET,
        max_rounds=_UNSET,
        ordering: Optional[str] = None,
        aggregation=_UNSET,
        max_escalations: int = 1,
        preplanned: Optional[Sequence[Sequence[Pair]]] = None,
        gate: Optional[PauseGate] = None,
    ) -> None:
        if mode is None:
            mode = spec.mode if spec is not None else RuntimeMode.HIT_INSTANT
        if budget is _UNSET:
            budget = spec.budget if spec is not None else None
        if timeout is _UNSET:
            timeout = spec.timeout if spec is not None else None
        if review is _UNSET:
            review = spec.review if spec is not None else None
        if max_rounds is _UNSET:
            max_rounds = spec.max_rounds if spec is not None else None
        if ordering is None:
            ordering = spec.ordering if spec is not None else "static"
        if aggregation is _UNSET:
            aggregation = spec.make_aggregation() if spec is not None else None
        self._engine = engine
        self._client = client
        self._mode = RuntimeMode(mode)
        _check_ordering(ordering, self._mode)
        if max_escalations < 0:
            raise ValueError(
                f"max_escalations must be non-negative, got {max_escalations}"
            )
        self._budget = budget
        self._timeout = timeout
        self._review = review
        self._max_rounds = max_rounds
        self._ordering = ordering
        self._aggregation = aggregation
        self._max_escalations = max_escalations
        self._gate = gate
        self._kick_pending = False
        if (preplanned is not None) != (self._mode is RuntimeMode.SERIAL):
            raise ValueError("preplanned batches are for SERIAL mode exactly")
        self._preplanned = [list(chunk) for chunk in preplanned or ()]
        self.report = RuntimeReport()
        self._ran = False
        # How many times each in-flight HIT's lineage has been re-issued
        # (for TimeoutPolicy.max_reissues); entries are dropped when the
        # HIT settles, whichever way.
        self._reissue_counts: Dict[int, int] = {}
        # Mode state.
        self._round_index = 0
        self._cursor = 0  # SEQUENTIAL: next unvisited order position
        self._round_batch: List[Pair] = []
        self._round_outstanding: Set[Pair] = set()
        # Expected-value ordering: an ExpectedDeductionScorer built lazily
        # on the first advance (its evidence state is a pure function of
        # engine.labeled, so restores need no extra payload — sync()
        # rebuilds it).  Imported late: repro.engine.expected reaches
        # repro.core.expected_cost, which imports this module's package.
        self._scorer = None
        # Escalation state: times each pair's label was refused so far, and
        # the refused pairs awaiting re-issue.
        self._escalation_counts: Dict[Pair, int] = {}
        self._pending_escalations: List[Pair] = []
        self._adapter: Optional[HITDispatchAdapter] = None
        if self._mode in (RuntimeMode.HIT_INSTANT, RuntimeMode.HIT_ROUNDS):
            self._adapter = HITDispatchAdapter(
                engine, self._buffer_chunk, client.batch_size
            )
        self._pending_chunks: List[List[Pair]] = []
        # The open run: events the client handed over back to back (it
        # reported more in hand after each) are applied together when the
        # last one arrives.  Their answers wait here, with their round
        # indices; the completions count decides whether the tail runs.
        self._in_run = False
        self._run_answers: List[Tuple[Pair, Label]] = []
        self._run_rounds: List[int] = []
        self._run_pairs: Set[Pair] = set()
        self._run_completions = 0
        # Snapshot/restore seam (journal compaction): set by restore_state
        # so run() enters the event loop mid-campaign instead of _start().
        self._restored = False
        #: Invoked at the top of every event-loop iteration between runs —
        #: the one point where engine + mode state exactly reflect the
        #: records journaled so far (no chunk is half-flushed, no run
        #: half-applied).  The campaign service hooks its compaction
        #: policy here.
        self.on_safe_point: Optional[Callable[[], None]] = None

    @property
    def engine(self) -> LabelingEngine:
        return self._engine

    @property
    def client(self) -> PlatformClient:
        return self._client

    # ------------------------------------------------------------------
    # snapshot / restore (journal compaction)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-serializable dispatch state, captured at a safe point.

        Everything mode-dependent the event loop would otherwise rebuild
        by replaying the journal: the sequential cursor, the open round,
        the HIT adapter's partial buffer, re-issue chains, the deferred-
        kick flag, and the full report.  Pairs are encoded as order
        positions (the engine snapshot binds the order).

        Only meaningful at a safe point (see :attr:`on_safe_point`);
        SERIAL mode is not snapshottable (its preplanned batches are not
        spec-expressible, so the service never hosts it).
        """
        if self._mode is RuntimeMode.SERIAL:
            raise ValueError("SERIAL-mode runtimes cannot be snapshotted")
        if self._pending_chunks:
            raise ValueError("cannot snapshot with unflushed publish chunks")
        if self._in_run:
            raise ValueError("cannot snapshot in the middle of a run")
        position = self._engine._position
        report = self.report
        return {
            "version": 2,
            "mode": self._mode.value,
            "ordering": self._ordering,
            "round_index": self._round_index,
            "cursor": self._cursor,
            "round_batch": [position[p] for p in self._round_batch],
            "round_outstanding": sorted(
                position[p] for p in self._round_outstanding
            ),
            "adapter_buffer": (
                [position[p] for p in self._adapter.buffered]
                if self._adapter is not None
                else []
            ),
            "kick_pending": self._kick_pending,
            "reissue_counts": sorted(self._reissue_counts.items()),
            "escalation_counts": sorted(
                [position[p], count]
                for p, count in self._escalation_counts.items()
            ),
            "pending_escalations": [
                position[p] for p in self._pending_escalations
            ],
            "aggregation": (
                self._aggregation.snapshot_state()
                if self._aggregation is not None
                else None
            ),
            "report": {
                # The burst/batch histories grow with the record count
                # (one HIT per batch_size pairs): packed columns keep the
                # snapshot line's json.loads cost flat — see _pack_ints.
                "publish_events": {
                    "t": _pack_ints(
                        array("d", (t for t, _ in report.publish_events))
                    ),
                    "n": _pack_ints(
                        array("i", (n for _, n in report.publish_events))
                    ),
                },
                "hit_batches": _pack_hit_batches(report.hit_batches, position),
                "conflicts": [position[p] for p in report.conflicts],
                "completion_hours": report.completion_hours,
                "n_completions": report.n_completions,
                "n_expired_hits": report.n_expired_hits,
                "n_reissued_hits": report.n_reissued_hits,
                "assignments_committed": report.assignments_committed,
                "n_assignments_approved": report.n_assignments_approved,
                "n_assignments_rejected": report.n_assignments_rejected,
                "n_tie_broken": report.n_tie_broken,
                "n_low_margin": report.n_low_margin,
                "n_escalations": report.n_escalations,
                "vote_margins": sorted(
                    [position[p], margin]
                    for p, margin in report.vote_margins.items()
                ),
            },
        }

    def restore_state(self, snapshot: dict) -> None:
        """Load a :meth:`snapshot_state` payload; ``run()`` then enters the
        event loop directly, mid-campaign, instead of publishing a fresh
        start.  The engine must already be restored to the matching state.
        """
        if self._ran:
            raise ValueError("cannot restore into a runtime that already ran")
        if snapshot.get("version") not in (1, 2):
            raise ValueError(
                f"unsupported runtime snapshot version {snapshot.get('version')!r}"
            )
        if RuntimeMode(snapshot["mode"]) is not self._mode:
            raise ValueError(
                f"snapshot mode {snapshot['mode']!r} does not match runtime "
                f"mode {self._mode.value!r}"
            )
        snap_ordering = snapshot.get("ordering")
        if snap_ordering is not None and snap_ordering != self._ordering:
            raise ValueError(
                f"snapshot ordering {snap_ordering!r} does not match runtime "
                f"ordering {self._ordering!r}"
            )
        pairs = self._engine.pairs
        self._round_index = int(snapshot["round_index"])
        self._cursor = int(snapshot["cursor"])
        self._round_batch = [pairs[i] for i in snapshot["round_batch"]]
        self._round_outstanding = {
            pairs[i] for i in snapshot["round_outstanding"]
        }
        if self._adapter is not None:
            self._adapter.restore_buffer(
                pairs[i] for i in snapshot["adapter_buffer"]
            )
        self._kick_pending = bool(snapshot["kick_pending"])
        self._reissue_counts = {
            int(hit_id): int(count)
            for hit_id, count in snapshot["reissue_counts"]
        }
        self._escalation_counts = {
            pairs[int(i)]: int(count)
            for i, count in snapshot.get("escalation_counts", [])
        }
        self._pending_escalations = [
            pairs[int(i)] for i in snapshot.get("pending_escalations", [])
        ]
        agg_state = snapshot.get("aggregation")
        if agg_state is not None and self._aggregation is not None:
            self._aggregation.restore_state(agg_state)
        report = self.report
        payload = snapshot["report"]
        bursts = payload["publish_events"]
        batches = payload["hit_batches"]

        def rebuild(rep: RuntimeReport) -> None:
            rep.__dict__["publish_events"] = list(
                zip(
                    _unpack_ints(bursts["t"], "d"),
                    _unpack_ints(bursts["n"], "i"),
                )
            )
            # Decode once into a flat pair list, then slice per batch: the
            # history holds one entry per HIT, so per-element iteration
            # here would dominate a restore with small batch sizes.
            flat_pairs = [pairs[i] for i in _unpack_ints(batches["flat"], "i")]
            hit_batches = []
            start = 0
            for size in _unpack_ints(batches["sizes"], "i"):
                stop = start + size
                hit_batches.append(flat_pairs[start:stop])
                start = stop
            rep.__dict__["hit_batches"] = hit_batches

        # The publish/HIT history is one entry per burst/HIT — rebuilding
        # it eagerly would rival everything else a snapshot restore does,
        # and live continuation only appends to it.  Deferred like the
        # engine result's outcome records.
        report.defer_restore(rebuild)
        report.conflicts = [pairs[i] for i in payload["conflicts"]]
        report.completion_hours = float(payload["completion_hours"])
        report.n_completions = int(payload["n_completions"])
        report.n_expired_hits = int(payload["n_expired_hits"])
        report.n_reissued_hits = int(payload["n_reissued_hits"])
        report.assignments_committed = int(payload["assignments_committed"])
        report.n_assignments_approved = int(payload["n_assignments_approved"])
        report.n_assignments_rejected = int(payload["n_assignments_rejected"])
        report.n_tie_broken = int(payload.get("n_tie_broken", 0))
        report.n_low_margin = int(payload.get("n_low_margin", 0))
        report.n_escalations = int(payload.get("n_escalations", 0))
        report.vote_margins = {
            pairs[int(i)]: float(margin)
            for i, margin in payload.get("vote_margins", [])
        }
        self._restored = True

    # ------------------------------------------------------------------
    # submission plumbing
    # ------------------------------------------------------------------
    def _buffer_chunk(self, chunk: List[Pair]) -> None:
        """Synchronous landing spot for the HIT adapter's publish calls;
        the async loop flushes these to the client right after."""
        self._pending_chunks.append(chunk)

    async def _flush_chunks(self) -> None:
        """Submit the buffered chunks, yielding the loop every
        :data:`_SUBMITS_PER_YIELD` HITs.  The burst always completes: a
        pause that lands meanwhile takes effect after it."""
        n_submitted = 0
        while self._pending_chunks:
            await self._submit(self._pending_chunks.pop(0))
            n_submitted += 1
            if n_submitted % _SUBMITS_PER_YIELD == 0:
                await asyncio.sleep(0)

    async def _submit(self, pairs: Sequence[Pair]) -> List[HIT]:
        """Publish ``pairs``; enforce the budget; record the burst."""
        pairs = list(pairs)
        new_assignments = 0
        if pairs:
            new_assignments = (
                n_hits_needed(len(pairs), self._client.batch_size)
                * self._client.n_assignments
            )
        if self._budget is not None:
            self.report.assignments_committed = self._budget.authorize(
                self.report.assignments_committed, new_assignments
            )
        else:
            self.report.assignments_committed += new_assignments
        hit_timeout = self._timeout.hit_timeout if self._timeout else None
        hits = await self._client.submit_pairs(pairs, timeout=hit_timeout)
        self.report.hit_batches.extend(list(hit.pairs) for hit in hits)
        self.report.publish_events.append((self._client.now, len(hits)))
        return hits

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run_sync(self) -> RuntimeReport:
        """Drive the loop to completion from synchronous code."""
        return asyncio.run(self.run())

    async def run(self) -> RuntimeReport:
        """Publish, await events, apply answers; returns the report.

        Raises:
            BudgetExceededError: a submission would overrun the budget.
            RuntimeError: the platform drained with pairs unlabeled, a HIT
                lineage exceeded ``max_reissues``, or ROUNDS mode exceeded
                ``max_rounds``.
        """
        if self._ran:
            raise RuntimeError("CrowdRuntime is single-shot; build a new one")
        self._ran = True
        try:
            if self._mode is RuntimeMode.SERIAL:
                await self._run_serial()
            else:
                if not self._restored:
                    await self._start()
                await self._event_loop()
            self.report.leftovers = await self._client.drain()
            # Leftover completions arrived after the campaign was decided,
            # but their workers still did the work: the review policy must
            # see them too, or they'd wait on platform auto-approval.
            for leftover in self.report.leftovers:
                self._review_completion(leftover)
        finally:
            await self._client.close()
            # The runtime owns the campaign lifecycle: release the engine's
            # worker hosts (no-op on in-process backends).  Result state
            # lives in this process and stays readable after close.
            self._engine.close()
        return self.report

    def _paused(self) -> bool:
        return self._gate is not None and self._gate.paused

    async def _kick(self) -> None:
        """Fire the publish that a pause deferred (mode-appropriate)."""
        self._kick_pending = False
        if self._pending_escalations:
            await self._flush_escalations()
        if self._engine.is_done:
            return
        if self._mode is RuntimeMode.SEQUENTIAL:
            # Only advance with the platform quiet: a flushed escalation is
            # the one in-flight question sequential mode allows.
            if self._client.n_outstanding_hits == 0:
                await self._advance_sequential()
        elif self._mode is RuntimeMode.ROUNDS:
            # An escalation keeps its round open (the pair is still in
            # _round_outstanding); start a fresh round only between rounds.
            if not self._round_outstanding:
                await self._start_round()
        elif self._adapter is not None:
            self._adapter.select_new()
            await self._flush_chunks()

    async def _event_loop(self) -> None:
        engine = self._engine
        batching = self._mode in _RUN_MODES
        while not engine.is_done:
            # Between runs only: mid-run the next event is already in hand.
            if not self._in_run and await self._between_runs():
                continue
            event = await self._client.next_event()
            if event is None:
                if self._in_run:
                    # The client announced more and then drained: the run
                    # ends here.
                    self._in_run = False
                    await self._end_run()
                    continue
                raise RuntimeError(
                    "crowd runtime stalled: platform drained with "
                    f"{len(engine.pairs) - engine.n_labeled} pairs unlabeled"
                )
            self._in_run = batching and self._client.n_ready_events > 0
            if isinstance(event, HITExpiry):
                await self._on_expiry(event)
            else:
                self._reissue_counts.pop(event.hit.hit_id, None)
                await self._on_completion(event)
            if batching and not self._in_run:
                await self._end_run()

    async def _between_runs(self) -> bool:
        """The safe point, then pause handling and the publishes a run does
        not trigger itself; True when the loop must re-check before waiting
        for the next event."""
        if self.on_safe_point is not None:
            # Engine + mode state now reflect exactly the journaled
            # records: the one consistent place to snapshot/compact.
            self.on_safe_point()
        if self._paused():
            # Paused: issue nothing new.  With work still in flight, keep
            # consuming events (completions must not be dropped); once the
            # platform is quiet, sleep until resumed.
            if self._client.n_outstanding_hits == 0:
                await self._gate.wait_resumed()
                return True
            return False
        if self._kick_pending:
            await self._kick()
            return True
        if self._client.n_outstanding_hits == 0:
            if self._adapter is not None:
                # The platform would otherwise sit idle: re-select and force
                # out even a partial HIT (paper §6.4).
                self._adapter.select_new()
                self._adapter.flush(force=True)
                await self._flush_chunks()
            elif not self._round_outstanding and not self.report.publish_events:
                # Restored from a snapshot taken while paused before the
                # mode's first publish: fire it.  The publish-history gate
                # matters — a live run can also reach zero outstanding HITs
                # with events still buffered in the client (a poll fetched
                # every completion at once), and must fall through to
                # next_event() instead of re-publishing.
                if self._mode is RuntimeMode.FLOOD:
                    await self._submit(self._engine.pairs)
                else:
                    await self._kick()
                return True
        return False

    async def _start(self) -> None:
        # The caller has usually just built the engine without yielding;
        # let the loop run before the first selection and publish.
        await asyncio.sleep(0)
        # Loop, not a single wait: PauseGate.poke() wakes waiters without
        # resuming, and a still-paused campaign must not publish.
        while self._gate is not None and self._gate.paused:
            await self._gate.wait_resumed()
        if self._mode is RuntimeMode.FLOOD:
            # The baseline publishes unconditionally (even an empty order
            # records its single publish burst, as the old runner did).
            await self._submit(self._engine.pairs)
        elif self._engine.is_done:
            return
        elif self._mode is RuntimeMode.SEQUENTIAL:
            await self._advance_sequential()
        elif self._mode is RuntimeMode.ROUNDS:
            await self._start_round()
        else:  # HIT_INSTANT / HIT_ROUNDS
            self._adapter.select_new()
            self._adapter.flush(force=True)
            await self._flush_chunks()

    # ------------------------------------------------------------------
    # expiry / re-issue
    # ------------------------------------------------------------------
    async def _on_expiry(self, event: HITExpiry) -> List[HIT]:
        """Re-issue the expired HIT's still-unanswered pairs."""
        hit = event.hit
        self.report.n_expired_hits += 1
        chain = self._reissue_counts.pop(hit.hit_id, 0) + 1
        if self._timeout is not None and chain > self._timeout.max_reissues:
            raise RuntimeError(
                f"HIT {hit.hit_id} expired after {chain - 1} re-issues, "
                f"exceeding TimeoutPolicy.max_reissues={self._timeout.max_reissues}"
            )
        unanswered = [p for p in hit.pairs if not self._answered(p)]
        if not unanswered:
            return []
        reissued = await self._submit(unanswered)
        for new_hit in reissued:
            self._reissue_counts[new_hit.hit_id] = chain
        self.report.n_reissued_hits += len(reissued)
        return reissued

    # ------------------------------------------------------------------
    # completion application (the one code path)
    # ------------------------------------------------------------------
    def _answered(self, pair: Pair) -> bool:
        """Labeled in the engine, or answered earlier in the open run."""
        return pair in self._engine.labeled or pair in self._run_pairs

    def _apply_labels(self, event: HITCompletion, round_index: int) -> List[Pair]:
        """Take a completion's answers into the open run, skipping pairs a
        re-issue race already answered.  Returns the pairs taken; they
        reach the engine at :meth:`_record_run`.

        This is the one quality gate on the answer path: completions
        carrying raw assignments are re-aggregated first (quality-aware
        weighted majority when configured), vote diagnostics are folded
        into the report, and the review policy sees the completion *before*
        its labels land — pairs it escalates are withheld and queued for
        re-issue instead of applied.
        """
        event = self._reaggregate(event)
        self._record_vote_quality(event)
        decisions: Sequence[ReviewDecision] = (
            self._review.review(event) if self._review is not None else ()
        )
        held = self._escalations(decisions)
        taken: List[Pair] = []
        for pair, label in event.labels.items():
            if self._answered(pair):
                continue  # duplicate delivery (expired HIT completed late)
            if pair in held:
                continue  # escalated: re-issued instead of applied
            self._run_answers.append((pair, label))
            self._run_rounds.append(round_index)
            self._run_pairs.add(pair)
            taken.append(pair)
        self.report.completion_hours = event.completed_at
        self._forward_review(event.hit.hit_id, decisions)
        return taken

    def _record_run(self) -> List[Tuple[Pair, Label]]:
        """Apply the open run's answers: one ``engine.record_answers``.
        Returns the answers applied."""
        answers, rounds = self._run_answers, self._run_rounds
        if not answers:
            return []
        self._run_answers, self._run_rounds, self._run_pairs = [], [], set()
        flags = self._engine.record_answers(answers, rounds)
        if self._adapter is not None:
            # HIT modes report answers the deduction graph contradicted
            # (possible only with noisy answers under FIRST_WINS).
            self.report.conflicts.extend(
                pair for (pair, _), applied in zip(answers, flags) if not applied
            )
        return answers

    def _reaggregate(self, event: HITCompletion) -> HITCompletion:
        """Re-derive a completion's labels from its raw assignments with
        the configured quality-aware aggregation.

        Completions without assignment payloads (the journaled service
        path, live polling clients) pass through untouched — their labels
        were already final when journaled, so replay stays deterministic.
        Pairs every assignment abstained on (no votes at all) are queued
        for re-issue without charging the escalation bound — there is no
        label to fall back on.
        """
        if self._aggregation is None or not event.assignments:
            return event
        summaries = self._aggregation.aggregate(
            event.assignments, tie_break=Label.NON_MATCHING, strict=False
        )
        labels = {pair: summary.label for pair, summary in summaries.items()}
        for pair in event.labels:
            if pair not in summaries and not self._answered(pair):
                self._pending_escalations.append(pair)
        return replace(event, labels=labels, summaries=summaries)

    def _record_vote_quality(self, event: HITCompletion) -> None:
        """Fold a completion's vote diagnostics into the report."""
        report = self.report
        for pair, summary in event.summaries.items():
            report.vote_margins[pair] = summary.margin
            if summary.tie_broken:
                report.n_tie_broken += 1
            elif summary.confidence < LOW_CONFIDENCE:
                report.n_low_margin += 1

    def _escalations(self, decisions: Sequence[ReviewDecision]) -> Set[Pair]:
        """Collect the pairs the review decisions escalate, bounded by
        ``max_escalations`` per pair; queues them for re-issue and returns
        the set to withhold from this completion."""
        held: Set[Pair] = set()
        for decision in decisions:
            for pair in decision.escalate_pairs:
                if self._answered(pair) or pair in held:
                    continue
                count = self._escalation_counts.get(pair, 0)
                if count >= self._max_escalations:
                    continue  # bound exhausted: accept the dubious label
                self._escalation_counts[pair] = count + 1
                held.add(pair)
                self._pending_escalations.append(pair)
        self.report.n_escalations += len(held)
        return held

    def _forward_review(
        self, hit_id: int, decisions: Sequence[ReviewDecision]
    ) -> None:
        """Forward review verdicts to the client (live platforms pay or
        reject the workers; clients without a review surface skip)."""
        if not decisions:
            return
        review_hit = getattr(self._client, "review_hit", None)
        if review_hit is None:
            return
        approved, rejected = review_hit(hit_id, decisions)
        self.report.n_assignments_approved += approved
        self.report.n_assignments_rejected += rejected

    def _review_completion(self, event: HITCompletion) -> None:
        """Review one completion outside the application path (leftovers:
        the campaign is decided, so escalations are moot — workers still
        must be paid)."""
        if self._review is None:
            return
        self._forward_review(event.hit.hit_id, self._review.review(event))

    async def _flush_escalations(self) -> List[HIT]:
        """Re-issue the queued escalated pairs as fresh HITs.

        The pairs were already published (their first assignments came
        back); like the expiry path this re-submits without touching the
        engine's publish bookkeeping.  The budget is charged — escalation
        buys new assignments.
        """
        pending, self._pending_escalations = self._pending_escalations, []
        batch = [p for p in pending if p not in self._engine.labeled]
        if not batch:
            return []
        return await self._submit(batch)

    async def _settle_escalations(self) -> None:
        """Flush queued escalations, or defer the flush while paused."""
        if not self._pending_escalations:
            return
        if self._paused():
            self._kick_pending = True
        else:
            await self._flush_escalations()

    async def _on_completion(self, event: HITCompletion) -> None:
        mode = self._mode
        if mode is RuntimeMode.SEQUENTIAL:
            for pair in self._apply_labels(event, self._round_index):
                self._engine.result.rounds.append([pair])
                self._round_index += 1
            self._record_run()
            self.report.n_completions += 1
            if self._paused():
                self._kick_pending = True
            else:
                await self._flush_escalations()
                # An escalated pair is the one in-flight question sequential
                # mode allows; pick the next only once the platform is quiet.
                if self._client.n_outstanding_hits == 0:
                    await self._advance_sequential()
            return
        # The run modes take the answers into the open run; _end_run
        # applies them once the run's last event is in.
        if mode is RuntimeMode.ROUNDS:
            taken = self._apply_labels(event, self._round_index)
            # Escalated pairs stay in _round_outstanding, keeping the round
            # open until their fresh assignments land.
            self._round_outstanding.difference_update(taken)
        else:  # FLOOD / HIT_INSTANT / HIT_ROUNDS
            self._apply_labels(event, self.report.n_completions)
        self.report.n_completions += 1
        self._run_completions += 1

    async def _end_run(self) -> None:
        """Apply the run: one ``record_answers`` for its answers, then the
        mode's tail once (see the class docstring for why that reaches the
        per-event end state)."""
        answers = self._record_run()
        n_completions, self._run_completions = self._run_completions, 0
        if not n_completions:
            return  # expiries only: each re-issued its pairs already
        mode = self._mode
        if mode is RuntimeMode.ROUNDS:
            await self._settle_escalations()
            if not self._round_outstanding:
                self._engine.result.rounds.append(self._round_batch)
                # Deduction sweep (Algorithm 2 lines 6-8): incremental —
                # only pairs whose endpoint clusters changed are re-checked.
                self._engine.sweep(self._round_index)
                self._round_index += 1
                if not self._engine.is_done:
                    if self._paused():
                        self._kick_pending = True
                    else:
                        await self._start_round()
        elif mode is RuntimeMode.FLOOD:
            await self._settle_escalations()
        else:  # HIT_INSTANT / HIT_ROUNDS
            # Rescued pairs leave the adapter's buffer; on-platform pairs
            # stay withheld from the sweep (the crowd will answer them).
            resolved = self._adapter.sweep(self.report.n_completions - 1)
            # Escalated pairs must go back out here in *both* HIT modes:
            # they are already published, so the adapter never re-selects
            # them, and HIT_ROUNDS would otherwise stall waiting on a drain
            # that never comes.
            await self._settle_escalations()
            if not self._engine.is_done and mode is RuntimeMode.HIT_INSTANT:
                if self._paused():
                    self._kick_pending = True
                elif any(
                    label is Label.NON_MATCHING
                    for _, label in itertools.chain(answers, resolved)
                ):
                    # Instant decision (Section 5.2): selection assumes every
                    # unlabeled pair matches, so a MATCHING label only
                    # replaces an assumed merge, and the last selection
                    # published everything it found.  Only a NON_MATCHING
                    # label, answered or deduced, can unlock a pair.
                    self._adapter.select_new()
                    await self._flush_chunks()

    # ------------------------------------------------------------------
    # mode drivers
    # ------------------------------------------------------------------
    async def _advance_sequential(self) -> None:
        """Visit the order: deduce for free, submit the next paid pair."""
        if self._ordering == "expected-value":
            await self._advance_expected()
            return
        engine = self._engine
        while self._cursor < len(engine.pairs):
            pair = engine.pairs[self._cursor]
            if pair in engine.labeled:
                self._cursor += 1
                continue
            deduced = engine.deduce(pair)
            if deduced is not None:
                engine.record_deduced(pair, deduced, self._round_index)
                self._cursor += 1
                continue
            self._cursor += 1
            engine.publish([pair])
            await self._submit([pair])
            return

    async def _advance_expected(self) -> None:
        """Expected-value ordering: pick the next question by expected
        transitive deductions, settling deducible pairs for free first.

        The scorer's evidence state is a pure function of
        ``engine.labeled`` (``sync`` is idempotent), so snapshot restores
        rebuild it here with no extra payload.
        """
        engine = self._engine
        if self._scorer is None:
            from .expected import ExpectedDeductionScorer

            self._scorer = ExpectedDeductionScorer()
        scorer = self._scorer
        scorer.sync(engine.labeled)
        while not engine.is_done:
            unresolved = [
                CandidatePair(pair, engine.likelihoods[pair])
                for pair in engine.pairs
                if pair not in engine.labeled
            ]
            chosen = scorer.choose(unresolved)
            if chosen is None:
                # Every remaining pair is deducible: sweep them for free.
                before = engine.n_labeled
                engine.sweep(self._round_index)
                scorer.sync(engine.labeled)
                if engine.n_labeled == before:
                    raise RuntimeError(
                        "expected-value ordering stalled: no pair worth "
                        "asking, none deducible"
                    )
                continue
            engine.publish([chosen.pair])
            await self._submit([chosen.pair])
            return

    async def _start_round(self) -> None:
        if self._max_rounds is not None and self._round_index >= self._max_rounds:
            raise RuntimeError(
                f"parallel labeling exceeded {self._max_rounds} rounds"
            )
        batch = self._engine.frontier()
        assert batch, "a round must always publish at least one pair"
        self._engine.publish(batch)
        self._round_batch = batch
        self._round_outstanding = set(batch)
        await self._submit(batch)

    async def _run_serial(self) -> None:
        """SERIAL mode: each preplanned HIT fully completes before the
        next is published (Table 1's Non-Parallel baseline)."""
        for chunk in self._preplanned:
            if self._gate is not None:
                await self._gate.wait_resumed()
            hits = await self._submit(chunk)
            waiting = {hit.hit_id for hit in hits}
            while waiting:
                event = await self._client.next_event()
                if event is None:
                    raise RuntimeError("published HIT never completed")
                if isinstance(event, HITExpiry):
                    waiting.discard(event.hit.hit_id)
                    waiting.update(h.hit_id for h in await self._on_expiry(event))
                    continue
                self._reissue_counts.pop(event.hit.hit_id, None)
                waiting.discard(event.hit.hit_id)
                self._apply_labels(event, self.report.n_completions)
                self._record_run()
                self._engine.result.rounds.append(list(event.hit.pairs))
                self.report.n_completions += 1
                if self._pending_escalations:
                    # Escalated pairs re-enter this chunk's wait set: serial
                    # mode publishes the next HIT only once they settle.
                    reissued = await self._flush_escalations()
                    waiting.update(h.hit_id for h in reissued)


class AsyncDispatch:
    """The pair-granularity labelers, over any :class:`PlatformClient`.

    Runs the paper's sequential (Section 3.2) or round-parallel
    (Section 5.1, Algorithms 2-3) labeler: builds a :class:`LabelingEngine`
    and a :class:`CrowdRuntime` per run and drives them to completion
    (property-tested identical against the frozen pre-refactor references).
    Answers are *awaited* from a platform client (by default the
    deterministic simulated crowd) — out of order, with expiry and
    re-issue, against any engine backend; ``run`` is the synchronous entry
    point.

    Args:
        mode: ``RuntimeMode.SEQUENTIAL`` or ``RuntimeMode.ROUNDS`` (the two
            pair-granularity labelers; HIT-granularity campaigns live in
            :mod:`repro.crowd.campaign`).
        spec: optional :class:`~repro.spec.CampaignSpec` supplying the mode,
            engine configuration, and runtime policies in one object; the
            explicit keyword arguments below override the spec's values
            (an explicit ``None`` clears a spec-carried runtime policy).
            (The spec's ``order`` and ``platform`` are ignored here —
            ``run_async`` takes the order, the client factory the platform.)
        client_factory: builds the platform client for a run, given the
            oracle; defaults to the deterministic simulated client
            (:meth:`SimulatedPlatformClient.for_oracle`).  Clients that do
            not consult the oracle (live platforms) may ignore it.
        policy: conflict policy for the engine's deduction graph.
        backend: engine backend (``"auto"``, ``"monolithic"``,
            ``"vectorized"``, or ``"distributed"``, as a string or
            :class:`~repro.engine.engine.EngineBackend`).
        shard_threshold: the ``auto`` cut-over (see
            :class:`LabelingEngine`).
        workers: ``"host:port"`` addresses of already-running shard worker
            hosts (``backend="distributed"`` only).
        spawn_local_workers: spawn this many local worker hosts instead of
            (or in addition to) ``workers`` (``backend="distributed"`` only).
        budget / timeout / review / max_rounds / ordering / aggregation /
            max_escalations: runtime policies, passed to
            :class:`CrowdRuntime` (see there).

    After a run, :attr:`last_report` holds the runtime's
    :class:`RuntimeReport` (publish bursts, expiries, re-issues, spend).
    """

    def __init__(
        self,
        mode: Union[RuntimeMode, str, None] = None,
        *,
        spec=None,
        client_factory=None,
        policy: Optional[ConflictPolicy] = None,
        backend: Optional[str] = None,
        shard_threshold: Optional[int] = None,
        workers: Optional[Sequence[str]] = None,
        spawn_local_workers: Optional[int] = None,
        budget=_UNSET,
        timeout=_UNSET,
        review=_UNSET,
        max_rounds=_UNSET,
        ordering: Optional[str] = None,
        aggregation=_UNSET,
        max_escalations: int = 1,
    ) -> None:
        if mode is None:
            mode = spec.mode if spec is not None else RuntimeMode.ROUNDS
        mode = RuntimeMode(mode)
        if mode not in (RuntimeMode.SEQUENTIAL, RuntimeMode.ROUNDS):
            raise ValueError(
                "AsyncDispatch labels at pair granularity: mode must be "
                f"SEQUENTIAL or ROUNDS, got {mode}"
            )
        if ordering is None:
            ordering = spec.ordering if spec is not None else "static"
        _check_ordering(ordering, mode)
        self._mode = mode
        self._ordering = ordering
        self._spec = spec
        self._client_factory = client_factory
        # Engine kwargs: explicit argument > spec value > engine default.
        overrides = {
            "policy": policy,
            "backend": backend,
            "shard_threshold": shard_threshold,
            "workers": workers,
            "spawn_local_workers": spawn_local_workers,
        }
        self._engine_kwargs = spec.engine_kwargs() if spec is not None else {}
        self._engine_kwargs.update(
            {k: v for k, v in overrides.items() if v is not None}
        )
        self._runtime_kwargs = {
            "budget": budget,
            "timeout": timeout,
            "review": review,
            "max_rounds": max_rounds,
            "aggregation": aggregation,
            "max_escalations": max_escalations,
        }
        self.last_report: Optional[RuntimeReport] = None

    def _make_client(self, oracle: LabelOracle) -> PlatformClient:
        if self._client_factory is not None:
            return self._client_factory(oracle)
        return SimulatedPlatformClient.for_oracle(oracle)

    async def run_async(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        oracle: LabelOracle,
    ) -> LabelingResult:
        """Label every pair in ``order`` from inside an event loop."""
        engine = LabelingEngine(
            order,
            # The static sequential loop deduces at visit time and never
            # sweeps, so the incremental index would be pure overhead; the
            # expected-value ordering sweeps whenever every remaining pair
            # became deducible, so it keeps the index.
            use_index=(
                self._mode is not RuntimeMode.SEQUENTIAL
                or self._ordering == "expected-value"
            ),
            **self._engine_kwargs,
        )
        runtime = CrowdRuntime(
            engine,
            self._make_client(oracle),
            spec=self._spec,
            mode=self._mode,
            ordering=self._ordering,
            **self._runtime_kwargs,
        )
        self.last_report = await runtime.run()
        return engine.result

    def run(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        oracle: LabelOracle,
    ) -> LabelingResult:
        """Synchronous entry point (spins a private event loop)."""
        return asyncio.run(self.run_async(order, oracle))
