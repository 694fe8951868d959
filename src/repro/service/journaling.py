"""JournalingPlatformClient: any platform client, made durable + replayable.

The wrapper sits between the :class:`~repro.engine.async_dispatch.CrowdRuntime`
and *any* :class:`~repro.crowd.clients.PlatformClient` (simulated,
polling-REST, webhook-push) and journals every externally-visible event —
HIT issues, completions, expiries, review decisions, cancellations — to an
append-only :class:`~repro.service.journal.Journal`.  Nothing else in the
stack knows the journal exists: the runtime sees a normal client, the inner
client sees a normal runtime.

Recovery inverts the flow.  A resumed campaign constructs the wrapper with
the parsed journal events; a **fresh** runtime then re-runs the campaign
from the top, and the wrapper *feeds it the journal* instead of the
platform:

* ``submit_pairs`` during replay consumes the matching ``issue`` records
  (validating the runtime re-published exactly what the journal says it
  published — any divergence raises
  :class:`~repro.service.journal.JournalReplayError`);
* ``next_event`` reconstructs completions and expiries from the records;
* ``review_hit`` returns the journaled approve/reject counts without
  touching the platform (that work was already paid for).

Because the runtime is deterministic given its event sequence, replay
rebuilds **all** of its internal state — adapter buffers, round cursors,
re-issue chains, budget counters, the engine's cluster graph — through the
one true answer-application path (``engine.record_answers``), with no
state-snapshot format to maintain.  The runtime applies the events a client
hands over back to back as one *run*; each completion or expiry record
that had another event of its run behind it carries ``"more": true``, and
replay reports the same boundaries through :attr:`~JournalingPlatformClient
.n_ready_events`, so recovery batches exactly as the live run did (records
without the flag, as every journal before format v3 wrote them, replay as
runs of one).  When the journal is exhausted the
wrapper *adopts* the still-outstanding HITs: their pairs are re-submitted
to the fresh inner client (directly — the budget already charged them at
first issue), inner ids are mapped onto the journaled external ids, and
the campaign continues live, journaling as it goes.

External HIT identity is owned by this wrapper (not the inner client)
precisely so that ids survive the death of the inner client: the runtime
and the journal only ever see stable external ids.

Durability boundary: an issue record is journaled immediately *after* the
platform accepts the submission, and every inbound event is journaled
*before* the runtime sees it.  A crash in the submission window can
therefore re-issue that burst on resume (bounded, visible duplicate spend
on a live platform); a crash anywhere else loses nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.pairs import Label, Pair
from ..crowd.clients import HITExpiry, PlatformClient, PlatformEvent
from ..crowd.hit import HIT
from ..crowd.platform import HITCompletion
from ..spec import decode_canonical_pair, encode_pair
from .journal import Journal, JournalReplayError


def _encode_labels(labels: Dict[Pair, Label]) -> List[List[Any]]:
    return [
        [*encode_pair(pair), label.value] for pair, label in labels.items()
    ]


def _decode_labels(entries: Sequence[Sequence[Any]]) -> Dict[Pair, Label]:
    return {
        decode_canonical_pair(entry[:2]): Label(entry[2]) for entry in entries
    }


class JournalingPlatformClient:
    """Transparent write-ahead journaling around any platform client.

    Args:
        inner: the real client (a fresh one when resuming — the wrapper
            re-submits adopted work to it at handover).
        journal: the open append-mode :class:`Journal` (header already
            written by the service).
        replay_events: parsed event records from :meth:`Journal.read` when
            resuming; empty/omitted for a brand-new campaign.

    The wrapper exposes ``review_hit`` only when ``inner`` does, so the
    runtime's review behaviour is exactly what it would be unwrapped.
    """

    def __init__(
        self,
        inner: PlatformClient,
        journal: Journal,
        *,
        replay_events: Sequence[Dict[str, Any]] = (),
    ) -> None:
        self._inner = inner
        self._journal = journal
        self._replay: Deque[Dict[str, Any]] = deque(replay_events)
        self._live = not self._replay
        #: ext hit_id -> the HIT as the runtime knows it (both phases).
        self._outstanding: Dict[int, HIT] = {}
        #: ext hit_id -> the timeout it was issued with (for adoption).
        self._issue_timeouts: Dict[int, Optional[float]] = {}
        self._ext_next = 0
        self._inner_to_ext: Dict[int, int] = {}
        self._ext_to_inner: Dict[int, int] = {}
        #: client-clock time while replaying (last record's timestamp).
        self._replay_now = 0.0
        #: the run boundary of the last event handed over: its inner
        #: client's ready count when journaled live, or 1 for a replayed
        #: record flagged ``more``.
        self._ready = 0
        if hasattr(inner, "review_hit"):
            # Shadow the class-level absence: the runtime feature-detects
            # review via getattr, and the wrapper must mirror the inner
            # client exactly.
            self.review_hit = self._review_hit  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # pass-through configuration
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return self._inner.batch_size

    @property
    def n_assignments(self) -> int:
        return self._inner.n_assignments

    @property
    def now(self) -> float:
        return self._replay_now if not self._live else self._inner.now

    @property
    def n_outstanding_hits(self) -> int:
        return len(self._outstanding)

    @property
    def n_ready_events(self) -> int:
        """Nonzero while the last event handed over has more of its run
        behind it — as journaled with that event, so a replay batches
        exactly as the live run did."""
        return self._ready

    @property
    def inner(self) -> PlatformClient:
        return self._inner

    @property
    def replaying(self) -> bool:
        """True while events are still being served from the journal."""
        return not self._live

    # ------------------------------------------------------------------
    # snapshot / restore (journal compaction)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Serialize the wrapper's externally-visible state.

        Valid only at a runtime safe point (the service takes snapshots
        from the runtime's ``on_safe_point`` hook, or when the campaign is
        provably quiescent), and never mid-replay — a snapshot taken while
        the journal tail is still being consumed would disagree with the
        tail's sequence numbering.
        """
        if not self._live:
            raise RuntimeError(
                "cannot snapshot a journaling client while it is replaying"
            )
        return {
            "version": 1,
            "ext_next": self._ext_next,
            "outstanding": [
                [
                    ext_id,
                    [encode_pair(p) for p in self._outstanding[ext_id].pairs],
                    self._outstanding[ext_id].n_assignments,
                    self._issue_timeouts.get(ext_id),
                ]
                for ext_id in sorted(self._outstanding)
            ],
        }

    def restore_state(self, snapshot: Dict[str, Any]) -> None:
        """Seed a fresh wrapper from a journaled snapshot record.

        Must be called before any platform traffic.  The wrapper is left in
        replay mode even when the post-snapshot tail is empty, so the first
        ``next_event``/``submit_pairs`` runs :meth:`_go_live` and adopts the
        restored outstanding HITs onto the fresh inner client (re-submitted
        directly — their assignments were budget-charged at first issue).
        """
        if self._outstanding or self._inner_to_ext or self._ext_next:
            raise RuntimeError(
                "restore_state requires a freshly constructed client"
            )
        if int(snapshot.get("version", -1)) != 1:
            raise JournalReplayError(
                f"unsupported client snapshot version {snapshot.get('version')!r}"
            )
        self._ext_next = int(snapshot["ext_next"])
        for ext_id, pairs, n_assignments, timeout in snapshot["outstanding"]:
            hit = HIT(
                hit_id=int(ext_id),
                pairs=tuple(decode_canonical_pair(entry) for entry in pairs),
                n_assignments=int(n_assignments),
            )
            self._outstanding[hit.hit_id] = hit
            self._issue_timeouts[hit.hit_id] = (
                None if timeout is None else float(timeout)
            )
        self._live = False

    # ------------------------------------------------------------------
    # replay plumbing
    # ------------------------------------------------------------------
    def _divergence(self, expected: str, record: Dict[str, Any]) -> JournalReplayError:
        return JournalReplayError(
            f"replay diverged at seq {record.get('seq')}: runtime asked for "
            f"{expected}, journal holds a {record.get('type')!r} record — the "
            "journal does not match this spec/runtime (refusing to resume "
            "onto a wrong state)"
        )

    def _restore_hit(self, record: Dict[str, Any]) -> HIT:
        hit = HIT(
            hit_id=int(record["hit_id"]),
            pairs=tuple(decode_canonical_pair(entry) for entry in record["pairs"]),
            n_assignments=int(record["n_assignments"]),
        )
        # Keep the ext id allocator ahead of every replayed id.
        self._ext_next = max(self._ext_next, hit.hit_id + 1)
        return hit

    def _pop_outstanding(self, record: Dict[str, Any], kind: str) -> HIT:
        hit = self._outstanding.pop(int(record["hit_id"]), None)
        if hit is None:
            raise JournalReplayError(
                f"replay diverged at seq {record.get('seq')}: {kind} record "
                f"for HIT {record.get('hit_id')} which is not outstanding"
            )
        self._issue_timeouts.pop(hit.hit_id, None)
        return hit

    async def _go_live(self) -> None:
        """Journal exhausted: adopt outstanding HITs onto the fresh inner
        client and continue the campaign live.

        Each adopted HIT is re-submitted *directly* to the inner client —
        never through the runtime's ``_submit`` — because its assignments
        were already charged against the budget when the original issue was
        journaled.  One external HIT maps to exactly one inner HIT (its
        pairs came out of an identically-configured batcher, so they fit in
        one batch).
        """
        if self._live:
            return
        self._live = True
        for ext_id in sorted(self._outstanding):
            hit = self._outstanding[ext_id]
            inner_hits = await self._inner.submit_pairs(
                list(hit.pairs), timeout=self._issue_timeouts.get(ext_id)
            )
            if len(inner_hits) != 1:
                raise JournalReplayError(
                    f"adopting HIT {ext_id}: inner client split "
                    f"{len(hit.pairs)} pairs into {len(inner_hits)} HITs — "
                    "the resumed platform config does not match the journal"
                )
            self._inner_to_ext[inner_hits[0].hit_id] = ext_id
            self._ext_to_inner[ext_id] = inner_hits[0].hit_id

    def _ext_event(self, event: PlatformEvent) -> PlatformEvent:
        """Translate a live inner event onto the external HIT identity."""
        ext_id = self._inner_to_ext.get(event.hit.hit_id)
        if ext_id is None:
            # Not an adopted HIT: issued live, ids already aligned.
            return event
        ext_hit = self._outstanding.get(ext_id)
        if ext_hit is None:  # settled already (late duplicate): pass through
            return event
        if isinstance(event, HITExpiry):
            return HITExpiry(
                hit=ext_hit, expired_at=event.expired_at, reason=event.reason
            )
        return HITCompletion(
            hit=ext_hit,
            labels=dict(event.labels),
            completed_at=event.completed_at,
            assignments=event.assignments,
        )

    # ------------------------------------------------------------------
    # PlatformClient surface
    # ------------------------------------------------------------------
    async def submit_pairs(
        self, pairs: Sequence[Pair], *, timeout: Optional[float] = None
    ) -> List[HIT]:
        pairs = list(pairs)
        if not self._live:
            if not pairs:
                return []
            expected = pairs
            got: List[Pair] = []
            hits: List[HIT] = []
            while got != expected:
                if not self._replay:
                    # The original process crashed mid-burst: the journal
                    # holds the first HITs of this submission but not the
                    # rest.  Adopt what exists and finish the burst live —
                    # the remainder starts exactly at a HIT boundary, so
                    # re-batching it reproduces the missing HIT shapes.
                    break
                if self._replay[0].get("type") != "issue":
                    raise self._divergence(
                        f"issue of {len(expected)} pairs", self._replay[0]
                    )
                record = self._replay.popleft()
                hit = self._restore_hit(record)
                if list(hit.pairs) != expected[len(got): len(got) + len(hit.pairs)]:
                    raise JournalReplayError(
                        f"replay diverged at seq {record.get('seq')}: issue "
                        f"record for HIT {hit.hit_id} does not match the "
                        "pairs the runtime re-published"
                    )
                got.extend(hit.pairs)
                self._outstanding[hit.hit_id] = hit
                self._issue_timeouts[hit.hit_id] = record.get("timeout")
                self._replay_now = float(record.get("t", self._replay_now))
                hits.append(hit)
            if got == expected:
                return hits
            await self._go_live()
            return hits + await self._submit_live(expected[len(got):], timeout)
        await self._go_live()
        return await self._submit_live(pairs, timeout)

    async def _submit_live(
        self, pairs: List[Pair], timeout: Optional[float]
    ) -> List[HIT]:
        inner_hits = await self._inner.submit_pairs(pairs, timeout=timeout)
        ext_hits: List[HIT] = []
        for inner_hit in inner_hits:
            ext_id = self._ext_next
            self._ext_next += 1
            ext_hit = HIT(
                hit_id=ext_id,
                pairs=inner_hit.pairs,
                n_assignments=inner_hit.n_assignments,
            )
            self._inner_to_ext[inner_hit.hit_id] = ext_id
            self._ext_to_inner[ext_id] = inner_hit.hit_id
            self._outstanding[ext_id] = ext_hit
            self._issue_timeouts[ext_id] = timeout
            self._journal.append(
                {
                    "type": "issue",
                    "hit_id": ext_id,
                    "pairs": [encode_pair(p) for p in ext_hit.pairs],
                    "n_assignments": ext_hit.n_assignments,
                    "timeout": timeout,
                    "t": self._inner.now,
                }
            )
            ext_hits.append(ext_hit)
        return ext_hits

    async def next_event(self) -> Optional[PlatformEvent]:
        while not self._live:
            if not self._replay:
                await self._go_live()
                break
            record = self._replay.popleft()
            rtype = record.get("type")
            if rtype == "note":
                continue
            if rtype == "cancel":
                self._outstanding.pop(int(record["hit_id"]), None)
                self._issue_timeouts.pop(int(record["hit_id"]), None)
                continue
            if rtype == "completion":
                if record.get("leftover"):
                    raise self._divergence("a loop event", record)
                hit = self._pop_outstanding(record, "completion")
                self._replay_now = float(record.get("completed_at", self._replay_now))
                self._ready = 1 if record.get("more") else 0
                return HITCompletion(
                    hit=hit,
                    labels=_decode_labels(record["labels"]),
                    completed_at=float(record["completed_at"]),
                    assignments=(),
                )
            if rtype == "expiry":
                hit = self._pop_outstanding(record, "expiry")
                self._replay_now = float(record.get("expired_at", self._replay_now))
                self._ready = 1 if record.get("more") else 0
                return HITExpiry(
                    hit=hit,
                    expired_at=float(record["expired_at"]),
                    reason=record.get("reason", "timeout"),
                )
            raise self._divergence("an event", record)
        event = await self._inner.next_event()
        if event is None:
            self._ready = 0
            return None
        event = self._ext_event(event)
        if isinstance(event, HITExpiry):
            record = {
                "type": "expiry",
                "hit_id": event.hit.hit_id,
                "expired_at": event.expired_at,
                "reason": event.reason,
            }
        else:
            record = {
                "type": "completion",
                "hit_id": event.hit.hit_id,
                "labels": _encode_labels(event.labels),
                "completed_at": event.completed_at,
            }
        self._ready = self._inner.n_ready_events
        if self._ready:
            record["more"] = True
        self._journal.append(record)
        self._outstanding.pop(event.hit.hit_id, None)
        self._issue_timeouts.pop(event.hit.hit_id, None)
        ext_id = event.hit.hit_id
        inner_id = self._ext_to_inner.pop(ext_id, None)
        if inner_id is not None:
            self._inner_to_ext.pop(inner_id, None)
        return event

    async def completions(self):
        while True:
            event = await self.next_event()
            if event is None:
                return
            yield event

    def _review_hit(self, hit_id: int, decisions) -> Tuple[int, int]:
        if not self._live:
            if not self._replay or self._replay[0].get("type") != "review":
                record = self._replay[0] if self._replay else {"type": "<end>"}
                raise self._divergence(f"review of HIT {hit_id}", record)
            record = self._replay.popleft()
            if int(record["hit_id"]) != hit_id:
                raise JournalReplayError(
                    f"replay diverged at seq {record.get('seq')}: review of "
                    f"HIT {hit_id} but journal reviewed HIT {record['hit_id']}"
                )
            return (int(record["approved"]), int(record["rejected"]))
        inner_id = self._ext_to_inner.get(hit_id, hit_id)
        approved, rejected = self._inner.review_hit(inner_id, decisions)
        self._journal.append(
            {
                "type": "review",
                "hit_id": hit_id,
                "approved": int(approved),
                "rejected": int(rejected),
            }
        )
        return (approved, rejected)

    async def cancel(self, hit_id: int) -> bool:
        if not self._live:
            # The runtime never cancels during replay (cancellations are
            # journal records, consumed by next_event); treat a direct call
            # as settling the external HIT only.
            return self._outstanding.pop(hit_id, None) is not None
        hit = self._outstanding.pop(hit_id, None)
        self._issue_timeouts.pop(hit_id, None)
        if hit is None:
            return False
        inner_id = self._ext_to_inner.pop(hit_id, hit_id)
        self._inner_to_ext.pop(inner_id, None)
        cancelled = await self._inner.cancel(inner_id)
        self._journal.append(
            {"type": "cancel", "hit_id": hit_id, "cancelled": bool(cancelled)}
        )
        return True

    async def drain(self) -> List[HITCompletion]:
        leftovers: List[HITCompletion] = []
        if not self._live:
            # A journal that ends with drained leftovers belongs to a
            # campaign that finished before the crash: serve them back.
            while self._replay:
                record = self._replay.popleft()
                rtype = record.get("type")
                if rtype == "completion" and record.get("leftover"):
                    hit = self._pop_outstanding(record, "leftover completion")
                    leftovers.append(
                        HITCompletion(
                            hit=hit,
                            labels=_decode_labels(record["labels"]),
                            completed_at=float(record["completed_at"]),
                            assignments=(),
                        )
                    )
                elif rtype in ("cancel", "note"):
                    self._outstanding.pop(int(record.get("hit_id", -1)), None)
                else:
                    raise self._divergence("drain-phase records", record)
            # Journal fully consumed at drain time: the campaign is over;
            # nothing to adopt (remaining outstanding were cancelled in the
            # original run's close()).
            self._live = True
            self._outstanding.clear()
            self._issue_timeouts.clear()
            return leftovers
        for event in await self._inner.drain():
            event = self._ext_event(event)
            self._journal.append(
                {
                    "type": "completion",
                    "hit_id": event.hit.hit_id,
                    "labels": _encode_labels(event.labels),
                    "completed_at": event.completed_at,
                    "leftover": True,
                }
            )
            self._outstanding.pop(event.hit.hit_id, None)
            leftovers.append(event)
        for ext_id in list(self._outstanding):
            self._journal.append(
                {"type": "cancel", "hit_id": ext_id, "cancelled": True}
            )
            del self._outstanding[ext_id]
            self._issue_timeouts.pop(ext_id, None)
        return leftovers

    async def close(self) -> None:
        try:
            await self._inner.close()
        finally:
            self._journal.close()
