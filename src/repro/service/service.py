"""CampaignService: many concurrent campaigns, one asyncio process.

The service hosts one :class:`~repro.engine.async_dispatch.CrowdRuntime`
coroutine per campaign, each isolated behind its own engine, platform
client, :class:`~repro.engine.async_dispatch.PauseGate`, and journal file
(``<root>/<campaign_id>/journal.jsonl``).  Campaigns are described by
:class:`~repro.spec.CampaignSpec` — the same JSON document the HTTP create
endpoint accepts is written as the journal header, so a journal is always
self-describing.

Lifecycle:

* :meth:`create` — journal the header, build the client from the spec's
  platform config, start the runtime task (state ``running``);
* :meth:`pause` / :meth:`resume` — flip the campaign's gate: paused
  campaigns issue no new HITs but still apply in-flight completions;
* :meth:`cancel` — cancel the task; the runtime's ``finally`` closes the
  client (flushing the journal) and the engine (releasing the distributed
  backend's worker hosts);
* :meth:`recover` — called on process start: every journal found under the
  root is replayed through a fresh runtime via
  :class:`~repro.service.journaling.JournalingPlatformClient`, rebuilding
  identical engine state, then the campaign continues live.  A journal
  holding a ``snapshot`` record recovers on the fast path: engine, client,
  and runtime state load directly from the snapshot and only the
  post-snapshot tail is replayed.
* :meth:`compact` — snapshot the campaign at the next safe point and
  atomically rewrite its journal as header + snapshot + tail, bounding
  both the journal's size and the next recovery's replay time.  The
  per-spec ``journal.compact_every`` knob does the same automatically
  every N records, and :meth:`pause` requests one opportunistically.

Platform clients are built by registered *factories* (``kind`` →
``factory(spec) -> PlatformClient``).  The built-in ``"in-memory"`` kind
runs fully offline and deterministically — answers scripted in the spec's
platform options, constant latency on a manual clock — and is what the
tests, the example, and the recovery differential use.  Deployments
register real factories (e.g. wrapping
:class:`~repro.crowd.platforms.mturk.MTurkBackend`) the same way.
"""

from __future__ import annotations

import asyncio
import enum
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.pairs import Label, Pair
from ..crowd.clients import (
    InMemoryCrowdBackend,
    ManualClock,
    PlatformClient,
    PollingPlatformClient,
)
from ..engine.async_dispatch import CrowdRuntime, PauseGate
from ..engine.engine import LabelingEngine
from ..spec import CampaignSpec
from .journal import DEFAULT_FSYNC_EVERY, JOURNAL_VERSION, Journal
from .journaling import JournalingPlatformClient

#: A platform client factory: builds a fresh client for one campaign run.
ClientFactory = Callable[[CampaignSpec], PlatformClient]

JOURNAL_FILENAME = "journal.jsonl"


class RecoveryError(RuntimeError):
    """Journals that :meth:`CampaignService.recover` could not host.

    Every other journal under the root was recovered and is running.

    Attributes:
        failures: ``journal path -> the exception it failed with``.
        recovered: ids of the campaigns that did recover.
    """

    def __init__(
        self, failures: Dict[str, Exception], recovered: List[str]
    ) -> None:
        self.failures = failures
        self.recovered = recovered
        causes = "; ".join(
            f"{path}: {type(exc).__name__}: {exc}" for path, exc in failures.items()
        )
        super().__init__(
            f"{len(failures)} journal(s) could not be recovered ({causes}); "
            f"recovered: {recovered}"
        )


class CampaignState(str, enum.Enum):
    RUNNING = "running"
    PAUSED = "paused"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


def in_memory_client_factory(spec: CampaignSpec) -> PlatformClient:
    """The built-in offline platform: scripted answers, deterministic order.

    Interprets these ``spec.platform.options`` keys:

    * ``answers``: list of ``[left, right, label]`` scripted crowd answers;
    * ``default_label``: label value for pairs not in ``answers`` (without
      it, an unscripted pair is an error — campaigns should fail loudly,
      not invent data);
    * ``latency``: constant completion latency in clock units (default 1.0);
    * ``poll_interval``: polling cadence (default 1.0);
    * ``seed``: backend RNG seed (default 0).

    Constant latency on a :class:`ManualClock` makes completion order equal
    creation order (FIFO), which is what lets a resumed campaign's adopted
    HITs complete in exactly the order the uninterrupted run would have
    produced — the property the recovery differential tests pin down.
    """
    options = dict(spec.platform.options)
    # Decoded lazily: a snapshot-recovered campaign with an empty tail may
    # never ask for a single answer, and a 100k-entry script would otherwise
    # dominate its client construction cost.
    scripted = options.get("answers", [])
    answers: Optional[Dict[Pair, Label]] = None
    default_label = options.get("default_label")

    def answer(pair: Pair) -> Label:
        nonlocal answers
        if answers is None:
            answers = {
                Pair(entry[0], entry[1]): Label(entry[2]) for entry in scripted
            }
        if pair in answers:
            return answers[pair]
        if default_label is not None:
            return Label(default_label)
        raise KeyError(f"no scripted answer for {pair!r} in platform options")

    clock = ManualClock()
    latency = float(options.get("latency", 1.0))
    backend = InMemoryCrowdBackend(
        answer_fn=answer,
        clock=clock.now,
        latency=lambda rng: latency,
        seed=int(options.get("seed", 0)),
    )
    return PollingPlatformClient(
        backend,
        batch_size=spec.platform.batch_size,
        n_assignments=spec.platform.n_assignments,
        poll_interval=float(options.get("poll_interval", 1.0)),
        clock=clock.now,
        sleep=clock.sleep,
    )


DEFAULT_CLIENT_FACTORIES: Dict[str, ClientFactory] = {
    "in-memory": in_memory_client_factory,
}


@dataclass
class Campaign:
    """One hosted campaign: runtime, gate, journal, and lifecycle state."""

    campaign_id: str
    spec: CampaignSpec
    journal_path: str
    engine: LabelingEngine
    runtime: CrowdRuntime
    client: JournalingPlatformClient
    gate: PauseGate
    state: CampaignState = CampaignState.RUNNING
    task: Optional["asyncio.Task"] = None
    error: Optional[str] = None
    recovered: bool = False
    #: seq of the latest snapshot record covering this campaign (0 = none;
    #: the header is seq 0, so a real snapshot always has seq >= 1).
    last_snapshot_seq: int = 0
    #: an operator (or pause) asked for a compaction at the next safe point.
    compact_requested: bool = False
    _journal: Journal = field(default=None, repr=False)  # type: ignore[assignment]
    _compacted: "asyncio.Event" = field(default=None, repr=False)  # type: ignore[assignment]

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the campaign (the HTTP inspect body)."""
        report = self.runtime.report
        try:
            journal_bytes = os.path.getsize(self.journal_path)
        except OSError:
            journal_bytes = 0
        return {
            "campaign_id": self.campaign_id,
            "state": self.state.value,
            "mode": self.spec.mode,
            "backend": self.engine.backend,
            "n_pairs": len(self.engine.pairs),
            "n_labeled": self.engine.n_labeled,
            "n_crowdsourced": self.engine.result.n_crowdsourced,
            "n_deduced": self.engine.result.n_deduced,
            "assignments_committed": report.assignments_committed,
            "n_completions": report.n_completions,
            "n_outstanding_hits": self.client.n_outstanding_hits,
            "replaying": self.client.replaying,
            "journal_seq": self._journal.next_seq - 1,
            "journal_bytes": journal_bytes,
            "last_snapshot_seq": self.last_snapshot_seq,
            "recovered": self.recovered,
            "error": self.error,
        }


class CampaignService:
    """Asyncio host for many concurrent, journaled campaigns.

    Args:
        root: directory holding one ``<campaign_id>/journal.jsonl`` per
            campaign (created on demand).
        client_factories: ``platform kind -> factory`` registry; merged
            over the built-ins (``"in-memory"``).
        fsync_every: journal fsync batching (see :class:`Journal`).

    All methods must be called from the event-loop thread that runs the
    campaigns (the service is asyncio-native, not thread-safe).
    """

    def __init__(
        self,
        root: str,
        *,
        client_factories: Optional[Dict[str, ClientFactory]] = None,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> None:
        self.root = str(root)
        self._factories = dict(DEFAULT_CLIENT_FACTORIES)
        if client_factories:
            self._factories.update(client_factories)
        self._fsync_every = fsync_every
        self._campaigns: Dict[str, Campaign] = {}
        self._id_counter = 0

    # ------------------------------------------------------------------
    # registry / lookup
    # ------------------------------------------------------------------
    def register_client_factory(self, kind: str, factory: ClientFactory) -> None:
        self._factories[kind] = factory

    def _make_inner_client(self, spec: CampaignSpec) -> PlatformClient:
        factory = self._factories.get(spec.platform.kind)
        if factory is None:
            raise ValueError(
                f"no platform client factory registered for kind "
                f"{spec.platform.kind!r} (registered: "
                f"{sorted(self._factories)})"
            )
        return factory(spec)

    def get(self, campaign_id: str) -> Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise KeyError(f"unknown campaign {campaign_id!r}")
        return campaign

    def list(self) -> List[Dict[str, Any]]:
        return [
            self._campaigns[cid].status() for cid in sorted(self._campaigns)
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _allocate_id(self) -> str:
        while True:
            self._id_counter += 1
            campaign_id = f"c{self._id_counter:04d}"
            if campaign_id not in self._campaigns and not os.path.exists(
                os.path.join(self.root, campaign_id)
            ):
                return campaign_id

    def _journal_fsync_every(self, spec: CampaignSpec) -> int:
        return (
            self._fsync_every
            if spec.journal.fsync_every is None
            else spec.journal.fsync_every
        )

    def _host(
        self,
        campaign_id: str,
        spec: CampaignSpec,
        engine: LabelingEngine,
        journal: Journal,
        replay_events: List[Dict[str, Any]],
        *,
        recovered: bool,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> Campaign:
        client = JournalingPlatformClient(
            self._make_inner_client(spec), journal, replay_events=replay_events
        )
        gate = PauseGate()
        runtime = CrowdRuntime(engine, client, spec=spec, gate=gate)
        if snapshot is not None:
            # Fast-path recovery: load state directly instead of replaying
            # the dropped prefix; only the post-snapshot tail replays.
            engine.restore_state(snapshot["engine"])
            client.restore_state(snapshot["client"])
            runtime.restore_state(snapshot["runtime"])
        campaign = Campaign(
            campaign_id=campaign_id,
            spec=spec,
            journal_path=journal.path,
            engine=engine,
            runtime=runtime,
            client=client,
            gate=gate,
            recovered=recovered,
            last_snapshot_seq=int(snapshot["seq"]) if snapshot else 0,
            _journal=journal,
            _compacted=asyncio.Event(),
        )
        runtime.on_safe_point = lambda: self._on_safe_point(campaign)
        self._campaigns[campaign_id] = campaign
        campaign.task = asyncio.get_running_loop().create_task(
            self._drive(campaign), name=f"campaign-{campaign_id}"
        )
        return campaign

    async def _drive(self, campaign: Campaign) -> None:
        try:
            await campaign.runtime.run()
        except asyncio.CancelledError:
            campaign.state = CampaignState.CANCELLED
            raise
        except Exception as exc:
            campaign.state = CampaignState.FAILED
            campaign.error = f"{type(exc).__name__}: {exc}"
        else:
            campaign.state = CampaignState.DONE

    async def create(
        self, spec: CampaignSpec, *, campaign_id: Optional[str] = None
    ) -> Campaign:
        """Start a new campaign from ``spec``; returns the hosted campaign.

        The journal header (the spec's JSON form) is durable before the
        first HIT is issued.

        Raises:
            ValueError: the id is taken, the platform kind is unregistered,
                or the spec's engine cannot be built (an unknown backend, a
                zero worker count); nothing is written to disk then.
        """
        if campaign_id is None:
            campaign_id = self._allocate_id()
        if campaign_id in self._campaigns:
            raise ValueError(f"campaign {campaign_id!r} already exists")
        # Fail on an unregistered platform kind, an unencodable spec or an
        # engine that cannot be built before any disk state: a journal whose
        # header cannot be hosted would fail every later recover().
        self._make_inner_client(spec)
        header = {
            "type": "header",
            "version": JOURNAL_VERSION,
            "campaign_id": campaign_id,
            "spec": spec.to_dict(),
        }
        engine = spec.build_engine()
        try:
            journal = Journal(
                os.path.join(self.root, campaign_id, JOURNAL_FILENAME),
                fsync_every=self._journal_fsync_every(spec),
            )
            journal.append(header)
            journal.flush()
        except BaseException:
            engine.close()
            raise
        return self._host(campaign_id, spec, engine, journal, [], recovered=False)

    async def recover(self) -> List[str]:
        """Replay every journal under the root; returns recovered ids.

        Campaigns already hosted in this process are skipped, so calling
        ``recover`` twice is safe.  Each journal is repaired
        (:meth:`Journal.read` truncates a torn final line), then either
        fast-pathed from its latest ``snapshot`` record (state loads
        directly; only the post-snapshot tail replays) or, without one,
        fully replayed through a fresh runtime to identical engine state —
        and continued live from where the dead process stopped.

        Raises:
            RecoveryError: after every journal was tried, when some could
                not be hosted (a corrupt journal, an undecodable spec, an
                engine that cannot be built).  It names each failed journal
                with its cause and carries the ids that did recover; those
                campaigns are running.
        """
        recovered: List[str] = []
        failures: Dict[str, Exception] = {}
        if not os.path.isdir(self.root):
            return recovered
        for campaign_id in sorted(os.listdir(self.root)):
            if campaign_id in self._campaigns:
                continue
            path = os.path.join(self.root, campaign_id, JOURNAL_FILENAME)
            if not os.path.isfile(path):
                continue
            try:
                self._recover_journal(campaign_id, path)
            except Exception as exc:
                failures[path] = exc
                continue
            recovered.append(campaign_id)
        if failures:
            raise RecoveryError(failures, recovered)
        return recovered

    def _recover_journal(self, campaign_id: str, path: str) -> None:
        """Host the campaign journaled at ``path``, releasing the journal
        and engine it opened if that fails."""
        header, events = Journal.read(path, repair=True)
        spec = CampaignSpec.from_dict(header["spec"], trusted_order=True)
        journal = Journal(
            path,
            fsync_every=self._journal_fsync_every(spec),
            # read() above just parsed and repaired this very file;
            # re-parsing a 100k-record journal to rediscover the next
            # seq would double recovery's fixed cost.
            resume_seq=(events[-1]["seq"] if events else header["seq"]) + 1,
        )
        try:
            snapshot = None
            for i in range(len(events) - 1, -1, -1):
                if events[i].get("type") == "snapshot":
                    snapshot = events[i]
                    events = events[i + 1:]
                    break
            engine = spec.build_engine()
            try:
                self._host(
                    campaign_id, spec, engine, journal, events,
                    recovered=True, snapshot=snapshot,
                )
            except BaseException:
                engine.close()
                raise
        except BaseException:
            journal.close()
            raise

    # ------------------------------------------------------------------
    # journal compaction
    # ------------------------------------------------------------------
    def _on_safe_point(self, campaign: Campaign) -> None:
        """Compaction policy, invoked at every runtime safe point.

        At a safe point the engine/client/runtime state is exactly the
        journaled record sequence, so a snapshot taken here covers
        precisely the records before it.  Never fires mid-replay: a
        snapshot then would disagree with the still-unconsumed tail.
        """
        if campaign.client.replaying:
            return
        due = campaign.compact_requested
        compact_every = campaign.spec.journal.compact_every
        if not due and compact_every is not None:
            behind = campaign._journal.next_seq - 1 - campaign.last_snapshot_seq
            due = behind >= compact_every
        if due:
            self._compact_campaign(campaign)

    def _compact_campaign(self, campaign: Campaign) -> int:
        """Append a snapshot record (unless one already sits at the tail)
        and atomically rewrite the journal; returns records dropped."""
        journal = campaign._journal
        dropped = 0
        if journal.next_seq > 1:  # something journaled beyond the header
            if campaign.last_snapshot_seq != journal.next_seq - 1:
                campaign.last_snapshot_seq = journal.append(
                    {
                        "type": "snapshot",
                        "last_seq": journal.next_seq - 1,
                        "engine": campaign.engine.snapshot_state(),
                        "client": campaign.client.snapshot_state(),
                        "runtime": campaign.runtime.snapshot_state(),
                    }
                )
                journal.flush()
            dropped = journal.compact()
        campaign.compact_requested = False
        campaign._compacted.set()
        return dropped

    async def compact(self, campaign_id: str) -> Campaign:
        """Snapshot + compact the campaign's journal; returns the campaign.

        A live campaign compacts at its next safe point (a parked paused
        campaign is poked through one); a finished (``done``) campaign
        compacts immediately through a reopened journal.  Failed or
        cancelled campaigns refuse: their runtime may have stopped between
        a publish and its journal record, so no consistent snapshot exists.
        """
        campaign = self.get(campaign_id)
        if campaign.task is not None and not campaign.task.done():
            campaign.compact_requested = True
            campaign._compacted.clear()
            campaign.gate.poke()
            waiter = asyncio.ensure_future(campaign._compacted.wait())
            try:
                await asyncio.wait(
                    [waiter, campaign.task],
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                waiter.cancel()
            if campaign._compacted.is_set():
                return campaign
            # The task finished before reaching another safe point — fall
            # through to the quiescent path below.
        if campaign.state in (CampaignState.FAILED, CampaignState.CANCELLED):
            raise RuntimeError(
                f"campaign {campaign_id!r} is {campaign.state.value}: its "
                "state may not match the journal, refusing to snapshot"
            )
        journal = campaign._journal
        reopened = journal.closed
        if reopened:
            # The runtime closed the journal when it finished; reopen it
            # just for the snapshot + rewrite.
            journal = Journal(
                journal.path,
                fsync_every=self._journal_fsync_every(campaign.spec),
            )
            campaign._journal = journal
        try:
            self._compact_campaign(campaign)
        finally:
            if reopened:
                journal.close()
        return campaign

    def pause(self, campaign_id: str) -> Campaign:
        """Stop issuing new HITs; in-flight completions still apply.

        For campaigns that opted into compaction (``journal.compact_every``
        in the spec), pausing also requests an opportunistic compaction: a
        pause is the natural moment to bound recovery time, and the next
        safe point the (still-consuming) runtime passes performs it.
        """
        campaign = self.get(campaign_id)
        if campaign.state is CampaignState.RUNNING:
            campaign.gate.pause()
            campaign.state = CampaignState.PAUSED
            if (
                campaign.spec.journal.compact_every is not None
                and campaign._journal.next_seq > 1
                and not campaign.client.replaying
            ):
                campaign.compact_requested = True
                campaign._compacted.clear()
        return campaign

    def resume(self, campaign_id: str) -> Campaign:
        """Resume a paused campaign (deferred publishes fire immediately)."""
        campaign = self.get(campaign_id)
        if campaign.state is CampaignState.PAUSED:
            campaign.gate.resume()
            campaign.state = CampaignState.RUNNING
        return campaign

    async def cancel(self, campaign_id: str) -> Campaign:
        """Cancel the campaign task and wait for its cleanup to finish.

        The runtime's ``finally`` closes the platform client (flushing and
        closing the journal) and the engine — releasing the distributed
        backend's worker hosts.  The journal survives, so a cancelled
        campaign's answers remain replayable.
        """
        campaign = self.get(campaign_id)
        if campaign.task is not None and not campaign.task.done():
            campaign.gate.resume()  # a paused task must wake up to cancel
            campaign.task.cancel()
            try:
                await campaign.task
            except asyncio.CancelledError:
                pass
        if campaign.state in (CampaignState.RUNNING, CampaignState.PAUSED):
            campaign.state = CampaignState.CANCELLED
        return campaign

    async def wait(self, campaign_id: str) -> Campaign:
        """Block until the campaign's task finishes; returns the campaign."""
        campaign = self.get(campaign_id)
        if campaign.task is not None:
            try:
                await campaign.task
            except asyncio.CancelledError:
                pass
        return campaign

    async def close(self) -> None:
        """Cancel every live campaign and wait for cleanup."""
        for campaign_id in list(self._campaigns):
            campaign = self._campaigns[campaign_id]
            if campaign.task is not None and not campaign.task.done():
                await self.cancel(campaign_id)
