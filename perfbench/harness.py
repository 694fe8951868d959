"""One workload cycle against a real ``CampaignService``.

A *cycle* is what one workload does end to end:

1. **Setup trials.**  The workload's campaigns are created on a scratch
   service (by ``POST /campaigns`` or ``CampaignService.create``) and timed
   to each campaign's first HIT reaching the platform; the trial platform
   then refuses the next publish, which stops the campaign.  Each trial
   gives one ``setup_s`` sample: its slowest campaign.
2. **Live phase.**  The campaigns are created once more, on the service
   whose journals are kept, and run to ``done`` against the benchmark's
   crowd while open-loop generators ask for their status.
3. **Recovery.**  A fresh service recovers the live journals and runs each
   campaign to ``done`` again.  On ``distributed-rounds`` and
   ``burst-journal`` this replays the whole journal once; on the other
   workloads the journals are compacted first, so each of
   :data:`~workloads.SNAPSHOT_RECOVERIES` recoveries loads the snapshot.

The host's speed is sampled all through (``calibration.py``): in a window
of kernel bursts before and after the setup trials and around each
recovery, and between the live phase's ticks, so each phase's timings can
be scaled to the reference host speed.

Every check of the cycle's outputs is recorded in :attr:`Cycle.checks`; a
failed check makes the run incorrect and counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crowd.review import ApproveAll
from repro.service import CampaignHTTPServer, CampaignService
from repro.spec import CampaignSpec, JournalConfig, PlatformConfig

from calibration import HostSpeed
from crowd import KIND, Crowd
from spans import request_root
from workloads import SNAPSHOT_RECOVERIES, Workload, campaign_seed, generate

#: Load comes from one process with at most this many connections open.
N_CPUS = len(os.sched_getaffinity(0))

#: No single wait in a cycle may take longer than this many seconds.
WAIT_LIMIT_S = 150.0

#: ``GET /campaigns/<id>`` requests per second on the HTTP workloads.  Each
#: request needs several turns of an event loop the tenants keep busy, so
#: two connections carry only a few requests per second without a backlog.
HTTP_STATUS_RATE = 4.0


class BenchError(RuntimeError):
    """The harness could not drive the workload (not a failed output check)."""


async def http_request(
    address: Tuple[str, int], method: str, path: str, body: bytes = b""
) -> Tuple[int, dict]:
    """One HTTP/1.1 exchange on a fresh connection; returns (status, JSON)."""
    host, port = address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload)


@dataclass
class StatusLoad:
    """Open-loop status traffic, cycling through the tenants' campaigns.

    Request ``i`` is due at ``start + i / rate``.  Latency is timed from
    the due time, so a stall of the event loop shows up in every request
    it delays; ``late`` records how late each request was actually sent.

    With an ``address``, each request is a ``GET /campaigns/<id>`` on its
    own connection, at most ``N_CPUS`` open at once.  Without one, each
    request calls ``Campaign.status()`` on the service directly, when the
    event loop lets the generator run.
    """

    service: Optional[CampaignService]
    campaign_ids: List[str]
    rate: float
    address: Optional[Tuple[str, int]] = None
    latency: List[float] = field(default_factory=list)
    sent_latency: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    failed: int = 0
    _stopped: bool = False

    def stop(self) -> None:
        self._stopped = True

    async def run(self) -> None:
        slots = asyncio.Semaphore(N_CPUS)
        start = time.perf_counter()
        requests = []
        index = 0
        while not self._stopped:
            due = start + index / self.rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
                if self._stopped:
                    break
            if not self.campaign_ids:
                index += 1  # no campaign created yet
                continue
            campaign_id = self.campaign_ids[index % len(self.campaign_ids)]
            if self.address is None:
                request_root.set(f"status:{index}")
                sent = time.perf_counter()
                try:
                    status = self.service.get(campaign_id).status()
                    ok = status["campaign_id"] == campaign_id
                except Exception:  # a failed request, not a harness error
                    ok = False
                self._record(due, sent, ok)
            else:
                requests.append(
                    asyncio.ensure_future(self._get(slots, due, campaign_id))
                )
            index += 1
        await asyncio.gather(*requests)

    async def _get(
        self, slots: asyncio.Semaphore, due: float, campaign_id: str
    ) -> None:
        async with slots:
            sent = time.perf_counter()
            try:
                status, payload = await http_request(
                    self.address, "GET", f"/campaigns/{campaign_id}"
                )
            except (OSError, ValueError, IndexError):
                status, payload = 0, {}
            self._record(
                due, sent, status == 200 and payload.get("campaign_id") == campaign_id
            )

    def _record(self, due: float, sent: float, ok: bool) -> None:
        done = time.perf_counter()
        self.late.append(sent - due)
        self.latency.append(done - due)
        self.sent_latency.append(done - sent)
        self.failed += 0 if ok else 1


@dataclass
class Cycle:
    """What one cycle measured and checked."""

    setup: List[float] = field(default_factory=list)
    ticks: List[float] = field(default_factory=list)
    answers: int = 0
    live_s: float = 0.0
    status: Optional[StatusLoad] = None
    http: Optional[StatusLoad] = None
    recover: List[float] = field(default_factory=list)
    records_recovered: int = 0
    crowdsourced_pairs: int = 0
    assignments_paid: int = 0
    crowd_time: float = 0.0
    n_pairs: int = 0
    n_deduced: int = 0
    hit_pairs: int = 0
    hits: int = 0
    journal_bytes: int = 0
    reassignments: int = 0
    host: HostSpeed = field(default_factory=HostSpeed)
    checks: List[Tuple[str, bool]] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


def _fingerprint(engine) -> str:
    return json.dumps(engine.state_fingerprint(), sort_keys=True)


async def _within(awaitable, what: str):
    try:
        return await asyncio.wait_for(awaitable, WAIT_LIMIT_S)
    except asyncio.TimeoutError:
        raise BenchError(f"{what} took longer than {WAIT_LIMIT_S:.0f}s") from None


class Bench:
    """Generates a workload's inputs from a seed and runs its cycles.

    Args:
        workload: what to run.
        seed: the run's seed; each tenant's generator seed derives from it.
        workdir: directory for the journals (inside the checkout).

    :meth:`cycle` takes an optional tracer, which it tells which phase of
    the cycle is running.
    """

    def __init__(self, workload: Workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.seeds = [campaign_seed(seed, t) for t in range(workload.tenants)]
        self.campaigns = {s: generate(s, workload.shape) for s in self.seeds}
        self.crowd = Crowd(self.campaigns)
        # POST bodies are the load generator's own work: encoded once here.
        self.bodies = (
            {
                s: self._spec(s, self.campaigns[s].order).to_json().encode("utf-8")
                for s in self.seeds
            }
            if workload.via_http
            else {}
        )
        self.tracer = None
        self._roots = 0
        # The generated inputs and imported modules live for the whole run:
        # move them out of the collector's way, so its pauses are spent on
        # the service's own objects.  Each creation hands the program a
        # spec of fresh objects (decoded from the body, or built from a
        # copy of the order), which the collector still tracks.
        gc.collect()
        gc.freeze()

    def _spec(self, seed: int, order) -> CampaignSpec:
        workload = self.workload
        return CampaignSpec(
            order=order,
            mode=workload.mode,
            backend=workload.backend,
            # One shard worker: with the coordinator, one process per core
            # of a 2-CPU box (a worker per core spread timings 0.7-1.2).
            spawn_local_workers=1 if workload.backend == "distributed" else None,
            review=ApproveAll() if workload.review == "approve-all" else None,
            journal=JournalConfig(fsync_every=workload.fsync_every),
            platform=PlatformConfig(
                kind=KIND,
                batch_size=workload.batch_size,
                options=Crowd.options(seed, workload.latency),
            ),
        )

    # ------------------------------------------------------------------
    def _phase(self, name: str) -> None:
        if name != "other":
            # Each timed phase starts without the previous phase's garbage.
            gc.collect()
        request_root.set("")
        if self.tracer is not None:
            self.tracer.phase = name

    def _root(self) -> str:
        self._roots += 1
        return os.path.join(self.workdir, f"service-{self._roots}")

    def _service(self, root: str) -> CampaignService:
        return CampaignService(root, client_factories={KIND: self.crowd.factory})

    async def _create_all(
        self,
        service: CampaignService,
        address: Tuple[str, int],
        *,
        trial: bool,
        host: Optional[HostSpeed] = None,
        on_created=lambda campaign_id: None,
    ) -> Tuple[Dict[int, str], dict, Dict[int, float]]:
        """Create every tenant's campaign; returns the campaign ids, the
        crowd's recorders and when each create request was sent."""
        recorders = self.crowd.new_stage(trial=trial, host=host)
        slots = asyncio.Semaphore(N_CPUS)
        sent: Dict[int, float] = {}

        async def create(index: int, seed: int) -> str:
            if self.workload.via_http:
                async with slots:
                    sent[seed] = time.perf_counter()
                    status, payload = await http_request(
                        address, "POST", "/campaigns", self.bodies[seed]
                    )
                if status != 201:
                    raise BenchError(f"POST /campaigns returned {status}: {payload}")
                campaign_id = payload["campaign_id"]
            else:
                spec = self._spec(seed, self.campaigns[seed].fresh_order())
                sent[seed] = time.perf_counter()
                campaign = await service.create(spec, campaign_id=f"t{index:02d}")
                campaign_id = campaign.campaign_id
            on_created(campaign_id)
            return campaign_id

        ids = await _within(
            asyncio.gather(*(create(i, s) for i, s in enumerate(self.seeds))),
            "campaign creation",
        )
        return dict(zip(self.seeds, ids)), recorders, sent

    def _setup_time(self, recorders: dict, sent: Dict[int, float]) -> float:
        """The slowest campaign's create-to-first-HIT time."""
        if any(recorders[s].first_hit_at is None for s in self.seeds):
            raise BenchError("a campaign never published a HIT")
        return max(recorders[s].first_hit_at - sent[s] for s in self.seeds)

    async def _trial(self) -> float:
        self._phase("setup")
        root = self._root()
        service = self._service(root)
        server = CampaignHTTPServer(service)
        try:
            address = await server.start()
            ids, recorders, sent = await self._create_all(
                service, address, trial=True
            )
            # Each trial campaign stops at its second publish (TrialOver).
            await _within(
                asyncio.gather(*(service.wait(c) for c in ids.values())),
                "setup trial",
            )
            return self._setup_time(recorders, sent)
        finally:
            await service.close()
            await server.stop()
            shutil.rmtree(root, ignore_errors=True)

    # ------------------------------------------------------------------
    async def cycle(self, tracer=None) -> Cycle:
        """Run setup trials, the live phase and recovery once."""
        self.tracer = tracer
        result = Cycle()
        # The host's speed is sampled before and after the setup trials,
        # around each recovery and between the live phase's ticks.
        await result.host.window("setup")
        for _ in range(self.workload.setup_trials):
            result.setup.append(await self._trial())
        await result.host.window("setup")
        root = self._root()
        try:
            live = await self._live(root, result)
            await self._recover(root, live, result)
        finally:
            self._phase("other")
            shutil.rmtree(root, ignore_errors=True)
        return result

    async def _live(self, root: str, result: Cycle) -> Dict[str, object]:
        workload = self.workload
        self._phase("live")
        service = self._service(root)
        server = CampaignHTTPServer(service)
        address = await server.start()
        live: Dict[str, object] = {}
        host = result.host
        host.burst("live")
        sampled_s = host.busy_s
        try:
            # The status generators start before the campaigns: every
            # await in the harness may let a campaign run a whole round.
            loads = [StatusLoad(service, [], workload.status_rate)]
            if workload.via_http:
                loads.append(StatusLoad(service, [], HTTP_STATUS_RATE, address))
            load_tasks = [asyncio.ensure_future(load.run()) for load in loads]
            done_at: Dict[str, float] = {}

            def created(campaign_id: str) -> None:
                for load in loads:
                    load.campaign_ids.append(campaign_id)
                service.get(campaign_id).task.add_done_callback(
                    lambda _t: done_at.setdefault(campaign_id, time.perf_counter())
                )

            try:
                ids, recorders, sent = await self._create_all(
                    service, address, trial=False, host=host, on_created=created
                )
                await _within(
                    asyncio.gather(*(service.wait(c) for c in ids.values())),
                    "live phase",
                )
            finally:
                for load in loads:
                    load.stop()
                await asyncio.gather(*load_tasks)
                for load in loads:
                    # The cycle keeps the figures, not the service: a
                    # retained service would grow every later cycle's heap.
                    load.service = None
            result.setup.append(self._setup_time(recorders, sent))
            self._phase("other")
            first_hit = min(r.first_hit_at for r in recorders.values())
            # Less the host-speed samples taken meanwhile.
            sampled_s = host.busy_s - sampled_s
            result.live_s = max(done_at.values()) - first_hit - sampled_s
            host.burst("live")
            result.status = loads[0]
            result.http = loads[1] if workload.via_http else None
            for seed, campaign_id in ids.items():
                campaign = service.get(campaign_id)
                engine = campaign.engine
                report = campaign.runtime.report
                recorder = recorders[seed]
                result.ticks.extend(recorder.ticks)
                result.crowdsourced_pairs += engine.result.n_crowdsourced
                result.assignments_paid += report.assignments_committed
                result.crowd_time += recorder.clock.now()
                result.n_pairs += len(engine.pairs)
                result.n_deduced += engine.result.n_deduced
                result.hit_pairs += sum(len(batch) for batch in report.hit_batches)
                result.hits += len(report.hit_batches)
                result.journal_bytes += os.path.getsize(campaign.journal_path)
                result.check(f"{campaign_id} done", campaign.state.value == "done")
                result.check(
                    f"{campaign_id} labels equal ground truth",
                    engine.labeled == self.campaigns[seed].truth(),
                )
                result.check(
                    f"{campaign_id} crowdsourced + deduced = pairs",
                    engine.result.n_crowdsourced + engine.result.n_deduced
                    == len(engine.pairs),
                )
                if workload.backend == "distributed":
                    moved = len(engine.executor.reassignments)
                    result.reassignments += moved
                    result.check(f"{campaign_id} no shard reassignments", moved == 0)
                # Full replay is checked by the engine's state fingerprint;
                # a snapshot restore by the labels it brings back.
                live[campaign_id] = (
                    _fingerprint(engine)
                    if workload.recovery == "replay"
                    else engine.labeled
                )
            result.answers = result.crowdsourced_pairs
            if workload.recovery == "snapshot":
                for campaign_id in ids.values():
                    await service.compact(campaign_id)
        finally:
            self._phase("other")
            await service.close()
            await server.stop()
        return live

    async def _recover(
        self, root: str, live: Dict[str, object], result: Cycle
    ) -> None:
        for campaign_id in live:
            with open(os.path.join(root, campaign_id, "journal.jsonl"), "rb") as fh:
                result.records_recovered += sum(1 for _ in fh)
        replay = self.workload.recovery == "replay"
        await result.host.window("recover")
        for _ in range(1 if replay else SNAPSHOT_RECOVERIES):
            self._phase("recover")
            self.crowd.new_stage()
            service = self._service(root)
            try:
                start = time.perf_counter()
                recovered = await service.recover()
                await _within(
                    asyncio.gather(*(service.wait(c) for c in recovered)),
                    "recovery",
                )
                result.recover.append(time.perf_counter() - start)
                result.check(
                    "recovered every campaign", sorted(recovered) == sorted(live)
                )
                for campaign_id in recovered:
                    campaign = service.get(campaign_id)
                    result.check(
                        f"{campaign_id} done after recovery",
                        campaign.state.value == "done",
                    )
                    state = (
                        _fingerprint(campaign.engine)
                        if replay
                        else campaign.engine.labeled
                    )
                    result.check(
                        f"{campaign_id} recovered state equals live",
                        state == live.get(campaign_id),
                    )
            finally:
                await service.close()
            await result.host.window("recover")
