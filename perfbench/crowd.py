"""The benchmark's own platform kind: a seeded, perfect, timestamping crowd.

Each campaign's crowd is a :class:`PollingPlatformClient` over an
:class:`InMemoryCrowdBackend` on a virtual clock, registered with
``CampaignService(client_factories={KIND: factory})`` (and registered again
on the fresh service that recovers the journals).  Four things set it apart
from the built-in ``in-memory`` kind:

* It answers from the generated ground truth.  The spec's platform options
  carry the campaign's generator seed, not a script of 100k answers, so the
  spec and the journal header stay the size of the order.
* It timestamps each completion hand-off and each HIT submission.  A *tick*
  runs from the client handing the runtime a completion to the runtime's
  next request for an event: journaling, label application, sweep, frontier
  selection and HIT publish, without the crowd's own wait.
* It gives each workload its latency shape: a uniform spread, so a poll
  returns about one completion, or a constant, so one poll returns every
  HIT published in the same tick.
* Its clock yields to the event loop on every poll sleep.  ``ManualClock``
  advances without awaiting, which would let one campaign run to the end
  before any other tenant, or the HTTP API, gets the loop.

In the live phase the client also lets the run's host-speed sampler
(``calibration.py``) burst between ticks, outside every tick's window.

In a setup trial the platform accepts the campaign's first HIT and then
refuses the rest (:class:`TrialOver`), so the trial's campaign stops right
after the moment ``setup_s`` measures instead of publishing on.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.crowd.clients import InMemoryCrowdBackend, ManualClock, PollingPlatformClient
from repro.crowd.platform import HITCompletion
from repro.spec import CampaignSpec

from calibration import HostSpeed
from workloads import Campaign

#: The platform kind the benchmark registers.
KIND = "perfbench-crowd"


class TrialOver(RuntimeError):
    """A setup trial's platform refuses every HIT after the first."""


class YieldingClock(ManualClock):
    """A virtual clock whose ``sleep`` advances time *and* yields the loop."""

    async def sleep(self, dt: float) -> None:
        self.advance(max(dt, 0.0))
        await asyncio.sleep(0)


@dataclass
class Recorder:
    """What one campaign's crowd observed, in wall-clock ``perf_counter``."""

    clock: YieldingClock
    trial: bool = False
    #: Samples the host's speed between the live phase's ticks.
    host: Optional[HostSpeed] = None
    first_hit_at: Optional[float] = None
    ticks: List[float] = field(default_factory=list)


class TimedPollingClient(PollingPlatformClient):
    """A polling client that timestamps HIT submissions and tick bounds."""

    def __init__(self, backend, *, recorder: Recorder, **kwargs) -> None:
        super().__init__(backend, **kwargs)
        self._recorder = recorder
        self._handed_off_at: Optional[float] = None

    def _end_tick(self) -> None:
        if self._handed_off_at is not None:
            self._recorder.ticks.append(time.perf_counter() - self._handed_off_at)
            self._handed_off_at = None

    async def submit_pairs(self, pairs, *, timeout=None):
        recorder = self._recorder
        if recorder.trial and recorder.first_hit_at is not None:
            raise TrialOver("setup trial: the first HIT was published")
        hits = await super().submit_pairs(pairs, timeout=timeout)
        if hits and recorder.first_hit_at is None:
            recorder.first_hit_at = time.perf_counter()
        return hits

    async def next_event(self):
        self._end_tick()
        if self._recorder.host is not None:
            self._recorder.host.poll("live")
        event = await super().next_event()
        if isinstance(event, HITCompletion):
            self._handed_off_at = time.perf_counter()
        return event

    async def drain(self):
        # The campaign's last tick ends when the runtime drains instead of
        # asking for another event.
        self._end_tick()
        return await super().drain()


class Crowd:
    """The registry behind the platform kind: ground truth and recorders.

    ``campaigns`` maps each generator seed to its generated campaign;
    :meth:`factory` builds one timed client per spec from the seed in the
    spec's platform options.  :meth:`new_stage` starts a fresh set of
    recorders, one per campaign seed, for the next creation burst.
    """

    def __init__(self, campaigns: Dict[int, Campaign]) -> None:
        self.campaigns = campaigns
        self.recorders: Dict[int, Recorder] = {}
        self._trial = False
        self._host: Optional[HostSpeed] = None

    def new_stage(
        self, *, trial: bool = False, host: Optional[HostSpeed] = None
    ) -> Dict[int, Recorder]:
        """Fresh recorders for the next creation burst (a setup trial's
        platform refuses every HIT after the first; a ``host`` is sampled
        between ticks)."""
        self.recorders = {}
        self._trial = trial
        self._host = host
        return self.recorders

    @staticmethod
    def options(seed: int, latency) -> dict:
        kind, value = latency
        return {"seed": seed, "latency": [kind, value]}

    def factory(self, spec: CampaignSpec) -> PollingPlatformClient:
        options = spec.platform.options
        seed = int(options["seed"])
        campaign = self.campaigns[seed]
        kind, value = options["latency"]
        value = float(value)
        latency: Callable
        if kind == "spread":
            latency = lambda rng: rng.uniform(0.0, value)  # noqa: E731
        elif kind == "constant":
            latency = lambda rng: value  # noqa: E731
        else:
            raise ValueError(f"unknown latency shape {kind!r}")
        clock = YieldingClock()
        # The service builds one throwaway client to validate the kind
        # before it builds the campaign's own; each build gets a fresh
        # recorder and the last one built for a seed is the campaign's.
        recorder = Recorder(clock=clock, trial=self._trial, host=self._host)
        self.recorders[seed] = recorder
        backend = InMemoryCrowdBackend(
            answer_fn=campaign.answer, clock=clock.now, latency=latency, seed=seed
        )
        return TimedPollingClient(
            backend,
            recorder=recorder,
            batch_size=spec.platform.batch_size,
            n_assignments=spec.platform.n_assignments,
            poll_interval=1.0,
            clock=clock.now,
            sleep=clock.sleep,
        )
