"""Shared campaign fixtures for the service-layer tests.

One deterministic workload, scripted end to end: three entity clusters,
every candidate pair's crowd answer written into the spec's platform
options, so any two runs of the same spec — uninterrupted, truncated,
killed, or replayed — must land on the same engine state.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional

from repro.core.pairs import Label, Pair
from repro.crowd.clients import (
    InMemoryCrowdBackend,
    ManualClock,
    PollingPlatformClient,
)
from repro.spec import CampaignSpec, JournalConfig, PlatformConfig


def cluster_workload(
    n_clusters: int = 3, cluster_size: int = 5, window: int = 6
) -> tuple[list, list]:
    """(pairs, answers) over ``n_clusters`` blocks of consecutive ints."""
    members = {
        obj: ci
        for ci in range(n_clusters)
        for obj in range(ci * cluster_size, (ci + 1) * cluster_size)
    }
    objects = sorted(members)
    pairs = [
        (a, b)
        for i, a in enumerate(objects)
        for b in objects[i + 1 :]
        if b - a <= window
    ]
    answers = [
        [a, b, "matching" if members[a] == members[b] else "non-matching"]
        for a, b in pairs
    ]
    return pairs, answers


def make_spec(
    mode: str = "instant",
    *,
    backend: str = "auto",
    batch_size: int = 4,
    n_assignments: int = 1,
    n_clusters: int = 3,
    parallel_threshold: Optional[int] = None,
    n_workers: Optional[int] = None,
    spawn_local_workers: Optional[int] = None,
    extra_options: Optional[dict] = None,
    kind: str = "in-memory",
    journal: Optional[JournalConfig] = None,
) -> CampaignSpec:
    pairs, answers = cluster_workload(n_clusters=n_clusters)
    options = {"answers": answers}
    if extra_options:
        options.update(extra_options)
    return CampaignSpec(
        order=pairs,
        mode=mode,
        backend=backend,
        parallel_threshold=parallel_threshold,
        n_workers=n_workers,
        spawn_local_workers=spawn_local_workers,
        journal=journal or JournalConfig(),
        platform=PlatformConfig(
            kind=kind,
            batch_size=batch_size,
            n_assignments=n_assignments,
            options=options,
        ),
    )


def stepped_in_memory_factory(spec: CampaignSpec):
    """The in-memory platform, but yielding to the event loop every poll.

    The built-in ``in-memory`` client never suspends (every await resolves
    synchronously off the manual clock), so an entire campaign runs inside
    one task step and a test cannot pause/cancel/observe it mid-flight.
    This factory inserts one real loop yield per poll cycle, making the
    campaign interleave deterministically with the test coroutine.
    """
    options = dict(spec.platform.options)
    answers = {
        Pair(a, b): Label(label) for a, b, label in options.get("answers", [])
    }
    clock = ManualClock()
    backend = InMemoryCrowdBackend(
        answer_fn=lambda pair: answers[pair],
        clock=clock.now,
        latency=lambda rng: 1.0,
        seed=0,
    )

    async def stepped_sleep(seconds: float) -> None:
        await clock.sleep(seconds)
        # Several yields per poll: an HTTP round-trip (a handful of loop
        # ticks) always lands mid-campaign, never after it.
        for _ in range(5):
            await asyncio.sleep(0)

    return PollingPlatformClient(
        backend,
        batch_size=spec.platform.batch_size,
        n_assignments=spec.platform.n_assignments,
        poll_interval=1.0,
        clock=clock.now,
        sleep=stepped_sleep,
    )


def register_stepped(service) -> None:
    service.register_client_factory("stepped-in-memory", stepped_in_memory_factory)


def fingerprint_json(engine) -> str:
    """Canonical byte form of the engine state for differential asserts."""
    return json.dumps(engine.state_fingerprint(), sort_keys=True)


async def run_to_completion(service, spec, campaign_id=None):
    """Create a campaign and await it; returns the finished Campaign."""
    campaign = await service.create(spec, campaign_id=campaign_id)
    return await service.wait(campaign.campaign_id)


def journal_record_offsets(path: str) -> List[int]:
    """Byte offsets of each record boundary (end of line N), header included."""
    offsets = []
    pos = 0
    with open(path, "rb") as fh:
        for line in fh:
            pos += len(line)
            offsets.append(pos)
    return offsets


def with_backend_renamed(journal_bytes: bytes, backend: str) -> bytes:
    """``journal_bytes`` as if its campaign had run on ``backend``: the
    header's spec and every snapshot's engine state name it.  Takes whole
    records only (no torn final line)."""
    out = []
    for line in journal_bytes.splitlines():
        record = json.loads(line)
        if record["type"] == "header":
            record["spec"]["backend"] = backend
        elif record["type"] == "snapshot":
            record["engine"]["backend"] = backend
        out.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(out).encode("utf-8")
