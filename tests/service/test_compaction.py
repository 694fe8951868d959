"""Snapshot + journal compaction: bounded recovery, byte-identical state.

The differential mirrors ``test_recovery.py``: the uninterrupted,
never-compacted campaign is the frozen reference, and every compacted
variant — auto-compacted after every single record, compacted mid-run and
then crashed at every surviving record boundary, compacted on demand over
HTTP-equivalent service calls, or compacted after finishing — must land on
the byte-identical engine fingerprint with the same assignments spent.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import CampaignService
from repro.service.service import in_memory_client_factory
from repro.service.journal import JOURNAL_VERSION, Journal
from repro.spec import JournalConfig

from ..aio import run_async
from .helpers import (
    fingerprint_json,
    journal_record_offsets,
    make_spec,
    register_stepped,
    run_to_completion,
    with_backend_renamed,
)

MODES = ["instant", "rounds", "sequential", "hit-rounds", "flood"]


def reference_run(spec, tmp_path):
    """Uninterrupted, never-compacted campaign: (fingerprint, spend)."""

    async def scenario():
        service = CampaignService(tmp_path / "reference")
        campaign = await run_to_completion(service, spec, campaign_id="ref")
        assert campaign.state.value == "done", campaign.error
        fp = fingerprint_json(campaign.engine)
        spend = campaign.runtime.report.assignments_committed
        await service.close()
        return fp, spend

    return run_async(scenario())


def recover_and_finish(root, *, stepped=False):
    """Recover whatever lives under ``root``; return (fp, spend, campaign_id)."""

    async def scenario():
        service = CampaignService(root)
        if stepped:
            register_stepped(service)
        (campaign_id,) = await service.recover()
        campaign = await service.wait(campaign_id)
        assert campaign.state.value == "done", campaign.error
        fp = fingerprint_json(campaign.engine)
        spend = campaign.runtime.report.assignments_committed
        await service.close()
        return fp, spend, campaign_id

    return run_async(scenario())


@pytest.mark.parametrize("mode", MODES)
def test_compacting_at_every_record_is_exact(mode, tmp_path):
    """``compact_every=1`` snapshots + rewrites at every safe point the
    policy can reach — the maximal-compaction differential."""
    fp, spend = reference_run(make_spec(mode), tmp_path)

    async def scenario():
        service = CampaignService(tmp_path / "compacted")
        spec = make_spec(mode, journal=JournalConfig(compact_every=1))
        campaign = await run_to_completion(service, spec, campaign_id="cmp")
        assert campaign.state.value == "done", campaign.error
        assert campaign.last_snapshot_seq > 0
        got_fp = fingerprint_json(campaign.engine)
        got_spend = campaign.runtime.report.assignments_committed
        await service.close()
        return got_fp, got_spend

    got_fp, got_spend = run_async(scenario())
    assert got_fp == fp
    assert got_spend == spend

    # The journal on disk really was compacted: record 1 is the snapshot.
    path = tmp_path / "compacted" / "cmp" / "journal.jsonl"
    header, events = Journal.read(path)
    assert header["version"] == JOURNAL_VERSION
    assert events[0]["type"] == "snapshot"

    # And recovery from it fast-paths to the identical end state.
    got_fp, got_spend, _ = recover_and_finish(tmp_path / "compacted")
    assert got_fp == fp
    assert got_spend == spend


def test_compaction_requested_mid_run_lands_at_the_run_end(tmp_path):
    """A compaction requested while a run is open — here by the platform,
    as it hands over the first event of a poll that fetched several — fires
    only once the run's last event is applied: safe points are between
    runs, so a snapshot never covers part of a run."""
    fp, spend = reference_run(make_spec("instant"), tmp_path)
    seen = {}

    async def scenario():
        service = CampaignService(tmp_path / "mid-run")

        def factory(spec):
            client = in_memory_client_factory(spec)
            hand_over = client.next_event

            async def next_event():
                event = await hand_over()
                if client.n_ready_events and "requested_at" not in seen:
                    campaign = service.get("cmp")
                    campaign.compact_requested = True
                    # The seq the journal is about to stamp on this event.
                    seen["requested_at"] = campaign._journal.next_seq
                return event

            client.next_event = next_event
            return client

        compact = service._compact_campaign

        def compact_and_look(campaign):
            seen["in_run"] = campaign.runtime._in_run
            campaign._journal.flush()
            seen["journal"] = Journal.read(campaign.journal_path, repair=False)[1]
            return compact(campaign)

        service.register_client_factory("mid-run", factory)
        service._compact_campaign = compact_and_look
        spec = make_spec("instant", kind="mid-run")
        campaign = await run_to_completion(service, spec, campaign_id="cmp")
        assert campaign.state.value == "done", campaign.error
        got = fingerprint_json(campaign.engine)
        got_spend = campaign.runtime.report.assignments_committed
        await service.close()
        return got, got_spend

    assert run_async(scenario()) == (fp, spend)
    assert seen["in_run"] is False
    by_seq = {record["seq"]: record for record in seen["journal"]}
    assert by_seq[seen["requested_at"]].get("more") is True
    events = [r for r in seen["journal"] if r["type"] in ("completion", "expiry")]
    assert "more" not in events[-1], "the snapshot covers a run's last event"
    # The compacted journal recovers to the same end state.
    async def recover():
        service = CampaignService(
            tmp_path / "mid-run",
            client_factories={"mid-run": in_memory_client_factory},
        )
        (campaign_id,) = await service.recover()
        campaign = await service.wait(campaign_id)
        assert campaign.last_snapshot_seq > seen["requested_at"]
        got = fingerprint_json(campaign.engine)
        got_spend = campaign.runtime.report.assignments_committed
        await service.close()
        return got, got_spend

    assert run_async(recover()) == (fp, spend)


@pytest.mark.parametrize(
    "backend,kwargs",
    [
        ("monolithic", {}),
        ("vectorized", {}),
        ("parallel", {"parallel_threshold": 0, "n_workers": 2}),
    ],
)
def test_compacted_recovery_is_exact_on_every_backend(backend, kwargs, tmp_path):
    fp, spend = reference_run(make_spec("instant", backend=backend, **kwargs), tmp_path)

    async def scenario():
        service = CampaignService(tmp_path / "compacted")
        spec = make_spec(
            "instant",
            backend=backend,
            journal=JournalConfig(compact_every=2),
            **kwargs,
        )
        campaign = await run_to_completion(service, spec, campaign_id="cmp")
        assert campaign.state.value == "done", campaign.error
        await service.close()

    run_async(scenario())
    got_fp, got_spend, _ = recover_and_finish(tmp_path / "compacted")
    assert got_fp == fp
    assert got_spend == spend


@pytest.mark.parametrize("mode", MODES)
def test_crash_at_any_boundary_of_a_compacted_journal(mode, tmp_path):
    """Truncate the compacted journal at every record boundary (and torn
    mid-record): recovery must fast-path from the snapshot, replay the
    surviving tail, and finish byte-identical to the uncompacted run."""
    fp, spend = reference_run(make_spec(mode), tmp_path)

    async def compacting_run():
        service = CampaignService(tmp_path / "compacted")
        # Large enough that the last snapshot leaves a real tail behind.
        spec = make_spec(mode, journal=JournalConfig(compact_every=8))
        campaign = await run_to_completion(service, spec, campaign_id="cmp")
        assert campaign.state.value == "done", campaign.error
        await service.close()

    run_async(compacting_run())
    src = tmp_path / "compacted" / "cmp" / "journal.jsonl"
    journal_bytes = src.read_bytes()
    offsets = journal_record_offsets(src)
    cuts = offsets[:-1] + [offsets[-1] - 7]  # every boundary + a torn tail
    for i, cut in enumerate(cuts):
        root = tmp_path / f"crashed-{i}"
        campaign_dir = root / "cmp"
        campaign_dir.mkdir(parents=True)
        (campaign_dir / "journal.jsonl").write_bytes(journal_bytes[:cut])
        got_fp, got_spend, _ = recover_and_finish(root)
        assert got_fp == fp, f"{mode}: fingerprint diverged at cut {i}"
        assert got_spend == spend, f"{mode}: spend diverged at cut {i}"


@pytest.mark.parametrize("cut", ["whole", "snapshot"])
def test_compacted_journal_naming_the_sharded_backend_recovers(cut, tmp_path):
    """A compacted journal whose header and snapshot name ``sharded`` (the
    in-process backend later folded into ``monolithic``) recovers from its
    snapshot: engine snapshots are backend-portable.  Whole, the tail
    replays; cut right after the snapshot, the rest runs live.  Both land
    on the uninterrupted monolithic run's fingerprint and spend."""
    fp, spend = reference_run(make_spec("instant", backend="monolithic"), tmp_path)

    async def compacting_run():
        service = CampaignService(tmp_path / "compacted")
        spec = make_spec(
            "instant", backend="monolithic", journal=JournalConfig(compact_every=8)
        )
        campaign = await run_to_completion(service, spec, campaign_id="cmp")
        assert campaign.state.value == "done", campaign.error
        await service.close()

    run_async(compacting_run())
    src = tmp_path / "compacted" / "cmp" / "journal.jsonl"
    lines = with_backend_renamed(src.read_bytes(), "sharded").splitlines(
        keepends=True
    )
    header, snapshot = (json.loads(line) for line in lines[:2])
    assert header["spec"]["backend"] == "sharded"
    assert snapshot["type"] == "snapshot"
    assert snapshot["engine"]["backend"] == "sharded"
    root = tmp_path / "old"
    (root / "cmp").mkdir(parents=True)
    kept = lines if cut == "whole" else lines[:2]
    (root / "cmp" / "journal.jsonl").write_bytes(b"".join(kept))
    got_fp, got_spend, _ = recover_and_finish(root)
    assert got_fp == fp
    assert got_spend == spend


def test_on_demand_compact_of_a_running_campaign(tmp_path):
    fp, spend = reference_run(make_spec("instant", n_clusters=6), tmp_path)

    async def scenario():
        service = CampaignService(tmp_path / "live")
        register_stepped(service)
        campaign = await service.create(
            make_spec("instant", n_clusters=6, kind="stepped-in-memory"),
            campaign_id="live",
        )
        while campaign.runtime.report.n_completions < 3:
            await asyncio.sleep(0)
        await service.compact("live")
        assert campaign.last_snapshot_seq > 0
        status = campaign.status()
        assert status["last_snapshot_seq"] == campaign.last_snapshot_seq
        assert status["journal_bytes"] > 0
        await service.wait("live")
        assert campaign.state.value == "done", campaign.error
        got_fp = fingerprint_json(campaign.engine)
        got_spend = campaign.runtime.report.assignments_committed
        await service.close()
        return got_fp, got_spend, campaign.last_snapshot_seq

    got_fp, got_spend, snap_seq = run_async(scenario())
    assert got_fp == fp
    assert got_spend == spend

    # The on-disk journal was rewritten around the snapshot...
    _, events = Journal.read(tmp_path / "live" / "live" / "journal.jsonl")
    assert events[0]["type"] == "snapshot"
    assert events[0]["seq"] == snap_seq
    # ...and recovery from it still lands on the reference state.
    got_fp, got_spend, _ = recover_and_finish(tmp_path / "live", stepped=True)
    assert got_fp == fp
    assert got_spend == spend


def test_compact_while_paused_and_quiescent(tmp_path):
    """A paused campaign with nothing in flight is parked at the gate;
    ``compact`` pokes it through one safe point without resuming."""
    fp, _ = reference_run(make_spec("instant", n_clusters=6), tmp_path)

    async def scenario():
        service = CampaignService(tmp_path / "paused")
        register_stepped(service)
        campaign = await service.create(
            make_spec("instant", n_clusters=6, kind="stepped-in-memory"),
            campaign_id="p",
        )
        while campaign.client.n_outstanding_hits == 0:
            await asyncio.sleep(0)
        service.pause("p")
        while campaign.client.n_outstanding_hits > 0:
            await asyncio.sleep(0)
        for _ in range(20):  # let the runtime park at the gate
            await asyncio.sleep(0)
        await service.compact("p")
        assert campaign.last_snapshot_seq > 0
        assert campaign.state.value == "paused"  # poking must not resume
        issued_before = campaign.runtime.report.assignments_committed
        for _ in range(20):
            await asyncio.sleep(0)
        assert campaign.runtime.report.assignments_committed == issued_before
        service.resume("p")
        await service.wait("p")
        assert campaign.state.value == "done", campaign.error
        got_fp = fingerprint_json(campaign.engine)
        await service.close()
        return got_fp

    assert run_async(scenario()) == fp


def test_pause_requests_compaction_for_opted_in_campaigns(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path / "root")
        register_stepped(service)
        campaign = await service.create(
            make_spec(
                "instant",
                n_clusters=6,
                kind="stepped-in-memory",
                journal=JournalConfig(compact_every=10_000),
            ),
            campaign_id="p",
        )
        while campaign.runtime.report.n_completions < 2:
            await asyncio.sleep(0)
        assert campaign.last_snapshot_seq == 0  # threshold far away
        service.pause("p")
        # In-flight completions keep the loop moving past safe points.
        while campaign.last_snapshot_seq == 0:
            await asyncio.sleep(0)
        service.resume("p")
        await service.wait("p")
        assert campaign.state.value == "done", campaign.error
        await service.close()

    run_async(scenario())


def test_compact_after_completion_reopens_the_journal(tmp_path):
    fp, spend = reference_run(make_spec("rounds"), tmp_path)

    async def scenario():
        service = CampaignService(tmp_path / "done")
        campaign = await run_to_completion(
            service, make_spec("rounds"), campaign_id="d"
        )
        assert campaign.last_snapshot_seq == 0  # never compacted while live
        await service.compact("d")
        assert campaign.last_snapshot_seq > 0
        assert campaign._journal.closed  # closed again after the rewrite
        await service.close()

    run_async(scenario())
    _, events = Journal.read(tmp_path / "done" / "d" / "journal.jsonl")
    assert events[0]["type"] == "snapshot"
    got_fp, got_spend, _ = recover_and_finish(tmp_path / "done")
    assert got_fp == fp
    assert got_spend == spend


def test_compact_refuses_failed_campaigns(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path / "root")
        # Unscripted answers: the in-memory backend raises, the campaign fails.
        spec = make_spec("instant", extra_options={"answers": []})
        campaign = await service.create(spec, campaign_id="f")
        await service.wait("f")
        assert campaign.state.value == "failed"
        with pytest.raises(RuntimeError, match="failed"):
            await service.compact("f")
        await service.close()

    run_async(scenario())


def test_recovering_a_compacted_finished_campaign_is_pure_replay(tmp_path):
    async def first_life(root):
        service = CampaignService(root)
        spec = make_spec("instant", journal=JournalConfig(compact_every=3))
        campaign = await run_to_completion(service, spec, campaign_id="c")
        assert campaign.state.value == "done", campaign.error
        fp = fingerprint_json(campaign.engine)
        await service.close()
        return fp

    root = tmp_path / "root"
    fp = run_async(first_life(root))
    journal_path = root / "c" / "journal.jsonl"
    before = journal_path.read_bytes()
    got_fp, _, _ = recover_and_finish(root)
    assert got_fp == fp
    # A finished campaign's recovery journals nothing new.
    assert journal_path.read_bytes() == before


def test_status_of_a_snapshot_recovered_campaign_keeps_outcomes_deferred(tmp_path):
    """The crowdsourced/deduced counts a status reports come from the
    snapshot, so reading them leaves the outcome records of a vectorized
    snapshot restore unbuilt (with numpy absent the backend falls back to
    monolithic, whose restore replays the outcomes eagerly)."""
    root = tmp_path / "root"
    spec = make_spec("instant", backend="vectorized")

    async def first_life():
        service = CampaignService(root)
        campaign = await run_to_completion(service, spec, campaign_id="c")
        assert campaign.state.value == "done", campaign.error
        status = campaign.status()
        await service.compact("c")
        await service.close()
        return status

    async def second_life():
        service = CampaignService(root)
        await service.recover()
        campaign = await service.wait("c")
        assert campaign.state.value == "done", campaign.error
        status = campaign.status()
        result = campaign.engine.result
        deferred = result.__dict__.get("_restore_thunk") is not None
        scanned = sum(1 for o in result.outcomes.values() if o.crowdsourced)
        await service.close()
        return status, deferred, scanned, campaign.engine.backend

    live = run_async(first_life())
    status, deferred, scanned, backend = run_async(second_life())
    assert deferred == (backend == "vectorized")
    for key in ("n_crowdsourced", "n_deduced", "n_labeled"):
        assert status[key] == live[key]
    assert status["n_crowdsourced"] == scanned


def test_spec_journal_knobs_reach_the_journal(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path / "root")
        campaign = await run_to_completion(
            service,
            make_spec("instant", journal=JournalConfig(fsync_every=1)),
            campaign_id="c",
        )
        assert campaign._journal._fsync_every == 1
        await service.close()

    run_async(scenario())
