"""CampaignService lifecycle: tenancy, pause/resume, cancel, recovery edges."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.pairs import Label, Pair
from repro.service import CampaignService, CampaignState
from repro.service.journal import Journal
from repro.spec import CampaignSpec, PlatformConfig

from ..aio import run_async
from .helpers import (
    cluster_workload,
    make_spec,
    register_stepped,
    run_to_completion,
)


def test_campaign_runs_to_done_with_full_status(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path)
        campaign = await run_to_completion(service, make_spec("instant"))
        status = campaign.status()
        await service.close()
        return status

    status = run_async(scenario())
    assert status["state"] == "done"
    assert status["n_labeled"] == status["n_pairs"]
    assert status["n_crowdsourced"] + status["n_deduced"] == status["n_pairs"]
    assert status["n_deduced"] > 0, "transitivity must deduce something"
    assert status["n_outstanding_hits"] == 0
    assert status["replaying"] is False
    assert status["journal_seq"] > 0
    assert status["error"] is None


def test_tenants_are_isolated(tmp_path):
    """Concurrent campaigns with contradictory answer scripts must not
    cross-apply: each engine's labels follow its own script exactly."""
    pairs, answers = cluster_workload()
    all_matching = [[a, b, "matching"] for a, b, _ in answers]
    all_non_matching = [[a, b, "non-matching"] for a, b, _ in answers]

    def spec_for(script):
        return CampaignSpec(
            order=pairs,
            mode="instant",
            platform=PlatformConfig(
                kind="in-memory",
                batch_size=4,
                n_assignments=1,
                options={"answers": script},
            ),
        )

    async def scenario():
        service = CampaignService(tmp_path)
        a = await service.create(spec_for(all_matching))
        b = await service.create(spec_for(all_non_matching))
        await service.wait(a.campaign_id)
        await service.wait(b.campaign_id)
        labels_a = set(a.engine.labeled.values())
        labels_b = set(b.engine.labeled.values())
        ids = [c["campaign_id"] for c in service.list()]
        await service.close()
        return labels_a, labels_b, ids, a.state, b.state

    labels_a, labels_b, ids, state_a, state_b = run_async(scenario())
    assert state_a is CampaignState.DONE and state_b is CampaignState.DONE
    assert labels_a == {Label.MATCHING}
    assert labels_b == {Label.NON_MATCHING}
    assert ids == ["c0001", "c0002"]


def test_tenants_journal_into_separate_files(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path)
        a = await run_to_completion(service, make_spec("instant"))
        b = await run_to_completion(service, make_spec("rounds"))
        paths = (a.journal_path, b.journal_path)
        await service.close()
        return paths

    path_a, path_b = run_async(scenario())
    assert path_a != path_b
    header_a, _ = Journal.read(path_a)
    header_b, _ = Journal.read(path_b)
    assert header_a["campaign_id"] != header_b["campaign_id"]
    assert header_a["spec"]["mode"] == "instant"
    assert header_b["spec"]["mode"] == "rounds"


def _issue_count(campaign) -> int:
    campaign._journal.flush()
    _, events = Journal.read(campaign.journal_path)
    return sum(1 for e in events if e["type"] == "issue")


def test_pause_stops_issuance_but_applies_inflight_completions(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path)
        register_stepped(service)
        campaign = await service.create(
            make_spec("instant", n_clusters=6, kind="stepped-in-memory")
        )
        # Let the campaign issue its first HITs.
        while campaign.client.n_outstanding_hits == 0:
            await asyncio.sleep(0)
        service.pause(campaign.campaign_id)
        assert campaign.state is CampaignState.PAUSED
        issues_at_pause = _issue_count(campaign)
        completions_at_pause = campaign.runtime.report.n_completions

        # The in-flight HITs drain while paused...
        while campaign.client.n_outstanding_hits > 0:
            await asyncio.sleep(0)
        for _ in range(50):  # ...and the runtime must then idle, not publish
            await asyncio.sleep(0)
        drained_completions = campaign.runtime.report.n_completions
        issues_while_paused = _issue_count(campaign) - issues_at_pause
        assert campaign.state is CampaignState.PAUSED

        service.resume(campaign.campaign_id)
        await service.wait(campaign.campaign_id)
        final_state = campaign.state
        status = campaign.status()
        await service.close()
        return (
            completions_at_pause,
            drained_completions,
            issues_while_paused,
            final_state,
            status,
        )

    (completions_at_pause, drained, issued_paused, final_state, status) = run_async(
        scenario()
    )
    assert drained > completions_at_pause, "in-flight completions must apply"
    assert issued_paused == 0, "a paused campaign must not issue new HITs"
    assert final_state is CampaignState.DONE
    assert status["n_labeled"] == status["n_pairs"]


def _pause_before_first_issue(tmp_path, turns_before_pause: int):
    """Create, pause after ``turns_before_pause`` loop turns, idle, then
    resume: (HITs issued while paused, final state)."""

    async def scenario():
        service = CampaignService(tmp_path)
        campaign = await service.create(make_spec("instant"))
        for _ in range(turns_before_pause):
            await asyncio.sleep(0)
        service.pause(campaign.campaign_id)
        for _ in range(50):
            await asyncio.sleep(0)
        issued = _issue_count(campaign)
        service.resume(campaign.campaign_id)
        await service.wait(campaign.campaign_id)
        state = campaign.state
        await service.close()
        return issued, state

    return run_async(scenario())


def test_pause_before_first_issue_defers_everything(tmp_path):
    issued, state = _pause_before_first_issue(tmp_path, 0)  # task never ran
    assert issued == 0
    assert state is CampaignState.DONE


def test_pause_during_the_start_yield_defers_everything(tmp_path):
    """The runtime yields before its first selection; a pause that lands in
    that turn holds the first publish until resume."""
    issued, state = _pause_before_first_issue(tmp_path, 1)
    assert issued == 0
    assert state is CampaignState.DONE


def test_cancel_releases_the_worker_hosts(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path)
        register_stepped(service)
        campaign = await service.create(
            make_spec(
                "instant",
                backend="distributed",
                spawn_local_workers=2,
                kind="stepped-in-memory",
            )
        )
        assert campaign.engine.backend == "distributed"
        executor = campaign.engine.executor
        assert not executor.closed
        while campaign.client.n_outstanding_hits == 0:
            await asyncio.sleep(0)
        await service.cancel(campaign.campaign_id)
        state, closed = campaign.state, executor.closed
        await service.close()
        return state, closed

    state, closed = run_async(scenario())
    assert state is CampaignState.CANCELLED
    assert closed, "cancel must close the engine and its worker processes"


def test_cancelled_campaign_journal_survives_and_recovers(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path)
        register_stepped(service)
        campaign = await service.create(
            make_spec("instant", kind="stepped-in-memory")
        )
        while campaign.client.n_outstanding_hits == 0:
            await asyncio.sleep(0)
        await service.cancel(campaign.campaign_id)
        cid = campaign.campaign_id

        revived = CampaignService(tmp_path)
        register_stepped(revived)
        recovered = await revived.recover()
        assert recovered == [cid]
        resumed = await revived.wait(cid)
        state = resumed.state
        n_labeled, n_pairs = resumed.engine.n_labeled, len(resumed.engine.pairs)
        await revived.close()
        return state, n_labeled, n_pairs

    state, n_labeled, n_pairs = run_async(scenario())
    assert state is CampaignState.DONE
    assert n_labeled == n_pairs


def test_create_with_unregistered_platform_kind_leaves_no_disk_state(tmp_path):
    spec = make_spec("instant")
    bad = CampaignSpec.from_dict(
        {**spec.to_dict(), "platform": {"kind": "no-such-platform"}}
    )

    async def scenario():
        service = CampaignService(tmp_path / "root")
        with pytest.raises(ValueError, match="no platform client factory"):
            await service.create(bad)
        return list((tmp_path / "root").glob("*")) if (
            tmp_path / "root"
        ).exists() else []

    assert run_async(scenario()) == []


def test_recover_skips_already_hosted_campaigns(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path)
        campaign = await run_to_completion(service, make_spec("instant"))
        # recover() on the same service must not double-host the campaign
        assert await service.recover() == []
        assert len(service.list()) == 1
        await service.close()
        return campaign.campaign_id

    run_async(scenario())


def test_duplicate_campaign_id_rejected(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path)
        await service.create(make_spec("instant"), campaign_id="dup")
        with pytest.raises(ValueError, match="already exists"):
            await service.create(make_spec("instant"), campaign_id="dup")
        await service.close()

    run_async(scenario())


def test_concurrent_creates_with_one_id_leave_one_campaign(tmp_path):
    async def scenario():
        service = CampaignService(tmp_path)
        outcomes = await asyncio.gather(
            service.create(make_spec("instant"), campaign_id="x"),
            service.create(make_spec("instant"), campaign_id="x"),
            return_exceptions=True,
        )
        errors = [o for o in outcomes if isinstance(o, Exception)]
        assert len(errors) == 1 and "already exists" in str(errors[0])
        await service.wait("x")
        listed = service.list()
        await service.close()
        return listed

    assert [c["campaign_id"] for c in run_async(scenario())] == ["x"]
    header, events = Journal.read(str(tmp_path / "x" / "journal.jsonl"))
    assert header["campaign_id"] == "x"
    assert not any(e["type"] == "header" for e in events)
