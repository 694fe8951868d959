"""The tentpole acceptance: kill a campaign anywhere, replay, land identical.

Every test here runs the same differential: an uninterrupted campaign's
final engine state (labels, partition, frontier, published set, spend) is
the frozen reference; a campaign whose process "dies" — journal truncated
at a record boundary, torn mid-record, or the process actually SIGKILLed —
must recover to the byte-identical fingerprint with the same assignments
spent, across every runtime mode and engine backend.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.service import CampaignService, RecoveryError
from repro.service.journal import Journal

from ..aio import run_async
from ..worker_hosts import SHARED_HOSTS
from .helpers import (
    fingerprint_json,
    journal_record_offsets,
    make_spec,
    run_to_completion,
    with_backend_renamed,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"

MODES = ["instant", "rounds", "sequential", "hit-rounds", "flood"]


def reference_run(spec, tmp_path):
    """Uninterrupted campaign: (fingerprint_json, assignments, journal bytes)."""

    async def scenario():
        service = CampaignService(tmp_path / "reference")
        campaign = await run_to_completion(service, spec, campaign_id="ref")
        assert campaign.state.value == "done", campaign.error
        fp = fingerprint_json(campaign.engine)
        spend = campaign.runtime.report.assignments_committed
        await service.close()
        return fp, spend

    fp, spend = run_async(scenario())
    journal_bytes = (tmp_path / "reference" / "ref" / "journal.jsonl").read_bytes()
    return fp, spend, journal_bytes


def recover_truncated(journal_bytes, cut: int, tmp_path, tag: str):
    """Drop a truncated journal into a fresh root and recover it."""
    root = tmp_path / f"recovered-{tag}"
    campaign_dir = root / "crashed"
    campaign_dir.mkdir(parents=True)
    (campaign_dir / "journal.jsonl").write_bytes(journal_bytes[:cut])

    async def scenario():
        service = CampaignService(root)
        recovered = await service.recover()
        assert recovered == ["crashed"]
        campaign = await service.wait("crashed")
        assert campaign.state.value == "done", campaign.error
        assert campaign.recovered
        fp = fingerprint_json(campaign.engine)
        spend = campaign.runtime.report.assignments_committed
        await service.close()
        return fp, spend

    return run_async(scenario())


@pytest.mark.parametrize("mode", MODES)
def test_crash_at_any_record_boundary_resumes_identical(mode, tmp_path):
    spec = make_spec(mode)
    fp, spend, journal_bytes = reference_run(spec, tmp_path)
    offsets = journal_record_offsets(
        tmp_path / "reference" / "ref" / "journal.jsonl"
    )
    assert len(offsets) >= 4, "workload too small to exercise recovery"
    for i, cut in enumerate(offsets[:-1]):  # after header .. before last record
        got_fp, got_spend = recover_truncated(journal_bytes, cut, tmp_path, f"{i}")
        assert got_fp == fp, f"{mode}: fingerprint diverged at record {i}"
        # Replay never re-charges budget for journaled work; the resumed
        # run's total spend equals the uninterrupted run's.
        assert got_spend == spend, f"{mode}: spend diverged at record {i}"


@pytest.mark.parametrize("mode", ["instant", "rounds", "hit-rounds", "flood"])
def test_crash_inside_a_run_resumes_identical(mode, tmp_path):
    """The in-memory platform completes a burst's HITs in one poll, so the
    runtime applies them as one run and journals ``"more": true`` on every
    event of it but the last.  A crash at each boundary inside a run — and
    the same cut with a torn partial record behind it — resumes to the
    uninterrupted fingerprint and spend: the replay continues the run live,
    where the journal stops."""
    spec = make_spec(mode)
    fp, spend, journal_bytes = reference_run(spec, tmp_path)
    path = tmp_path / "reference" / "ref" / "journal.jsonl"
    records = [json.loads(line) for line in journal_bytes.splitlines()]
    inside = [
        offset
        for offset, record in zip(journal_record_offsets(path), records)
        if record.get("more")
    ]
    assert inside, f"{mode}: no poll returned several events"
    for i, cut in enumerate(inside):
        got = recover_truncated(journal_bytes, cut, tmp_path, f"cut-{i}")
        assert got == (fp, spend), f"{mode}: diverged inside a run at {cut}"
        torn = journal_bytes[:cut] + b'{"seq": 99999, "type": "compl'
        with pytest.warns(UserWarning, match="torn final line"):
            got = recover_truncated(torn, len(torn), tmp_path, f"torn-{i}")
        assert got == (fp, spend), f"{mode}: torn run diverged at {cut}"


@pytest.mark.parametrize("cut", ["whole", "half"])
@pytest.mark.parametrize("mode", ["instant", "hit-rounds"])
def test_version_2_journal_recovers_to_its_recorded_fingerprint(
    mode, cut, tmp_path
):
    """A journal written before run boundaries were journaled (format v2:
    the runtime applied every event on its own, and no record carries a
    run flag) replays as runs of one.  Applying its polls as runs would
    re-publish other HITs than it journaled (instant mode re-selects after
    every event) and stop with a replay error.  The fixture's whole
    journal is a pure replay; cut in half, the rest of the campaign runs
    live.  Both reach the fingerprint recorded with the journal."""
    journal_bytes = (FIXTURES / f"journal-v2-{mode}.jsonl").read_bytes()
    assert b'"more"' not in journal_bytes
    assert json.loads(journal_bytes.splitlines()[0])["version"] == 2
    recorded = json.loads((FIXTURES / "journal-v2-fingerprints.json").read_text())
    expected = json.dumps(recorded[mode], sort_keys=True)
    n_records = len(journal_bytes.splitlines())
    if cut == "whole":
        end = len(journal_bytes)
    else:
        offsets = [i + 1 for i, byte in enumerate(journal_bytes) if byte == 0x0A]
        end = offsets[len(offsets) // 2]
    got_fp, _ = recover_truncated(journal_bytes, end, tmp_path, cut)
    assert got_fp == expected
    if cut == "whole":
        _, events = Journal.read(
            str(tmp_path / f"recovered-{cut}" / "crashed" / "journal.jsonl")
        )
        assert len(events) + 1 == n_records, "a pure replay journals nothing"


@pytest.mark.parametrize(
    "backend,kwargs",
    [
        ("monolithic", {}),
        ("vectorized", {}),
        ("distributed", {"spawn_local_workers": 2}),
        # Running hosts named by address: recovery dials them again.
        ("distributed", {"workers": SHARED_HOSTS}),
    ],
)
def test_torn_journal_resumes_identical_on_every_backend(backend, kwargs, tmp_path):
    spec = make_spec("instant", backend=backend, **kwargs)
    fp, spend, journal_bytes = reference_run(spec, tmp_path)
    offsets = journal_record_offsets(
        tmp_path / "reference" / "ref" / "journal.jsonl"
    )
    # Crash mid-write: half the records, then a torn partial JSON line.
    cut = offsets[len(offsets) // 2]
    torn = journal_bytes[:cut] + b'{"seq": 99999, "type": "comp'
    with pytest.warns(UserWarning, match="torn final line"):
        got_fp, got_spend = recover_truncated(torn, len(torn), tmp_path, backend)
    assert got_fp == fp
    assert got_spend == spend


@pytest.mark.parametrize("cut", ["whole", "half"])
def test_journal_naming_the_sharded_backend_recovers_as_monolithic(cut, tmp_path):
    """A journal header may name ``sharded``, the in-process backend later
    folded into ``monolithic``.  Such a journal replays in full (whole) or
    replays its first half and runs the rest live (half), and lands on the
    uninterrupted monolithic run's byte-identical fingerprint and spend."""
    fp, spend, journal_bytes = reference_run(
        make_spec("instant", backend="monolithic"), tmp_path
    )
    old = with_backend_renamed(journal_bytes, "sharded")
    header = json.loads(old.splitlines()[0])
    assert header["spec"]["backend"] == "sharded"
    if cut == "whole":
        end = len(old)
    else:
        offsets = [i + 1 for i, byte in enumerate(old) if byte == 0x0A]
        end = offsets[len(offsets) // 2]
    assert recover_truncated(old, end, tmp_path, cut) == (fp, spend)


@pytest.mark.parametrize("cut", ["whole", "half"])
def test_journal_naming_the_parallel_backend_recovers_on_auto(cut, tmp_path):
    """The fixture journal was recorded on the retired pipe-worker
    ``parallel`` backend (instant mode, ``parallel_threshold: 0``,
    ``n_workers: 2``).  Its header decodes to ``auto``: replayed whole, or
    half replayed and the rest run live, it reaches the fingerprint and
    spend recorded with it."""
    journal_bytes = (FIXTURES / "journal-v3-parallel-instant.jsonl").read_bytes()
    spec = json.loads(journal_bytes.splitlines()[0])["spec"]
    assert (spec["backend"], spec["parallel_threshold"], spec["n_workers"]) == (
        "parallel", 0, 2
    )
    recorded = json.loads(
        (FIXTURES / "journal-v3-parallel-fingerprint.json").read_text()
    )
    if cut == "whole":
        end = len(journal_bytes)
    else:
        offsets = [i + 1 for i, byte in enumerate(journal_bytes) if byte == 0x0A]
        end = offsets[len(offsets) // 2]
    root = tmp_path / cut
    (root / "c1").mkdir(parents=True)
    (root / "c1" / "journal.jsonl").write_bytes(journal_bytes[:end])

    async def scenario():
        service = CampaignService(root)
        assert await service.recover() == ["c1"]
        campaign = await service.wait("c1")
        assert campaign.state.value == "done", campaign.error
        assert campaign.spec.backend == "auto"
        assert campaign.engine.backend == "monolithic"
        got = (
            fingerprint_json(campaign.engine),
            campaign.runtime.report.assignments_committed,
        )
        await service.close()
        return got

    assert run_async(scenario()) == (
        json.dumps(recorded["fingerprint"], sort_keys=True),
        recorded["assignments_committed"],
    )


KILLED_CHILD = textwrap.dedent(
    """
    import asyncio, os, sys
    from repro.service import CampaignService
    from repro.spec import CampaignSpec

    async def main():
        spec = CampaignSpec.from_json(sys.stdin.read())
        service = CampaignService(sys.argv[1])
        campaign = await service.create(spec, campaign_id="victim")
        # Run until a healthy amount of work is journaled, then die hard:
        # no flush, no close, no atexit — exactly a machine crash.
        while campaign._journal.next_seq < 12:
            await asyncio.sleep(0)
        os.kill(os.getpid(), 9)

    asyncio.run(main())
    """
)


def test_sigkilled_campaign_recovers_identical(tmp_path):
    """A real process, really SIGKILLed mid-campaign, really recovered."""
    spec = make_spec("instant")
    fp, spend, _ = reference_run(spec, tmp_path)

    root = tmp_path / "killed"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_CHILD, str(root)],
        input=spec.to_json(),
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    journal_path = root / "victim" / "journal.jsonl"
    assert journal_path.exists(), "the child died before journaling anything"
    # The journal may end in a torn line (fsync batching + SIGKILL).
    import warnings

    async def scenario():
        service = CampaignService(root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            recovered = await service.recover()
        assert recovered == ["victim"]
        campaign = await service.wait("victim")
        assert campaign.state.value == "done", campaign.error
        got = fingerprint_json(campaign.engine)
        got_spend = campaign.runtime.report.assignments_committed
        await service.close()
        return got, got_spend

    got_fp, got_spend = run_async(scenario())
    assert got_fp == fp
    assert got_spend == spend


def test_recovering_a_finished_campaign_is_a_pure_replay(tmp_path):
    """A journal of a completed campaign replays to DONE without any new
    platform traffic (journal_seq does not advance)."""
    spec = make_spec("instant")
    fp, spend, journal_bytes = reference_run(spec, tmp_path)
    root = tmp_path / "finished"
    (root / "c1").mkdir(parents=True)
    (root / "c1" / "journal.jsonl").write_bytes(journal_bytes)
    seq_before = len(journal_record_offsets(root / "c1" / "journal.jsonl"))

    async def scenario():
        service = CampaignService(root)
        await service.recover()
        campaign = await service.wait("c1")
        assert campaign.state.value == "done", campaign.error
        got = fingerprint_json(campaign.engine)
        await service.close()
        return got

    assert run_async(scenario()) == fp
    _, events = Journal.read(str(root / "c1" / "journal.jsonl"))
    assert len(events) + 1 == seq_before, "pure replay must not journal anew"


def _header_spec_overridden(journal_bytes: bytes, **fields) -> bytes:
    """``journal_bytes`` with ``fields`` set in the header's spec."""
    lines = journal_bytes.splitlines(keepends=True)
    header = json.loads(lines[0])
    header["spec"].update(fields)
    return (json.dumps(header, sort_keys=True) + "\n").encode("utf-8") + b"".join(
        lines[1:]
    )


@pytest.mark.parametrize(
    "damage, cause",
    [
        pytest.param(
            lambda good: good.replace(b"\n", b"\n{not json\n", 2),
            "JournalCorruptError",
            id="corrupt",
        ),
        pytest.param(
            lambda good: _header_spec_overridden(good, mode="bogus"),
            "SpecError",
            id="undecodable-spec",
        ),
        pytest.param(
            lambda good: _header_spec_overridden(
                good, backend="distributed", spawn_local_workers=0
            ),
            "ValueError",
            id="unbuildable-engine",
        ),
    ],
)
def test_a_bad_journal_does_not_stop_the_others(damage, cause, tmp_path):
    """A journal that cannot be hosted sorts first under the root; the one
    after it still recovers to its uninterrupted fingerprint, and the
    error names the bad journal and carries the recovered id."""
    spec = make_spec("instant")
    fp, spend, journal_bytes = reference_run(spec, tmp_path)
    offsets = journal_record_offsets(
        tmp_path / "reference" / "ref" / "journal.jsonl"
    )
    root = tmp_path / "mixed"
    (root / "a-bad").mkdir(parents=True)
    (root / "b-good").mkdir()
    bad_path = root / "a-bad" / "journal.jsonl"
    bad_path.write_bytes(damage(journal_bytes))
    (root / "b-good" / "journal.jsonl").write_bytes(journal_bytes[: offsets[2]])

    async def scenario():
        service = CampaignService(root)
        with pytest.raises(RecoveryError) as info:
            await service.recover()
        error = info.value
        assert error.recovered == ["b-good"]
        assert list(error.failures) == [str(bad_path)]
        assert type(error.failures[str(bad_path)]).__name__ == cause
        assert str(bad_path) in str(error) and cause in str(error)
        campaign = await service.wait("b-good")
        assert campaign.state.value == "done", campaign.error
        got = fingerprint_json(campaign.engine)
        got_spend = campaign.runtime.report.assignments_committed
        await service.close()
        return got, got_spend

    assert run_async(scenario()) == (fp, spend)
