"""The HTTP control surface: routes, status codes, and error bodies."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.engine import must_crowdsource_frontier
from repro.service import CampaignHTTPServer, CampaignService
from repro.spec import CampaignSpec, PlatformConfig

from ..aio import run_async
from .helpers import make_spec, register_stepped, stepped_in_memory_factory


async def http_request(host, port, method, path, body: str = ""):
    reader, writer = await asyncio.open_connection(host, port)
    payload = body.encode("utf-8")
    writer.write(
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n".encode("ascii") + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, doc = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(doc)


def run_with_server(tmp_path, scenario):
    """Run ``scenario(service, request)`` against a live server."""
    async def main():
        service = CampaignService(tmp_path)
        register_stepped(service)
        server = CampaignHTTPServer(service)
        host, port = await server.start()

        async def request(method, path, body=""):
            return await http_request(host, port, method, path, body)

        try:
            return await scenario(service, request)
        finally:
            await server.stop()
            await service.close()

    return run_async(main())


def test_create_inspect_list_lifecycle(tmp_path):
    async def scenario(service, request):
        status, created = await request(
            "POST", "/campaigns", make_spec("instant").to_json()
        )
        assert status == 201
        cid = created["campaign_id"]
        assert created["state"] == "running"
        assert created["n_pairs"] > 0

        status, listed = await request("GET", "/campaigns")
        assert status == 200
        assert [c["campaign_id"] for c in listed["campaigns"]] == [cid]

        await service.wait(cid)
        status, snap = await request("GET", f"/campaigns/{cid}")
        assert status == 200
        assert snap["state"] == "done"
        assert snap["n_labeled"] == snap["n_pairs"]
        # trailing slash resolves to the same route
        status, _ = await request("GET", f"/campaigns/{cid}/")
        assert status == 200

    run_with_server(tmp_path, scenario)


def test_pause_resume_cancel_actions(tmp_path):
    async def scenario(service, request):
        _, created = await request(
            "POST",
            "/campaigns",
            make_spec("instant", n_clusters=12, kind="stepped-in-memory").to_json(),
        )
        cid = created["campaign_id"]
        status, paused = await request("POST", f"/campaigns/{cid}/pause")
        assert (status, paused["state"]) == (200, "paused")
        status, resumed = await request("POST", f"/campaigns/{cid}/resume")
        assert (status, resumed["state"]) == (200, "running")
        status, cancelled = await request("POST", f"/campaigns/{cid}/cancel")
        assert (status, cancelled["state"]) == (200, "cancelled")

    run_with_server(tmp_path, scenario)


def test_error_statuses(tmp_path):
    async def scenario(service, request):
        # 400: body is not a spec
        status, body = await request("POST", "/campaigns", "{not json")
        assert status == 400 and "invalid campaign spec" in body["error"]
        # 400: spec is valid JSON but an unregistered platform kind
        bad = json.loads(make_spec("instant").to_json())
        bad["platform"]["kind"] = "no-such-kind"
        status, body = await request("POST", "/campaigns", json.dumps(bad))
        assert status == 400 and "no platform client factory" in body["error"]
        # 404: unknown campaign / unknown action / unknown route
        status, _ = await request("GET", "/campaigns/nope")
        assert status == 404
        status, _ = await request("POST", "/campaigns/nope/pause")
        assert status == 404
        status, _ = await request("GET", "/not-a-route")
        assert status == 404
        # 405: wrong method
        status, _ = await request("DELETE", "/campaigns")
        assert status == 405
        _, created = await request(
            "POST", "/campaigns", make_spec("instant").to_json()
        )
        cid = created["campaign_id"]
        status, _ = await request("GET", f"/campaigns/{cid}/pause")
        assert status == 405
        status, body = await request("POST", f"/campaigns/{cid}/explode")
        assert status == 404 and "unknown action" in body["error"]

    run_with_server(tmp_path, scenario)


def test_compact_action(tmp_path):
    async def scenario(service, request):
        # A spec with journal knobs round-trips through the HTTP create body.
        # batch_size=1 gives the journal enough per-pair records that the
        # snapshot rewrite visibly shrinks it.
        spec_doc = json.loads(make_spec("instant", batch_size=1).to_json())
        spec_doc["journal"] = {"fsync_every": 4}
        status, created = await request("POST", "/campaigns", json.dumps(spec_doc))
        assert status == 201
        cid = created["campaign_id"]
        assert created["last_snapshot_seq"] == 0
        assert created["journal_bytes"] > 0
        campaign = await service.wait(cid)
        assert campaign.spec.journal.fsync_every == 4
        _, full = await request("GET", f"/campaigns/{cid}")

        status, snap = await request("POST", f"/campaigns/{cid}/compact")
        assert status == 200
        assert snap["state"] == "done"
        assert snap["last_snapshot_seq"] > 0
        # Compaction shrank the on-disk journal.
        assert 0 < snap["journal_bytes"] < full["journal_bytes"]

        # A cancelled campaign's journal may trail its in-memory state: 400.
        _, other = await request(
            "POST",
            "/campaigns",
            make_spec("instant", n_clusters=12, kind="stepped-in-memory").to_json(),
        )
        await request("POST", f"/campaigns/{other['campaign_id']}/cancel")
        status, body = await request(
            "POST", f"/campaigns/{other['campaign_id']}/compact"
        )
        assert status == 400 and "cancelled" in body["error"]

    run_with_server(tmp_path, scenario)


def test_malformed_request_line_is_400_not_a_crash(tmp_path):
    async def main():
        service = CampaignService(tmp_path)
        server = CampaignHTTPServer(service)
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GARBAGE\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert b"400" in raw.split(b"\r\n", 1)[0]
            # the server still serves the next request
            status, _ = await http_request(host, port, "GET", "/campaigns")
            assert status == 200
        finally:
            await server.stop()
            await service.close()

    run_async(main())


@pytest.mark.parametrize(
    "entry",
    [
        [0, 1, 1.5],  # a likelihood outside [0, 1]
        [[1], [2], 0.5],  # object ids that are not JSON scalars
        "ab",  # a string, not a [left, right] array
        [0, 1, 0.5, 0.5],  # one element too many
        # Spec fields to override instead of an order entry to append.
        pytest.param({"mode": "bogus"}, id="mode"),
        pytest.param({"policy": "bogus"}, id="policy"),
        # These decode; the engine they name cannot be built.
        pytest.param({"backend": "bogus"}, id="backend"),
        pytest.param(
            {"backend": "distributed", "spawn_local_workers": 0}, id="no-workers"
        ),
        # An older document counting its local workers as ``n_workers``.
        pytest.param(
            {"backend": "distributed", "n_workers": 0}, id="no-workers-legacy"
        ),
    ],
)
def test_malformed_create_is_400_and_leaves_recovery_intact(tmp_path, entry):
    spec = make_spec("instant").to_dict()
    if isinstance(entry, dict):
        body = json.dumps({**spec, **entry})
    else:
        body = json.dumps({**spec, "order": spec["order"] + [entry]})

    async def scenario(service, request):
        status, payload = await request("POST", "/campaigns", body)
        assert status == 400, payload
        assert service.list() == []
        # One bad request must not stop a later recovery.
        fresh = CampaignService(tmp_path)
        try:
            assert await fresh.recover() == []
        finally:
            await fresh.close()

    run_with_server(tmp_path, scenario)


def _tenant_sized_spec(kind: str) -> CampaignSpec:
    """A product-shaped order: 100 blocks of 8 records (two clusters of 4),
    every within-block pair a candidate — 2,800 pairs."""
    pairs, answers = [], []
    for start in range(0, 800, 8):
        block = range(start, start + 8)
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                same = (a - start) // 4 == (b - start) // 4
                pairs.append((a, b))
                answers.append([a, b, "matching" if same else "non-matching"])
    return CampaignSpec(
        order=pairs,
        mode="instant",
        platform=PlatformConfig(
            kind=kind, batch_size=8, n_assignments=1, options={"answers": answers}
        ),
    )


def test_create_and_first_publish_let_the_loop_run(tmp_path):
    """A probe task gets loop turns while an HTTP create's first publish
    (88 HITs) goes out, not only before and after it."""
    spec = _tenant_sized_spec("probed")
    n_first = -(-len(must_crowdsource_frontier(spec.order, {})) // 8)
    assert n_first >= 64
    turns = 0
    turns_at_submit = []

    def probed_factory(spec):
        client = stepped_in_memory_factory(spec)
        submit = client.submit_pairs

        async def submit_pairs(pairs, *, timeout=None):
            turns_at_submit.append(turns)
            return await submit(pairs, timeout=timeout)

        client.submit_pairs = submit_pairs
        return client

    async def scenario():
        nonlocal turns
        service = CampaignService(tmp_path)
        service.register_client_factory("probed", probed_factory)
        server = CampaignHTTPServer(service)
        host, port = await server.start()
        running = True

        async def probe():
            nonlocal turns
            while running:
                turns += 1
                await asyncio.sleep(0)

        probe_task = asyncio.create_task(probe())
        try:
            turns_at_create = turns
            status, created = await http_request(
                host, port, "POST", "/campaigns", spec.to_json()
            )
            assert status == 201
            await service.wait(created["campaign_id"])
            return turns_at_create
        finally:
            running = False
            await probe_task
            await server.stop()
            await service.close()

    turns_at_create = run_async(scenario())
    assert len(turns_at_submit) >= n_first
    first_burst = turns_at_submit[:n_first]
    assert first_burst[-1] > turns_at_create
    assert first_burst[-1] > first_burst[0], "the first publish held the loop"
