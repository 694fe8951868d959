"""A stdlib-only HTTP front end for :class:`CampaignService`.

One small HTTP/1.1 server over ``asyncio.start_server`` — no framework, no
dependency.  The API surface (fully specified in ``docs/service.md``):

=======  ==============================  ===========================================
Method   Path                            Effect
=======  ==============================  ===========================================
POST     ``/campaigns``                  create from a CampaignSpec JSON body (201)
GET      ``/campaigns``                  list campaign status snapshots
GET      ``/campaigns/<id>``             inspect one campaign
POST     ``/campaigns/<id>/pause``       stop issuing new HITs
POST     ``/campaigns/<id>/resume``      resume issuance (deferred work fires)
POST     ``/campaigns/<id>/cancel``      cancel; journal survives for recovery
POST     ``/campaigns/<id>/compact``     snapshot + compact the campaign journal
=======  ==============================  ===========================================

Responses are JSON.  Errors: 400 for a malformed spec or an unregistered
platform kind, 404 for unknown campaigns/routes, 405 for wrong methods.
Each connection serves one request (``Connection: close``): the operator
surface is low-traffic; campaign traffic itself never flows through HTTP.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from ..spec import CampaignSpec, SpecError
from .service import CampaignService

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024


class CampaignHTTPServer:
    """Serve a :class:`CampaignService` over HTTP.

    Args:
        service: the campaign host.
        host: bind address (default loopback).
        port: bind port (0 = ephemeral; read :attr:`address` after
            :meth:`start`).
    """

    def __init__(
        self, service: CampaignService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (available after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._serve_one(reader)
        except Exception as exc:  # never let a bad request kill the server
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 201: "Created", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("ascii") + body
        )
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass

    async def _serve_one(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return 400, {"error": "malformed request"}
        if len(head) > _MAX_HEADER_BYTES:
            return 400, {"error": "headers too large"}
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            return 400, {"error": f"malformed request line {request_line!r}"}
        method, path, _version = parts
        content_length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "invalid Content-Length"}
        if content_length > _MAX_BODY_BYTES:
            return 400, {"error": "body too large"}
        body = await reader.readexactly(content_length) if content_length else b""
        return await self._dispatch(method.upper(), path.rstrip("/"), body)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/campaigns":
            if method == "POST":
                return await self._create(body)
            if method == "GET":
                return 200, {"campaigns": self._service.list()}
            return 405, {"error": f"{method} not allowed on {path}"}
        if path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            campaign_id, _, action = rest.partition("/")
            try:
                campaign = self._service.get(campaign_id)
            except KeyError:
                return 404, {"error": f"unknown campaign {campaign_id!r}"}
            if not action and method == "GET":
                return 200, campaign.status()
            if method != "POST":
                return 405, {"error": f"{method} not allowed on {path}"}
            if action == "pause":
                return 200, self._service.pause(campaign_id).status()
            if action == "resume":
                return 200, self._service.resume(campaign_id).status()
            if action == "cancel":
                campaign = await self._service.cancel(campaign_id)
                return 200, campaign.status()
            if action == "compact":
                try:
                    campaign = await self._service.compact(campaign_id)
                except RuntimeError as exc:  # failed/cancelled campaign
                    return 400, {"error": str(exc)}
                return 200, campaign.status()
            return 404, {"error": f"unknown action {action!r}"}
        return 404, {"error": f"no route for {path!r}"}

    async def _create(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            spec = CampaignSpec.from_json(body.decode("utf-8"))
        except (SpecError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid campaign spec: {exc}"}
        # Decoding a large order holds the loop; let other requests and
        # campaigns run before the engine is built.
        await asyncio.sleep(0)
        try:
            campaign = await self._service.create(spec)
        except ValueError as exc:  # unregistered platform kind
            return 400, {"error": str(exc)}
        return 201, campaign.status()
