"""The campaign service layer: many campaigns, one process, durable answers.

Everything below :mod:`repro.engine` is a *library*: a campaign lives inside
one :class:`~repro.engine.async_dispatch.CrowdRuntime` coroutine and dies
with the process — along with every paid crowd answer.  This package is the
seam that turns the library into a long-running system:

* :mod:`repro.service.journal` — per-campaign append-only JSONL journal
  (monotonic sequence numbers, batched fsync, torn-write repair, precise
  :class:`JournalCorruptError` on real corruption);
* :mod:`repro.service.journaling` — :class:`JournalingPlatformClient`, a
  transparent wrapper journaling every HIT issue, completion, expiry, and
  review decision of *any* :class:`~repro.crowd.clients.PlatformClient`,
  and replaying a journal back through the runtime deterministically;
* :mod:`repro.service.service` — :class:`CampaignService`, the asyncio host
  for many concurrent campaigns (create / inspect / pause / resume /
  cancel / recover-on-restart);
* :mod:`repro.service.http` — a stdlib-only HTTP front end for the service.

See ``docs/service.md`` for the API reference, the journal format
specification, and the crash-recovery runbook.
"""

from .journal import Journal, JournalCorruptError, JournalReplayError
from .journaling import JournalingPlatformClient
from .service import Campaign, CampaignService, CampaignState, RecoveryError
from .http import CampaignHTTPServer

__all__ = [
    "Journal",
    "JournalCorruptError",
    "JournalReplayError",
    "JournalingPlatformClient",
    "Campaign",
    "CampaignService",
    "CampaignState",
    "RecoveryError",
    "CampaignHTTPServer",
]
