"""Platform clients: one async seam between the runtime and any crowd.

The discrete-event :class:`~repro.crowd.platform.SimulatedPlatform` was the
repo's only crowd; campaigns stepped it directly, so the simulator's clock
was baked into every labeling loop.  This module inverts that dependency.
A :class:`PlatformClient` is the *only* thing the engine-side runtime
(:class:`repro.engine.async_dispatch.CrowdRuntime`) talks to:

* :meth:`~PlatformClient.submit_pairs` — batch pairs into HITs and hand
  them to the crowd (optionally with an expiry timeout);
* :meth:`~PlatformClient.next_event` / :meth:`~PlatformClient.completions`
  — await :class:`~repro.crowd.platform.HITCompletion` and
  :class:`HITExpiry` events, in whatever order the crowd produces them;
* :meth:`~PlatformClient.cancel` / :meth:`~PlatformClient.drain` /
  :meth:`~PlatformClient.close` — lifecycle control.

Three implementations cover the spectrum from reproducible simulation to a
live platform:

* :class:`SimulatedPlatformClient` — wraps the existing discrete-event
  simulator; ``next_event`` advances simulated time.  Optional seeded
  *expiry injection* models abandoned work so re-issue paths can be tested
  against the frozen references.
* :class:`PollingPlatformClient` — periodic fetch against any REST-shaped
  backend (AMT-style ``CreateHIT``/``ListAssignments``/``ExpireHIT``
  surface).  :class:`InMemoryCrowdBackend` is the in-memory fake used by
  tests and the runnable example; a real backend only needs the same three
  duck-typed methods.
* :class:`CallbackPlatformClient` — webhook-style push: external code (an
  HTTP handler, a queue consumer) calls :meth:`deliver_completion` /
  :meth:`deliver_expiry` as results arrive, from any thread.

Clients never touch the deduction state; the runtime owns answer
application.  An expired HIT is already terminal client-side when its
:class:`HITExpiry` event is emitted — the runtime's only job is deciding
whether to re-issue the unanswered pairs.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    AsyncIterator,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from ..core.oracle import LabelOracle
from ..core.pairs import Label, Pair
from .hit import DEFAULT_ASSIGNMENTS, DEFAULT_BATCH_SIZE, HIT, batch_pairs
from .latency import ZeroLatency
from .platform import HITCompletion, SimulatedPlatform
from .worker import PerfectWorker, Worker


@dataclass(frozen=True)
class HITExpiry:
    """A published HIT timed out (abandoned / lost) without completing.

    The emitting client has already retired the HIT on its side (no
    completion will follow for this ``hit_id``); the runtime decides
    whether to re-issue the still-unanswered pairs as a fresh HIT.

    Attributes:
        hit: the HIT that expired.
        expired_at: client-clock time of the expiry.
        reason: short diagnostic tag (``"timeout"``, ``"abandoned"``...).
    """

    hit: HIT
    expired_at: float
    reason: str = "timeout"


#: Everything a client can report back about published work.
PlatformEvent = Union[HITCompletion, HITExpiry]


@runtime_checkable
class PlatformClient(Protocol):
    """Async contract between the crowd runtime and a crowd platform.

    All times are in the client's own clock units: simulated hours for the
    simulated client, wall-clock seconds for live clients.  The runtime
    only ever compares them to each other.
    """

    @property
    def batch_size(self) -> int:
        """Pairs per HIT (the platform's batching granularity)."""
        ...  # pragma: no cover - protocol

    @property
    def n_assignments(self) -> int:
        """Replication factor per HIT (what one HIT costs in assignments)."""
        ...  # pragma: no cover - protocol

    @property
    def now(self) -> float:
        """Current client-clock time."""
        ...  # pragma: no cover - protocol

    @property
    def n_outstanding_hits(self) -> int:
        """HITs submitted and neither completed, expired, nor cancelled."""
        ...  # pragma: no cover - protocol

    @property
    def n_ready_events(self) -> int:
        """Events already in hand: ``next_event`` returns them without
        polling or waiting.  The runtime applies the events a client hands
        over back to back as one run, so a client that fetches in bursts
        reports its buffer here; one that produces events singly reports 0.
        """
        ...  # pragma: no cover - protocol

    async def submit_pairs(
        self, pairs: Sequence[Pair], *, timeout: Optional[float] = None
    ) -> List[HIT]:
        """Batch ``pairs`` into HITs and publish them.

        Args:
            pairs: the pairs to publish, in order.
            timeout: optional expiry deadline, in client-clock units from
                now; clients that support expiry emit :class:`HITExpiry`
                for HITs still incomplete past it.
        """
        ...  # pragma: no cover - protocol

    async def next_event(self) -> Optional[PlatformEvent]:
        """The next completion or expiry, or None when nothing is and will
        be outstanding (the platform is drained)."""
        ...  # pragma: no cover - protocol

    def completions(self) -> AsyncIterator[PlatformEvent]:
        """Async-iterate events until the platform drains."""
        ...  # pragma: no cover - protocol

    async def cancel(self, hit_id: int) -> bool:
        """Withdraw an outstanding HIT; True if it was still outstanding."""
        ...  # pragma: no cover - protocol

    async def drain(self) -> List[HITCompletion]:
        """Settle all outstanding work and return any late completions.

        The simulated client runs its platform to completion (the work is
        paid for regardless); live clients cancel what is still out and
        return whatever had already completed.
        """
        ...  # pragma: no cover - protocol

    async def close(self) -> None:
        """Release the client; outstanding HITs are cancelled."""
        ...  # pragma: no cover - protocol


class _PlatformClientBase:
    """Shared :meth:`completions` iterator over :meth:`next_event`; no
    events in hand unless a client buffers them."""

    @property
    def n_ready_events(self) -> int:
        return 0

    async def next_event(self) -> Optional[PlatformEvent]:  # pragma: no cover
        raise NotImplementedError

    async def completions(self) -> AsyncIterator[PlatformEvent]:
        while True:
            event = await self.next_event()
            if event is None:
                return
            yield event


def _batch_into_hits(
    counter: "itertools.count",
    pairs: Sequence[Pair],
    batch_size: int,
    n_assignments: int,
) -> List[HIT]:
    """Batch ``pairs`` into HITs with ids reserved from ``counter``."""
    hits = batch_pairs(
        list(pairs),
        batch_size=batch_size,
        n_assignments=n_assignments,
        first_hit_id=next(counter),
    )
    # keep the counter ahead of the ids just allocated
    for _ in range(max(len(hits) - 1, 0)):
        next(counter)
    return hits


# ----------------------------------------------------------------------
# simulated client
# ----------------------------------------------------------------------
class SimulatedPlatformClient(_PlatformClientBase):
    """The discrete-event simulator behind the async client seam.

    ``next_event`` advances simulated time to the next HIT completion, so
    an asyncio loop over this client replays exactly the event sequence
    the old synchronous ``platform.step()`` loops observed — byte-identical
    results, one code path.

    Expiry injection (``expire_probability``) models abandoned work: a
    completing HIT is, with the given seeded probability and at most once
    per HIT, reported as :class:`HITExpiry` instead — its answers are
    discarded and the runtime must re-issue the pairs.  The simulated
    workers were still paid (as on a real platform, where abandoned or
    rejected work often is anyway); only the *labels* are lost.

    Args:
        platform: the simulator to wrap.
        expire_probability: chance a completing HIT is reported expired
            (each HIT expires at most once, so runs always terminate).
        expire_seed: RNG seed for expiry injection.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        *,
        expire_probability: float = 0.0,
        expire_seed: int = 0,
    ) -> None:
        if not 0.0 <= expire_probability <= 1.0:
            raise ValueError(
                f"expire_probability must be in [0, 1], got {expire_probability}"
            )
        self._platform = platform
        self._expire_probability = expire_probability
        self._expire_rng = random.Random(expire_seed)
        self._expired: Set[int] = set()

    @classmethod
    def for_oracle(
        cls, oracle: LabelOracle, *, batch_size: int = 32, seed: int = 0
    ) -> "SimulatedPlatformClient":
        """A minimal deterministic client answering through ``oracle``.

        One perfect worker, one assignment per HIT, zero latency: the
        oracle is consulted exactly once per published pair, in publication
        order, and completions arrive FIFO — which is what lets
        :class:`~repro.engine.async_dispatch.AsyncDispatch` reproduce the
        pre-refactor labelers exactly while running the shared async code
        path.
        """
        platform = SimulatedPlatform(
            workers=[Worker(worker_id=0, model=PerfectWorker())],
            truth=oracle,
            latency=ZeroLatency(),
            batch_size=batch_size,
            n_assignments=1,
            seed=seed,
        )
        return cls(platform)

    @property
    def platform(self) -> SimulatedPlatform:
        """The wrapped simulator (stats, ledger, clock)."""
        return self._platform

    @property
    def batch_size(self) -> int:
        return self._platform.batch_size

    @property
    def n_assignments(self) -> int:
        return self._platform.n_assignments

    @property
    def now(self) -> float:
        return self._platform.now

    @property
    def n_outstanding_hits(self) -> int:
        return self._platform.n_outstanding_hits

    async def submit_pairs(
        self, pairs: Sequence[Pair], *, timeout: Optional[float] = None
    ) -> List[HIT]:
        # Simulated workers always finish, so a deadline is meaningless
        # here; abandoned work is modelled by expiry injection instead.
        return self._platform.publish_pairs(list(pairs))

    async def next_event(self) -> Optional[PlatformEvent]:
        completion = self._platform.step()
        if completion is None:
            return None
        if (
            self._expire_probability > 0.0
            and completion.hit.hit_id not in self._expired
            and self._expire_rng.random() < self._expire_probability
        ):
            self._expired.add(completion.hit.hit_id)
            return HITExpiry(
                hit=completion.hit,
                expired_at=completion.completed_at,
                reason="abandoned",
            )
        return completion

    async def cancel(self, hit_id: int) -> bool:
        # The simulator has no recall mechanism: once published, workers
        # will complete the HIT (and be paid) regardless.
        return False

    async def drain(self) -> List[HITCompletion]:
        return self._platform.run_to_completion()

    async def close(self) -> None:
        return None


# ----------------------------------------------------------------------
# polling client + in-memory fake backend
# ----------------------------------------------------------------------
class RestCrowdBackend(Protocol):
    """Duck-typed REST-shaped surface the polling client fetches against.

    A real implementation maps these onto the platform's HTTP API (for AMT:
    ``CreateHIT``, ``ListAssignmentsForHIT``, ``UpdateExpirationForHIT``);
    payloads are plain dicts so the transport can serialise them however it
    likes.  :class:`InMemoryCrowdBackend` is the reference fake.
    """

    def create_hits(self, requests: Sequence[dict]) -> None:
        """Publish HITs; each request has ``hit_id``, ``pairs``,
        ``n_assignments``."""
        ...  # pragma: no cover - protocol

    def fetch_completed(self) -> List[dict]:
        """Completions not yet delivered, each with ``hit_id``, ``labels``
        (pair -> :class:`Label`), and optionally ``completed_at``."""
        ...  # pragma: no cover - protocol

    def expire_hit(self, hit_id: int) -> bool:
        """Retire an outstanding HIT; True if it was still pending."""
        ...  # pragma: no cover - protocol

    # Backends may additionally expose ``review_assignments(hit_id,
    # decisions) -> (n_approved, n_rejected)`` and ``extend_expiry(hit_id,
    # additional_s) -> bool``; the polling client forwards to them when
    # present (see ``repro.crowd.platforms.mturk.MTurkBackend``).


class ManualClock:
    """Deterministic clock for driving the polling client in tests.

    ``sleep`` *advances* the clock instead of waiting, so a poll loop runs
    as fast as the CPU allows while timeouts still fire at exact instants.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += dt

    async def sleep(self, dt: float) -> None:
        self.advance(max(dt, 0.0))


class PollingPlatformClient(_PlatformClientBase):
    """Periodic-fetch client for REST-shaped crowd backends.

    The client owns HIT identity (ids, pair composition) and the expiry
    bookkeeping; the backend only sees opaque requests and reports
    completions whenever they are ready — out of order, late, or never.
    A HIT still incomplete past its deadline is expired on the backend and
    surfaced as :class:`HITExpiry`; completions the backend reports for an
    already-expired HIT are dropped (their work was written off).

    Args:
        backend: the REST-shaped backend.
        batch_size: pairs per HIT.
        n_assignments: replication factor requested per HIT.
        poll_interval: clock units between fetches while work is out.
        hit_timeout: default expiry deadline applied to every submission
            (a per-submission ``timeout`` overrides it).
        clock: time source (defaults to wall-clock seconds).
        sleep: awaitable sleep (defaults to ``asyncio.sleep``); pass the
            :class:`ManualClock`'s to make polls advance virtual time.
    """

    def __init__(
        self,
        backend: RestCrowdBackend,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        n_assignments: int = DEFAULT_ASSIGNMENTS,
        poll_interval: float = 1.0,
        hit_timeout: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], Awaitable[None]]] = None,
    ) -> None:
        if poll_interval < 0:
            raise ValueError("poll_interval must be non-negative")
        self._backend = backend
        self._batch_size = batch_size
        self._n_assignments = n_assignments
        self._poll_interval = poll_interval
        self._hit_timeout = hit_timeout
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._hit_counter = itertools.count()
        self._outstanding: Dict[int, HIT] = {}
        self._deadlines: Dict[int, float] = {}
        self._events: Deque[PlatformEvent] = deque()

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def n_assignments(self) -> int:
        return self._n_assignments

    @property
    def now(self) -> float:
        return self._clock()

    @property
    def n_outstanding_hits(self) -> int:
        return len(self._outstanding)

    @property
    def n_ready_events(self) -> int:
        """Events the last fetch found that ``next_event`` has not yet
        handed over."""
        return len(self._events)

    async def submit_pairs(
        self, pairs: Sequence[Pair], *, timeout: Optional[float] = None
    ) -> List[HIT]:
        hits = _batch_into_hits(
            self._hit_counter, pairs, self._batch_size, self._n_assignments
        )
        deadline = timeout if timeout is not None else self._hit_timeout
        for hit in hits:
            self._outstanding[hit.hit_id] = hit
            if deadline is not None:
                self._deadlines[hit.hit_id] = self._clock() + deadline
        self._backend.create_hits(
            [
                {
                    "hit_id": hit.hit_id,
                    "pairs": hit.pairs,
                    "n_assignments": hit.n_assignments,
                }
                for hit in hits
            ]
        )
        return hits

    def _poll_once(self) -> None:
        """One fetch + expiry pass; found events join the buffer."""
        for record in self._backend.fetch_completed():
            hit = self._outstanding.pop(record["hit_id"], None)
            if hit is None:
                continue  # completion of an expired/cancelled HIT
            self._deadlines.pop(hit.hit_id, None)
            self._events.append(
                HITCompletion(
                    hit=hit,
                    labels=dict(record["labels"]),
                    completed_at=float(record.get("completed_at", self._clock())),
                    assignments=(),
                )
            )
        now = self._clock()
        for hit_id in [h for h, d in self._deadlines.items() if now >= d]:
            hit = self._outstanding.pop(hit_id)
            del self._deadlines[hit_id]
            self._backend.expire_hit(hit_id)
            self._events.append(HITExpiry(hit=hit, expired_at=now))

    async def next_event(self) -> Optional[PlatformEvent]:
        while True:
            if self._events:
                return self._events.popleft()
            self._poll_once()
            if self._events:
                return self._events.popleft()
            if not self._outstanding:
                return None
            await self._sleep(self._poll_interval)

    def review_hit(self, hit_id: int, decisions) -> Tuple[int, int]:
        """Forward review verdicts to the backend, if it supports review.

        The runtime's :class:`~repro.crowd.review.ReviewPolicy` calls this
        after applying a completion; backends without a review surface
        (the in-memory fake by default) cost nothing.  Returns
        ``(n_approved, n_rejected)``.
        """
        review = getattr(self._backend, "review_assignments", None)
        if review is None:
            return (0, 0)
        approved, rejected = review(hit_id, list(decisions))
        return (int(approved), int(rejected))

    async def cancel(self, hit_id: int) -> bool:
        hit = self._outstanding.pop(hit_id, None)
        self._deadlines.pop(hit_id, None)
        if hit is None:
            return False
        self._backend.expire_hit(hit_id)
        return True

    async def drain(self) -> List[HITCompletion]:
        self._poll_once()
        leftovers = [e for e in self._events if isinstance(e, HITCompletion)]
        self._events.clear()
        for hit_id in list(self._outstanding):
            await self.cancel(hit_id)
        return leftovers

    async def close(self) -> None:
        for hit_id in list(self._outstanding):
            await self.cancel(hit_id)
        self._events.clear()


class InMemoryCrowdBackend:
    """In-memory fake of a REST crowd service, for tests and examples.

    Answers come from an oracle (or ``answer_fn``).  Completion timing is
    controlled two ways:

    * *manually* — call :meth:`complete` / :meth:`complete_all` from test
      code to make results fetchable, in any order;
    * *scheduled* — give ``clock`` and ``latency``; each created HIT gets a
      seeded ready-time and becomes fetchable once the clock passes it
      (shuffled completion order falls out of the latency draws).

    HITs whose ids are in ``drop_hit_ids`` are never completed — the worker
    abandoned them — which is how tests exercise the polling client's
    expiry + re-issue path deterministically.
    """

    def __init__(
        self,
        oracle: Optional[LabelOracle] = None,
        answer_fn: Optional[Callable[[Pair], Label]] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
        latency: Optional[Callable[[random.Random], float]] = None,
        drop_hit_ids: Sequence[int] = (),
        seed: int = 0,
    ) -> None:
        if (oracle is None) == (answer_fn is None):
            raise ValueError("provide exactly one of oracle or answer_fn")
        self._answer = answer_fn if answer_fn is not None else oracle.label
        self._clock = clock
        self._latency = latency
        if latency is not None and clock is None:
            raise ValueError("scheduled completion (latency=) needs a clock")
        self._rng = random.Random(seed)
        self._drop = set(drop_hit_ids)
        self._pending: Dict[int, dict] = {}
        self._ready_at: Dict[int, float] = {}
        self._completed: List[dict] = []
        self.n_created = 0
        self.n_expired = 0

    # -- REST-shaped surface ------------------------------------------
    def create_hits(self, requests: Sequence[dict]) -> None:
        for request in requests:
            hit_id = request["hit_id"]
            self._pending[hit_id] = request
            self.n_created += 1
            if self._latency is not None and hit_id not in self._drop:
                self._ready_at[hit_id] = self._clock() + self._latency(self._rng)

    def fetch_completed(self) -> List[dict]:
        if self._latency is not None:
            now = self._clock()
            for hit_id in [h for h, t in self._ready_at.items() if t <= now]:
                del self._ready_at[hit_id]
                self.complete(hit_id, completed_at=now)
        out = self._completed
        self._completed = []
        return out

    def expire_hit(self, hit_id: int) -> bool:
        self._ready_at.pop(hit_id, None)
        if self._pending.pop(hit_id, None) is None:
            return False
        self.n_expired += 1
        return True

    # -- test / simulation knobs --------------------------------------
    def pending_ids(self) -> List[int]:
        """Created HITs not yet completed or expired, in creation order."""
        return list(self._pending)

    def complete(self, hit_id: int, completed_at: Optional[float] = None) -> None:
        """Answer a pending HIT; its result becomes fetchable.

        Raises:
            KeyError: if the HIT is not pending (never created, already
                completed, or expired).
        """
        request = self._pending.pop(hit_id)
        self._ready_at.pop(hit_id, None)
        when = completed_at
        if when is None:
            when = self._clock() if self._clock is not None else 0.0
        self._completed.append(
            {
                "hit_id": hit_id,
                "labels": {pair: self._answer(pair) for pair in request["pairs"]},
                "completed_at": when,
            }
        )

    def complete_all(self, order: str = "fifo") -> List[int]:
        """Complete every pending HIT (``"fifo"``, ``"lifo"``, or seeded
        ``"random"`` order); returns the completion order used."""
        ids = self.pending_ids()
        if order == "lifo":
            ids.reverse()
        elif order == "random":
            self._rng.shuffle(ids)
        elif order != "fifo":
            raise ValueError(f"unknown completion order {order!r}")
        for hit_id in ids:
            self.complete(hit_id)
        return ids


# ----------------------------------------------------------------------
# webhook-style push client
# ----------------------------------------------------------------------
class CallbackPlatformClient(_PlatformClientBase):
    """Webhook-style push client: completions are *delivered*, not fetched.

    ``submit_hits`` hands published HITs to external code (an HTTP client,
    a queue producer); when the platform calls back — from the event-loop
    thread or any other — :meth:`deliver_completion` / :meth:`deliver_expiry`
    enqueue the event and wake the runtime.  ``next_event`` blocks until
    something is delivered, so a stalled platform stalls the campaign (put
    a :class:`~repro.crowd.latency.TimeoutPolicy` on the runtime, or a
    timeout on the surrounding task, to bound that).

    Args:
        submit_hits: called with each batch of newly published HITs.
        cancel_hit: optional; called with a hit_id being withdrawn.
        batch_size: pairs per HIT.
        n_assignments: replication factor recorded on each HIT.
        clock: time source for default ``completed_at`` stamps.
    """

    def __init__(
        self,
        submit_hits: Callable[[List[HIT]], None],
        *,
        cancel_hit: Optional[Callable[[int], None]] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        n_assignments: int = DEFAULT_ASSIGNMENTS,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._submit_hits = submit_hits
        self._cancel_hit = cancel_hit
        self._batch_size = batch_size
        self._n_assignments = n_assignments
        self._clock = clock if clock is not None else time.monotonic
        self._hit_counter = itertools.count()
        self._outstanding: Dict[int, HIT] = {}
        self._events: Deque[PlatformEvent] = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def batch_size(self) -> int:
        return self._batch_size

    @property
    def n_assignments(self) -> int:
        return self._n_assignments

    @property
    def now(self) -> float:
        return self._clock()

    @property
    def n_outstanding_hits(self) -> int:
        return len(self._outstanding)

    @property
    def n_ready_events(self) -> int:
        """Events delivered and not yet handed over by ``next_event``."""
        return len(self._events)

    def _wake(self) -> None:
        """Wake a blocked ``next_event``, thread-safely."""
        loop, event = self._loop, self._wakeup
        if event is None:
            return
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)
        else:  # pragma: no cover - no loop yet: nothing is blocked
            event.set()

    # -- webhook entry points (any thread) ----------------------------
    def deliver_completion(
        self,
        hit_id: int,
        labels: Dict[Pair, Label],
        completed_at: Optional[float] = None,
    ) -> bool:
        """Push a completed HIT's aggregated labels; False if the HIT is
        unknown or no longer outstanding (late delivery is ignored).

        Raises:
            ValueError: when ``labels`` does not cover every pair of the
                HIT (the HIT stays outstanding).
        """
        hit = self._outstanding.get(hit_id)
        if hit is None:
            return False
        missing = set(hit.pairs) - set(labels)
        if missing:
            raise ValueError(
                f"completion for HIT {hit_id} is missing labels for "
                f"{sorted(map(repr, missing))}"
            )
        del self._outstanding[hit_id]
        self._events.append(
            HITCompletion(
                hit=hit,
                labels=dict(labels),
                completed_at=(
                    completed_at if completed_at is not None else self._clock()
                ),
                assignments=(),
            )
        )
        self._wake()
        return True

    def deliver_expiry(self, hit_id: int, expired_at: Optional[float] = None) -> bool:
        """Push an expiry notification for an outstanding HIT."""
        hit = self._outstanding.pop(hit_id, None)
        if hit is None:
            return False
        self._events.append(
            HITExpiry(
                hit=hit,
                expired_at=expired_at if expired_at is not None else self._clock(),
            )
        )
        self._wake()
        return True

    # -- client surface ------------------------------------------------
    async def submit_pairs(
        self, pairs: Sequence[Pair], *, timeout: Optional[float] = None
    ) -> List[HIT]:
        hits = _batch_into_hits(
            self._hit_counter, pairs, self._batch_size, self._n_assignments
        )
        for hit in hits:
            self._outstanding[hit.hit_id] = hit
        self._submit_hits(list(hits))
        return hits

    async def next_event(self) -> Optional[PlatformEvent]:
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        while True:
            if self._events:
                return self._events.popleft()
            if not self._outstanding:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()

    async def cancel(self, hit_id: int) -> bool:
        hit = self._outstanding.pop(hit_id, None)
        if hit is None:
            return False
        if self._cancel_hit is not None:
            self._cancel_hit(hit_id)
        # Cancelling the last outstanding HIT drains the client: a consumer
        # parked in next_event must wake up to observe that and return None.
        self._wake()
        return True

    async def drain(self) -> List[HITCompletion]:
        leftovers = [e for e in self._events if isinstance(e, HITCompletion)]
        self._events.clear()
        for hit_id in list(self._outstanding):
            await self.cancel(hit_id)
        return leftovers

    async def close(self) -> None:
        for hit_id in list(self._outstanding):
            await self.cancel(hit_id)
        self._events.clear()
        self._wake()
