"""HIT-granularity adapter: buffers engine frontier pairs into full HITs.

Campaigns publish work in HITs of the platform's batch size rather than
pair by pair.  Pre-refactor the campaign runner carried its own copy of the
frontier computation and deduction sweep; this adapter replaces that fourth
reimplementation with a thin buffering layer over the shared
:class:`~repro.engine.engine.LabelingEngine`.  Since the async-first
refactor it is instantiated by the HIT-granularity modes of
:class:`~repro.engine.async_dispatch.CrowdRuntime`, which flushes its
published chunks through the :class:`~repro.crowd.clients.PlatformClient`
seam:

* frontier pairs are buffered until a *full* HIT can be published — partial
  HITs are flushed only when the platform would otherwise sit idle — so
  iterative publication does not inflate the HIT count the paper's batching
  strategy saves;
* buffered pairs stay inside the engine's deduction sweep (they are not on
  the platform yet, so a deduction can still *rescue* them from being paid
  for); pairs actually handed to the platform are withheld from the sweep,
  because the crowd will answer them regardless.

The adapter is platform-agnostic: it publishes through a callable, so tests
can drive it without a simulated platform.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from ..core.pairs import Label, Pair
from .engine import LabelingEngine

PublishChunk = Callable[[List[Pair]], None]


class HITDispatchAdapter:
    """Buffers engine frontier pairs into full HITs (paper Section 6.4).

    Args:
        engine: the shared labeling engine.
        publish_chunk: callable invoked with each chunk of pairs that must
            go to the platform now (at most ``batch_size`` pairs per call).
        batch_size: pairs per HIT (the platform's batching granularity).
    """

    def __init__(
        self,
        engine: LabelingEngine,
        publish_chunk: PublishChunk,
        batch_size: int,
    ) -> None:
        self._engine = engine
        self._publish_chunk = publish_chunk
        self._batch_size = batch_size
        self._buffer: List[Pair] = []

    @property
    def buffered(self) -> List[Pair]:
        """Selected pairs awaiting a full HIT (a copy)."""
        return list(self._buffer)

    def restore_buffer(self, pairs: Sequence[Pair]) -> None:
        """Seed the buffer from a runtime snapshot (crash recovery).

        The pairs must already be published-not-withheld in the engine,
        which is exactly how :meth:`~repro.engine.engine.LabelingEngine
        .restore_state` leaves them.
        """
        self._buffer = list(pairs)

    def select_new(self) -> None:
        """Pull the current must-crowdsource frontier into the buffer.

        Buffered pairs are excluded from future frontiers but remain inside
        the deduction sweep until :meth:`flush` hands them to the platform.
        """
        batch = self._engine.frontier()
        if batch:
            self._engine.publish(batch, withhold=False)
            self._buffer.extend(batch)
        self.flush(force=False)

    def flush(self, force: bool) -> None:
        """Publish full HITs from the buffer; ``force`` flushes a partial
        HIT too (used when the platform would otherwise sit idle)."""
        buffer, size = self._buffer, self._batch_size
        start = 0
        while len(buffer) - start >= size:
            chunk = buffer[start : start + size]
            start += size
            self._engine.withhold(chunk)
            self._publish_chunk(chunk)
        if start:
            self._buffer = buffer[start:]
        if force and self._buffer:
            chunk = self._buffer
            self._buffer = []
            self._engine.withhold(chunk)
            self._publish_chunk(chunk)

    def sweep(self, round_index: int) -> List[Tuple[Pair, Label]]:
        """Deduce everything the answers imply; rescued buffered pairs are
        dropped from the buffer (they no longer need crowdsourcing)."""
        resolved = self._engine.sweep(round_index)
        if resolved and self._buffer:
            labeled = self._engine.labeled
            self._buffer = [pair for pair in self._buffer if pair not in labeled]
        return resolved
