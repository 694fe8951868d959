"""Process-parallel shard execution: whole components across worker processes.

Both halves of the per-answer hot path — the deduction sweep and the
Algorithm-3 frontier recompute — decompose exactly by connected component
of the candidate-pair graph (:class:`~repro.engine.frontier.ShardedFrontier`
selects that way in-process).  Components share no objects, so they also
share no *work*, and only the GIL keeps a 10M-pair workload from using
every core.  This module holds what a worker process runs for its share of
that decomposition:

* :class:`_WorkerState` — one worker's shard state, built from its slice of
  the order (a :class:`~repro.core.cluster_graph.ClusterGraph` +
  :class:`~repro.core.sweep.PendingPairIndex` +
  :class:`~repro.engine.frontier.ShardedFrontier` over global order
  positions).  Its handlers mirror the engine's events step for step;
  messages carry only order positions and small integers, and replies are
  position lists the coordinator merges by :func:`heapq.merge`, exactly as
  the worker's frontier merges its per-component selections.

Workers never coordinate with each other.  An answer never crosses a
static component — answers are order pairs, and the static components are
those of the order — so every union happens inside one worker.

``backend="parallel"`` runs on the same
:class:`~repro.engine.distributed.ShardCoordinator` as
``backend="distributed"``, with locally spawned *pipe-attached* workers that
receive their components at spawn (inherited under ``fork``, the default
where available; spawn-safety is pinned by a test).
:class:`~repro.engine.engine.LabelingEngine` forwards every event to it —
with auto-fallback to the in-process monolithic backend below a pair
threshold, because process orchestration only pays for itself at scale.
A lost worker's components re-ship to the survivors; only losing every
worker raises :class:`ShardWorkerError`.
"""

from __future__ import annotations

import os
from typing import (
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.cluster_graph import ClusterGraph, Conflict, ConflictPolicy
from ..core.pairs import LABEL_CODE, LABEL_OF_CODE, Label, Pair
from ..core.sweep import PendingPairIndex
from .frontier import ShardedFrontier

#: Below this many pairs ``backend="parallel"`` falls back to the in-process
#: monolithic backend: per-message pipe latency (~0.1 ms) dwarfs
#: per-component work on small orders, and the in-process backend is already
#: O(component).
DEFAULT_PARALLEL_THRESHOLD = 250_000

#: Ceiling for the default worker count; past this, per-worker component
#: slices get too thin for the merge step to keep up.
_MAX_DEFAULT_WORKERS = 8

#: Sentinel reply meaning "my frontier is unchanged since your last call".
_UNCHANGED = "same"


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class ShardWorkerError(RuntimeError):
    """Shard workers were lost and none survives to take over their
    components (or the coordinator is closed).  The shard state is gone, so
    the coordinator refuses further commands; rebuild the engine (or rerun
    with ``backend="monolithic"``) to recover.  Losing *some* workers is not an
    error: their components re-ship to the survivors."""


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """One worker's shard state: its components of the order, mirrored from
    the in-process backend.

    A worker holds what ``GraphEngineCore`` holds in-process, over its
    share of the order: a :class:`ShardedFrontier` with global order
    positions, a :class:`ClusterGraph` and a :class:`PendingPairIndex` for
    answers and the incremental deduction sweep.  Handlers replicate the engine's event bookkeeping step for
    step, which is what the differential tests pin.
    """

    def __init__(self, entries: List[Tuple[int, Pair]], policy: ConflictPolicy) -> None:
        self._pair_of: Dict[int, Pair] = dict(entries)
        self._gpos_of: Dict[Pair, int] = {pair: gpos for gpos, pair in entries}
        # entries arrive in ascending position order
        self._frontier = ShardedFrontier(
            [pair for _, pair in entries], [gpos for gpos, _ in entries]
        )
        self._graph = ClusterGraph(policy=policy)
        self._index = PendingPairIndex(self._graph, (pair for _, pair in entries))
        self._labeled: Dict[Pair, Label] = {}
        self._published: Set[Pair] = set()

    def owns(self, gpos: int) -> bool:
        return gpos in self._pair_of

    # -- event handlers (each mirrors one LabelingEngine event) --------
    def answer(self, gpos: int, code: int) -> Tuple[bool, Optional[Conflict]]:
        pair = self._pair_of[gpos]
        label = LABEL_OF_CODE[code]
        self._published.discard(pair)
        self._labeled[pair] = label
        self._frontier.mark_dirty(pair)
        n_conflicts = len(self._graph.conflicts)
        applied = self._graph.add(pair, label)
        conflict = (
            self._graph.conflicts[-1]
            if len(self._graph.conflicts) > n_conflicts
            else None
        )
        self._index.remove(pair)
        self._index.note_objects_seen(pair.left, pair.right)
        return applied, conflict

    def deduced(self, gpos: int, code: int) -> None:
        """A deduction decided in the parent (sequential visit-time path)."""
        pair = self._pair_of[gpos]
        if pair in self._labeled:
            return
        self._labeled[pair] = LABEL_OF_CODE[code]
        self._published.discard(pair)
        self._frontier.mark_dirty(pair)
        self._index.remove(pair)

    def publish(self, positions: Sequence[int], withhold: bool) -> None:
        for gpos in positions:
            pair = self._pair_of[gpos]
            self._published.add(pair)
            self._frontier.mark_dirty(pair)
        if withhold:
            for gpos in positions:
                self._index.remove(self._pair_of[gpos])

    def withhold(self, positions: Sequence[int]) -> None:
        for gpos in positions:
            self._index.remove(self._pair_of[gpos])

    def sweep(self) -> List[Tuple[int, int]]:
        resolved = self._index.sweep()
        out: List[Tuple[int, int]] = []
        for pair, label in resolved:
            self._labeled[pair] = label
            self._published.discard(pair)
            self._frontier.mark_dirty(pair)
            out.append((self._gpos_of[pair], LABEL_CODE[label]))
        out.sort()
        return out

    def frontier(self) -> Union[str, List[int]]:
        if self._frontier.current:
            return _UNCHANGED
        return [
            gpos for gpos, _ in self._frontier.select(self._labeled, self._published)
        ]

    def deduce(self, pair: Pair) -> Optional[int]:
        label = self._graph.deduce(pair)
        return None if label is None else LABEL_CODE[label]

    def stats(self) -> Dict[str, int]:
        graph = self._graph
        return {
            "n_objects": graph.n_objects,
            "n_clusters": graph.n_clusters,
            "n_matching_edges": graph.n_matching_edges,
            "n_non_matching_edges": graph.n_non_matching_edges,
            "n_components": self._frontier.n_components,
        }

    def clusters(self) -> List[Set[Hashable]]:
        return self._graph.clusters()

    def check(self) -> None:
        self._graph.check_invariants()
        self._index.check_invariants()
