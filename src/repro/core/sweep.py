"""Incremental deduction sweeps: re-check only pairs that could have changed.

The event-driven labelers re-evaluate deducibility of every pending pair
after each crowd answer — an O(pending) scan per answer that dominates the
Figure 15 simulation at full scale.  This module provides
:class:`PendingPairIndex`, an index over pending pairs keyed by the cluster
that each endpoint currently belongs to.  A pair's deducibility can only
change when its endpoint clusters change — merge with another cluster or
gain an incident non-matching edge — so the index listens for exactly those
ClusterGraph events and marks the touched pairs *dirty*; a sweep then checks
only the dirty set.

The naive full scan and the indexed sweep are equivalent (property-tested);
the index is purely a performance feature.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set

from .cluster_graph import ClusterGraph
from .pairs import Label, Pair


class PendingPairIndex:
    """Index of pending (unlabeled, unpublished) pairs by cluster root.

    Attach to a :class:`ClusterGraph` via its ``listener`` slot *before*
    inserting further pairs; the graph reports cluster merges and new
    non-matching edges, and the index translates them into a dirty set of
    pending pairs whose deducibility must be re-checked.

    Endpoints the graph has not seen yet are tracked separately (the graph's
    own object set stays untouched); call :meth:`note_objects_seen` right
    after inserting a labeled pair so those endpoints migrate into the
    cluster-keyed index.

    Args:
        graph: the deduction graph (the index registers itself as listener);
            anything honouring the ClusterGraph ``listener``/``cluster_of``/
            ``deduce``/``n_objects`` contract (an empty graph lets the
            constructor file every pair as unseen in one pass).
        pending: the initially pending pairs.

    Raises:
        ValueError: if the graph already has another listener.
    """

    def __init__(self, graph: "ClusterGraph", pending: Iterable[Pair]) -> None:
        if graph.listener is not None:
            raise ValueError("the graph already has a listener attached")
        self._graph = graph
        self._by_root: Dict[Hashable, Set[Pair]] = {}
        self._by_unseen: Dict[Hashable, Set[Pair]] = {}
        self._pending: Set[Pair] = set()
        self._dirty: Set[Pair] = set()
        if graph.n_objects:
            for pair in pending:
                self.add_pending(pair)
        else:
            # An empty graph has seen no endpoint: every pair waits in the
            # unseen buckets, and every pair is dirty.
            by_unseen = self._by_unseen
            for pair in pending:
                self._pending.add(pair)
                for obj in (pair.left, pair.right):
                    bucket = by_unseen.get(obj)
                    if bucket is None:
                        by_unseen[obj] = {pair}
                    else:
                        bucket.add(pair)
            self._dirty = set(self._pending)
        graph.listener = self

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._pending

    def add_pending(self, pair: Pair) -> None:
        """Track a new pending pair (it is marked dirty so the next sweep
        evaluates it at least once)."""
        if pair in self._pending:
            return
        self._pending.add(pair)
        for obj in pair:
            if obj in self._graph:
                self._by_root.setdefault(self._graph.cluster_of(obj), set()).add(pair)
            else:
                self._by_unseen.setdefault(obj, set()).add(pair)
        self._dirty.add(pair)

    def remove(self, pair: Pair) -> None:
        """Stop tracking a pair (labeled, or handed to the platform)."""
        if pair not in self._pending:
            return
        self._pending.discard(pair)
        self._dirty.discard(pair)
        for obj in pair:
            if obj in self._graph:
                bucket = self._by_root.get(self._graph.cluster_of(obj))
                if bucket is not None:
                    bucket.discard(pair)
            unseen = self._by_unseen.get(obj)
            if unseen is not None:
                unseen.discard(pair)
                if not unseen:
                    del self._by_unseen[obj]

    def note_objects_seen(self, *objects: Hashable) -> None:
        """Migrate pairs waiting on ``objects`` into the cluster index.

        Call right after inserting a labeled pair whose endpoints may have
        been previously unseen.
        """
        for obj in objects:
            waiting = self._by_unseen.pop(obj, None)
            if not waiting:
                continue
            root = self._graph.cluster_of(obj)
            self._by_root.setdefault(root, set()).update(waiting)
            self._dirty.update(waiting)

    # ------------------------------------------------------------------
    # ClusterGraph listener protocol
    # ------------------------------------------------------------------
    def on_union(self, survivor: Hashable, loser: Hashable) -> None:
        """Two clusters merged: every pending pair touching either may now
        be deducible (same-cluster, or via rewired edges)."""
        moved = self._by_root.pop(loser, set())
        bucket = self._by_root.setdefault(survivor, set())
        bucket.update(moved)
        self._dirty.update(bucket)

    def on_edge(self, root_a: Hashable, root_b: Hashable) -> None:
        """A new cluster-level non-matching edge: pairs spanning these
        clusters may now be deducible as non-matching."""
        self._dirty.update(self._by_root.get(root_a, ()))
        self._dirty.update(self._by_root.get(root_b, ()))

    # ------------------------------------------------------------------
    # sweeping
    # ------------------------------------------------------------------
    def sweep(self) -> List[tuple[Pair, Label]]:
        """Resolve every dirty pair that is now deducible.

        Returns:
            (pair, deduced label) for each newly resolved pair; resolved
            pairs leave the index.
        """
        resolved: List[tuple[Pair, Label]] = []
        dirty = self._dirty
        self._dirty = set()
        for pair in dirty:
            if pair not in self._pending:
                continue
            label = self._graph.deduce(pair)
            if label is not None:
                resolved.append((pair, label))
        for pair, _ in resolved:
            self.remove(pair)
        return resolved

    def pending_pairs(self) -> Set[Pair]:
        """The currently tracked pairs (a copy)."""
        return set(self._pending)

    def check_invariants(self) -> None:
        """Verify internal consistency (for tests)."""
        indexed: Set[Pair] = set()
        for root, bucket in self._by_root.items():
            assert self._graph.cluster_of(root) == root, f"stale root {root!r}"
            indexed.update(bucket)
        for bucket in self._by_unseen.values():
            indexed.update(bucket)
        assert self._pending <= indexed, "pending pair missing from the index"
