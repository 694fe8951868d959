"""Sharded deduction backend: the ClusterGraph partitioned by component.

Deduction is *component-local*: Algorithm 1 decides a pair from paths of
labeled edges, and a path can never leave the connected component of the
answer graph (matching and non-matching edges alike).  Wang et al. (SIGMOD
2013) exploit this implicitly — every cluster operation touches one
component — and the follow-up expected-optimal-labeling-order work
(arXiv:1409.7472) makes the observation explicit.  At the ROADMAP's target
scale (orders of 10M+ candidate pairs) a monolithic
:class:`~repro.core.cluster_graph.ClusterGraph` keeps working, but every
order-wide operation — the Algorithm-3 frontier scan above all — pays for
the whole graph on every event.

This module shards both halves of the hot path:

* :class:`ShardedClusterGraph` partitions *received answers* into one
  :class:`~repro.core.cluster_graph.ClusterGraph` per answer-graph component.
  Pairs are routed to the shard owning their endpoints; an answer bridging
  two shards merges them **lazily** — the smaller shard's structures are
  spliced into the larger via ``absorb`` in O(smaller), never a rebuild.
  The class implements the full ClusterGraph contract, including the
  ``listener`` seam, so :class:`~repro.core.sweep.PendingPairIndex` and every
  dispatch strategy work unchanged on top of it.

* :class:`ShardedFrontier` partitions the *labeling order* by connected
  component of the candidate-pair graph (fixed at construction: labeled or
  assumed matching, every pair in the order connects its endpoints in the
  optimistic graph, so the Algorithm-3 scan decomposes exactly by these
  components).  Each component gets its own
  :class:`~repro.engine.frontier.FrontierCursor`; an answer or publish event
  dirties only its own component, and a frontier call recomputes only dirty
  components, merging cached per-component selections by order position.

The frontier is the selection of both in-process graph backends and of
each shard worker; the sharded graph is what ``backend="sharded"`` adds
(the ``auto`` backend picks it above a size threshold when numpy is
missing, see ``LabelingEngine``'s ``backend`` knob).
"""

from __future__ import annotations

from heapq import merge as _heap_merge
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..core.cluster_graph import (
    ClusterGraph,
    Conflict,
    ConflictPolicy,
    GraphListener,
    admit_label,
)
from ..core.pairs import CandidatePair, Label, LabeledPair, Pair
from ..core.union_find import UnionFind
from .frontier import FrontierCursor, find_root, greedy_forest


class _ListenerForwarder:
    """Relays shard-level graph events to the outer graph's listener.

    Inner cluster roots are plain objects and an object lives in exactly one
    shard, so events forward unchanged — consumers like
    :class:`~repro.core.sweep.PendingPairIndex` cannot tell a sharded graph
    from a monolithic one.
    """

    __slots__ = ("_outer",)

    def __init__(self, outer: "ShardedClusterGraph") -> None:
        self._outer = outer

    def on_union(self, survivor: Hashable, loser: Hashable) -> None:
        listener = self._outer.listener
        if listener is not None:
            listener.on_union(survivor, loser)

    def on_edge(self, root_a: Hashable, root_b: Hashable) -> None:
        listener = self._outer.listener
        if listener is not None:
            listener.on_edge(root_a, root_b)


class ShardedClusterGraph:
    """A drop-in ClusterGraph that keeps one shard per answer-graph component.

    Routing: an outer union-find (``membership``) tracks which component each
    object belongs to, where *any* labeled edge — matching or non-matching —
    connects its endpoints (a non-matching edge can sit on a deduction path,
    so shards joined by one cannot be kept apart).  Each component root maps
    to an inner :class:`ClusterGraph` holding that component's answers.

    Merging is lazy: when an answer bridges two shards, the smaller shard's
    union-find and adjacency are spliced into the larger in O(smaller shard)
    via ``absorb`` — amortised over a run this is the classic small-into-large
    O(n log n) bound, and no rebuild or re-insertion ever happens.

    Conflict policing happens at this outer layer (same semantics and
    bookkeeping as the monolithic graph); inner shards therefore only ever
    see consistent inserts and run STRICT.

    Args:
        labeled: optional initial labeled pairs to insert.
        policy: conflict policy applied on inconsistent insertions.
    """

    def __init__(
        self,
        labeled: Iterable[LabeledPair] = (),
        policy: ConflictPolicy = ConflictPolicy.STRICT,
    ) -> None:
        self._membership = UnionFind()
        self._shards: Dict[Hashable, ClusterGraph] = {}
        self._policy = policy
        self.conflicts: List[Conflict] = []
        #: Optional observer notified of merges and new edges (see
        #: :class:`~repro.core.cluster_graph.GraphListener`); events from all
        #: shards funnel here.  Not copied by :meth:`copy`.
        self.listener: Optional[GraphListener] = None
        self._forward = _ListenerForwarder(self)
        for item in labeled:
            self.add(item.pair, item.label)

    # ------------------------------------------------------------------
    # shard routing
    # ------------------------------------------------------------------
    def _new_shard(self, root: Hashable) -> ClusterGraph:
        shard = ClusterGraph(policy=ConflictPolicy.STRICT)
        shard.listener = self._forward
        self._shards[root] = shard
        return shard

    def _shard_of(self, obj: Hashable) -> ClusterGraph:
        """The shard owning ``obj``; unseen objects get a singleton shard
        (mirroring the monolithic graph's lazy object registration)."""
        membership = self._membership
        if obj not in membership:
            root = membership.find(obj)  # registers the singleton
            shard = self._new_shard(root)
            shard.cluster_of(obj)  # registers obj inside the shard
            return shard
        return self._shards[membership.find(obj)]

    def _route(self, a: Hashable, b: Hashable) -> ClusterGraph:
        """The single shard that will own the edge ``(a, b)``, creating or
        merging shards as needed and re-keying the shard table."""
        membership = self._membership
        in_a = a in membership
        in_b = b in membership
        if not in_a and not in_b:
            root = membership.union(a, b)
            return self._new_shard(root)
        if in_a and in_b:
            root_a = membership.find(a)
            root_b = membership.find(b)
            if root_a == root_b:
                return self._shards[root_a]
            big, small = self._shards[root_a], self._shards[root_b]
            if big.n_objects < small.n_objects:
                big, small = small, big
            big.absorb(small)
            root = membership.union(root_a, root_b)
            self._shards.pop(root_a)
            self._shards.pop(root_b)
            self._shards[root] = big
            return big
        seen = a if in_a else b
        old_root = membership.find(seen)
        shard = self._shards[old_root]
        root = membership.union(a, b)
        if root != old_root:
            del self._shards[old_root]
            self._shards[root] = shard
        return shard

    # ------------------------------------------------------------------
    # insertion (ClusterGraph contract)
    # ------------------------------------------------------------------
    def add(self, pair: Pair, label: Label) -> bool:
        """Insert a labeled pair; same contract as ``ClusterGraph.add``."""
        if not admit_label(self, pair, label):
            return False
        # The shared check above already policed consistency against the
        # routed deduction, so the shard applies the edge without re-deducing
        # — merging, adjacency rewiring, counters, and listener events all
        # happen inside the shard exactly as on the monolithic graph.
        self._route(pair.left, pair.right).add_unchecked(pair, label)
        return True

    def add_matching(self, a: Hashable, b: Hashable) -> bool:
        """Insert ``(a, b)`` as a matching pair."""
        return self.add(Pair(a, b), Label.MATCHING)

    def add_non_matching(self, a: Hashable, b: Hashable) -> bool:
        """Insert ``(a, b)`` as a non-matching pair."""
        return self.add(Pair(a, b), Label.NON_MATCHING)

    # ------------------------------------------------------------------
    # deduction
    # ------------------------------------------------------------------
    def deduce(self, pair: Pair) -> Optional[Label]:
        """Algorithm-1 deduction, routed to the owning shard.

        Objects in different shards share no labeled path, so the answer is
        immediately None without touching any shard.
        """
        membership = self._membership
        if pair.left not in membership or pair.right not in membership:
            return None
        root_left = membership.find(pair.left)
        root_right = membership.find(pair.right)
        if root_left != root_right:
            return None
        return self._shards[root_left].deduce(pair)

    def deducible(self, pair: Pair) -> bool:
        """True iff the label of ``pair`` is implied by inserted pairs."""
        return self.deduce(pair) is not None

    # ------------------------------------------------------------------
    # inspection (ClusterGraph contract)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> ConflictPolicy:
        return self._policy

    @property
    def n_objects(self) -> int:
        return len(self._membership)

    @property
    def n_clusters(self) -> int:
        return sum(shard.n_clusters for shard in self._shards.values())

    @property
    def n_matching_edges(self) -> int:
        return sum(shard.n_matching_edges for shard in self._shards.values())

    @property
    def n_non_matching_edges(self) -> int:
        return sum(shard.n_non_matching_edges for shard in self._shards.values())

    @property
    def n_shards(self) -> int:
        """Number of live shards (= answer-graph components)."""
        return len(self._shards)

    def shard_sizes(self) -> List[int]:
        """Objects per shard, descending — the shard balance picture."""
        return sorted((shard.n_objects for shard in self._shards.values()), reverse=True)

    def __contains__(self, obj: Hashable) -> bool:
        return obj in self._membership

    def objects(self) -> Iterator[Hashable]:
        return iter(self._membership)

    def cluster_of(self, obj: Hashable) -> Hashable:
        return self._shard_of(obj).cluster_of(obj)

    def cluster_members(self, obj: Hashable) -> Set[Hashable]:
        """All objects transitively matched with ``obj`` — an O(shard) scan,
        not O(all objects) as on the monolithic graph."""
        return self._shard_of(obj).cluster_members(obj)

    def same_cluster(self, a: Hashable, b: Hashable) -> bool:
        membership = self._membership
        if a not in membership or b not in membership:
            return False
        root_a = membership.find(a)
        if root_a != membership.find(b):
            return False
        return self._shards[root_a].same_cluster(a, b)

    def clusters(self) -> List[Set[Hashable]]:
        out: List[Set[Hashable]] = []
        for shard in self._shards.values():
            out.extend(shard.clusters())
        return out

    def non_matching_cluster_edges(self) -> Iterator[Tuple[Hashable, Hashable]]:
        for shard in self._shards.values():
            yield from shard.non_matching_cluster_edges()

    def copy(self) -> "ShardedClusterGraph":
        """An independent deep copy (listener not copied, as on the
        monolithic graph)."""
        clone = ShardedClusterGraph(policy=self._policy)
        clone._membership = self._membership.copy()
        for root, shard in self._shards.items():
            inner = shard.copy()
            inner.listener = clone._forward
            clone._shards[root] = inner
        clone.conflicts = list(self.conflicts)
        return clone

    def check_invariants(self) -> None:
        """Verify internal consistency; raises AssertionError on violation."""
        seen_objects = 0
        for root, shard in self._shards.items():
            assert self._membership.find(root) == root, f"{root!r} is not a membership root"
            shard.check_invariants()
            seen_objects += shard.n_objects
        assert seen_objects == len(self._membership), "shard object counts disagree with membership"
        for obj in self._membership:
            root = self._membership.find(obj)
            assert root in self._shards, f"no shard for root {root!r}"
            assert obj in self._shards[root], f"{obj!r} missing from its shard"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedClusterGraph({self.n_objects} objects, {self.n_shards} shards, "
            f"{self.n_clusters} clusters)"
        )


def _as_pairs(order: Sequence[Union[Pair, CandidatePair]]) -> List[Pair]:
    return [item.pair if isinstance(item, CandidatePair) else item for item in order]


_Entry = Tuple[int, Pair]


class ShardedFrontier:
    """Per-component must-crowdsource frontiers with dirty-component caching.

    The Algorithm-3 scan decomposes exactly by connected component of the
    *candidate-pair graph* (every pair in the order): a pair at position *i*
    is selected based on the optimistic graph built from positions before
    *i*, and only pairs sharing its component can reach its endpoints —
    whether labeled with their real label or assumed matching, pairs in other
    components touch disjoint object sets.  The full frontier is therefore
    the position-order merge of per-component frontiers.

    That makes the frontier *incrementally maintainable*: a label or publish
    event can only change the frontier of its own component, so this class
    caches each component's selection and recomputes only components marked
    dirty since the last call — each through its own
    :class:`~repro.engine.frontier.FrontierCursor` (built on the component's
    first dirty call), which additionally skips the component's decided
    prefix.  On workloads with many components (the normal shape after
    blocking), the *scan* work per answer event drops from O(order) to
    O(the touched component); materializing the returned list still costs
    O(current frontier size) — that is the size of the answer — plus the
    position merge, and repeat calls with no dirty component return a
    cached copy.

    Construction is one union-find pass over the order, which yields both
    the components and the first selection.  With nothing labeled and
    nothing published, every pair is assumed matching and no non-matching
    edge exists, so Algorithm 3 selects exactly the pairs whose endpoints
    the pairs before them have not yet connected — the greedy spanning
    forest of the order.  A first call with labels or exclusions present
    (a restored engine, an earlier publish) recomputes every component
    through its cursor instead.

    Args:
        order: the full labeling order (pairs or candidate pairs), or the
            subsequence of it this frontier covers.
        positions: optional global order positions of ``order``'s entries
            (a shard worker covers interleaved subsequences of the order).
            Defaults to 0..len(order)-1.
    """

    def __init__(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        positions: Optional[Sequence[int]] = None,
    ) -> None:
        pairs = _as_pairs(order)
        if positions is None:
            positions = range(len(pairs))
        elif len(positions) != len(pairs):
            raise ValueError("positions must parallel the order")
        in_forest, parent = greedy_forest(
            [pair.left for pair in pairs], [pair.right for pair in pairs]
        )
        self._root_of: Dict[Hashable, Hashable] = {
            obj: find_root(parent, obj) for obj in parent
        }
        root_of = self._root_of
        # Each component's share of the order, until its cursor is built.
        grouped: Dict[Hashable, Tuple[List[int], List[Pair]]] = {}
        selected: Dict[Hashable, List[_Entry]] = {}
        first: List[_Entry] = []
        for position, pair, chosen in zip(positions, pairs, in_forest):
            root = root_of[pair.left]
            group = grouped.get(root)
            if group is None:
                group = grouped[root] = ([], [])
            group[0].append(position)
            group[1].append(pair)
            if chosen:
                entry = (position, pair)
                first.append(entry)
                run = selected.get(root)
                if run is None:
                    selected[root] = [entry]
                else:
                    run.append(entry)
        self._grouped = grouped
        self._n_components = len(grouped)
        self._cursors: Dict[Hashable, FrontierCursor] = {}
        self._selected = selected
        self._dirty: Set[Hashable] = set()
        self._first: Optional[List[_Entry]] = first
        self._merged: Optional[List[_Entry]] = None

    @property
    def n_components(self) -> int:
        """Number of static candidate-graph components (fixed at
        construction; an upper bound on concurrently active shards)."""
        return self._n_components

    @property
    def current(self) -> bool:
        """True when a selection was made and no component was marked
        dirty since: the next call would return the same selection."""
        return self._merged is not None

    def mark_dirty(self, pair: Pair) -> None:
        """Note that ``pair``'s labeled/published status changed: its
        component's cached selection must be recomputed."""
        # Membership, not the root's value: None is a valid object id and
        # can be a component root.
        if pair.left in self._root_of:
            self._dirty.add(self._root_of[pair.left])
            self._merged = None

    def _selection(
        self, labeled: Dict[Pair, Label], exclude: Optional[Set[Pair]]
    ) -> List[_Entry]:
        first = self._first
        if first is not None:
            # The first call: the forest selection holds only while nothing
            # is labeled or published.  No cursor exists yet, so the
            # grouped components are all of them.
            self._first = None
            if labeled or exclude:
                self._dirty = set(self._grouped)
                self._merged = None
            else:
                self._dirty.clear()
                self._merged = first
        if self._merged is None:
            for root in self._dirty:
                cursor = self._cursors.get(root)
                if cursor is None:
                    positions, members = self._grouped.pop(root)
                    cursor = self._cursors[root] = FrontierCursor(members, positions)
                self._selected[root] = cursor.select(labeled, exclude)
            self._dirty.clear()
            runs = [run for run in self._selected.values() if run]
            if len(runs) <= 1:
                self._merged = runs[0] if runs else []
            else:
                self._merged = list(_heap_merge(*runs))
        return self._merged

    def select(
        self,
        labeled: Dict[Pair, Label],
        exclude: Optional[Set[Pair]] = None,
    ) -> List[_Entry]:
        """The current must-crowdsource selection as ``(position, pair)``
        tuples, in position order.

        Identical to ``must_crowdsource_frontier(order, labeled, exclude)``
        (property-tested); only dirty components are recomputed.  Every
        change to a pair's entry in ``labeled``/``exclude`` since the last
        call must have been announced via :meth:`mark_dirty` — the engine
        does this in its event handlers — otherwise the pair's component may
        serve a stale cached selection.
        """
        return list(self._selection(labeled, exclude))

    def frontier(
        self,
        labeled: Dict[Pair, Label],
        exclude: Optional[Set[Pair]] = None,
    ) -> List[Pair]:
        """Like :meth:`select`, without the positions."""
        return [pair for _, pair in self._selection(labeled, exclude)]
