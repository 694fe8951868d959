"""The must-crowdsource frontier (paper Section 5.1, Algorithm 3).

A pair *must* be crowdsourced — no matter how earlier pairs turn out — when
every path between its objects has a minimum of two non-matching edges even
under the optimistic assumption that **all** unlabeled pairs before it are
matching: real answers can only turn assumed-matching edges into non-matching
ones, which never lowers a path's non-matching count.

This module is the single shared implementation of that test.  Every
dispatch strategy (round-parallel, instant-decision, the HIT-granularity
campaign adapter) calls into it, so the optimistic semantics live in
exactly one place: :func:`must_crowdsource_frontier` is the reference
scan, :class:`FrontierCursor` the same scan from a decided prefix on, and
:class:`ShardedFrontier` the selection the in-process graph backend and
every shard worker serve — one cursor per connected component of the
order, re-run only for the components an event touched.

Reproduction note: the paper's Algorithm 3 pseudocode inserts only the
*selected* pairs as matching and leaves optimistically-deducible pairs out of
the graph.  That variant is unsound in rare interleavings (an unlabeled pair
whose optimistic deduction is non-matching may truly be matching, enabling
deductions the selection ignored — the instant-decision mode can then
over-publish).  We implement the paper's *prose* criterion instead: every
unlabeled pair, selected or skipped, is assumed matching, which restores the
minimum-non-matching-count argument.  See docs/engine.md.
"""

from __future__ import annotations

from heapq import merge as _heap_merge
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

from ..core.pairs import CandidatePair, Label, Pair
from ..core.union_find import UnionFind


class OptimisticGraph:
    """Cluster graph under the "all unlabeled pairs match" assumption.

    Unlike :class:`~repro.core.cluster_graph.ClusterGraph`, merging two
    clusters connected by a non-matching edge is *allowed* here: the edge
    becomes a self-loop and is dropped, because in minimum-non-matching-count
    semantics an intra-cluster non-matching edge can never lie on a minimal
    path.  Likewise a non-matching edge inside one cluster is silently
    ignored.  This permissiveness is exactly what the optimistic assumption
    needs and would be a consistency violation anywhere else.

    :meth:`checkpoint` / :meth:`rollback` journal all structural changes so
    the selection scan can apply its *speculative* assumed-matching merges on
    top of a persistent prefix and undo them in time proportional to the
    speculation (see :class:`FrontierCursor`).
    """

    def __init__(self) -> None:
        self._uf = UnionFind()
        self._nm: Dict[Hashable, Set[Hashable]] = {}
        # Undo log for the active checkpoint; None when not journaling.
        # Entries: ("restore_key", key, set), ("del_key", key),
        # ("add", set, element) and ("discard", set, element) — each the
        # *inverse* of the mutation performed.
        self._log: Optional[List[Tuple]] = None

    def checkpoint(self) -> None:
        """Start journaling changes for a later :meth:`rollback`.

        Raises:
            RuntimeError: if a checkpoint is already active.
        """
        if self._log is not None:
            raise RuntimeError("a checkpoint is already active")
        self._uf.checkpoint()
        self._log = []

    def rollback(self) -> None:
        """Undo every change since :meth:`checkpoint`.

        Raises:
            RuntimeError: if no checkpoint is active.
        """
        if self._log is None:
            raise RuntimeError("no active checkpoint to roll back")
        log = self._log
        self._log = None
        for entry in reversed(log):
            op = entry[0]
            if op == "add":
                entry[1].add(entry[2])
            elif op == "discard":
                entry[1].discard(entry[2])
            elif op == "restore_key":
                self._nm[entry[1]] = entry[2]
            else:  # "del_key"
                del self._nm[entry[1]]
        self._uf.rollback()

    def assume_matching(self, a: Hashable, b: Hashable) -> None:
        """Merge the clusters of ``a`` and ``b`` (real or assumed match)."""
        root_a = self._uf.find(a)
        root_b = self._uf.find(b)
        if root_a == root_b:
            return
        survivor = self._uf.union(root_a, root_b)
        loser = root_b if survivor == root_a else root_a
        log = self._log
        loser_nm = self._nm.pop(loser, None)
        if loser_nm is None:
            return
        if log is not None:
            log.append(("restore_key", loser, loser_nm))
        survivor_nm = self._nm.get(survivor)
        if survivor_nm is None:
            survivor_nm = self._nm[survivor] = set()
            if log is not None:
                log.append(("del_key", survivor))
        for neighbour in loser_nm:
            neighbour_nm = self._nm[neighbour] if neighbour != survivor else survivor_nm
            neighbour_nm.discard(loser)
            if log is not None:
                log.append(("add", neighbour_nm, loser))
            if neighbour != survivor and survivor not in neighbour_nm:
                neighbour_nm.add(survivor)
                survivor_nm.add(neighbour)
                if log is not None:
                    log.append(("discard", neighbour_nm, survivor))
                    log.append(("discard", survivor_nm, neighbour))
        if not survivor_nm and log is None:
            del self._nm[survivor]

    def add_non_matching(self, a: Hashable, b: Hashable) -> None:
        """Record a real non-matching answer (ignored if intra-cluster)."""
        root_a = self._uf.find(a)
        root_b = self._uf.find(b)
        if root_a == root_b:
            return
        log = self._log
        for key, other in ((root_a, root_b), (root_b, root_a)):
            bucket = self._nm.get(key)
            if bucket is None:
                bucket = self._nm[key] = set()
                if log is not None:
                    log.append(("del_key", key))
            if other not in bucket:
                bucket.add(other)
                if log is not None:
                    log.append(("discard", bucket, other))

    def deduce(self, pair: Pair) -> Optional[Label]:
        """Optimistic ``DeduceLabel``: the label ``pair`` would get if every
        assumed pair really were matching, or None when no path constrains
        it."""
        if pair.left not in self._uf or pair.right not in self._uf:
            return None
        root_left = self._uf.find(pair.left)
        root_right = self._uf.find(pair.right)
        if root_left == root_right:
            return Label.MATCHING
        if root_right in self._nm.get(root_left, ()):
            return Label.NON_MATCHING
        return None

    def must_crowdsource(self, pair: Pair) -> bool:
        """True iff no path between the objects can have fewer than two
        non-matching edges, i.e. the pair is undeducible under every possible
        outcome of the assumed pairs."""
        return self.separated(pair.left, pair.right)

    def separated(self, a: Hashable, b: Hashable) -> bool:
        """:meth:`must_crowdsource` for the objects ``a`` and ``b``: they sit
        in different clusters with no non-matching edge between them."""
        uf = self._uf
        if a not in uf or b not in uf:
            return True
        root_a = uf.find(a)
        root_b = uf.find(b)
        return root_a != root_b and root_b not in self._nm.get(root_a, ())


def must_crowdsource_frontier(
    order: Sequence[Union[Pair, CandidatePair]],
    labeled: Dict[Pair, Label],
    exclude: Optional[Set[Pair]] = None,
) -> List[Pair]:
    """Identify the pairs that can be crowdsourced in parallel (Algorithm 3).

    Scans ``order`` once, maintaining an :class:`OptimisticGraph`.  Labeled
    pairs are inserted with their real label; every unlabeled pair is assumed
    matching, and is selected for crowdsourcing when, at its position, it is
    undeducible under that assumption (hence undeducible under *any* actual
    outcome of the pairs before it).

    Args:
        order: the full labeling order.
        labeled: pairs already labeled (crowdsourced or deduced).
        exclude: pairs already published and awaiting answers; they keep
            their assumed-matching role but are not re-published.  This is
            the one-line change enabling the instant-decision optimisation
            (Section 5.2).

    Returns:
        Pairs to publish now, in order.
    """
    exclude = exclude or set()
    graph = OptimisticGraph()
    selected: List[Pair] = []
    for item in order:
        pair = item.pair if isinstance(item, CandidatePair) else item
        known = labeled.get(pair)
        if known is not None:
            if known is Label.MATCHING:
                graph.assume_matching(pair.left, pair.right)
            else:
                graph.add_non_matching(pair.left, pair.right)
            continue
        if graph.must_crowdsource(pair) and pair not in exclude:
            selected.append(pair)
        # Optimistic assumption: the unlabeled pair is matching — whether it
        # was selected, excluded, or deducible (see module docstring).
        graph.assume_matching(pair.left, pair.right)
    return selected


def find_root(parent: Dict[Hashable, Hashable], obj: Hashable) -> Hashable:
    """The root of ``obj`` in the bare union-find ``parent`` map (a new
    singleton if unseen), compressing the path it walks."""
    root = parent.setdefault(obj, obj)
    if root == obj:
        return root
    while root != parent[root]:
        root = parent[root]
    while obj != root:
        parent[obj], obj = root, parent[obj]
    return root


def greedy_forest(
    lefts: Sequence[Hashable], rights: Sequence[Hashable]
) -> Tuple[List[bool], Dict[Hashable, Hashable]]:
    """The greedy spanning forest of the edges ``zip(lefts, rights)``, in order.

    An edge is in the forest when the edges before it have not connected its
    endpoints.  That is Algorithm 3's selection while nothing is labeled or
    published: every pair is assumed matching and no non-matching edge
    exists, so a pair must be crowdsourced exactly when no earlier pair has
    joined its objects.

    Returns:
        The in-forest flag of each edge, and the union-find parent map over
        every endpoint (:func:`find_root` reads a component root off it).
    """
    parent: Dict[Hashable, Hashable] = {}
    mask: List[bool] = []
    for left, right in zip(lefts, rights):
        root_left, root_right = find_root(parent, left), find_root(parent, right)
        if root_left == root_right:
            mask.append(False)
        else:
            parent[root_right] = root_left
            mask.append(True)
    return mask, parent


def _as_pairs(order: Sequence[Union[Pair, CandidatePair]]) -> List[Pair]:
    return [item.pair if isinstance(item, CandidatePair) else item for item in order]


_Entry = Tuple[int, Pair]


class FrontierCursor:
    """Incremental Algorithm-3 selection with a decided-prefix cursor.

    :func:`must_crowdsource_frontier` rebuilds its optimistic graph from
    position 0 on every call, although the leading run of already-labeled
    pairs contributes exactly the same insertions each time — labels are
    final once assigned.  The cursor keeps a persistent
    :class:`OptimisticGraph` holding precisely that decided prefix and, per
    call, scans only the remaining suffix: the suffix's temporary
    assumed-matching merges are applied under a checkpoint and rolled back
    afterwards, so a selection costs O(suffix) instead of O(order).  This is
    what makes instant-decision re-publishes cheap late in a run, when most
    of the order is already decided.

    Selections are exactly those of :func:`must_crowdsource_frontier` on the
    same arguments (property-tested).

    Args:
        order: the (sub)sequence of the labeling order this cursor covers.
        positions: optional global order positions of ``order``'s entries —
            used by :class:`ShardedFrontier`, whose per-component cursors
            cover interleaved subsequences.  Defaults to 0..len(order)-1.
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
        self._entries: List[_Entry] = list(zip(positions, pairs))
        self._cursor = 0
        self._graph = OptimisticGraph()

    @property
    def decided_prefix(self) -> int:
        """How many leading positions are permanently folded into the base
        graph (grows monotonically as labels become final)."""
        return self._cursor

    def __len__(self) -> int:
        return len(self._entries)

    def _apply(self, pair: Pair, label: Label) -> None:
        if label is Label.MATCHING:
            self._graph.assume_matching(pair.left, pair.right)
        else:
            self._graph.add_non_matching(pair.left, pair.right)

    def select(
        self,
        labeled: Dict[Pair, Label],
        exclude: Optional[Set[Pair]] = None,
    ) -> List[Tuple[int, Pair]]:
        """The must-crowdsource selection as ``(position, pair)`` tuples.

        Args:
            labeled: pairs with final labels; must be a superset of what any
                earlier call saw (labels never change, so the decided prefix
                only grows).
            exclude: published pairs awaiting answers — assumed matching but
                not re-selected.

        Returns:
            Selected entries in order-position order.
        """
        exclude = exclude or ()
        entries = self._entries
        n = len(entries)
        cursor = self._cursor
        # Fold newly decided prefix positions permanently into the base graph.
        while cursor < n:
            known = labeled.get(entries[cursor][1])
            if known is None:
                break
            self._apply(entries[cursor][1], known)
            cursor += 1
        self._cursor = cursor
        if cursor == n:
            return []
        graph = self._graph
        selected: List[Tuple[int, Pair]] = []
        graph.checkpoint()
        try:
            for i in range(cursor, n):
                position, pair = entries[i]
                known = labeled.get(pair)
                if known is not None:
                    self._apply(pair, known)
                    continue
                if graph.must_crowdsource(pair) and pair not in exclude:
                    selected.append((position, pair))
                # Optimistic assumption, exactly as in the full scan.
                graph.assume_matching(pair.left, pair.right)
        finally:
            graph.rollback()
        return selected

    def frontier(
        self,
        labeled: Dict[Pair, Label],
        exclude: Optional[Set[Pair]] = None,
    ) -> List[Pair]:
        """Like :meth:`select`, without the positions."""
        return [pair for _, pair in self.select(labeled, exclude)]


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
    dirty since the last call — each through its own :class:`FrontierCursor`
    (built on the component's first dirty call), which additionally skips
    the component's decided prefix.  On workloads with many components (the normal shape after
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
        construction)."""
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
