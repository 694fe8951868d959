"""The ClusterGraph: the paper's incremental deduction structure.

Section 3.2 observes that for deciding whether a pair can be deduced from a
set of labeled pairs, only the *non-matching* edges on a path matter, so all
matching objects can be collapsed into clusters.  The resulting structure —
union-find over matching edges plus an adjacency of non-matching edges between
cluster representatives — answers ``DeduceLabel`` (Algorithm 1) queries in
near-constant time:

* same cluster                       -> ``MATCHING``
* different clusters, edge present   -> ``NON_MATCHING``
* different clusters, no edge        -> not deducible (``None``)

This module also defines the conflict policies used when labels are noisy
(real crowds err; Section 6.4): inserting a matching edge between two clusters
already linked by a non-matching edge, or a non-matching edge inside one
cluster, is an *inconsistency*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from .pairs import Label, LabeledPair, Pair
from .union_find import UnionFind


@runtime_checkable
class GraphListener(Protocol):
    """Observer for structural ClusterGraph changes.

    Incremental consumers (e.g. :class:`repro.core.sweep.PendingPairIndex`)
    react to exactly the two events that can change any pair's deducibility.
    """

    def on_union(self, survivor: Hashable, loser: Hashable) -> None:
        """Cluster ``loser`` was merged into cluster ``survivor``."""
        ...  # pragma: no cover - protocol

    def on_edge(self, root_a: Hashable, root_b: Hashable) -> None:
        """A new non-matching edge appeared between two cluster roots."""
        ...  # pragma: no cover - protocol


class InconsistentLabelError(ValueError):
    """Raised (under the STRICT policy) when an inserted label contradicts
    what the graph already implies via transitivity."""


class ConflictPolicy(enum.Enum):
    """What to do when an inserted label contradicts the graph.

    STRICT:      raise :class:`InconsistentLabelError`.  The right choice when
                 answers are assumed correct (the paper's main setting).
    FIRST_WINS:  keep the graph as is, record the conflicting pair in
                 :attr:`ClusterGraph.conflicts`, and drop the new edge.  Used
                 when simulating noisy crowds (Table 2), where the paper notes
                 that deductions may cascade from incorrectly labeled pairs.
    """

    STRICT = "strict"
    FIRST_WINS = "first-wins"


@dataclass(frozen=True)
class Conflict:
    """A rejected insertion: ``pair`` arrived labeled ``label`` but the graph
    already implied ``implied``."""

    pair: Pair
    label: Label
    implied: Label


def admit_label(graph, pair: Pair, label: Label) -> bool:
    """Police an insertion against what ``graph`` already implies.

    The single shared conflict check of :class:`ClusterGraph` and the
    vectorized engine core: returns True when the insertion may proceed,
    False when it is rejected under FIRST_WINS (the conflict is recorded on
    ``graph.conflicts``), and raises under STRICT.

    Args:
        graph: anything with ``deduce``/``policy``/``conflicts``.
        pair: the pair being inserted.
        label: its incoming label.

    Raises:
        InconsistentLabelError: under STRICT, when ``label`` contradicts the
            graph's implied label.
    """
    implied = graph.deduce(pair)
    if implied is None or implied is label:
        return True
    if graph.policy is ConflictPolicy.STRICT:
        raise InconsistentLabelError(
            f"{pair!r} inserted as {label.value} but graph implies {implied.value}"
        )
    graph.conflicts.append(Conflict(pair, label, implied))
    return False


def record_each(
    record_one: Callable[[Pair, Label], bool],
    answers: Sequence[Tuple[Pair, Label]],
) -> List[bool]:
    """Apply a run of crowd answers in order, one ``record_one`` call each.

    The shared ``record_answers`` of the in-process engine cores.  Returns
    one applied flag per answer (False: rejected as a FIRST_WINS conflict).
    An answer that raises — a STRICT conflict — ends the run: the exception
    leaves with ``applied_flags``, the flags of the answers applied before
    it and ``None`` for it and every later answer, so the engine records
    exactly what was applied.
    """
    flags: List[Optional[bool]] = []
    try:
        for pair, label in answers:
            flags.append(record_one(pair, label))
    except Exception as exc:
        exc.applied_flags = flags + [None] * (len(answers) - len(flags))
        raise
    return flags


class ClusterGraph:
    """Incremental structure deciding deducibility of pair labels.

    Matching edges union their endpoints' clusters; non-matching edges are
    kept between cluster representatives.  When two clusters merge, the
    smaller side's non-matching adjacency is rewired onto the surviving root.

    Args:
        labeled: optional initial labeled pairs to insert.
        policy: conflict policy applied on inconsistent insertions.
    """

    def __init__(
        self,
        labeled: Iterable[LabeledPair] = (),
        policy: ConflictPolicy = ConflictPolicy.STRICT,
    ) -> None:
        self._uf = UnionFind()
        # Non-matching adjacency between *current* cluster roots.
        self._nm: Dict[Hashable, Set[Hashable]] = {}
        self._policy = policy
        self._n_matching_edges = 0
        self._n_non_matching_edges = 0
        self.conflicts: List[Conflict] = []
        #: Optional observer notified of merges and new edges (see
        #: :class:`GraphListener`); not copied by :meth:`copy`.
        self.listener: Optional[GraphListener] = None
        for item in labeled:
            self.add(item.pair, item.label)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add(self, pair: Pair, label: Label) -> bool:
        """Insert a labeled pair.

        Returns:
            True if the edge was applied, False if it was rejected as a
            conflict under the FIRST_WINS policy (the conflict is recorded).

        Raises:
            InconsistentLabelError: under the STRICT policy, when the label
                contradicts what the graph already implies.
        """
        if not admit_label(self, pair, label):
            return False
        if label is Label.MATCHING:
            self._add_matching(pair.left, pair.right)
        else:
            self._add_non_matching(pair.left, pair.right)
        return True

    def add_matching(self, a: Hashable, b: Hashable) -> bool:
        """Insert ``(a, b)`` as a matching pair."""
        return self.add(Pair(a, b), Label.MATCHING)

    def add_non_matching(self, a: Hashable, b: Hashable) -> bool:
        """Insert ``(a, b)`` as a non-matching pair."""
        return self.add(Pair(a, b), Label.NON_MATCHING)

    def _add_matching(self, a: Hashable, b: Hashable) -> None:
        root_a = self._uf.find(a)
        root_b = self._uf.find(b)
        self._n_matching_edges += 1
        if root_a == root_b:
            return
        survivor = self._uf.union(root_a, root_b)
        loser = root_b if survivor == root_a else root_a
        if self.listener is not None:
            self.listener.on_union(survivor, loser)
        # Rewire the loser's non-matching adjacency onto the survivor.
        loser_nm = self._nm.pop(loser, set())
        if loser_nm:
            survivor_nm = self._nm.setdefault(survivor, set())
            for neighbour in loser_nm:
                self._nm[neighbour].discard(loser)
                if neighbour == survivor:
                    # Would be a self-loop (inconsistency); add() rejects
                    # such inserts, but drop the edge defensively.
                    self._n_non_matching_edges -= 1
                    continue
                if neighbour in survivor_nm:
                    # Parallel edges between the two merged clusters and
                    # this neighbour collapse into one cluster-level edge.
                    self._n_non_matching_edges -= 1
                else:
                    self._nm[neighbour].add(survivor)
                    survivor_nm.add(neighbour)
            if not survivor_nm:
                del self._nm[survivor]

    def _add_non_matching(self, a: Hashable, b: Hashable) -> None:
        root_a = self._uf.find(a)
        root_b = self._uf.find(b)
        # A self-loop would mean a non-matching edge inside a cluster; the
        # conflict check in add() already rejected that case.
        assert root_a != root_b, "internal error: non-matching self-loop"
        if root_b not in self._nm.get(root_a, ()):
            self._nm.setdefault(root_a, set()).add(root_b)
            self._nm.setdefault(root_b, set()).add(root_a)
            self._n_non_matching_edges += 1
            if self.listener is not None:
                self.listener.on_edge(root_a, root_b)

    # ------------------------------------------------------------------
    # deduction (paper Algorithm 1, DeduceLabel)
    # ------------------------------------------------------------------
    def deduce(self, pair: Pair) -> Optional[Label]:
        """Deduce the label of ``pair`` from inserted pairs, or None.

        Implements Algorithm 1: same cluster means a path of matching edges
        exists (positive transitivity); an edge between the two clusters
        means a path with exactly one non-matching edge exists (negative
        transitivity); otherwise the pair is undeducible.
        """
        if pair.left not in self._uf or pair.right not in self._uf:
            return None
        root_left = self._uf.find(pair.left)
        root_right = self._uf.find(pair.right)
        if root_left == root_right:
            return Label.MATCHING
        if root_right in self._nm.get(root_left, ()):
            return Label.NON_MATCHING
        return None

    def deducible(self, pair: Pair) -> bool:
        """True iff the label of ``pair`` is implied by inserted pairs."""
        return self.deduce(pair) is not None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def policy(self) -> ConflictPolicy:
        return self._policy

    @property
    def n_objects(self) -> int:
        """Number of distinct objects seen so far."""
        return len(self._uf)

    @property
    def n_clusters(self) -> int:
        """Number of clusters (union-find components)."""
        return self._uf.n_components

    @property
    def n_matching_edges(self) -> int:
        """Matching pairs inserted (including redundant ones)."""
        return self._n_matching_edges

    @property
    def n_non_matching_edges(self) -> int:
        """Distinct cluster-level non-matching edges currently present."""
        return self._n_non_matching_edges

    def __contains__(self, obj: Hashable) -> bool:
        """True iff ``obj`` appeared in some inserted pair."""
        return obj in self._uf

    def objects(self) -> Iterator[Hashable]:
        """Iterate every object seen so far."""
        return iter(self._uf)

    def cluster_of(self, obj: Hashable) -> Hashable:
        """The canonical representative of ``obj``'s cluster."""
        return self._uf.find(obj)

    def cluster_members(self, obj: Hashable) -> Set[Hashable]:
        """All objects transitively matched with ``obj`` (including it)."""
        root = self._uf.find(obj)
        return {o for o in self._uf if self._uf.find(o) == root}

    def same_cluster(self, a: Hashable, b: Hashable) -> bool:
        """True iff ``a`` and ``b`` have been merged by matching edges."""
        if a not in self._uf or b not in self._uf:
            return False
        return self._uf.find(a) == self._uf.find(b)

    def clusters(self) -> List[Set[Hashable]]:
        """All clusters as sets of objects."""
        return self._uf.components()

    def non_matching_cluster_edges(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """Iterate distinct cluster-level non-matching edges once each."""
        seen: Set[frozenset] = set()
        for root, neighbours in self._nm.items():
            for other in neighbours:
                key = frozenset((root, other))
                if key not in seen:
                    seen.add(key)
                    yield (root, other)

    def copy(self) -> "ClusterGraph":
        """An independent deep copy."""
        clone = ClusterGraph(policy=self._policy)
        clone._uf = self._uf.copy()
        clone._nm = {root: set(neighbours) for root, neighbours in self._nm.items()}
        clone._n_matching_edges = self._n_matching_edges
        clone._n_non_matching_edges = self._n_non_matching_edges
        clone.conflicts = list(self.conflicts)
        return clone

    def check_invariants(self) -> None:
        """Verify internal consistency; raises AssertionError on violation.

        Intended for tests: adjacency must be symmetric, keyed by current
        roots, and free of self-loops.
        """
        for root, neighbours in self._nm.items():
            assert self._uf.find(root) == root, f"{root!r} is not a current root"
            assert root not in neighbours, f"self-loop at {root!r}"
            for other in neighbours:
                assert root in self._nm.get(other, ()), "asymmetric adjacency"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterGraph({self.n_objects} objects, {self.n_clusters} clusters, "
            f"{self.n_non_matching_edges} non-matching edges)"
        )


def deduce_label(pair: Pair, labeled: Iterable[LabeledPair]) -> Optional[Label]:
    """One-shot ``DeduceLabel(p, L)`` exactly as in paper Figure 5.

    Builds a fresh ClusterGraph for ``labeled`` and queries it.  Incremental
    callers should hold a :class:`ClusterGraph` instead of re-building.
    """
    return ClusterGraph(labeled).deduce(pair)
