"""One-to-one join relations (paper Section 8, future work).

The conclusion lists "explore other kinds of relations (e.g. one-to-one
relationship)" as future work.  In a bipartite join where each left-table
record matches at most one right-table record (product catalogues: one
listing per store per product), a matching answer carries extra negative
information: once ``a ~ b`` is known, every other pair touching ``a`` on the
right side (or ``b`` on the left side) is non-matching.

:class:`OneToOneClusterGraph` layers this rule on top of the transitive
ClusterGraph: a pair is deducible as non-matching when either object's
cluster already *occupies* the other object's source (contains a different
record from it).  Deduction power strictly increases, so crowdsourced counts
can only drop (property-tested).  The rule is only *sound* when the ground
truth really is one-to-one per source — applying it to data with multi-record
sources trades correctness for savings, which the ablation benchmark
quantifies.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Union

from ..core.cluster_graph import ClusterGraph, ConflictPolicy
from ..core.oracle import LabelOracle
from ..core.pairs import CandidatePair, Label, Pair, Provenance
from ..core.result import LabelingResult


class OneToOneClusterGraph:
    """ClusterGraph + the one-to-one deduction rule.

    Args:
        source_of: record -> source-table name for every record that may
            appear; records missing from the map are treated as sourceless
            (the rule never fires for them).
        policy: conflict policy of the underlying ClusterGraph.
    """

    def __init__(
        self,
        source_of: Mapping[Hashable, str],
        policy: ConflictPolicy = ConflictPolicy.STRICT,
    ) -> None:
        self._graph = ClusterGraph(policy=policy)
        self._source_of = source_of
        # cluster root -> {source name -> representative record}; maintained
        # incrementally as matching inserts merge clusters.
        self._occupied: Dict[Hashable, Dict[str, Hashable]] = {}

    @property
    def base_graph(self) -> ClusterGraph:
        """The underlying transitive-only ClusterGraph."""
        return self._graph

    def _register(self, obj: Hashable) -> None:
        root = self._graph.cluster_of(obj)
        entry = self._occupied.setdefault(root, {})
        source = self._source_of.get(obj)
        if source is not None:
            entry.setdefault(source, obj)

    def add(self, pair: Pair, label: Label) -> bool:
        """Insert a labeled pair (same contract as ClusterGraph.add)."""
        if label is Label.MATCHING and pair.left in self._graph and pair.right in self._graph:
            old_roots = {
                self._graph.cluster_of(pair.left),
                self._graph.cluster_of(pair.right),
            }
        else:
            old_roots = set()
        applied = self._graph.add(pair, label)
        if not applied:
            return False
        if label is Label.MATCHING:
            merged: Dict[str, Hashable] = {}
            for root in old_roots:
                for source, occupant in self._occupied.pop(root, {}).items():
                    merged.setdefault(source, occupant)
            new_root = self._graph.cluster_of(pair.left)
            entry = self._occupied.setdefault(new_root, {})
            for source, occupant in merged.items():
                entry.setdefault(source, occupant)
        self._register(pair.left)
        self._register(pair.right)
        return True

    def deduce(self, pair: Pair) -> Optional[Label]:
        """Transitive deduction first, then the one-to-one rule.

        The rule only speaks about *cross-source* pairs — the ones a
        bipartite join actually asks about.
        """
        deduced = self._graph.deduce(pair)
        if deduced is not None:
            return deduced
        left_source = self._source_of.get(pair.left)
        right_source = self._source_of.get(pair.right)
        if left_source is None or right_source is None or left_source == right_source:
            return None
        if self._occupied_elsewhere(pair.left, pair.right):
            return Label.NON_MATCHING
        if self._occupied_elsewhere(pair.right, pair.left):
            return Label.NON_MATCHING
        return None

    def _occupied_elsewhere(self, obj: Hashable, other: Hashable) -> bool:
        """Does ``obj``'s cluster already hold a different record from
        ``other``'s source?"""
        other_source = self._source_of.get(other)
        if other_source is None or obj not in self._graph:
            return False
        root = self._graph.cluster_of(obj)
        occupant = self._occupied.get(root, {}).get(other_source)
        return occupant is not None and occupant != other

    def deducible(self, pair: Pair) -> bool:
        return self.deduce(pair) is not None


def label_sequential_one_to_one(
    order: Iterable[Union[Pair, CandidatePair]],
    oracle: LabelOracle,
    source_of: Mapping[Hashable, str],
    policy: ConflictPolicy = ConflictPolicy.STRICT,
) -> LabelingResult:
    """Sequential labeling with one-to-one deduction.

    Identical to the sequential labeler
    (``AsyncDispatch(RuntimeMode.SEQUENTIAL)``) except that the one-to-one
    rule lets strictly more pairs be deduced, so the crowdsourced count can
    only be lower or equal (property-tested).
    """
    graph = OneToOneClusterGraph(source_of, policy=policy)
    pairs = [item.pair if isinstance(item, CandidatePair) else item for item in order]
    result = LabelingResult(order=pairs)
    round_index = 0
    for pair in pairs:
        deduced = graph.deduce(pair)
        if deduced is not None:
            result.record(pair, deduced, Provenance.DEDUCED, round_index)
            continue
        answer = oracle.label(pair)
        graph.add(pair, answer)
        result.rounds.append([pair])
        result.record(pair, answer, Provenance.CROWDSOURCED, round_index)
        round_index += 1
    return result
