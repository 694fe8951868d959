"""Core algorithms from the paper: transitivity-aware labeling of candidate
pairs with minimal crowdsourcing.

Public surface:

* pair/label model: :class:`Pair`, :class:`Label`, :class:`CandidatePair`
* deduction: :class:`ClusterGraph`, :func:`deduce_label`
* orders: :class:`ExpectedOrderSorter`, :class:`OptimalOrderSorter`, ...
* facade: :class:`TransitiveJoinFramework` (the labelers themselves are the
  dispatch strategies of :mod:`repro.engine`)
"""

from .cluster_graph import (
    ClusterGraph,
    Conflict,
    ConflictPolicy,
    GraphListener,
    InconsistentLabelError,
    deduce_label,
)
from .consistency import entity_partition, find_violations, is_consistent
from .deduction import deduce_by_path_enumeration, deduce_by_search
from .expected_cost import (
    brute_force_expected_optimal,
    crowdsourcing_probabilities,
    enumerate_consistent_assignments,
    expected_cost,
)
from .framework import (
    FrameworkRun,
    TransitiveJoinFramework,
    label_baseline,
    label_with_transitivity,
)
from .oracle import (
    CountingOracle,
    FunctionOracle,
    GroundTruthOracle,
    LabelOracle,
    MappingOracle,
    NoisyOracle,
    oracle_from,
)
from .ordering import (
    ExpectedOrderSorter,
    IdentityOrderSorter,
    OptimalOrderSorter,
    RandomOrderSorter,
    Sorter,
    WorstOrderSorter,
    expected_order,
    make_sorter,
    optimal_order,
    random_order,
    worst_order,
)
from .pairs import (
    CandidatePair,
    Label,
    LabeledPair,
    Pair,
    Provenance,
    candidate,
    make_pair,
    objects_of,
    pairs_of,
)
from .result import LabelingResult, PairOutcome
from .sweep import PendingPairIndex
from .union_find import UnionFind

__all__ = [
    "CandidatePair",
    "ClusterGraph",
    "Conflict",
    "ConflictPolicy",
    "CountingOracle",
    "ExpectedOrderSorter",
    "FrameworkRun",
    "FunctionOracle",
    "GraphListener",
    "GroundTruthOracle",
    "IdentityOrderSorter",
    "InconsistentLabelError",
    "Label",
    "LabelOracle",
    "LabeledPair",
    "LabelingResult",
    "MappingOracle",
    "NoisyOracle",
    "OptimalOrderSorter",
    "Pair",
    "PairOutcome",
    "PendingPairIndex",
    "Provenance",
    "RandomOrderSorter",
    "Sorter",
    "TransitiveJoinFramework",
    "UnionFind",
    "WorstOrderSorter",
    "brute_force_expected_optimal",
    "candidate",
    "crowdsourcing_probabilities",
    "deduce_by_path_enumeration",
    "deduce_by_search",
    "deduce_label",
    "entity_partition",
    "enumerate_consistent_assignments",
    "expected_cost",
    "expected_order",
    "find_violations",
    "is_consistent",
    "label_baseline",
    "label_with_transitivity",
    "make_pair",
    "make_sorter",
    "objects_of",
    "optimal_order",
    "pairs_of",
    "random_order",
    "worst_order",
]
