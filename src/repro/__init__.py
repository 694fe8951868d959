"""repro — reproduction of "Leveraging Transitive Relations for Crowdsourced
Joins" (Wang, Li, Kraska, Franklin, Feng; SIGMOD 2013).

The package implements the paper's hybrid transitive-relations +
crowdsourcing labeling framework along with every substrate its evaluation
depends on:

* ``repro.core``        — ClusterGraph deduction, labeling orders, and the
                          framework facade.
* ``repro.engine``      — the shared event-driven LabelingEngine with its
                          incremental pending-pair frontier, pluggable
                          dispatch strategies, and the async crowd runtime.
* ``repro.crowd``       — a simulated crowdsourcing platform (HIT batching,
                          assignment replication, majority voting, worker
                          accuracy and latency models, discrete-event timing)
                          plus live platform clients.
* ``repro.spec``        — :class:`CampaignSpec`, the one JSON-serialisable
                          description of a campaign accepted by every entry
                          point (engine, runtime, dispatch strategies, the
                          service).
* ``repro.service``     — the multi-tenant campaign host: durable answer
                          journals, crash recovery by replay, and an HTTP
                          control API.
* ``repro.matcher``     — machine-based candidate generation: tokenizers,
                          similarity functions, blocking, likelihoods.
* ``repro.datasets``    — synthetic Cora-like ("Paper") and Abt-Buy-like
                          ("Product") dataset generators.
* ``repro.er``          — entity-resolution clustering and quality metrics.
* ``repro.experiments`` — one runner per paper table/figure.
* ``repro.ext``         — extensions from the paper's future-work list.

Quickstart::

    from repro import CampaignSpec, LabelingEngine, GroundTruthOracle

    spec = CampaignSpec(order=[("iPad 2", "iPad two"), ...], mode="instant")
    engine = spec.build_engine()          # or run a campaign:
    # service = CampaignService("campaigns/"); await service.create(spec)

To label an order against an oracle at pair granularity, run
``AsyncDispatch(RuntimeMode.SEQUENTIAL)`` or ``AsyncDispatch()`` (rounds);
``InstantDispatch`` simulates the Figure-15 answer policies.  The removed
pre-spec labelers and their replacements are listed in ``docs/service.md``.
"""

from .core import (
    CandidatePair,
    ClusterGraph,
    ConflictPolicy,
    CountingOracle,
    ExpectedOrderSorter,
    FrameworkRun,
    GroundTruthOracle,
    Label,
    LabeledPair,
    LabelingResult,
    NoisyOracle,
    OptimalOrderSorter,
    Pair,
    Provenance,
    RandomOrderSorter,
    TransitiveJoinFramework,
    UnionFind,
    WorstOrderSorter,
    candidate,
    deduce_label,
    expected_cost,
    expected_order,
    label_baseline,
    label_with_transitivity,
    make_pair,
    optimal_order,
)

# Imported after .core: repro.core.framework runs the engine's dispatch
# strategies, so repro.core must finish initialising first.
from .engine import (
    AnswerPolicy,
    AsyncDispatch,
    CrowdRuntime,
    EngineBackend,
    ExpectedValueDispatch,
    HITDispatchAdapter,
    InstantDispatch,
    LabelingEngine,
    PauseGate,
    RuntimeMode,
    RuntimeReport,
    must_crowdsource_frontier,
)
from .crowd.aggregation import WeightedAggregation, WorkerAccuracyTracker
from .crowd.budget import BudgetPolicy, CostModel
from .crowd.review import ApproveAll, EscalateOnLowConfidence, ReviewPolicy
from .crowd.latency import TimeoutPolicy
from .spec import (
    AggregationConfig,
    CampaignSpec,
    JournalConfig,
    PlatformConfig,
    SpecError,
)
from .service import (
    CampaignHTTPServer,
    CampaignService,
    CampaignState,
    Journal,
    JournalCorruptError,
    JournalingPlatformClient,
)

__version__ = "1.0.0"

#: The curated public API.  Everything here is stable.
__all__ = [
    # the one campaign description
    "CampaignSpec",
    "AggregationConfig",
    "JournalConfig",
    "PlatformConfig",
    "SpecError",
    # the engine and its runtime
    "LabelingEngine",
    "EngineBackend",
    "CrowdRuntime",
    "RuntimeMode",
    "PauseGate",
    # dispatch strategies (spec-aware runners)
    "AsyncDispatch",
    "InstantDispatch",
    "ExpectedValueDispatch",
    # the campaign service layer
    "CampaignService",
    "CampaignState",
    "CampaignHTTPServer",
    "Journal",
    "JournalCorruptError",
    "JournalingPlatformClient",
    # campaign policies
    "BudgetPolicy",
    "CostModel",
    "TimeoutPolicy",
    "ReviewPolicy",
    "ApproveAll",
    "EscalateOnLowConfidence",
    "WeightedAggregation",
    "WorkerAccuracyTracker",
    # core vocabulary
    "Pair",
    "CandidatePair",
    "Label",
    "LabeledPair",
    "Provenance",
    "ClusterGraph",
    "ConflictPolicy",
    "LabelingResult",
    "UnionFind",
    "deduce_label",
    "make_pair",
    "candidate",
    "must_crowdsource_frontier",
    # oracles, orders, and the framework facade
    "GroundTruthOracle",
    "NoisyOracle",
    "CountingOracle",
    "AnswerPolicy",
    "ExpectedOrderSorter",
    "OptimalOrderSorter",
    "RandomOrderSorter",
    "WorstOrderSorter",
    "expected_cost",
    "expected_order",
    "optimal_order",
    "TransitiveJoinFramework",
    "FrameworkRun",
    "label_with_transitivity",
    "label_baseline",
    "HITDispatchAdapter",
    "RuntimeReport",
    "__version__",
]
