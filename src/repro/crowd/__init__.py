"""Crowd platforms — the simulator, async clients, and campaign runners.

Provides HIT batching, worker models, majority-vote aggregation, latency
models, a discrete-event platform simulator, the async
:class:`PlatformClient` seam (simulated / answer-order / polling /
webhook-push clients), campaign runners for the paper's Figure 15 and
Section 6.4 experiments, assignment
review policies, and — under :mod:`repro.crowd.platforms` — the live
MTurk backend with its record/replay cassette layer (see ``docs/crowd.md``).
"""

# NOTE: import order matters here.  ``campaign`` sits on the engine side of
# the crowd<->engine seam (it drives ``repro.engine.async_dispatch``), so it
# must be imported after every module the engine's runtime needs from this
# package (budget, latency, hit, platform, clients); otherwise a first
# import entering through ``repro.engine`` cannot resolve the cycle.
from .aggregation import (
    MAX_TRACKED_ACCURACY,
    MIN_TRACKED_ACCURACY,
    QuorumError,
    VoteSummary,
    WeightedAggregation,
    WorkerAccuracyTracker,
    agreement_rate,
    aggregate_assignments,
    majority_vote,
    summarize_assignments,
    summarize_votes,
    unanimous_or,
)
from .budget import (
    DEFAULT_PRICE_PER_ASSIGNMENT,
    BudgetExceededError,
    BudgetPolicy,
    CostLedger,
    CostModel,
)
from .hit import (
    DEFAULT_ASSIGNMENTS,
    DEFAULT_BATCH_SIZE,
    HIT,
    Assignment,
    batch_pairs,
    n_hits_needed,
    pairs_of_hits,
)
from .latency import (
    FixedLatency,
    LatencyModel,
    LognormalLatency,
    TimeoutPolicy,
    ZeroLatency,
)
from .platform import HITCompletion, PlatformStats, SimulatedPlatform
from .review import (
    ApproveAll,
    EscalateOnLowConfidence,
    ReviewDecision,
    ReviewPolicy,
)
from .worker import (
    AmbiguityAwareWorker,
    BernoulliWorker,
    LikelihoodAwareWorker,
    PerfectWorker,
    QualificationTest,
    Worker,
    WorkerModel,
    make_worker_pool,
)
from .clients import (
    AnswerOrderClient,
    AnswerPolicy,
    CallbackPlatformClient,
    HITExpiry,
    InMemoryCrowdBackend,
    ManualClock,
    PlatformClient,
    PlatformEvent,
    PollingPlatformClient,
    RestCrowdBackend,
    SimulatedPlatformClient,
)
from .campaign import (
    AvailabilityPoint,
    CampaignReport,
    InstantRunResult,
    run_answer_order,
    run_non_parallel,
    run_non_transitive,
    run_transitive,
)
from .platforms import (
    Cassette,
    Credentials,
    FakeMTurkService,
    MTurkBackend,
    MTurkRequestError,
    RecordReplayBackend,
    ReplayDivergenceError,
    ThrottlePolicy,
)

__all__ = [
    "AmbiguityAwareWorker",
    "AnswerOrderClient",
    "AnswerPolicy",
    "ApproveAll",
    "AvailabilityPoint",
    "Assignment",
    "BernoulliWorker",
    "BudgetExceededError",
    "BudgetPolicy",
    "CallbackPlatformClient",
    "CampaignReport",
    "Cassette",
    "CostLedger",
    "CostModel",
    "Credentials",
    "DEFAULT_ASSIGNMENTS",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_PRICE_PER_ASSIGNMENT",
    "EscalateOnLowConfidence",
    "FakeMTurkService",
    "FixedLatency",
    "HIT",
    "HITCompletion",
    "HITExpiry",
    "InMemoryCrowdBackend",
    "InstantRunResult",
    "LatencyModel",
    "LikelihoodAwareWorker",
    "LognormalLatency",
    "MAX_TRACKED_ACCURACY",
    "MIN_TRACKED_ACCURACY",
    "MTurkBackend",
    "MTurkRequestError",
    "ManualClock",
    "PerfectWorker",
    "PlatformClient",
    "PlatformEvent",
    "PlatformStats",
    "PollingPlatformClient",
    "QualificationTest",
    "QuorumError",
    "RecordReplayBackend",
    "ReplayDivergenceError",
    "RestCrowdBackend",
    "ReviewDecision",
    "ReviewPolicy",
    "SimulatedPlatform",
    "SimulatedPlatformClient",
    "ThrottlePolicy",
    "TimeoutPolicy",
    "VoteSummary",
    "WeightedAggregation",
    "Worker",
    "WorkerAccuracyTracker",
    "WorkerModel",
    "ZeroLatency",
    "aggregate_assignments",
    "agreement_rate",
    "batch_pairs",
    "majority_vote",
    "make_worker_pool",
    "n_hits_needed",
    "pairs_of_hits",
    "run_answer_order",
    "run_non_parallel",
    "run_non_transitive",
    "run_transitive",
    "summarize_assignments",
    "summarize_votes",
    "unanimous_or",
]
