"""repro.engine — the event-driven labeling engine and dispatch strategies.

One :class:`LabelingEngine` replaces the four hand-rolled labeling loops of
the seed repo (sequential, round-parallel, instant, and the HIT-granularity
campaign loop).  The engine owns the deduction graph, the incremental
pending-pair frontier (:class:`repro.core.sweep.PendingPairIndex`), and the
shared must-crowdsource selection; a dispatch strategy decides when to
publish which frontier pairs.

The primary driver is the event loop, not the simulator:
:class:`CrowdRuntime` drives the engine from asyncio over the
:class:`~repro.crowd.clients.PlatformClient` seam (simulated, polling, or
webhook-push crowds), applying out-of-order completions, re-issuing expired
HITs, and enforcing budget/latency policies at submission time.
:class:`AsyncDispatch` is the one pair-granularity entry point over it
(sequential or round-parallel; ``run`` for synchronous callers), and the
campaign runners in :mod:`repro.crowd.campaign` run the same runtime at HIT
granularity.

Public surface:

* engine:     :class:`LabelingEngine` (+ ``DEFAULT_SHARD_THRESHOLD``), which
              forwards each event to its backend's engine core
* frontier:   :class:`OptimisticGraph`, :func:`must_crowdsource_frontier`,
              :class:`FrontierCursor` (decided-prefix incremental selection)
* sharding:   :class:`ShardedClusterGraph`, :class:`ShardedFrontier`
              (per-component backend for 10M+ pair workloads)
* vectorized: :class:`VectorizedEngineCore`, :func:`vectorized_available`
              — array-native sweep/deduce/frontier kernels over numpy
              (``backend="vectorized"``; the optional ``perf`` extra)
* parallel:   :class:`ProcessShardExecutor`, :class:`ShardWorkerError`
              (+ ``DEFAULT_PARALLEL_THRESHOLD``) — the sharded decomposition
              fanned out across worker processes (``backend="parallel"``)
* distributed: :class:`ShardCoordinator`, :class:`ShardWorkerHost`
              (+ :func:`encode_frame`, :class:`FrameDecoder`,
              :class:`ProtocolError`, ``PROTOCOL_VERSION``) — the same
              command protocol over TCP sockets with heartbeat-based
              worker-loss re-assignment (``backend="distributed"``;
              runbook: ``python -m repro.engine.distributed --worker
              host:port``)
* runtime:    :class:`CrowdRuntime`, :class:`RuntimeMode`,
              :class:`RuntimeReport`, :class:`AsyncDispatch`
* simulator:  :class:`InstantDispatch` (+ :class:`AnswerPolicy`,
              :class:`InstantRunResult`, :class:`AvailabilityPoint`) — the
              Figure-15 answer-policy simulation
* ordering:   :class:`ExpectedValueDispatch`,
              :class:`ExpectedDeductionScorer`,
              :func:`expected_value_choice` — adaptive next-question
              selection by expected transitive deductions (also available
              on the runtime via ``ordering="expected-value"``)
* adapter:    :class:`HITDispatchAdapter` (HIT-granularity campaigns)
"""

from .async_dispatch import (
    AsyncDispatch,
    CrowdRuntime,
    PauseGate,
    RuntimeMode,
    RuntimeReport,
)
from .dispatch import (
    AnswerPolicy,
    AvailabilityPoint,
    InstantDispatch,
    InstantRunResult,
)
from .distributed import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    ShardCoordinator,
    ShardWorkerHost,
    encode_frame,
)
from .engine import DEFAULT_SHARD_THRESHOLD, EngineBackend, LabelingEngine
from .expected import (
    ExpectedDeductionScorer,
    ExpectedValueDispatch,
    expected_value_choice,
)
from .frontier import FrontierCursor, OptimisticGraph, must_crowdsource_frontier
from .hit_adapter import HITDispatchAdapter
from .parallel import DEFAULT_PARALLEL_THRESHOLD, ProcessShardExecutor, ShardWorkerError
from .sharding import ShardedClusterGraph, ShardedFrontier
from .vectorized import VectorizedEngineCore, vectorized_available

__all__ = [
    "AnswerPolicy",
    "AsyncDispatch",
    "AvailabilityPoint",
    "CrowdRuntime",
    "DEFAULT_PARALLEL_THRESHOLD",
    "DEFAULT_SHARD_THRESHOLD",
    "EngineBackend",
    "ExpectedDeductionScorer",
    "ExpectedValueDispatch",
    "FrameDecoder",
    "FrontierCursor",
    "HITDispatchAdapter",
    "InstantDispatch",
    "InstantRunResult",
    "LabelingEngine",
    "OptimisticGraph",
    "PROTOCOL_VERSION",
    "PauseGate",
    "ProcessShardExecutor",
    "ProtocolError",
    "RuntimeMode",
    "RuntimeReport",
    "ShardCoordinator",
    "ShardWorkerError",
    "ShardWorkerHost",
    "ShardedClusterGraph",
    "ShardedFrontier",
    "VectorizedEngineCore",
    "encode_frame",
    "expected_value_choice",
    "must_crowdsource_frontier",
    "vectorized_available",
]
