"""repro.engine — the event-driven labeling engine and dispatch strategies.

One :class:`LabelingEngine` replaces the four hand-rolled labeling loops of
the seed repo (sequential, round-parallel, instant, and the HIT-granularity
campaign loop).  The engine owns the deduction graph, the incremental
pending-pair frontier (:class:`repro.core.sweep.PendingPairIndex`), and the
shared must-crowdsource selection; the runtime's mode decides when to
publish which frontier pairs.

The one labeling loop is the event loop, not the simulator:
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
              :class:`FrontierCursor` (decided-prefix incremental selection),
              :class:`ShardedFrontier` (the per-component selection of the
              monolithic backend and of every shard worker)
* vectorized: :class:`VectorizedEngineCore`, :func:`vectorized_available`
              — array-native sweep/deduce/frontier kernels over numpy
              (``backend="vectorized"``; the optional ``perf`` extra)
* workers:    :class:`ShardCoordinator`, :class:`ShardWorkerError`
              (+ ``DEFAULT_PARALLEL_THRESHOLD``) — the per-component
              decomposition fanned out across worker processes with
              worker-loss re-assignment: pipe-attached local workers
              (``backend="parallel"``) or socket-attached
              :class:`ShardWorkerHost` processes (``backend="distributed"``;
              wire protocol: :func:`encode_frame`, :class:`FrameDecoder`,
              :class:`ProtocolError`, ``PROTOCOL_VERSION``; runbook:
              ``python -m repro.engine.distributed --worker host:port``)
* runtime:    :class:`CrowdRuntime`, :class:`RuntimeMode`,
              :class:`RuntimeReport`, :class:`AsyncDispatch` — the one
              labeling loop; Figure 15's answer-at-a-time labelers run it
              through :func:`repro.crowd.campaign.run_answer_order`
* ordering:   :class:`ExpectedDeductionScorer`,
              :func:`expected_value_choice` — adaptive next-question
              selection by expected transitive deductions (the runtime's
              ``ordering="expected-value"``)
* adapter:    :class:`HITDispatchAdapter` (HIT-granularity campaigns)
"""

from .async_dispatch import (
    AsyncDispatch,
    CrowdRuntime,
    PauseGate,
    RuntimeMode,
    RuntimeReport,
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
from .expected import ExpectedDeductionScorer, expected_value_choice
from .frontier import (
    FrontierCursor,
    OptimisticGraph,
    ShardedFrontier,
    must_crowdsource_frontier,
)
from .hit_adapter import HITDispatchAdapter
from .parallel import DEFAULT_PARALLEL_THRESHOLD, ShardWorkerError
from .vectorized import VectorizedEngineCore, vectorized_available

__all__ = [
    "AsyncDispatch",
    "CrowdRuntime",
    "DEFAULT_PARALLEL_THRESHOLD",
    "DEFAULT_SHARD_THRESHOLD",
    "EngineBackend",
    "ExpectedDeductionScorer",
    "FrameDecoder",
    "FrontierCursor",
    "HITDispatchAdapter",
    "LabelingEngine",
    "OptimisticGraph",
    "PROTOCOL_VERSION",
    "PauseGate",
    "ProtocolError",
    "RuntimeMode",
    "RuntimeReport",
    "ShardCoordinator",
    "ShardWorkerError",
    "ShardWorkerHost",
    "ShardedFrontier",
    "VectorizedEngineCore",
    "encode_frame",
    "expected_value_choice",
    "must_crowdsource_frontier",
    "vectorized_available",
]
