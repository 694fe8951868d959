"""CampaignSpec: the one way to describe a labeling campaign.

Before this module, every entry point re-plumbed the same ~8 keyword
arguments (``policy``, ``backend``, ``shard_threshold``,
``mp_start_method``, ``budget``, ``timeout``, ``review``, ``max_rounds``)
through every dispatch strategy, and a campaign could not be described *as
data* — which a long-running service, an HTTP create endpoint, and a
durable journal header all need.

:class:`CampaignSpec` is a frozen dataclass capturing everything a campaign
is, independent of *which* crowd answers it:

* the labeling order (pairs with machine likelihoods);
* the dispatch semantics (:class:`~repro.engine.async_dispatch.RuntimeMode`);
* the engine configuration (conflict policy, backend, threshold, workers);
* the runtime policies (budget, timeout, review, round cap);
* the platform shape (:class:`PlatformConfig`: client kind, HIT batch size,
  replication, free-form options the client factory interprets).

Specs round-trip to/from JSON (:meth:`CampaignSpec.to_json` /
:meth:`CampaignSpec.from_json`), so the service's HTTP create endpoint and
the journal header written by :class:`repro.service.journal.Journal` share
one schema.  Every public entry point accepts a spec:
``LabelingEngine`` via :meth:`CampaignSpec.build_engine`,
:class:`~repro.engine.async_dispatch.CrowdRuntime` and
:class:`~repro.engine.async_dispatch.AsyncDispatch` via their ``spec=``
argument, the synchronous dispatch strategies and
:func:`repro.crowd.campaign.run_transitive` likewise, and
:class:`repro.service.CampaignService` hosts one campaign per spec.

JSON-serializability constrains the pair objects: the order's objects must
be JSON scalars (``str``/``int``/``float``/``bool``) so they survive the
round trip with identity intact.  That is not a loss of generality — real
workloads key records by id — and :func:`encode_object` fails loudly on
anything else.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from .core.cluster_graph import ConflictPolicy
from .core.pairs import CandidatePair, Label, Pair
from .crowd.aggregation import WeightedAggregation, WorkerAccuracyTracker
from .crowd.budget import BudgetPolicy, CostModel
from .crowd.hit import DEFAULT_ASSIGNMENTS, DEFAULT_BATCH_SIZE
from .crowd.latency import TimeoutPolicy
from .crowd.review import ApproveAll, EscalateOnLowConfidence, ReviewPolicy

#: Current wire-format version of the spec schema (also the journal header's).
#: Version 2 added ``ordering``, ``aggregation``, and the
#: ``escalate-low-confidence`` review kind; version 3 added the
#: ``backend="distributed"`` knobs ``workers`` and ``spawn_local_workers``.
#: Older documents decode with the newer fields' defaults (static ordering,
#: flat majority aggregation, no distributed workers).
SPEC_SCHEMA_VERSION = 3

#: Spec schema versions :meth:`CampaignSpec.from_dict` accepts.
_READABLE_SPEC_VERSIONS = (1, 2, 3)

_SCALARS = (str, int, float, bool)


class SpecError(ValueError):
    """A CampaignSpec could not be built, serialized, or deserialized."""


def encode_object(obj: Hashable) -> Any:
    """Encode one pair-member object for JSON.

    Only JSON scalars round-trip with identity (and hashability) intact;
    anything else would come back as a different object and silently break
    pair equality, so it is rejected here instead.
    """
    if isinstance(obj, bool) or obj is None:
        # bool before int: True is an int but must round-trip as a bool.
        return obj
    if isinstance(obj, _SCALARS):
        return obj
    raise SpecError(
        f"pair object {obj!r} ({type(obj).__name__}) is not JSON-serializable; "
        "campaign specs and journals require str/int/float/bool object ids"
    )


def encode_pair(pair: Pair) -> List[Any]:
    """``Pair`` -> ``[left, right]`` (canonical order preserved)."""
    return [encode_object(pair.left), encode_object(pair.right)]


def decode_pair(data: Sequence[Any]) -> Pair:
    """``[left, right]`` -> ``Pair`` (re-canonicalised on construction)."""
    if len(data) != 2:
        raise SpecError(f"a pair must be a 2-element array, got {data!r}")
    return Pair(data[0], data[1])


def decode_canonical_pair(data: Sequence[Any]) -> Pair:
    """``[left, right]`` -> ``Pair``, trusting the serialized member order.

    For machine-written documents only — journal headers and journal
    records, which :func:`encode_pair` wrote from already-canonical pairs.
    Skipping the constructor's re-canonicalisation (two ``repr``-based sort
    keys per pair) roughly halves the cost of decoding a large labeling
    order, which recovery pays on every restart.  User-supplied documents
    (the HTTP create body) must keep going through :func:`decode_pair`: a
    hand-written ``[b, a]`` would otherwise compare unequal to the same
    pair spelled ``[a, b]`` everywhere else in the system.
    """
    if len(data) != 2 or data[0] == data[1]:
        raise SpecError(f"a pair must be two distinct objects, got {data!r}")
    pair = object.__new__(Pair)
    object.__setattr__(pair, "left", data[0])
    object.__setattr__(pair, "right", data[1])
    return pair


def encode_label(label: Label) -> str:
    return label.value


def decode_label(value: str) -> Label:
    return Label(value)


@dataclass(frozen=True)
class PlatformConfig:
    """The platform shape of a campaign: which client kind, at what HIT
    granularity, with what free-form options.

    Attributes:
        kind: registry key the service's client factories interpret
            (``"simulated"`` is the offline default; a deployment registers
            e.g. ``"mturk"`` or ``"in-memory"`` factories with
            :class:`repro.service.CampaignService`).
        batch_size: pairs per HIT.
        n_assignments: replication factor per HIT.
        options: free-form JSON-serializable options for the client factory
            (seeds, poll intervals, credentials *references* — never
            secrets themselves).
    """

    kind: str = "simulated"
    batch_size: int = DEFAULT_BATCH_SIZE
    n_assignments: int = DEFAULT_ASSIGNMENTS
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise SpecError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_assignments < 1:
            raise SpecError(
                f"n_assignments must be >= 1, got {self.n_assignments}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "batch_size": self.batch_size,
            "n_assignments": self.n_assignments,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformConfig":
        return cls(
            kind=data.get("kind", "simulated"),
            batch_size=int(data.get("batch_size", DEFAULT_BATCH_SIZE)),
            n_assignments=int(data.get("n_assignments", DEFAULT_ASSIGNMENTS)),
            options=dict(data.get("options", {})),
        )


@dataclass(frozen=True)
class JournalConfig:
    """Per-campaign journal durability and compaction knobs.

    Attributes:
        fsync_every: appends between journal fsyncs (``None`` = the
            service's default; ``1`` = maximally durable).
        compact_every: automatically snapshot + compact the journal once
            this many records have accumulated past the last snapshot
            (``None`` = compact only on explicit request or pause).
    """

    fsync_every: Optional[int] = None
    compact_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fsync_every is not None and self.fsync_every < 1:
            raise SpecError(
                f"fsync_every must be >= 1, got {self.fsync_every}"
            )
        if self.compact_every is not None and self.compact_every < 1:
            raise SpecError(
                f"compact_every must be >= 1, got {self.compact_every}"
            )

    def to_dict(self) -> dict:
        return {
            "fsync_every": self.fsync_every,
            "compact_every": self.compact_every,
        }

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "JournalConfig":
        data = data or {}
        fsync_every = data.get("fsync_every")
        compact_every = data.get("compact_every")
        return cls(
            fsync_every=None if fsync_every is None else int(fsync_every),
            compact_every=None if compact_every is None else int(compact_every),
        )


@dataclass(frozen=True)
class AggregationConfig:
    """How a campaign turns replicated assignments into labels.

    Attributes:
        kind: ``"majority"`` (the paper's flat majority vote, applied by
            the platform/client layer — the runtime adds nothing) or
            ``"weighted"`` (quality-aware weighted majority: the runtime
            re-aggregates assignment-bearing completions with per-worker
            accuracy weights; see
            :class:`~repro.crowd.aggregation.WeightedAggregation`).
        prior_accuracy / prior_strength / agreement_weight: the
            :class:`~repro.crowd.aggregation.WorkerAccuracyTracker` prior
            (``"weighted"`` only).
        min_votes: per-pair quorum; pairs with fewer cast votes are
            re-issued instead of being aggregated.
    """

    kind: str = "majority"
    prior_accuracy: float = 0.7
    prior_strength: float = 8.0
    agreement_weight: float = 0.5
    min_votes: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("majority", "weighted"):
            raise SpecError(
                f"unknown aggregation kind {self.kind!r}; "
                "expected 'majority' or 'weighted'"
            )
        if not 0.0 < self.prior_accuracy < 1.0:
            raise SpecError(
                f"prior_accuracy must be in (0, 1), got {self.prior_accuracy}"
            )
        if self.prior_strength <= 0:
            raise SpecError(
                f"prior_strength must be positive, got {self.prior_strength}"
            )
        if self.agreement_weight < 0:
            raise SpecError(
                f"agreement_weight must be non-negative, got {self.agreement_weight}"
            )
        if self.min_votes < 1:
            raise SpecError(f"min_votes must be >= 1, got {self.min_votes}")

    def build(self) -> Optional[WeightedAggregation]:
        """The runtime-side aggregator this config describes.

        ``None`` for ``"majority"``: flat majority is what the platform
        layer already computes, so the runtime applies labels as-is.
        """
        if self.kind == "majority":
            return None
        return WeightedAggregation(
            tracker=WorkerAccuracyTracker(
                prior_accuracy=self.prior_accuracy,
                prior_strength=self.prior_strength,
                agreement_weight=self.agreement_weight,
            ),
            min_votes=self.min_votes,
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "prior_accuracy": self.prior_accuracy,
            "prior_strength": self.prior_strength,
            "agreement_weight": self.agreement_weight,
            "min_votes": self.min_votes,
        }

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "AggregationConfig":
        data = data or {}
        defaults = cls()
        return cls(
            kind=data.get("kind", defaults.kind),
            prior_accuracy=float(
                data.get("prior_accuracy", defaults.prior_accuracy)
            ),
            prior_strength=float(
                data.get("prior_strength", defaults.prior_strength)
            ),
            agreement_weight=float(
                data.get("agreement_weight", defaults.agreement_weight)
            ),
            min_votes=int(data.get("min_votes", defaults.min_votes)),
        )


def _encode_budget(budget: Optional[BudgetPolicy]) -> Optional[dict]:
    if budget is None:
        return None
    return {
        "max_cost": budget.max_cost,
        "max_assignments": budget.max_assignments,
        "price_per_assignment": budget.model.price_per_assignment,
    }


def _decode_budget(data: Optional[Mapping[str, Any]]) -> Optional[BudgetPolicy]:
    if data is None:
        return None
    return BudgetPolicy(
        max_cost=data.get("max_cost"),
        max_assignments=data.get("max_assignments"),
        model=CostModel(
            price_per_assignment=data.get(
                "price_per_assignment", CostModel().price_per_assignment
            )
        ),
    )


def _encode_timeout(timeout: Optional[TimeoutPolicy]) -> Optional[dict]:
    if timeout is None:
        return None
    return {"hit_timeout": timeout.hit_timeout, "max_reissues": timeout.max_reissues}


def _decode_timeout(data: Optional[Mapping[str, Any]]) -> Optional[TimeoutPolicy]:
    if data is None:
        return None
    return TimeoutPolicy(
        hit_timeout=float(data["hit_timeout"]),
        max_reissues=int(data.get("max_reissues", 3)),
    )


def _encode_review(review: Optional[ReviewPolicy]) -> Optional[dict]:
    if review is None:
        return None
    if isinstance(review, EscalateOnLowConfidence):
        return {
            "kind": "escalate-low-confidence",
            "min_confidence": review.min_confidence,
            "feedback": review.feedback,
        }
    if isinstance(review, ApproveAll):
        return {"kind": "approve-all", "feedback": review.feedback}
    raise SpecError(
        f"review policy {type(review).__name__} has no JSON form; only "
        "ApproveAll and EscalateOnLowConfidence (or None) can be carried by "
        "a CampaignSpec — wire custom policies into the runtime directly"
    )


def _decode_review(data: Optional[Mapping[str, Any]]) -> Optional[ReviewPolicy]:
    if data is None:
        return None
    kind = data.get("kind")
    if kind == "approve-all":
        return ApproveAll(feedback=data.get("feedback", ApproveAll().feedback))
    if kind == "escalate-low-confidence":
        defaults = EscalateOnLowConfidence()
        return EscalateOnLowConfidence(
            min_confidence=float(
                data.get("min_confidence", defaults.min_confidence)
            ),
            feedback=data.get("feedback", defaults.feedback),
        )
    raise SpecError(f"unknown review policy kind {kind!r}")


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, immutable, JSON-serializable description of a campaign.

    Attributes:
        order: the labeling order as :class:`CandidatePair`\\ s (bare pairs
            are accepted at construction and get the neutral 0.5 likelihood).
        mode: dispatch semantics — a :class:`RuntimeMode` value string
            (``"sequential"``, ``"rounds"``, ``"instant"``, ``"hit-rounds"``,
            ``"flood"``; ``"serial"`` campaigns need preplanned HITs and are
            not spec-expressible).
        policy: conflict policy for the deduction graph.
        backend: engine backend (string or
            :class:`~repro.engine.engine.EngineBackend`).
        shard_threshold / mp_start_method: engine scaling knobs, exactly as
            :class:`LabelingEngine` takes them.
        workers / spawn_local_workers: ``backend="distributed"`` knobs —
            ``"host:port"`` addresses of running shard worker hosts, and/or
            a count of local worker hosts to spawn.
        budget: optional spending cap (:class:`BudgetPolicy`).
        timeout: optional per-HIT expiry policy (:class:`TimeoutPolicy`).
        review: optional assignment review policy (JSON-serializable kinds
            only; see :func:`_encode_review`).
        max_rounds: ROUNDS-mode safety cap.
        ordering: labeling-order strategy — ``"static"`` (walk the order /
            frontier as given) or ``"expected-value"`` (the runtime re-picks
            each next question adaptively by expected transitive deductions;
            requires ``mode="sequential"``).
        aggregation: how replicated assignments become labels
            (:class:`AggregationConfig`).
        platform: the platform shape (:class:`PlatformConfig`).
        journal: per-campaign journal durability/compaction knobs
            (:class:`JournalConfig`); only the campaign service reads it.

    Build one explicitly, or from JSON via :meth:`from_json`.  Derive the
    engine with :meth:`build_engine`; entry points accept the spec directly.
    """

    order: Tuple[CandidatePair, ...]
    mode: str = "instant"
    policy: ConflictPolicy = ConflictPolicy.STRICT
    backend: str = "auto"
    shard_threshold: Optional[int] = None
    mp_start_method: Optional[str] = None
    workers: Optional[Tuple[str, ...]] = None
    spawn_local_workers: Optional[int] = None
    budget: Optional[BudgetPolicy] = None
    timeout: Optional[TimeoutPolicy] = None
    review: Optional[ReviewPolicy] = None
    max_rounds: Optional[int] = None
    ordering: str = "static"
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    journal: JournalConfig = field(default_factory=JournalConfig)

    def __post_init__(self) -> None:
        normalized = []
        for item in self.order:
            if isinstance(item, CandidatePair):
                normalized.append(item)
            elif isinstance(item, Pair):
                normalized.append(CandidatePair(item))
            else:
                try:
                    left, right = item
                except (TypeError, ValueError):
                    raise SpecError(
                        "order items must be CandidatePair, Pair, or a "
                        f"(left, right) 2-sequence, got {item!r}"
                    ) from None
                normalized.append(CandidatePair(Pair(left, right)))
        object.__setattr__(self, "order", tuple(normalized))
        if isinstance(self.mode, enum.Enum):
            object.__setattr__(self, "mode", self.mode.value)
        if isinstance(self.backend, enum.Enum):
            object.__setattr__(self, "backend", self.backend.value)
        if self.mode == "serial":
            raise SpecError(
                "SERIAL campaigns replay preplanned HITs and cannot be "
                "described by a CampaignSpec"
            )
        # Validate mode/policy eagerly so a bad spec fails at construction,
        # not deep inside a runtime build.  RuntimeMode itself is imported
        # lazily to keep this module on the engine's import path.
        from .engine.async_dispatch import ORDERINGS, RuntimeMode

        try:
            RuntimeMode(self.mode)
        except ValueError:
            raise SpecError(f"unknown mode {self.mode!r}") from None
        if self.ordering not in ORDERINGS:
            raise SpecError(
                f"unknown ordering {self.ordering!r}; "
                f"expected one of {ORDERINGS}"
            )
        if self.ordering == "expected-value" and self.mode != "sequential":
            raise SpecError(
                "expected-value ordering requires mode='sequential' (it "
                f"picks one next question at a time), got mode={self.mode!r}"
            )
        if not isinstance(self.policy, ConflictPolicy):
            try:
                policy = ConflictPolicy(self.policy)
            except ValueError:
                raise SpecError(f"unknown conflict policy {self.policy!r}") from None
            object.__setattr__(self, "policy", policy)
        if self.workers is not None:
            if isinstance(self.workers, str):
                raise SpecError(
                    "workers must be a sequence of 'host:port' strings, "
                    f"got the bare string {self.workers!r}"
                )
            object.__setattr__(self, "workers", tuple(self.workers))
            for address in self.workers:
                if not isinstance(address, str) or ":" not in address:
                    raise SpecError(
                        f"workers entries must be 'host:port' strings, "
                        f"got {address!r}"
                    )
        if not isinstance(self.aggregation, AggregationConfig):
            object.__setattr__(
                self, "aggregation", AggregationConfig.from_dict(self.aggregation)
            )
        if not isinstance(self.journal, JournalConfig):
            object.__setattr__(
                self, "journal", JournalConfig.from_dict(self.journal)
            )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> List[Pair]:
        """The bare pairs of the order, in order."""
        return [item.pair for item in self.order]

    def runtime_mode(self):
        """The :class:`RuntimeMode` this spec dispatches with."""
        from .engine.async_dispatch import RuntimeMode

        return RuntimeMode(self.mode)

    def engine_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for :class:`LabelingEngine` (minus the order)."""
        from .engine.engine import DEFAULT_SHARD_THRESHOLD

        return {
            "policy": self.policy,
            "backend": self.backend,
            "shard_threshold": (
                DEFAULT_SHARD_THRESHOLD
                if self.shard_threshold is None
                else self.shard_threshold
            ),
            "mp_start_method": self.mp_start_method,
            "workers": self.workers,
            "spawn_local_workers": self.spawn_local_workers,
        }

    def build_engine(self):
        """Construct the :class:`LabelingEngine` this spec describes.

        The static sequential mode deduces at visit time and never sweeps,
        so the incremental pending-pair index would be pure overhead — the
        same optimisation every pre-spec entry point applied by hand.  The
        expected-value ordering sweeps (whenever every remaining pair became
        deducible), so it keeps the index.
        """
        from .engine.engine import LabelingEngine

        return LabelingEngine(
            list(self.order),
            use_index=(
                self.mode != "sequential" or self.ordering == "expected-value"
            ),
            **self.engine_kwargs(),
        )

    def with_order(
        self, order: Sequence[Union[Pair, CandidatePair]]
    ) -> "CampaignSpec":
        """A copy of this spec over a different labeling order."""
        return replace(self, order=tuple(order))

    def make_aggregation(self) -> Optional[WeightedAggregation]:
        """The runtime-side aggregator this spec configures.

        A fresh instance per call (trackers are stateful); ``None`` when
        the spec keeps the platform layer's flat majority.
        """
        return self.aggregation.build()

    # ------------------------------------------------------------------
    # JSON round trip (the HTTP create schema == the journal header schema)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": SPEC_SCHEMA_VERSION,
            "order": [
                [*encode_pair(item.pair), item.likelihood] for item in self.order
            ],
            "mode": self.mode,
            "policy": self.policy.value,
            "backend": self.backend,
            "shard_threshold": self.shard_threshold,
            "mp_start_method": self.mp_start_method,
            "workers": list(self.workers) if self.workers is not None else None,
            "spawn_local_workers": self.spawn_local_workers,
            "budget": _encode_budget(self.budget),
            "timeout": _encode_timeout(self.timeout),
            "review": _encode_review(self.review),
            "max_rounds": self.max_rounds,
            "ordering": self.ordering,
            "aggregation": self.aggregation.to_dict(),
            "platform": self.platform.to_dict(),
            "journal": self.journal.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, trusted_order: bool = False
    ) -> "CampaignSpec":
        """Decode a spec document.

        ``trusted_order=True`` is for machine-written documents (journal
        headers): pair entries are decoded via
        :func:`decode_canonical_pair`, skipping re-canonicalisation.

        Documents naming a retired backend still decode: ``"sharded"`` as
        ``"monolithic"`` and ``"parallel"`` as ``"auto"``.  The retired
        backend's pair-count threshold is ignored, and a legacy
        ``n_workers`` counts local workers (``spawn_local_workers``) when
        the document sets neither ``workers`` nor ``spawn_local_workers``.
        """
        version = data.get("version", SPEC_SCHEMA_VERSION)
        if version not in _READABLE_SPEC_VERSIONS:
            raise SpecError(
                f"unsupported spec schema version {version!r} "
                f"(this build reads versions {_READABLE_SPEC_VERSIONS})"
            )
        try:
            if trusted_order:
                # Machine-written orders (journal headers) get a tight
                # loop that builds both frozen dataclasses by assigning
                # their instance dicts directly — the per-entry cost is
                # what bounds recovery time on 100k-pair campaigns, and
                # the document was produced by to_dict() from an
                # already-validated spec, so only the distinctness check
                # from decode_canonical_pair is kept.
                new = object.__new__
                items = []
                for entry in data["order"]:
                    if len(entry) < 2 or entry[0] == entry[1]:
                        raise SpecError(
                            f"a pair must be two distinct objects, got {entry!r}"
                        )
                    pair = new(Pair)
                    fields = pair.__dict__  # in-place: frozen __setattr__
                    fields["left"] = entry[0]  # guards attribute sets only
                    fields["right"] = entry[1]
                    candidate = new(CandidatePair)
                    fields = candidate.__dict__
                    fields["pair"] = pair
                    fields["likelihood"] = (
                        float(entry[2]) if len(entry) > 2 else 0.5
                    )
                    items.append(candidate)
                order = tuple(items)
            else:
                items = []
                for entry in data["order"]:
                    if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
                        raise SpecError(
                            "an order entry must be a [left, right] or "
                            f"[left, right, likelihood] array, got {entry!r}"
                        )
                    items.append(
                        CandidatePair(
                            decode_pair(entry[:2]),
                            float(entry[2]) if len(entry) > 2 else 0.5,
                        )
                    )
                order = tuple(items)
        except SpecError:
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise SpecError(f"malformed spec order: {exc}") from exc
        backend = data.get("backend", "auto")
        if backend == "sharded":
            # The in-process sharded backend was folded into monolithic;
            # the two were always fingerprint-identical, and engine
            # snapshots are backend-portable, so older documents and
            # journal headers that name it run on its successor.
            backend = "monolithic"
        elif backend == "parallel":
            # The pipe-worker backend was retired.  ``auto`` picks the
            # vectorized core at scale, which ran a tick faster than pipe
            # workers did, and monolithic below the threshold, where
            # ``parallel`` fell back by default; every backend reaches the
            # same state, so its journals replay there.
            backend = "auto"
        # Version <3 documents predate the distributed backend; their
        # absence decodes to "no remote workers".
        workers = data.get("workers")
        spawn_local_workers = data.get("spawn_local_workers")
        if workers is None and spawn_local_workers is None:
            # Older documents counted local workers as ``n_workers``.
            spawn_local_workers = data.get("n_workers")
        return cls(
            order=order,
            mode=data.get("mode", "instant"),
            policy=data.get("policy", "strict"),
            backend=backend,
            shard_threshold=data.get("shard_threshold"),
            mp_start_method=data.get("mp_start_method"),
            workers=workers,
            spawn_local_workers=spawn_local_workers,
            budget=_decode_budget(data.get("budget")),
            timeout=_decode_timeout(data.get("timeout")),
            review=_decode_review(data.get("review")),
            max_rounds=data.get("max_rounds"),
            # Version-1 documents predate these fields; their absence decodes
            # to the pre-2 behaviour (static order, flat majority).
            ordering=data.get("ordering", "static"),
            aggregation=AggregationConfig.from_dict(data.get("aggregation")),
            platform=PlatformConfig.from_dict(data.get("platform", {})),
            journal=JournalConfig.from_dict(data.get("journal")),
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError("a spec document must be a JSON object")
        return cls.from_dict(data)
