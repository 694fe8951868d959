"""The LabelingEngine: one event-driven core shared by every labeler.

The paper's framework is a single loop — deduce what transitivity implies,
crowdsource only the rest — yet the seed repo implemented that loop four
times (sequential, round-parallel, instant, and once more at HIT granularity
in the campaign runner).  :class:`LabelingEngine` owns the shared state and
event handling exactly once:

* the :class:`~repro.core.cluster_graph.ClusterGraph` of received answers;
* the pending-pair frontier, kept *incrementally* by
  :class:`~repro.core.sweep.PendingPairIndex` — after an answer, only pairs
  whose endpoint clusters changed are re-checked, instead of the O(pending)
  full rescan the pre-refactor labelers performed;
* the must-crowdsource selection
  (:func:`~repro.engine.frontier.must_crowdsource_frontier`), shared by all
  batch-publishing strategies;
* the :class:`~repro.core.result.LabelingResult` bookkeeping, with its
  invariant that every pair is recorded exactly once.

Dispatch policy — *when* to publish *which* must-crowdsource pairs — is
the mode of the one asyncio runtime (see
:mod:`repro.engine.async_dispatch`); the engine itself never calls an
oracle or a platform, and never waits — which is exactly what lets the async runtime apply crowd answers in
whatever order they arrive.  Events flow in through three entry points:

* :meth:`publish` — pairs handed to the crowd (excluded from future
  frontiers; withheld pairs also leave the deduction sweep, because the
  platform will answer them regardless);
* :meth:`record_answers` — a run of crowd answers arrived
  (:meth:`record_answer` for one);
* :meth:`sweep` — resolve everything the answers so far imply.

The engine keeps the state every backend shares (the label map, the
published and withheld sets, the result, snapshots, the fingerprint) and
forwards each event once to its backend's *engine core*:
:class:`GraphEngineCore` for the monolithic and sharded backends,
:class:`~repro.engine.vectorized.VectorizedEngineCore`, or a
:class:`~repro.engine.distributed.ShardCoordinator` over pipe-attached
(parallel) or socket-attached (distributed) workers.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import sys
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core.cluster_graph import ClusterGraph, ConflictPolicy, record_each
from ..core.pairs import (
    LABEL_CODE,
    LABEL_OF_CODE,
    CandidatePair,
    Label,
    Pair,
    Provenance,
)
from ..core.result import LabelingResult, PairOutcome
from ..core.sweep import PendingPairIndex
from .distributed import ShardCoordinator
from .frontier import FrontierCursor
from .parallel import DEFAULT_PARALLEL_THRESHOLD
from .sharding import ShardedClusterGraph, ShardedFrontier
from .vectorized import VectorizedEngineCore, vectorized_available

#: Above this many pairs the ``auto`` backend stops using the monolithic
#: graph: it picks the vectorized backend when numpy is importable (see
#: :mod:`repro.engine.vectorized`), else the pure-Python sharded one.
DEFAULT_SHARD_THRESHOLD = 100_000

_BACKENDS = (
    "auto",
    "monolithic",
    "sharded",
    "vectorized",
    "parallel",
    "distributed",
)

#: Version stamp of the :meth:`LabelingEngine.snapshot_state` encoding.
ENGINE_SNAPSHOT_VERSION = 1

_SNAP_CROWDSOURCED, _SNAP_DEDUCED = 0, 1


def _pack_ints(values: Iterable[int], typecode: str = "q") -> str:
    """Base64-pack an int sequence (little-endian) for a JSON snapshot.

    One packed string parses as a single JSON token, so a 100k-event
    snapshot costs a memcpy to decode instead of a 400k-element nested
    JSON array — the difference between a recovery dominated by
    ``json.loads`` and one dominated by actual state rebuilding.
    """
    data = values if isinstance(values, array) else array(typecode, values)
    if sys.byteorder != "little":
        data = array(data.typecode, data)
        data.byteswap()
    return base64.b64encode(data.tobytes()).decode("ascii")


def _unpack_ints(payload: str, typecode: str = "q") -> array:
    data = array(typecode)
    data.frombytes(base64.b64decode(payload))
    if sys.byteorder != "little":
        data.byteswap()
    return data


class _DuplicateOrder(Exception):
    """Internal: the bulk order-indexing path found a duplicate pair."""


class GraphEngineCore:
    """The engine core of the monolithic and sharded backends.

    Holds the in-process deduction graph (a :class:`ClusterGraph`, or a
    :class:`ShardedClusterGraph` on the sharded backend), the frontier
    selection — one :class:`FrontierCursor`, or a per-component
    :class:`ShardedFrontier` on the sharded backend — and the deduction
    sweep: incremental through a :class:`PendingPairIndex`, or a rescan of
    the pending list for ``use_index=False``.  Both selections reproduce
    :func:`~repro.engine.frontier.must_crowdsource_frontier`, and both
    sweeps resolve the same pairs (property-tested).

    The core reads the engine's ``labeled`` map and ``published``/
    ``withheld`` sets, which the engine updates before forwarding each
    event; it never writes them.
    """

    def __init__(
        self,
        graph,
        pairs: List[Pair],
        positions: Dict[Pair, int],
        labeled: Dict[Pair, Label],
        published: Set[Pair],
        withheld: Set[Pair],
        *,
        sharded: bool,
        use_index: bool,
    ) -> None:
        self.graph = graph
        self._pairs = pairs
        self._position = positions
        self._labeled = labeled
        self._published = published
        self._withheld = withheld
        # Built on the first frontier() call: strategies that deduce at
        # visit time (the sequential mode) never pay for it, and a fresh
        # ShardedFrontier starts all-dirty, so building late reads the
        # current state in full.
        self._selector_type = ShardedFrontier if sharded else FrontierCursor
        self._selector: Union[ShardedFrontier, FrontierCursor, None] = None
        self._index: Optional[PendingPairIndex] = None
        if use_index:
            self._index = PendingPairIndex(graph, pairs)
        # Order-preserving pending list for the full-scan fallback sweep.
        self._unlabeled: List[Pair] = list(pairs)

    def _selection(self) -> Union[ShardedFrontier, FrontierCursor]:
        if self._selector is None:
            self._selector = self._selector_type(self._pairs)
        return self._selector

    def _mark_dirty(self, pair: Pair) -> None:
        if self._selector is not None:
            self._selector.mark_dirty(pair)

    @property
    def n_components(self) -> int:
        """Static candidate-graph components the sharded frontier caches
        selections for (sharded backend only: the monolithic cursor scans
        the order as a whole)."""
        return self._selection().n_components

    def record_answer(self, pair: Pair, label: Label) -> bool:
        self._mark_dirty(pair)
        applied = self.graph.add(pair, label)
        if self._index is not None:
            self._index.remove(pair)
            self._index.note_objects_seen(pair.left, pair.right)
        return applied

    def record_answers(self, answers: Sequence[Tuple[Pair, Label]]) -> List[bool]:
        return record_each(self.record_answer, answers)

    def record_deduced(self, pair: Pair, label: Label) -> None:
        self._mark_dirty(pair)
        if self._index is not None:
            self._index.remove(pair)

    def publish(self, batch: Sequence[Pair], *, withhold: bool) -> None:
        for pair in batch:
            self._mark_dirty(pair)
        if withhold:
            self.withhold(batch)

    def withhold(self, batch: Sequence[Pair]) -> None:
        if self._index is not None:
            for pair in batch:
                self._index.remove(pair)

    def sweep(self) -> List[Tuple[Pair, Label]]:
        if self._index is not None:
            # The index drops the pairs it resolves.
            position = self._position
            resolved = sorted(
                self._index.sweep(), key=lambda entry: position[entry[0]]
            )
        else:
            resolved = []
            still: List[Pair] = []
            for pair in self._unlabeled:
                if pair in self._labeled:
                    continue
                if pair in self._withheld:
                    still.append(pair)
                    continue
                deduced = self.graph.deduce(pair)
                if deduced is not None:
                    resolved.append((pair, deduced))
                else:
                    still.append(pair)
            self._unlabeled = still
        for pair, _ in resolved:
            self._mark_dirty(pair)
        return resolved

    def frontier(self) -> List[Pair]:
        return self._selection().frontier(self._labeled, self._published)

    def deduce(self, pair: Pair) -> Optional[Label]:
        return self.graph.deduce(pair)

    def close(self) -> None:
        """Nothing to release: the core lives in this process."""


class EngineBackend(str, enum.Enum):
    """The engine backends, as an enum for the curated public surface.

    Members compare (and serialize) equal to their plain-string spellings,
    so ``LabelingEngine(order, backend=EngineBackend.SHARDED)`` and
    ``backend="sharded"`` are interchangeable everywhere a backend is
    accepted — including :class:`repro.spec.CampaignSpec`.
    """

    AUTO = "auto"
    MONOLITHIC = "monolithic"
    SHARDED = "sharded"
    VECTORIZED = "vectorized"
    PARALLEL = "parallel"
    DISTRIBUTED = "distributed"


class LabelingEngine:
    """Shared state machine for transitivity-aware labeling.

    Args:
        order: the labeling order (pairs or candidate pairs; candidate
            likelihoods are retained for likelihood-aware dispatch).
        policy: conflict policy of the deduction graph.
        use_index: keep the pending-pair frontier incrementally via
            :class:`PendingPairIndex`; the full-scan fallback produces
            identical results (property-tested) and exists for
            cross-validation.
        backend: ``"monolithic"`` (one :class:`ClusterGraph` + one
            :class:`FrontierCursor`), ``"sharded"`` (per-component
            :class:`ShardedClusterGraph` + :class:`ShardedFrontier`),
            ``"vectorized"`` (array-native kernels over a flat integer
            encoding, see :mod:`repro.engine.vectorized`; requires numpy —
            the ``perf`` extra — and silently falls back to ``"sharded"``
            without it), ``"parallel"`` (the sharded decomposition fanned
            out by a :class:`~repro.engine.distributed.ShardCoordinator`
            across pipe-attached local worker processes; falls back to
            in-process sharding below ``parallel_threshold`` pairs, where
            pipe latency would dominate), ``"distributed"`` (the same
            coordinator over socket-attached
            :class:`~repro.engine.distributed.ShardWorkerHost` processes —
            local or remote; never auto-selected and never silently
            downgraded: requesting remote workers is an explicit topology
            decision), or ``"auto"`` — monolithic below ``shard_threshold``
            pairs, vectorized at or above it when numpy is importable,
            sharded otherwise (process parallelism is never auto-selected).
            All backends are property-tested identical in observable
            behaviour; sharding, vectorization, and process parallelism are
            purely scaling features.  Both worker-backed backends re-assign
            a lost worker's components to the surviving workers.
        shard_threshold: the ``auto`` cut-over point.
        parallel_threshold: below this many pairs ``backend="parallel"``
            silently uses the in-process sharded backend instead (pass 0 to
            force worker processes, as the differential tests do).
        n_workers: worker process count for the parallel backend (defaults
            to the available CPUs, capped at 8); on the distributed backend
            it is the ``spawn_local_workers`` default when neither
            ``workers`` nor ``spawn_local_workers`` is given.  An explicit
            total of zero workers raises ``ValueError`` on both.
        mp_start_method: multiprocessing start method for the parallel
            backend and for spawned local distributed workers (default:
            ``fork`` where available, else ``spawn``).
        workers: distributed backend only — ``"host:port"`` addresses of
            running :class:`~repro.engine.distributed.ShardWorkerHost`
            processes the coordinator should connect to.
        spawn_local_workers: distributed backend only — spawn this many
            loopback worker-host child processes (the tests/examples
            convenience; combinable with ``workers``).
    """

    def __init__(
        self,
        order: Sequence[Union[Pair, CandidatePair]],
        *,
        policy: ConflictPolicy = ConflictPolicy.STRICT,
        use_index: bool = True,
        backend: str = "auto",
        shard_threshold: int = DEFAULT_SHARD_THRESHOLD,
        parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
        n_workers: Optional[int] = None,
        mp_start_method: Optional[str] = None,
        workers: Optional[Sequence[str]] = None,
        spawn_local_workers: Optional[int] = None,
    ) -> None:
        if isinstance(backend, EngineBackend):
            backend = backend.value
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        # Duplicate pairs in the order collapse to their first occurrence:
        # a pair has one label, and LabelingResult records each pair once.
        # Bulk path first: an all-CandidatePair order with no duplicates
        # (every spec-built order, including journal recovery) builds the
        # three indexes with C-speed zips; a bare Pair in the order raises
        # AttributeError and a duplicate shows up as a short position
        # dict, both falling back to the general one-at-a-time loop.
        try:
            pairs = [item.pair for item in order]
            position = dict(zip(pairs, range(len(pairs))))
            if len(position) != len(pairs):
                raise _DuplicateOrder
            likelihoods = dict(
                zip(pairs, (item.likelihood for item in order))
            )
        except (AttributeError, _DuplicateOrder):
            # Duplicate pairs in the order collapse to their first
            # occurrence: a pair has one label, and LabelingResult
            # records each pair once.
            pairs, position, likelihoods = [], {}, {}
            for item in order:
                if isinstance(item, CandidatePair):
                    pair, likelihood = item.pair, item.likelihood
                else:
                    pair, likelihood = item, 0.5
                if pair not in likelihoods:
                    position[pair] = len(likelihoods)
                    pairs.append(pair)
                    likelihoods[pair] = likelihood
        self.pairs: List[Pair] = pairs
        self.likelihoods: Dict[Pair, float] = likelihoods
        self._position: Dict[Pair, int] = position
        self.result = LabelingResult(order=list(self.pairs))
        self.labeled: Dict[Pair, Label] = {}
        #: Pairs handed to the crowd and not yet answered; excluded from the
        #: frontier so they are never published twice.
        self.published: Set[Pair] = set()
        #: Published pairs that are also out of the deduction sweep's reach
        #: (already on the platform: the crowd will answer them regardless).
        self._withheld: Set[Pair] = set()
        #: The in-process deduction graph (monolithic and sharded backends;
        #: None where the graph lives in arrays or worker processes).
        self.graph: Union[ClusterGraph, ShardedClusterGraph, None] = None
        self._policy = policy
        if backend == "auto":
            if len(self.pairs) < shard_threshold:
                backend = "monolithic"
            else:
                backend = "vectorized" if vectorized_available() else "sharded"
        elif backend == "vectorized" and not vectorized_available():
            # numpy is an optional dependency (the ``perf`` extra): the
            # documented graceful fallback to the pure-Python backend.
            backend = "sharded"
        elif backend == "parallel" and len(self.pairs) < parallel_threshold:
            # Process orchestration only pays for itself at scale: the
            # documented auto-fallback to in-process sharding.
            backend = "sharded"
        self.backend = backend
        if self.backend == "vectorized":
            self._core = VectorizedEngineCore(
                self.pairs, policy=policy, positions=self._position
            )
        elif self.backend in ("parallel", "distributed"):
            parallel = self.backend == "parallel"
            if parallel or (workers is None and spawn_local_workers is None):
                # n_workers is the local worker count: the parallel
                # backend's one topology knob, and the distributed default.
                spawn_local_workers = n_workers
            self._core = ShardCoordinator(
                self.pairs,
                positions=self._position,
                policy=policy,
                workers=None if parallel else workers,
                spawn_local_workers=spawn_local_workers,
                local_transport="pipe" if parallel else "socket",
                mp_start_method=mp_start_method,
            )
        else:
            self.graph = (
                ShardedClusterGraph(policy=policy)
                if self.backend == "sharded"
                else ClusterGraph(policy=policy)
            )
            self._core = GraphEngineCore(
                self.graph,
                self.pairs,
                self._position,
                self.labeled,
                self.published,
                self._withheld,
                sharded=self.backend == "sharded",
                use_index=use_index,
            )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_labeled(self) -> int:
        return len(self.labeled)

    @property
    def is_done(self) -> bool:
        """True when every pair in the order has a final label."""
        return len(self.labeled) >= len(self.pairs)

    def deduce(self, pair: Pair) -> Optional[Label]:
        """What the received answers imply about ``pair`` (Algorithm 1)."""
        return self._core.deduce(pair)

    def state_fingerprint(self) -> dict:
        """A canonical, backend-independent digest of the engine state.

        Built for differential testing — two engines that processed the same
        answers (in any backend, in any arrival order that the conflict
        policy resolves identically) produce *equal* fingerprints, and the
        journal replay tests require the resumed engine's fingerprint to be
        byte-identical (after ``json.dumps(..., sort_keys=True)``) to the
        uninterrupted run's.

        The digest is computed purely from state held in this process
        (``labeled``/``published`` and the order), never from graph queries:
        it stays readable after :meth:`close`, including on the parallel
        backend whose graph lives in (possibly terminated) workers.  The
        frontier is derived by re-running the shared Algorithm-3 selection
        over the labeled map, so it is exact without touching the backend.
        """
        labels = sorted(
            (repr(pair), label.value) for pair, label in self.labeled.items()
        )
        # The matching-partition: connected components of the answered
        # MATCHING pairs, via a throwaway union-find over object reprs.
        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for pair, label in self.labeled.items():
            if label is Label.MATCHING:
                ra, rb = find(repr(pair.left)), find(repr(pair.right))
                if ra != rb:
                    parent[rb] = ra
        clusters: Dict[str, List[str]] = {}
        for member in parent:
            clusters.setdefault(find(member), []).append(member)
        partition = sorted(sorted(members) for members in clusters.values())
        if self.is_done:
            frontier: List[Pair] = []
        else:
            # Recompute Algorithm 3 from the labeled map alone (the shared
            # reference selection) so closed/parallel backends need not be
            # queried.  Unanswered published pairs keep their assumed-
            # matching role but are not selected, exactly as frontier().
            from .frontier import must_crowdsource_frontier

            frontier = must_crowdsource_frontier(
                self.pairs, self.labeled, exclude=self.published
            )
        return {
            "labels": labels,
            "partition": partition,
            "frontier": [repr(pair) for pair in frontier],
            "published": sorted(repr(pair) for pair in self.published),
            "n_labeled": self.n_labeled,
            "n_crowdsourced": self.result.n_crowdsourced,
            "n_deduced": self.result.n_deduced,
        }

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def order_digest(self) -> str:
        """SHA-256 over the labeling order, binding snapshots to it."""
        digest = getattr(self, "_order_digest", None)
        if digest is None:
            hasher = hashlib.sha256()
            # One join + one update instead of 2 per pair; the trailing
            # separator keeps the digest identical to the per-pair form.
            hasher.update("\x1f".join(map(repr, self.pairs)).encode("utf-8"))
            if self.pairs:
                hasher.update(b"\x1f")
            digest = self._order_digest = hasher.hexdigest()
        return digest

    def snapshot_state(self) -> dict:
        """A compact, JSON-serializable encoding of the engine state.

        The snapshot captures everything :meth:`restore_state` needs to
        rebuild an equivalent engine over the *same* labeling order (bound
        by :meth:`order_digest`): every recorded outcome in global
        resolution order, the publication rounds, and the published/
        withheld sets — all as order positions, so the payload stays small
        and backend-independent.  On the vectorized backend a ``native``
        sub-payload additionally serializes the flat array state directly
        (see :meth:`~repro.engine.vectorized.VectorizedEngineCore
        .snapshot_arrays`), letting restore skip per-record graph replay.

        Restoring the snapshot into a fresh engine of any backend yields a
        byte-identical :meth:`state_fingerprint` — the property the journal
        compaction pipeline (:mod:`repro.service`) is built on.
        """
        outcomes = sorted(
            self.result.outcomes.values(), key=lambda o: o.position
        )
        position = self._position
        # int32 columns: positions/rounds are bounded by the order length,
        # and 4-byte lanes halve the base64 footprint of the JSON line.
        ev_pos, ev_round = array("i"), array("i")
        ev_label, ev_prov = array("b"), array("b")
        for o in outcomes:
            ev_pos.append(position[o.pair])
            ev_label.append(LABEL_CODE[o.label])
            ev_prov.append(_SNAP_CROWDSOURCED if o.crowdsourced else _SNAP_DEDUCED)
            ev_round.append(o.round_index)
        round_flat, round_sizes = array("i"), array("i")
        for batch in self.result.rounds:
            round_sizes.append(len(batch))
            for pair in batch:
                round_flat.append(position[pair])
        snapshot = {
            "version": ENGINE_SNAPSHOT_VERSION,
            "backend": self.backend,
            "policy": self._policy.value,
            "n_pairs": len(self.pairs),
            "order_digest": self.order_digest(),
            # Event/position lists ship as packed base64 columns (see
            # _pack_ints): JSON-safe, ~4x smaller, and decodable in one
            # memcpy per column instead of one token per element.
            "events": {
                "pos": _pack_ints(ev_pos),
                "label": _pack_ints(ev_label, "b"),
                "prov": _pack_ints(ev_prov, "b"),
                "round": _pack_ints(ev_round),
            },
            "rounds": {
                "flat": _pack_ints(round_flat),
                "sizes": _pack_ints(round_sizes),
            },
            "published": _pack_ints(
                sorted(position[pair] for pair in self.published), "i"
            ),
            "withheld": _pack_ints(
                sorted(position[pair] for pair in self._withheld), "i"
            ),
        }
        if self.backend == "vectorized":
            snapshot["native"] = self._core.snapshot_arrays()
        return snapshot

    def restore_state(self, snapshot: dict) -> None:
        """Load a :meth:`snapshot_state` payload into this (fresh) engine.

        The engine must have been built over the same labeling order (any
        backend; the snapshot is portable).  Restore replays the recorded
        outcomes through the normal event entry points in their original
        global order — which rebuilds the deduction graph, the pending-pair
        index, and FIRST_WINS conflict bookkeeping exactly, because the
        graph is a pure function of the crowdsourced-answer sequence — then
        re-applies the published/withheld sets.  The vectorized backend
        short-circuits graph replay by loading the ``native`` array payload
        and only rebuilding the per-pair result records.

        Raises:
            ValueError: on a version/order mismatch, or if this engine has
                already recorded state.
        """
        if snapshot.get("version") != ENGINE_SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported engine snapshot version {snapshot.get('version')!r}"
            )
        if self.result.outcomes or self.published or self._withheld:
            raise ValueError("restore_state requires a freshly built engine")
        if snapshot["n_pairs"] != len(self.pairs) or (
            snapshot["order_digest"] != self.order_digest()
        ):
            raise ValueError(
                "snapshot was taken over a different labeling order"
            )
        policy = self._policy.value
        if snapshot.get("policy") not in (None, policy):
            raise ValueError(
                f"snapshot policy {snapshot['policy']!r} does not match "
                f"engine policy {policy!r}"
            )
        pairs = self.pairs
        packed = snapshot["events"]
        published = _unpack_ints(snapshot["published"], "i")
        withheld = _unpack_ints(snapshot["withheld"], "i")
        native = snapshot.get("native")
        native_ok = (
            native is not None
            and self.backend == "vectorized"
            and self._core.restore_arrays(native)
        )
        if native_ok:
            # The graph, label masks, and exclusions are already in the
            # arrays; only the per-pair engine bookkeeping is rebuilt here,
            # bypassing the per-record event path entirely.  The label map
            # (which ``is_done`` and live dispatch read immediately) is one
            # bulk dict update; the per-pair PairOutcome records and the
            # round batches are *deferred* — a recovered campaign needs
            # them only when something reports on the result, so their
            # reconstruction runs on first access instead of inside the
            # recovery window.
            event_pairs = [pairs[pos] for pos in _unpack_ints(packed["pos"], "i")]
            label_of = LABEL_OF_CODE
            labels = [label_of[c] for c in _unpack_ints(packed["label"], "b")]
            self.labeled.update(zip(event_pairs, labels))
            prov_col = _unpack_ints(packed["prov"], "b")
            round_col = packed["round"]
            rounds_payload = snapshot["rounds"]

            def rebuild(result) -> None:
                outcomes = {}
                provenances = (Provenance.CROWDSOURCED, Provenance.DEDUCED)
                new = object.__new__
                n = 0
                # PairOutcome is a frozen dataclass, whose generated
                # __init__ pays one guarded object.__setattr__ per field —
                # filling the instance dict directly restores 100k+
                # outcomes in a fraction of that.  Field values come
                # straight from a snapshot this process wrote, so no
                # validation is being skipped.
                for pair, label, prov, round_index in zip(
                    event_pairs,
                    labels,
                    prov_col,
                    _unpack_ints(round_col, "i"),
                ):
                    outcome = new(PairOutcome)
                    fields = outcome.__dict__
                    fields["pair"] = pair
                    fields["label"] = label
                    fields["provenance"] = provenances[prov]
                    fields["round_index"] = round_index
                    fields["position"] = n
                    outcomes[pair] = outcome
                    n += 1
                result.__dict__["outcomes"] = outcomes
                round_flat = iter(_unpack_ints(rounds_payload["flat"], "i"))
                result.__dict__["rounds"] = [
                    [pairs[next(round_flat)] for _ in range(size)]
                    for size in _unpack_ints(rounds_payload["sizes"], "i")
                ]

            n_crowdsourced = prov_col.count(_SNAP_CROWDSOURCED)
            self.result.defer_restore(
                rebuild,
                n_crowdsourced=n_crowdsourced,
                n_deduced=len(prov_col) - n_crowdsourced,
            )
            self.published.update(pairs[pos] for pos in published)
            self._withheld.update(pairs[pos] for pos in withheld)
            return
        else:
            events = zip(
                _unpack_ints(packed["pos"], "i"),
                _unpack_ints(packed["label"], "b"),
                _unpack_ints(packed["prov"], "b"),
                _unpack_ints(packed["round"], "i"),
            )
            for pos, code, prov, round_index in events:
                pair = pairs[pos]
                label = LABEL_OF_CODE[code]
                if prov == _SNAP_CROWDSOURCED:
                    self.record_answer(pair, label, round_index)
                else:
                    self.record_deduced(pair, label, round_index)
            self.publish([pairs[pos] for pos in published], withhold=False)
            self.withhold([pairs[pos] for pos in withheld])
        round_flat = iter(_unpack_ints(snapshot["rounds"]["flat"], "i"))
        self.result.rounds = [
            [pairs[next(round_flat)] for _ in range(size)]
            for size in _unpack_ints(snapshot["rounds"]["sizes"], "i")
        ]

    @property
    def core(self):
        """The backend's engine core, which every event is forwarded to:
        a :class:`GraphEngineCore` (monolithic, sharded), a
        :class:`~repro.engine.vectorized.VectorizedEngineCore`, or a
        :class:`~repro.engine.distributed.ShardCoordinator` (parallel:
        pipe-attached workers; distributed: socket-attached workers)."""
        return self._core

    @property
    def executor(self):
        """The worker-backed core — the
        :class:`~repro.engine.distributed.ShardCoordinator` of the parallel
        and distributed backends — or None on the in-process backends."""
        return self._core if self.backend in ("parallel", "distributed") else None

    def close(self) -> None:
        """Release backend resources (the worker processes or hosts of the
        parallel and distributed backends).  Idempotent; a no-op on
        in-process backends.  After closing, queries on a worker-backed
        core raise :class:`~repro.engine.parallel.ShardWorkerError` — the
        labeling result and label map remain readable (they live in this
        process).
        """
        self._core.close()

    def __enter__(self) -> "LabelingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # frontier
    # ------------------------------------------------------------------
    def frontier(self) -> List[Pair]:
        """The current must-crowdsource pairs, in order (Algorithm 3).

        Already-published pairs keep their assumed-matching role but are not
        selected again.  The selection is incremental on every backend: the
        monolithic backend skips the decided prefix of the order
        (:class:`FrontierCursor`), the others additionally recompute only
        components touched since the last call.
        """
        return self._core.frontier()

    def publish(self, batch: Iterable[Pair], *, withhold: bool = True) -> None:
        """Mark ``batch`` as handed to the crowd.

        Args:
            batch: pairs being published.
            withhold: remove the pairs from the deduction sweep too (they are
                on the platform and will be answered regardless).  Pass False
                for pairs merely *buffered* toward a full HIT — those can
                still be rescued by deduction before they reach the platform.
        """
        batch = list(batch)  # tolerate single-pass iterables
        self.published.update(batch)
        if withhold:
            self._withheld.update(batch)
        self._core.publish(batch, withhold=withhold)

    def withhold(self, batch: Iterable[Pair]) -> None:
        """Take ``batch`` out of the deduction sweep (now on the platform)."""
        batch = list(batch)
        self._withheld.update(batch)
        self._core.withhold(batch)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def record_deduced(self, pair: Pair, label: Label, round_index: int) -> None:
        """Record a label obtained for free via transitive relations."""
        self._note_deduced(pair, label, round_index)
        self._core.record_deduced(pair, label)

    def _note_deduced(self, pair: Pair, label: Label, round_index: int) -> None:
        self.labeled[pair] = label
        self.result.record(pair, label, Provenance.DEDUCED, round_index)
        self.published.discard(pair)

    def record_answer(self, pair: Pair, label: Label, round_index: int) -> bool:
        """Record one crowd answer: :meth:`record_answers` for a run of one.

        Returns:
            True if the edge was applied, False if it was rejected as a
            conflict under the FIRST_WINS policy.

        Raises:
            InconsistentLabelError: under STRICT, when the answer contradicts
                what the graph already implies.
        """
        return self.record_answers(((pair, label),), round_index)[0]

    def record_answers(
        self,
        answers: Iterable[Tuple[Pair, Label]],
        round_index: Union[int, Sequence[int]],
    ) -> List[bool]:
        """Record a run of crowd answers, in order, through one core call.

        Each answer becomes its pair's final label; under FIRST_WINS a
        contradictory edge is dropped from the graph (its flag is False)
        but the label still stands — crowd answers win for published pairs.
        The call does not sweep: callers sweep once after the run (see
        :meth:`sweep`), so a component the run dirtied is re-checked once,
        not once per answer.  On the worker-backed backends the run costs
        one ``answers`` command per worker that owns part of it.

        Args:
            answers: ``(pair, label)`` per answer, in arrival order; pairs
                are distinct and not yet labeled.
            round_index: the round every answer is recorded in, or one
                round index per answer.

        Returns:
            one flag per answer: True if the edge was applied, False if it
            was rejected as a FIRST_WINS conflict.

        Raises:
            InconsistentLabelError: under STRICT, when an answer contradicts
                what the graph already implies.  The answers the core
                applied before it are recorded; the rest are not.
        """
        answers = list(answers)
        rounds = (
            [round_index] * len(answers)
            if isinstance(round_index, int)
            else round_index
        )
        try:
            flags = self._core.record_answers(answers)
        except Exception as exc:
            self._note_answers(answers, rounds, getattr(exc, "applied_flags", ()))
            raise
        self._note_answers(answers, rounds, flags)
        return flags

    def _note_answers(self, answers, rounds, flags) -> None:
        published, withheld, labeled = self.published, self._withheld, self.labeled
        record, crowdsourced = self.result.record, Provenance.CROWDSOURCED
        for (pair, label), round_index, flag in zip(answers, rounds, flags):
            if flag is None:
                continue  # not applied: the core stopped before it
            published.discard(pair)
            withheld.discard(pair)
            labeled[pair] = label
            record(pair, label, crowdsourced, round_index)

    def sweep(self, round_index: int) -> List[Tuple[Pair, Label]]:
        """Resolve every pending pair the answers so far imply.

        The core re-checks only pairs whose endpoint clusters changed since
        the last sweep (the full pending list without the incremental
        index, the pre-refactor behaviour kept for cross-validation), and
        records its resolutions itself.  Withheld pairs are never resolved
        — they are on the platform and will be crowd-answered.

        Returns:
            (pair, deduced label) per newly resolved pair, in order position.
        """
        resolved = self._core.sweep()
        for pair, label in resolved:
            self._note_deduced(pair, label, round_index)
        return resolved
