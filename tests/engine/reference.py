"""Pre-refactor reference labelers, frozen for engine parity testing.

These are verbatim transcriptions of the seed repo's ``SequentialLabeler``
and ``ParallelLabeler`` loops from before they became facades over the
shared :class:`repro.engine.LabelingEngine` — including their own copy of
the optimistic must-crowdsource scan and the O(pending) full-rescan
deduction sweep.  They deliberately share nothing with ``repro.engine`` so
the parity property tests compare two independent implementations.
:func:`reference_expected_value` is the one exception: the synchronous
expected-value loop, frozen from before the runtime's
``ordering="expected-value"`` replaced it, still drives the engine and its
scorer — it pins the runtime's question order, not the scorer.

Alongside the frozen references live the shared differential-test helpers
every backend suite uses — :class:`RecordingOracle`, :func:`block_world`
(a deterministic multi-component world, essential for worker-loss tests
where single-component worlds collapse to one worker), and the
shuffled/expiring simulated-client factories that exercise out-of-order
completion and HIT re-issue.  The parallel- and distributed-backend suites
import them from here instead of copy-pasting per file.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.cluster_graph import ClusterGraph, ConflictPolicy
from repro.core.oracle import GroundTruthOracle, LabelOracle
from repro.core.pairs import CandidatePair, Label, Pair, Provenance
from repro.core.result import LabelingResult
from repro.core.union_find import UnionFind
from repro.crowd.clients import SimulatedPlatformClient
from repro.crowd.latency import LognormalLatency
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.worker import make_worker_pool
from repro.engine import LabelingEngine
from repro.engine.expected import ExpectedDeductionScorer


class RecordingOracle(LabelOracle):
    """Wraps an oracle and records the pairs it is asked about, in order.

    The differential suites compare oracle-call *order* between a strategy
    and its frozen reference, so this helper lives here with the references.
    """

    def __init__(self, inner: LabelOracle) -> None:
        self.inner = inner
        self.calls: List[Pair] = []

    def label(self, pair: Pair) -> Label:
        self.calls.append(pair)
        return self.inner.label(pair)


def _as_pairs(order: Sequence[Union[Pair, CandidatePair]]) -> List[Pair]:
    return [item.pair if isinstance(item, CandidatePair) else item for item in order]


def block_world(
    n_blocks: int = 8, objects_per_block: int = 5
) -> Tuple[List[Pair], GroundTruthOracle]:
    """A deterministic multi-component world: disjoint blocks, so the order
    splits into ``n_blocks`` static components and genuinely exercises the
    cross-worker routing and merge paths.  Worker-loss differentials need
    this shape — a single-component world collapses to one worker, and
    killing it is (correctly) unrecoverable."""
    entity_of = {}
    order = []
    for b in range(n_blocks):
        objs = [f"b{b}o{i}" for i in range(objects_per_block)]
        for i, obj in enumerate(objs):
            entity_of[obj] = b * objects_per_block + i // 2
        for i in range(len(objs)):
            for j in range(i + 1, len(objs)):
                order.append(Pair(objs[i], objs[j]))
    return order, GroundTruthOracle(entity_of)


def shuffled_client_factory(seed: int):
    """Simulated client whose completions arrive out of publication order:
    a pool of perfect workers with distinct speeds plus lognormal pickup
    delays, one pair per HIT."""

    def factory(oracle):
        platform = SimulatedPlatform(
            workers=make_worker_pool(8, seed=seed),
            truth=oracle,
            latency=LognormalLatency(),
            batch_size=1,
            n_assignments=1,
            seed=seed,
        )
        return SimulatedPlatformClient(platform)

    return factory


def expiring_client_factory(seed: int, probability: float = 0.4):
    """Deterministic FIFO client that additionally abandons a seeded
    fraction of HITs (each at most once), forcing the re-issue path."""

    def factory(oracle):
        client = SimulatedPlatformClient.for_oracle(oracle, seed=seed)
        return SimulatedPlatformClient(
            client.platform, expire_probability=probability, expire_seed=seed
        )

    return factory


def reference_sequential(
    order: Sequence[Union[Pair, CandidatePair]],
    oracle: LabelOracle,
    policy: ConflictPolicy = ConflictPolicy.STRICT,
) -> LabelingResult:
    """The seed repo's one-pair-at-a-time loop (paper Section 3.2)."""
    pairs = _as_pairs(order)
    graph = ClusterGraph(policy=policy)
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


class _ReferenceOptimisticGraph:
    """The seed repo's optimistic cluster graph (all unlabeled pairs match)."""

    def __init__(self) -> None:
        self._uf = UnionFind()
        self._nm: Dict[Hashable, Set[Hashable]] = {}

    def assume_matching(self, a: Hashable, b: Hashable) -> None:
        root_a = self._uf.find(a)
        root_b = self._uf.find(b)
        if root_a == root_b:
            return
        survivor = self._uf.union(root_a, root_b)
        loser = root_b if survivor == root_a else root_a
        loser_nm = self._nm.pop(loser, set())
        if loser_nm:
            survivor_nm = self._nm.setdefault(survivor, set())
            for neighbour in loser_nm:
                self._nm[neighbour].discard(loser)
                if neighbour != survivor:
                    self._nm[neighbour].add(survivor)
                    survivor_nm.add(neighbour)
            if not survivor_nm:
                del self._nm[survivor]

    def add_non_matching(self, a: Hashable, b: Hashable) -> None:
        root_a = self._uf.find(a)
        root_b = self._uf.find(b)
        if root_a == root_b:
            return
        self._nm.setdefault(root_a, set()).add(root_b)
        self._nm.setdefault(root_b, set()).add(root_a)

    def must_crowdsource(self, pair: Pair) -> bool:
        if pair.left not in self._uf or pair.right not in self._uf:
            return True
        root_left = self._uf.find(pair.left)
        root_right = self._uf.find(pair.right)
        if root_left == root_right:
            return False
        return root_right not in self._nm.get(root_left, ())


def reference_parallel_selection(
    order: Sequence[Union[Pair, CandidatePair]],
    labeled: Dict[Pair, Label],
    exclude: Optional[Set[Pair]] = None,
) -> List[Pair]:
    """The seed repo's Algorithm-3 selection scan."""
    exclude = exclude or set()
    graph = _ReferenceOptimisticGraph()
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
        graph.assume_matching(pair.left, pair.right)
    return selected


def reference_parallel(
    order: Sequence[Union[Pair, CandidatePair]],
    oracle: LabelOracle,
    policy: ConflictPolicy = ConflictPolicy.STRICT,
) -> LabelingResult:
    """The seed repo's round-based loop (Algorithm 2) with its O(pending)
    full-rescan deduction sweep after every round."""
    pairs = _as_pairs(order)
    result = LabelingResult(order=pairs)
    labeled: Dict[Pair, Label] = {}
    graph = ClusterGraph(policy=policy)
    round_index = 0
    remaining = list(pairs)
    while remaining:
        batch = reference_parallel_selection(pairs, labeled)
        assert batch, "a round must always publish at least one pair"
        for pair in batch:
            answer = oracle.label(pair)
            labeled[pair] = answer
            graph.add(pair, answer)
            result.record(pair, answer, Provenance.CROWDSOURCED, round_index)
        result.rounds.append(batch)
        still_remaining: List[Pair] = []
        for pair in remaining:
            if pair in labeled:
                continue
            deduced = graph.deduce(pair)
            if deduced is not None:
                labeled[pair] = deduced
                result.record(pair, deduced, Provenance.DEDUCED, round_index)
            else:
                still_remaining.append(pair)
        remaining = still_remaining
        round_index += 1
    return result


def reference_expected_value(
    order: Sequence[Union[Pair, CandidatePair]], oracle: LabelOracle
) -> LabelingResult:
    """The synchronous adaptive loop: publish the best-scoring pair, record
    its answer, sweep deductions, repeat."""
    engine = LabelingEngine(order)
    scorer = ExpectedDeductionScorer()
    likelihoods = engine.likelihoods
    round_index = 0
    while not engine.is_done:
        unresolved = [
            CandidatePair(pair, likelihoods[pair])
            for pair in engine.pairs
            if pair not in engine.labeled
        ]
        chosen = scorer.choose(unresolved)
        if chosen is None:
            # Everything left is deducible; the sweep must finish the job.
            assert engine.sweep(round_index), "adaptive loop stalled"
            continue
        pair = chosen.pair
        engine.publish([pair])
        engine.result.rounds.append([pair])
        answer = oracle.label(pair)
        engine.record_answer(pair, answer, round_index)
        scorer.observe(pair, answer)
        for deduced_pair, deduced_label in engine.sweep(round_index):
            scorer.observe(deduced_pair, deduced_label)
        round_index += 1
    return engine.result
