"""Micro-benchmarks for the core data structures.

These quantify the constants behind the headline experiments: union-find
throughput, incremental ClusterGraph insertion, deduction queries, one
Algorithm-3 selection scan, the engine's incremental pending-pair frontier
against the pre-refactor full-rescan deduction sweep, the per-component
reselection against one whole-order cursor (at tenant size and at one
million candidate pairs, on the monolithic backend), the vectorized
array-kernel backend against monolithic (numpy installs only), and the
distributed backend's socket workers against the in-process monolithic and
vectorized backends.

Machine-readable timings are emitted to ``BENCH_core.json`` in the repo
root after the session; ``compare_bench.py`` diffs that artifact against
the committed baseline in CI, so every PR extends the perf trajectory.
Between tests a fixed interpreter + numpy kernel that runs none of the
program's code is timed; its median (``host_calibration``) is the
machine-speed proxy CI calibrates by, so a change that moves many entries
cannot move the scale the others are judged on.
"""

from __future__ import annotations

import gc
import json
import platform as platform_module
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.cluster_graph import ClusterGraph, ConflictPolicy
from repro.core.expected_cost import adaptive_expected_cost, expected_cost
from repro.core.oracle import GroundTruthOracle
from repro.core.ordering import expected_order
from repro.core.pairs import CandidatePair, Label, LabeledPair, Pair, candidate
from repro.core.sweep import PendingPairIndex
from repro.core.union_find import UnionFind
from repro.crowd.aggregation import (
    WeightedAggregation,
    WorkerAccuracyTracker,
    summarize_assignments,
)
from repro.crowd.hit import HIT, Assignment
from repro.crowd.worker import LikelihoodAwareWorker
from repro.crowd.clients import (
    InMemoryCrowdBackend,
    ManualClock,
    PollingPlatformClient,
    SimulatedPlatformClient,
)
from repro.crowd.latency import ZeroLatency
from repro.crowd.platforms import RecordReplayBackend
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.worker import make_worker_pool
from repro.datasets.distributions import ClusterSizeSpec, paper_spec, product_spec
from repro.engine import (
    CrowdRuntime,
    FrontierCursor,
    HITDispatchAdapter,
    LabelingEngine,
    RuntimeMode,
    ShardedFrontier,
    must_crowdsource_frontier,
    vectorized_available,
)

N_OBJECTS = 3000
N_PAIRS = 8000
# Answers driven through the sweep comparison (each costs the full-rescan
# path one O(pending) scan, so the cap bounds the benchmark's runtime).
SWEEP_STREAM_CAP = 1200

RESULTS: Dict[str, dict] = {}
_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_core.json"
#: Timings of :func:`_calibration_kernel`, one after every test.
_CALIBRATION_SAMPLES: List[float] = []


def _record(name: str, **payload) -> None:
    RESULTS[name] = payload


def _calibration_kernel() -> float:
    """Seconds a fixed interpreter + numpy workload takes on this host."""
    import numpy

    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(100_000):
        table[i % 1009] = table.get(i % 1009, 0) + i
    values = numpy.random.default_rng(0).random(200_000)
    numpy.unique((numpy.sort(values) * 1e6).astype(numpy.int64))
    return time.perf_counter() - start


@pytest.fixture(autouse=True)
def _sample_host_speed():
    """Time the calibration kernel after each test."""
    yield
    if vectorized_available():
        _CALIBRATION_SAMPLES.append(_calibration_kernel())


def _timed(benchmark, name: str, fn):
    """Run ``fn`` under the benchmark fixture and harvest its mean timing."""
    result = benchmark(fn)
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is not None:
        _record(name, mean_s=stats.mean, rounds=stats.rounds)
    return result


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact():
    """Write the machine-readable timing artifact after the module runs."""
    yield
    if not RESULTS:
        return
    if _CALIBRATION_SAMPLES:
        _record(
            "host_calibration",
            total_s=statistics.median(_CALIBRATION_SAMPLES),
            n_samples=len(_CALIBRATION_SAMPLES),
            requires="numpy",
        )
    _ARTIFACT.write_text(
        json.dumps(
            {
                "suite": "bench_core_micro",
                "config": {
                    "n_objects": N_OBJECTS,
                    "n_pairs": N_PAIRS,
                    "sweep_stream_cap": SWEEP_STREAM_CAP,
                },
                "python": platform_module.python_version(),
                "results": RESULTS,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def _workload(seed: int = 0):
    rng = random.Random(seed)
    entity_of = {i: rng.randrange(N_OBJECTS // 10) for i in range(N_OBJECTS)}
    truth = GroundTruthOracle(entity_of)
    pairs = []
    seen = set()
    while len(pairs) < N_PAIRS:
        a, b = rng.sample(range(N_OBJECTS), 2)
        pair = Pair(a, b)
        if pair not in seen:
            seen.add(pair)
            pairs.append(LabeledPair(pair, truth.label(pair)))
    return pairs, truth


PAIRS, TRUTH = _workload()


def test_union_find_unions(benchmark):
    edges = [(item.pair.left, item.pair.right) for item in PAIRS]

    def run():
        uf = UnionFind()
        for a, b in edges:
            uf.union(a, b)
        return uf.n_components

    components = _timed(benchmark, "union_find_unions", run)
    assert components >= 1


def test_cluster_graph_incremental_insert(benchmark):
    def run():
        graph = ClusterGraph()
        for item in PAIRS:
            graph.add(item.pair, item.label)
        return graph

    graph = _timed(benchmark, "cluster_graph_incremental_insert", run)
    assert graph.n_objects == N_OBJECTS or graph.n_objects > 0


def test_cluster_graph_deduce_queries(benchmark):
    graph = ClusterGraph(PAIRS)
    rng = random.Random(1)
    queries = [Pair(*rng.sample(range(N_OBJECTS), 2)) for _ in range(5000)]

    def run():
        return sum(1 for q in queries if graph.deduce(q) is not None)

    deduced = _timed(benchmark, "cluster_graph_deduce_queries", run)
    assert 0 <= deduced <= len(queries)


def test_algorithm3_selection_scan(benchmark):
    order = [item.pair for item in PAIRS]

    def run():
        return must_crowdsource_frontier(order, labeled={})

    batch = _timed(benchmark, "algorithm3_selection_scan", run)
    assert 0 < len(batch) <= len(order)


# ----------------------------------------------------------------------
# incremental frontier vs the pre-refactor full-rescan sweep
# ----------------------------------------------------------------------
def _answer_stream() -> List[Tuple[Pair, Label]]:
    """The crowd answers a sequential run over the full workload produces,
    capped to bound the full-rescan driver's quadratic cost."""
    graph = ClusterGraph()
    stream: List[Tuple[Pair, Label]] = []
    for item in PAIRS:
        if graph.deduce(item.pair) is None:
            graph.add(item.pair, item.label)
            stream.append((item.pair, item.label))
            if len(stream) >= SWEEP_STREAM_CAP:
                break
    return stream


def _drive_full_rescan(stream: List[Tuple[Pair, Label]]) -> int:
    """Pre-refactor behaviour: after every answer, rescan every pending
    pair for deducibility — O(pending) per answer."""
    graph = ClusterGraph()
    pending = [item.pair for item in PAIRS]
    answered = set()
    for pair, label in stream:
        answered.add(pair)
        graph.add(pair, label)
        still: List[Pair] = []
        for waiting in pending:
            if waiting in answered or graph.deduce(waiting) is not None:
                continue
            still.append(waiting)
        pending = still
    return len(pending)


def _drive_incremental(stream: List[Tuple[Pair, Label]]) -> int:
    """Engine behaviour: the PendingPairIndex re-checks only pairs whose
    endpoint clusters changed."""
    graph = ClusterGraph()
    index = PendingPairIndex(graph, (item.pair for item in PAIRS))
    for pair, label in stream:
        index.remove(pair)
        graph.add(pair, label)
        index.note_objects_seen(pair.left, pair.right)
        index.sweep()
    return len(index)


def test_incremental_frontier_beats_full_rescan():
    """The refactor's headline perf claim, asserted on the largest
    configuration in this module: the incremental pending-pair frontier must
    beat the pre-refactor O(pending)-per-answer rescan — and resolve exactly
    the same pairs."""
    stream = _answer_stream()

    start = time.perf_counter()
    pending_full = _drive_full_rescan(stream)
    full_s = time.perf_counter() - start

    incremental_s = float("inf")
    for _ in range(3):  # best-of-3: the incremental path is fast enough
        start = time.perf_counter()
        pending_incremental = _drive_incremental(stream)
        incremental_s = min(incremental_s, time.perf_counter() - start)

    assert pending_incremental == pending_full
    _record(
        "pending_sweep_full_rescan",
        total_s=full_s,
        n_answers=len(stream),
        pending_left=pending_full,
    )
    _record(
        "pending_sweep_incremental",
        total_s=incremental_s,
        n_answers=len(stream),
        pending_left=pending_incremental,
    )
    _record(
        "pending_sweep_speedup",
        speedup=full_s / incremental_s if incremental_s else float("inf"),
    )
    # The gap is structural (O(dirty) vs O(pending) per answer; ~100x here),
    # so a 2x bar keeps the gate far from CI timing noise.
    assert full_s > incremental_s * 2, (
        f"incremental sweep ({incremental_s:.3f}s) must beat the full rescan "
        f"({full_s:.3f}s) on {len(stream)} answers over {N_PAIRS} pairs"
    )


def test_incremental_sweep_throughput(benchmark):
    """Steady-state timing of the incremental driver itself."""
    stream = _answer_stream()
    pending = _timed(
        benchmark, "incremental_sweep_throughput", lambda: _drive_incremental(stream)
    )
    assert 0 <= pending <= N_PAIRS


# ----------------------------------------------------------------------
# async crowd runtime vs the legacy synchronous campaign loop
# ----------------------------------------------------------------------
def _campaign_platform() -> SimulatedPlatform:
    """Deterministic HIT-granularity platform for the runtime comparison:
    perfect workers, zero latency, single assignment — the timing isolates
    the dispatch loop, not the worker simulation."""
    return SimulatedPlatform(
        workers=make_worker_pool(4, seed=3),
        truth=TRUTH,
        latency=ZeroLatency(),
        batch_size=20,
        n_assignments=1,
        seed=0,
    )


def _drive_legacy_sync_loop(candidates, platform):
    """The pre-async ``run_transitive`` body, frozen for comparison: the
    synchronous loop that *stepped* the simulator directly instead of
    awaiting completion events through a platform client."""
    engine = LabelingEngine(candidates, policy=ConflictPolicy.FIRST_WINS)

    def publish_chunk(chunk):
        platform.publish_pairs(chunk)

    adapter = HITDispatchAdapter(engine, publish_chunk, platform.batch_size)
    n_completions = 0
    adapter.select_new()
    adapter.flush(force=True)
    while not engine.is_done:
        if platform.n_outstanding_hits == 0:
            adapter.select_new()
            adapter.flush(force=True)
        completion = platform.step()
        assert completion is not None, "legacy campaign stalled"
        for pair, label in completion.labels.items():
            engine.record_answer(pair, label, n_completions)
        adapter.sweep(n_completions)
        n_completions += 1
        if not engine.is_done:
            adapter.select_new()
    return engine, n_completions


def test_async_runtime_throughput_vs_legacy_loop():
    """The async-first refactor's overhead gate: completions applied per
    second through ``CrowdRuntime`` (asyncio event loop over the simulated
    platform client) versus the frozen legacy synchronous loop, on the same
    instant-decision campaign — with byte-identical labeling results."""
    candidates = [item.pair for item in PAIRS]

    start = time.perf_counter()
    legacy_engine, legacy_completions = _drive_legacy_sync_loop(
        candidates, _campaign_platform()
    )
    legacy_s = time.perf_counter() - start

    start = time.perf_counter()
    engine = LabelingEngine(candidates, policy=ConflictPolicy.FIRST_WINS)
    runtime = CrowdRuntime(
        engine,
        SimulatedPlatformClient(_campaign_platform()),
        mode=RuntimeMode.HIT_INSTANT,
    )
    report = runtime.run_sync()
    runtime_s = time.perf_counter() - start

    # Same code path, same platform seed => identical campaigns.
    assert engine.result.labels() == legacy_engine.result.labels()
    assert report.n_completions == legacy_completions

    _record(
        "async_runtime_legacy_loop",
        total_s=legacy_s,
        per_completion_s=legacy_s / legacy_completions,
        completions_per_sec=legacy_completions / legacy_s,
        n_completions=legacy_completions,
    )
    _record(
        "async_runtime_event_loop",
        total_s=runtime_s,
        per_completion_s=runtime_s / report.n_completions,
        completions_per_sec=report.n_completions / runtime_s,
        n_completions=report.n_completions,
    )
    _record(
        "async_runtime_overhead",
        ratio=runtime_s / legacy_s if legacy_s else float("inf"),
        n_pairs=len(candidates),
    )
    # The event loop adds scheduling overhead per completion (~12%
    # observed); the committed-baseline trajectory gate (compare_bench.py,
    # calibrated ±25%) polices drift, so this in-test bar is only a
    # catastrophic-regression backstop kept far from single-sample noise.
    assert runtime_s < legacy_s * 5, (
        f"CrowdRuntime ({runtime_s:.3f}s) must stay within 5x of the legacy "
        f"synchronous loop ({legacy_s:.3f}s) on {legacy_completions} completions"
    )


# ----------------------------------------------------------------------
# vectorized large-run tick: forest + non-matching scan vs FrontierCursor
# ----------------------------------------------------------------------
# A Paper-shaped campaign answered by a constant-latency crowd: the first
# frontier comes back as one run, whose sweep deduces ~90% of the order and
# labels most components NON_MATCHING somewhere; every later tick answers
# the previous reselection as one run.  It runs before the 1M-pair tests:
# their workload stays cached for the session, and the collector's passes
# over it would land in these timings.
LARGE_RUN_SEED = 5
LARGE_RUN_COPIES = 6
#: The near-miss share that puts the deduced share near 91%.
LARGE_RUN_NEAR_MISS_SHARE = 0.00208
#: Drives per selection path; each timing is their median (the first
#: sweep's share of garbage-collection pauses varies from drive to drive).
LARGE_RUN_REPEATS = 3


def _paper_workload(seed: int = LARGE_RUN_SEED):
    """A Paper-shaped order of about 100k pairs: each copy of the Figure
    10(a) histogram is one block holding every within-cluster pair, plus a
    share of its cross-cluster pairs as near misses, all in
    descending-likelihood order."""
    rng = random.Random(seed)
    spec = paper_spec()
    entity_of: Dict[int, int] = {}
    candidates: List[CandidatePair] = []
    next_obj = 0
    for _ in range(LARGE_RUN_COPIES):
        members: List[int] = []
        for size in spec.sizes():
            cluster = range(next_obj, next_obj + size)
            next_obj += size
            entity = len(entity_of)
            for i, a in enumerate(cluster):
                entity_of[a] = entity
                for b in cluster[i + 1 :]:
                    candidates.append(CandidatePair(Pair(a, b), rng.uniform(0.5, 1.0)))
            members.extend(cluster)
        n_cross = len(members) * (len(members) - 1) // 2 - spec.n_matching_pairs()
        wanted = round(LARGE_RUN_NEAR_MISS_SHARE * n_cross)
        near_misses = set()
        while len(near_misses) < wanted:
            a, b = rng.sample(members, 2)
            pair = Pair(a, b)
            if entity_of[a] != entity_of[b] and pair not in near_misses:
                near_misses.add(pair)
                candidates.append(CandidatePair(pair, rng.uniform(0.0, 0.5)))
    candidates.sort(key=lambda cand: -cand.likelihood)
    return candidates, GroundTruthOracle(entity_of)


def _drive_large_run(candidates, truth, *, cursors: bool):
    """Publish the first frontier and answer it as one run, then answer
    every later reselection as one run until the order is labeled.

    With ``cursors`` the selection goes through a :class:`ShardedFrontier`
    (one :class:`FrontierCursor` per dirty component, the selection the
    vectorized core made for components with a non-matching label before
    its forest + non-matching scan) reading the engine's label map.
    """
    engine = LabelingEngine(candidates, backend="vectorized")
    if cursors:
        sharded = ShardedFrontier(engine.pairs)

        def select():
            return sharded.frontier(engine.labeled, engine.published)

        def touched(pairs):
            for pair in pairs:
                sharded.mark_dirty(pair)

    else:
        select = engine.frontier

        def touched(pairs):
            pass

    batch = select()
    frontiers: List[List[Pair]] = []
    timings: List[Tuple[float, float, float]] = []
    n_deduced: List[int] = []
    tick = 0
    # Timed with the collector off, as timeit does: where a full collection
    # lands depends on everything the process holds (here, the earlier
    # tests' garbage and caches), and it moved the first sweep between
    # 0.45 and 0.8 s from run to run.  perfbench's gc.pause_ms carries
    # the collector's share of a campaign.
    gc.collect()
    gc.disable()
    try:
        while batch:
            engine.publish(batch)
            touched(batch)
            answers = [(pair, truth.label(pair)) for pair in batch]
            start = time.perf_counter()
            engine.record_answers(answers, tick)
            swept = time.perf_counter()
            resolved = engine.sweep(tick)
            selected = time.perf_counter()
            touched(pair for pair, _ in answers)
            touched(pair for pair, _ in resolved)
            reselected = time.perf_counter()
            batch = select()
            done = time.perf_counter()
            frontiers.append(batch)
            timings.append((swept - start, selected - swept, done - reselected))
            n_deduced.append(len(resolved))
            tick += 1
    finally:
        gc.enable()
    assert engine.is_done
    later = timings[1:]
    return {
        "stats": {
            "record_s": timings[0][0],
            "sweep_s": timings[0][1],
            "first_frontier_s": timings[0][2],
            "per_tick_s": sum(map(sum, later)) / len(later),
            "per_reselection_s": sum(tick[2] for tick in later) / len(later),
            "n_pairs": len(engine.pairs),
            "n_first_run_deduced": n_deduced[0],
            "n_ticks": len(timings),
            "n_crowdsourced": engine.result.n_crowdsourced,
        },
        "frontiers": frontiers,
        "labeled": dict(engine.labeled),
    }


def test_vectorized_large_run_tick_beats_frontier_cursors():
    """The scale-instant tick that follows a large run: its sweep records
    ~90% of the order at once, and the reselection scans each component
    with a non-matching label through its forest + non-matching scan
    instead of a :class:`FrontierCursor` over every pair."""
    if not vectorized_available():
        pytest.skip("numpy unavailable: the vectorized backend is the perf extra")
    from repro.engine.parallel import available_cpus

    candidates, truth = _paper_workload()
    stats: Dict[str, dict] = {}
    reference = None
    for name in ("forest", "cursor"):
        drives = [
            _drive_large_run(candidates, truth, cursors=name == "cursor")
            for _ in range(LARGE_RUN_REPEATS)
        ]
        reference = reference or drives[0]
        for drive in drives:
            assert drive["frontiers"] == reference["frontiers"]
            assert drive["labeled"] == reference["labeled"]
        stats[name] = {
            key: statistics.median(d["stats"][key] for d in drives)
            if key.endswith("_s")
            else value
            for key, value in drives[0]["stats"].items()
        }
        _record(
            f"vectorized_large_run_{name}",
            **stats[name],
            n_cpus=available_cpus(),
            requires="numpy",
        )
    forest, cursor = stats["forest"], stats["cursor"]
    # Observed over four runs on a 2-CPU VM: the first reselection
    # 3.6-4.4x faster (most of the order is decided and the forest +
    # non-matching scan skips the deduced matching pairs), later ones
    # 1.3-1.7x (the decided prefix already sits past those; what is left is
    # mostly non-matching near misses, which both scans visit).
    assert cursor["first_frontier_s"] > 2.5 * forest["first_frontier_s"], (
        "first reselection after the large run: forest + non-matching scan "
        f"{forest['first_frontier_s']:.3f}s vs FrontierCursor "
        f"{cursor['first_frontier_s']:.3f}s"
    )
    assert cursor["per_reselection_s"] > 1.1 * forest["per_reselection_s"], (
        "later reselections: forest + non-matching scan "
        f"{forest['per_reselection_s'] * 1e3:.1f}ms vs FrontierCursor "
        f"{cursor['per_reselection_s'] * 1e3:.1f}ms per tick"
    )


# ----------------------------------------------------------------------
# per-component vs whole-order selection at 1M+ candidate pairs
# ----------------------------------------------------------------------
# A blocked entity-resolution workload built from the datasets package's
# cluster-size machinery: every block holds a histogram of ground-truth
# clusters (all within-cluster pairs are candidates) plus cross-cluster
# near-miss pairs, mimicking what blocking emits.  Blocks share no objects,
# so the candidate graph has many components — the shape per-component
# selection exploits.
SHARD_BLOCK_SPEC = ClusterSizeSpec.from_mapping({8: 8, 4: 20, 2: 40, 1: 60})
SHARD_N_BLOCKS = 1024
SHARD_CROSS_PER_BLOCK = 640
# 1024 blocks x (384 within-cluster + 640 cross) = 1,048,576 pairs.
SHARD_N_PAIRS = SHARD_N_BLOCKS * (
    SHARD_BLOCK_SPEC.n_matching_pairs() + SHARD_CROSS_PER_BLOCK
)
# Answer events driven through the instant-decision loop per backend (each
# costs the monolithic path one O(order) frontier scan, so this caps the
# benchmark's runtime).
SHARD_N_EVENTS = 8


_SHARDED_WORKLOAD_CACHE: Optional[tuple] = None

#: Per-session cache of full ``_drive_backend`` results at the 1M-pair
#: scale, so the vectorized benchmark can reuse the monolithic drive from
#: the monolithic-vs-cursor test instead of paying for a second one.
_SCALE_DRIVES: Dict[str, dict] = {}


def _sharded_workload_cached():
    """Build the 1M-pair blocked workload once per session (every 1M-pair
    benchmark uses it)."""
    global _SHARDED_WORKLOAD_CACHE
    if _SHARDED_WORKLOAD_CACHE is None:
        _SHARDED_WORKLOAD_CACHE = _sharded_workload()
    return _SHARDED_WORKLOAD_CACHE


def _sharded_workload(seed: int = 0):
    """(candidates sorted by likelihood, ground-truth oracle)."""
    rng = random.Random(seed)
    entity_of: Dict[int, int] = {}
    candidates: List[CandidatePair] = []
    next_obj = 0
    next_entity = 0
    for _ in range(SHARD_N_BLOCKS):
        block_start = next_obj
        clusters: List[range] = []
        for size in SHARD_BLOCK_SPEC.sizes():
            members = range(next_obj, next_obj + size)
            next_obj += size
            for obj in members:
                entity_of[obj] = next_entity
            next_entity += 1
            clusters.append(members)
        for members in clusters:
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    candidates.append(
                        CandidatePair(Pair(a, b), rng.uniform(0.5, 1.0))
                    )
        seen = set()
        while len(seen) < SHARD_CROSS_PER_BLOCK:
            a = rng.randrange(block_start, next_obj)
            b = rng.randrange(block_start, next_obj)
            if a == b or entity_of[a] == entity_of[b]:
                continue
            pair = Pair(a, b)
            if pair not in seen:
                seen.add(pair)
                candidates.append(CandidatePair(pair, rng.uniform(0.0, 0.5)))
    # The paper's heuristic order: descending machine likelihood.  The sort
    # is stable and the likelihoods are draws from a seeded RNG, so the
    # order is deterministic.
    candidates.sort(key=lambda cand: -cand.likelihood)
    return candidates, GroundTruthOracle(entity_of)


def _selection(engine: LabelingEngine, whole_order_cursor: bool):
    """The engine's frontier call, or with ``whole_order_cursor`` one
    :class:`FrontierCursor` over the whole order reading the engine's
    state: the monolithic backend's selection before it became
    component-local."""
    if not whole_order_cursor:
        return engine.frontier
    cursor = FrontierCursor(engine.pairs)
    return lambda: cursor.frontier(engine.labeled, engine.published)


def _drive_backend(
    backend: str, candidates, truth, answers=None, *, whole_order_cursor=False
):
    """Build an engine, publish the round-1 frontier, then run answer events
    through the instant-decision sweep+frontier path (selecting as
    :func:`_selection` says).

    Returns a dict with timings, the frontiers observed, the final labeled
    map, and engine statistics — everything the cross-backend parity
    assertions and the artifact entry need.
    """
    start = time.perf_counter()
    engine = LabelingEngine(candidates, backend=backend)
    frontier = _selection(engine, whole_order_cursor)
    build_s = time.perf_counter() - start

    start = time.perf_counter()
    first_frontier = frontier()
    first_frontier_s = time.perf_counter() - start

    if answers is None:
        answers = first_frontier[:SHARD_N_EVENTS]
    # Round 1 publishes the whole frontier (Algorithm 2); answers then
    # arrive one at a time and each triggers the instant-decision path:
    # fold the answer in, sweep deductions, recompute the frontier.
    engine.publish(first_frontier)
    frontier()  # re-cache after the publish (untimed warm-up)
    event_frontiers: List[List[Pair]] = []
    start = time.perf_counter()
    for round_index, pair in enumerate(answers):
        engine.record_answer(pair, truth.label(pair), round_index)
        engine.sweep(round_index)
        event_frontiers.append(frontier())
    event_loop_s = time.perf_counter() - start

    stats = {
        "build_s": build_s,
        "first_frontier_s": first_frontier_s,
        "event_loop_s": event_loop_s,
        "per_event_s": event_loop_s / len(answers),
        "n_pairs": len(engine.pairs),
        "n_events": len(answers),
        "n_labeled": len(engine.labeled),
    }
    if backend == "monolithic" and not whole_order_cursor:
        stats["n_frontier_components"] = engine.core.n_components
    elif backend == "vectorized":
        stats["n_components"] = engine.core.n_components
    return {
        "stats": stats,
        "first_frontier": first_frontier,
        "event_frontiers": event_frontiers,
        "labeled": dict(engine.labeled),
        "answers": list(answers),
    }


def test_monolithic_backend_beats_whole_order_cursor_at_1m_pairs():
    """Component-local selection, measured end to end at >=1M candidate
    pairs: the monolithic backend re-selects only the components an answer
    touched, while one whole-order :class:`FrontierCursor` — its selection
    before it became component-local — re-scans the whole remaining order;
    both observe byte-identical labeling behaviour.  The entries keep their
    ``sharded_scale_*`` names, so the trajectory stays continuous."""
    candidates, truth = _sharded_workload_cached()
    assert len(candidates) >= 1_000_000

    cursor = _drive_backend(
        "monolithic", candidates, truth, whole_order_cursor=True
    )
    monolithic = _drive_backend(
        "monolithic", candidates, truth, answers=cursor["answers"]
    )
    _SCALE_DRIVES["monolithic"] = monolithic

    # Parity at scale: same round-1 frontier, same frontier after every
    # answer event, same final labels (answers + cascaded deductions).
    assert monolithic["first_frontier"] == cursor["first_frontier"]
    assert monolithic["event_frontiers"] == cursor["event_frontiers"]
    assert monolithic["labeled"] == cursor["labeled"]

    for name, drive in (("cursor", cursor), ("monolithic", monolithic)):
        _record(
            f"sharded_scale_{name}",
            **drive["stats"],
            n_frontier_round1=len(drive["first_frontier"]),
        )
    cursor_s = cursor["stats"]["event_loop_s"]
    mono_s = monolithic["stats"]["event_loop_s"]
    _record(
        "sharded_scale_speedup",
        monolithic_vs_cursor=cursor_s / mono_s if mono_s else float("inf"),
        n_pairs=len(candidates),
    )
    # The gap is structural — O(component) vs O(order) per answer event — so
    # a 3x bar keeps the gate far from timing noise (observed ~35-50x).
    assert cursor_s > mono_s * 3, (
        f"monolithic event loop ({mono_s:.3f}s) must beat the whole-order "
        f"cursor ({cursor_s:.3f}s) on {SHARD_N_EVENTS} answers over "
        f"{len(candidates)} pairs"
    )


# ----------------------------------------------------------------------
# monolithic reselection at tenant size: per component vs whole order
# ----------------------------------------------------------------------
TENANT_SEED = 7
#: Answers driven per selection path; each costs the whole-order cursor
#: one scan of ~the whole order.
TENANT_N_ANSWERS = 400
#: Drives per selection path on the vectorized backend; each timing is
#: their median (one drive lasts ~0.1 s, short enough for a burst of host
#: noise to move its mean by half).
TENANT_VECTORIZED_REPEATS = 5


def _tenant_workload(seed: int = TENANT_SEED):
    """A product-shaped order of the tenant campaigns' size: the Figure
    10(b) histogram's clusters, shuffled and packed into blocks of about 8
    records, every within-cluster pair plus a quarter of each block's
    cross-cluster pairs as near misses, in descending-likelihood order."""
    rng = random.Random(seed)
    sizes = list(product_spec().sizes())
    rng.shuffle(sizes)
    entity_of: Dict[int, int] = {}
    candidates: List[CandidatePair] = []
    blocks: List[List[range]] = [[]]
    next_obj = 0
    for entity, size in enumerate(sizes):
        if sum(len(c) for c in blocks[-1]) >= 8:
            blocks.append([])
        cluster = range(next_obj, next_obj + size)
        next_obj += size
        for obj in cluster:
            entity_of[obj] = entity
        blocks[-1].append(cluster)
    for block in blocks:
        members = [obj for cluster in block for obj in cluster]
        for cluster in block:
            for i, a in enumerate(cluster):
                for b in cluster[i + 1 :]:
                    candidates.append(CandidatePair(Pair(a, b), rng.uniform(0.5, 1.0)))
        cross = [
            Pair(a, b)
            for i, a in enumerate(members)
            for b in members[i + 1 :]
            if entity_of[a] != entity_of[b]
        ]
        for pair in rng.sample(cross, round(0.25 * len(cross))):
            candidates.append(CandidatePair(pair, rng.uniform(0.0, 0.5)))
    candidates.sort(key=lambda cand: -cand.likelihood)
    return candidates, GroundTruthOracle(entity_of)


def _drive_tenant_reselections(
    candidates, truth, *, whole_order_cursor, backend="monolithic"
):
    """Instant decision at one answer per tick: publish the frontier, then
    answer a seeded-random published pair, sweep, and re-select (the sweep
    and the reselection timed)."""
    engine = LabelingEngine(candidates, backend=backend)
    frontier = _selection(engine, whole_order_cursor)
    rng = random.Random(TENANT_SEED)
    outstanding = frontier()
    engine.publish(outstanding)
    frontiers: List[List[Pair]] = []
    sweep_s = select_s = 0.0
    for round_index in range(TENANT_N_ANSWERS):
        pair = outstanding.pop(rng.randrange(len(outstanding)))
        engine.record_answer(pair, truth.label(pair), round_index)
        start = time.perf_counter()
        engine.sweep(round_index)
        swept = time.perf_counter()
        batch = frontier()
        select_s += time.perf_counter() - swept
        sweep_s += swept - start
        frontiers.append(batch)
        engine.publish(batch)
        outstanding.extend(batch)
    return {
        "stats": {
            "reselect_s": select_s,
            "per_reselection_s": select_s / TENANT_N_ANSWERS,
            "per_sweep_s": sweep_s / TENANT_N_ANSWERS,
            "n_reselections": TENANT_N_ANSWERS,
            "n_pairs": len(engine.pairs),
        },
        "frontiers": frontiers,
        "labeled": dict(engine.labeled),
    }


def test_monolithic_reselects_per_component_at_tenant_size():
    """The tenant campaigns' hot path: at one answer per tick, the
    monolithic backend's reselection touches only the answered pair's
    component, while a whole-order cursor is pinned near position 0 by the
    first published-but-unanswered pair and re-scans ~the whole order."""
    candidates, truth = _tenant_workload()
    cursor = _drive_tenant_reselections(candidates, truth, whole_order_cursor=True)
    monolithic = _drive_tenant_reselections(
        candidates, truth, whole_order_cursor=False
    )
    assert monolithic["frontiers"] == cursor["frontiers"]
    assert monolithic["labeled"] == cursor["labeled"]
    _record("tenant_reselect_cursor", **cursor["stats"])
    _record("tenant_reselect_monolithic", **monolithic["stats"])
    cursor_s = cursor["stats"]["reselect_s"]
    mono_s = monolithic["stats"]["reselect_s"]
    _record(
        "tenant_reselect_speedup",
        monolithic_vs_cursor=cursor_s / mono_s if mono_s else float("inf"),
        n_pairs=monolithic["stats"]["n_pairs"],
    )
    # Structural, as at 1M pairs: O(component) vs O(order) per reselection
    # (observed ~110x), so a 3x bar stays far from timing noise.
    assert cursor_s > mono_s * 3, (
        f"per-component reselection ({mono_s:.3f}s) must beat the whole-order "
        f"cursor ({cursor_s:.3f}s) over {TENANT_N_ANSWERS} answers"
    )


def test_vectorized_small_components_select_by_scalar_scan():
    """The tenant drive on the vectorized backend: its components (blocks
    of about 8 records) sit far below ``SMALL_COMPONENT_THRESHOLD``, so
    those with a non-matching label select through the scalar scan, as the
    monolithic backend's cursors do.  With the threshold at 0 the same
    drive runs every component through the array kernels (the Boruvka MSF
    and the forest + non-matching scan), whose fixed cost per call is what
    the threshold avoids; the large side of the cut is
    ``vectorized_large_run_forest``."""
    if not vectorized_available():
        pytest.skip("numpy unavailable: the vectorized backend is the perf extra")
    from repro.engine import vectorized

    def drive(threshold):
        saved = vectorized.SMALL_COMPONENT_THRESHOLD
        vectorized.SMALL_COMPONENT_THRESHOLD = threshold
        try:
            return _drive_tenant_reselections(
                candidates, truth, whole_order_cursor=False, backend="vectorized"
            )
        finally:
            vectorized.SMALL_COMPONENT_THRESHOLD = saved

    candidates, truth = _tenant_workload()
    reference = _drive_tenant_reselections(
        candidates, truth, whole_order_cursor=False
    )
    # Interleaved, so a burst of host noise lands on both sides.
    drives: Dict[str, list] = {"scan": [], "kernels": []}
    for _ in range(TENANT_VECTORIZED_REPEATS):
        drives["scan"].append(drive(vectorized.SMALL_COMPONENT_THRESHOLD))
        drives["kernels"].append(drive(0))
    stats: Dict[str, dict] = {}
    for name, runs in drives.items():
        for run in runs:
            assert run["frontiers"] == reference["frontiers"]
            assert run["labeled"] == reference["labeled"]
        stats[name] = {
            key: statistics.median(run["stats"][key] for run in runs)
            if key.endswith("_s")
            else value
            for key, value in runs[0]["stats"].items()
        }
        _record(f"tenant_reselect_vectorized_{name}", **stats[name], requires="numpy")
    scan, kernels = stats["scan"], stats["kernels"]
    scan_s = scan["per_reselection_s"]
    kernels_s = kernels["per_reselection_s"]
    assert kernels_s > scan_s, (
        f"small components: scalar scan {scan_s * 1e6:.0f}us vs array kernels "
        f"{kernels_s * 1e6:.0f}us per reselection"
    )


def test_vectorized_backend_beats_monolithic_at_1m_pairs():
    """The array-kernel tentpole, measured end to end at >=1M candidate
    pairs: the vectorized backend replaces the monolithic backend's
    per-answer Python sweep (one ``deduce`` call per dirty pending pair)
    with one bulk array pass per dirty component, and its Algorithm-3
    frontier with the Boruvka spanning-forest kernel — with byte-identical
    labeling behaviour.

    The artifact entries carry ``requires: "numpy"`` so the trajectory gate
    (compare_bench.py) treats them as optional: on a numpy-less runner the
    whole test skips and the entries are simply absent.
    """
    if not vectorized_available():
        pytest.skip("numpy unavailable: the vectorized backend is the perf extra")
    import numpy

    from repro.engine.parallel import available_cpus

    candidates, truth = _sharded_workload_cached()
    assert len(candidates) >= 1_000_000

    monolithic = _SCALE_DRIVES.get("monolithic")
    if monolithic is None:  # standalone invocation (-k vectorized)
        monolithic = _SCALE_DRIVES["monolithic"] = _drive_backend(
            "monolithic", candidates, truth
        )
    vectorized = _drive_backend(
        "vectorized", candidates, truth, answers=monolithic["answers"]
    )

    # Backend parity at scale: same round-1 frontier, same frontier after
    # every answer event, same final labels (answers + cascaded deductions).
    assert vectorized["first_frontier"] == monolithic["first_frontier"]
    assert vectorized["event_frontiers"] == monolithic["event_frontiers"]
    assert vectorized["labeled"] == monolithic["labeled"]

    _record(
        "vectorized_scale_vectorized",
        **vectorized["stats"],
        n_frontier_round1=len(vectorized["first_frontier"]),
        n_cpus=available_cpus(),
        requires="numpy",
        numpy_version=numpy.__version__,
    )
    mono_s = monolithic["stats"]["event_loop_s"]
    vec_s = vectorized["stats"]["event_loop_s"]
    _record(
        "vectorized_scale_speedup",
        event_loop_speedup=mono_s / vec_s if vec_s else float("inf"),
        n_pairs=len(candidates),
        requires="numpy",
        numpy_version=numpy.__version__,
    )
    # The per-event loop is ~99% sweep+frontier on both backends (the
    # record_answer bookkeeping is O(alpha)); observed ~150-190x, gated at 5x
    # to stay far from timing noise.
    assert mono_s > vec_s * 5, (
        f"vectorized event loop ({vec_s:.3f}s) must be >=5x faster than "
        f"monolithic ({mono_s:.3f}s) on {SHARD_N_EVENTS} answers over "
        f"{len(candidates)} pairs"
    )


# ----------------------------------------------------------------------
# socket workers vs the in-process backends at 1M+ candidate pairs
# ----------------------------------------------------------------------
# The distributed backend fans per-component sweeps and frontier recomputes
# across worker processes, so its win would appear when one event dirties
# *many* components at once — the shape of a real campaign tick, where a
# burst of completions lands between frontier recomputes.  Each timed tick
# applies a batch of answers spread across components (untimed bookkeeping),
# then runs one sweep + one frontier recompute (timed: that is the work that
# fans out).
SCALE_WORKERS = 4
SCALE_EVENTS_PER_TICK = 32
SCALE_TICKS = 4


def _drive_scale_ticks(backend: str, candidates, truth, answer_ticks=None):
    """Drive ``backend`` through the batched campaign-tick loop; returns
    timings plus everything the cross-backend parity assertions need."""
    from repro.engine.parallel import available_cpus

    # Local worker hosts over loopback sockets: the real wire protocol.
    backend_kwargs = (
        dict(spawn_local_workers=SCALE_WORKERS) if backend == "distributed" else {}
    )
    start = time.perf_counter()
    engine = LabelingEngine(candidates, backend=backend, **backend_kwargs)
    build_s = time.perf_counter() - start
    assert engine.backend == backend
    try:
        start = time.perf_counter()
        first_frontier = engine.frontier()
        first_frontier_s = time.perf_counter() - start

        if answer_ticks is None:
            # Stride-sample the frontier so each tick's answers land in many
            # distinct components (deterministic: the frontier is).
            n_answers = SCALE_EVENTS_PER_TICK * SCALE_TICKS
            stride = max(1, len(first_frontier) // n_answers)
            sampled = first_frontier[::stride][:n_answers]
            answer_ticks = [
                sampled[i : i + SCALE_EVENTS_PER_TICK]
                for i in range(0, len(sampled), SCALE_EVENTS_PER_TICK)
            ]
        engine.publish(first_frontier)
        engine.frontier()  # re-cache after the publish (untimed warm-up)

        apply_s = 0.0
        sweep_frontier_s = 0.0
        tick_sweeps: List[List[Tuple[Pair, Label]]] = []
        tick_frontiers: List[List[Pair]] = []
        for tick, batch in enumerate(answer_ticks):
            start = time.perf_counter()
            for pair in batch:
                engine.record_answer(pair, truth.label(pair), tick)
            mid = time.perf_counter()
            tick_sweeps.append(engine.sweep(tick))
            tick_frontiers.append(engine.frontier())
            done = time.perf_counter()
            apply_s += mid - start
            sweep_frontier_s += done - mid

        n_events = sum(len(batch) for batch in answer_ticks)
        stats = {
            "build_s": build_s,
            "first_frontier_s": first_frontier_s,
            "answer_apply_s": apply_s,
            "sweep_frontier_s": sweep_frontier_s,
            "per_tick_s": sweep_frontier_s / len(answer_ticks),
            "n_pairs": len(engine.pairs),
            "n_events": n_events,
            "n_ticks": len(answer_ticks),
            "n_labeled": len(engine.labeled),
            "n_cpus": available_cpus(),
        }
        if engine.executor is not None:
            stats["n_workers"] = engine.executor.n_workers
            stats["n_components"] = engine.executor.n_components
            stats["n_reassignments"] = len(engine.executor.reassignments)
        return {
            "stats": stats,
            "first_frontier": first_frontier,
            "tick_sweeps": tick_sweeps,
            "tick_frontiers": tick_frontiers,
            "labeled": dict(engine.labeled),
            "answer_ticks": answer_ticks,
        }
    finally:
        engine.close()


def _assert_same_ticks(drive: dict, reference: dict) -> None:
    """Cross-backend parity at scale: same round-1 frontier, same
    deductions and frontier after every tick, same final labels."""
    assert drive["first_frontier"] == reference["first_frontier"]
    assert drive["tick_sweeps"] == reference["tick_sweeps"]
    assert drive["tick_frontiers"] == reference["tick_frontiers"]
    assert drive["labeled"] == reference["labeled"]


def test_distributed_backend_scales_sweep_and_frontier():
    """Socket workers at >=1M candidate pairs: local ``ShardWorkerHost``
    processes over loopback TCP run the batched campaign-tick loop
    byte-identical to the in-process monolithic and vectorized backends,
    which run the same answer ticks.  The fan-out win must survive the
    JSON-over-socket framing: gated at >=1.5x over in-process monolithic
    on a >=4-CPU host.  On smaller hosts the timings are recorded without
    gating and the artifact's ``n_cpus`` field says why.  The vectorized
    drive is recorded without a gate (``requires: "numpy"``): what one
    in-process core does per tick against the workers depends on the
    hardware, and a gate is set from measured numbers.  Every local worker
    answers within the default heartbeat bound, so the drive loses none.
    """
    from repro.engine.parallel import available_cpus

    candidates, truth = _sharded_workload_cached()
    assert len(candidates) >= 1_000_000

    monolithic = _drive_scale_ticks("monolithic", candidates, truth)
    answer_ticks = monolithic["answer_ticks"]
    distributed = _drive_scale_ticks(
        "distributed", candidates, truth, answer_ticks=answer_ticks
    )
    _assert_same_ticks(distributed, monolithic)
    assert distributed["stats"]["n_reassignments"] == 0
    if vectorized_available():
        import numpy

        vectorized = _drive_scale_ticks(
            "vectorized", candidates, truth, answer_ticks=answer_ticks
        )
        _assert_same_ticks(vectorized, monolithic)
        _record(
            "distributed_scale_vectorized",
            **vectorized["stats"],
            requires="numpy",
            numpy_version=numpy.__version__,
        )

    _record("distributed_scale_monolithic", **monolithic["stats"])
    _record("distributed_scale_distributed", **distributed["stats"])
    mono_s = monolithic["stats"]["sweep_frontier_s"]
    dist_s = distributed["stats"]["sweep_frontier_s"]
    n_cpus = available_cpus()
    _record(
        "distributed_scale_speedup",
        sweep_frontier_speedup=mono_s / dist_s if dist_s else float("inf"),
        n_pairs=len(candidates),
        n_workers=SCALE_WORKERS,
        n_cpus=n_cpus,
    )
    if n_cpus >= 4:
        assert mono_s > dist_s * 1.5, (
            f"distributed sweep+frontier ({dist_s:.3f}s) must be >=1.5x faster "
            f"than in-process monolithic ({mono_s:.3f}s) on {n_cpus} CPUs with "
            f"{SCALE_WORKERS} socket workers at {len(candidates)} pairs"
        )


# ----------------------------------------------------------------------
# expected-value labeling order vs the static likelihood heuristic
# ----------------------------------------------------------------------
# The frozen reference instance from tests/engine/test_expected_dispatch.py:
# the best saved-questions gap found by a seeded 200-instance sweep over
# feasible quotients, pinned so the trajectory entry measures the same
# computation forever.  Expected costs: heuristic ~3.6285, adaptive ~3.4577.
EXPECTED_ORDER_CANDIDATES = [
    candidate("o0", "o3", 0.59),
    candidate("o1", "o3", 0.48),
    candidate("o2", "o3", 0.15),
    candidate("o1", "o2", 0.49),
    candidate("o0", "o2", 0.93),
]


def test_expected_order_saves_questions_over_heuristic():
    """The adaptive-ordering tentpole's bench gate: on the frozen reference
    instance, the expected-value policy (what ``ordering="expected-value"``
    prices each question with) must crowdsource strictly fewer expected
    questions than the paper's likelihood-descending heuristic — and both
    expected-cost computations land in BENCH_core.json with timings."""
    from repro.engine.expected import expected_value_choice

    candidates = EXPECTED_ORDER_CANDIDATES

    heuristic_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        heuristic_cost = expected_cost(expected_order(candidates))
        heuristic_s = min(heuristic_s, time.perf_counter() - start)

    adaptive_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        adaptive_cost = adaptive_expected_cost(candidates, expected_value_choice)
        adaptive_s = min(adaptive_s, time.perf_counter() - start)

    _record(
        "expected_order_heuristic",
        total_s=heuristic_s,
        expected_questions=heuristic_cost,
        n_pairs=len(candidates),
    )
    _record(
        "expected_order_adaptive",
        total_s=adaptive_s,
        expected_questions=adaptive_cost,
        n_pairs=len(candidates),
    )
    _record(
        "expected_order_saved",
        saved_expected_questions=heuristic_cost - adaptive_cost,
        saved_ratio=(heuristic_cost - adaptive_cost) / heuristic_cost,
        n_pairs=len(candidates),
    )
    # The frozen gap is ~0.17 expected questions; gate at a wide margin so
    # only a real aggregation/posterior regression can trip it.
    assert adaptive_cost < heuristic_cost - 0.1, (
        f"expected-value ordering ({adaptive_cost:.4f} expected questions) "
        f"must save >=0.1 over the heuristic ({heuristic_cost:.4f})"
    )


# ----------------------------------------------------------------------
# quality-aware weighted aggregation vs flat majority under seeded noise
# ----------------------------------------------------------------------
WEIGHTED_N_PAIRS = 300
WEIGHTED_N_GOLD = 40


def _weighted_aggregation_workload():
    """One strong worker (error 0.05) against two near-coin-flips (error
    0.45), gold-primed: (per-pair assignments, truths, primed tracker)."""
    crowd = {
        0: LikelihoodAwareWorker(base_error=0.05, ambiguous_error=0.05, seed=1),
        1: LikelihoodAwareWorker(base_error=0.45, ambiguous_error=0.45, seed=2),
        2: LikelihoodAwareWorker(base_error=0.45, ambiguous_error=0.45, seed=3),
    }
    tracker = WorkerAccuracyTracker()
    for i in range(WEIGHTED_N_GOLD):
        probe = Pair(f"gold{i}", f"gold{i}'")
        for worker_id, model in crowd.items():
            answer = model.answer(probe, Label.MATCHING, likelihood=0.9)
            tracker.record_gold(worker_id, correct=answer is Label.MATCHING)
    per_pair = []
    truths = []
    for i in range(WEIGHTED_N_PAIRS):
        hit = HIT(hit_id=i, pairs=(Pair(f"p{i}", f"q{i}"),), n_assignments=3)
        truth = Label.MATCHING if i % 2 == 0 else Label.NON_MATCHING
        truths.append(truth)
        per_pair.append(
            [
                Assignment(
                    hit=hit,
                    worker_id=worker_id,
                    answers={hit.pairs[0]: model.answer(hit.pairs[0], truth, 0.9)},
                )
                for worker_id, model in crowd.items()
            ]
        )
    return per_pair, truths, tracker


WEIGHTED_N_PASSES = 15


def _median_pass(run) -> Tuple[int, float]:
    """(``run()``'s result, median seconds over WEIGHTED_N_PASSES runs)."""
    timings = []
    for _ in range(WEIGHTED_N_PASSES):
        start = time.perf_counter()
        result = run()
        timings.append(time.perf_counter() - start)
    return result, statistics.median(timings)


def test_weighted_aggregation_beats_flat_majority():
    """The quality-aware aggregation tentpole's bench gate: on the seeded
    heterogeneous crowd, gold-primed weighted majority must recover strictly
    more true labels than flat majority voting — and both aggregation passes
    land in BENCH_core.json with accuracy and timings."""
    per_pair, truths, tracker = _weighted_aggregation_workload()
    aggregation = WeightedAggregation(tracker=tracker, update_from_agreement=False)

    def flat_pass() -> int:
        return sum(
            summarize_assignments(assignments)[assignments[0].hit.pairs[0]].label
            is truth
            for assignments, truth in zip(per_pair, truths)
        )

    def weighted_pass() -> int:
        return sum(
            aggregation.aggregate(assignments)[assignments[0].hit.pairs[0]].label
            is truth
            for assignments, truth in zip(per_pair, truths)
        )

    # One pass takes a few milliseconds: each variant's timing is the
    # median of repeated passes (the tracker is frozen, so every pass
    # returns the same count).
    flat_correct, flat_s = _median_pass(flat_pass)
    weighted_correct, weighted_s = _median_pass(weighted_pass)

    _record(
        "weighted_aggregation_flat",
        total_s=flat_s,
        accuracy=flat_correct / WEIGHTED_N_PAIRS,
        n_pairs=WEIGHTED_N_PAIRS,
        n_passes=WEIGHTED_N_PASSES,
    )
    _record(
        "weighted_aggregation_weighted",
        total_s=weighted_s,
        accuracy=weighted_correct / WEIGHTED_N_PAIRS,
        n_pairs=WEIGHTED_N_PAIRS,
        n_passes=WEIGHTED_N_PASSES,
    )
    _record(
        "weighted_aggregation_gain",
        accuracy_gain=(weighted_correct - flat_correct) / WEIGHTED_N_PAIRS,
        n_gold=WEIGHTED_N_GOLD,
    )
    assert weighted_correct > flat_correct, (
        f"weighted majority ({weighted_correct}/{WEIGHTED_N_PAIRS}) must beat "
        f"flat majority ({flat_correct}/{WEIGHTED_N_PAIRS}) under seeded noise"
    )
    assert weighted_correct / WEIGHTED_N_PAIRS > 0.9


# ----------------------------------------------------------------------
# polling-loop overhead: in-memory fake vs cassette replay
# ----------------------------------------------------------------------
def _drive_polling_campaign(backend, clock) -> tuple:
    """One HIT-instant campaign over ``PollingPlatformClient``; returns
    (engine, report).  Deterministic: manual clock, seeded latency."""
    client = PollingPlatformClient(
        backend,
        batch_size=20,
        n_assignments=1,
        poll_interval=0.5,
        clock=clock.now,
        sleep=clock.sleep,
    )
    engine = LabelingEngine([item.pair for item in PAIRS[:POLL_N_PAIRS]])
    runtime = CrowdRuntime(engine, client, mode=RuntimeMode.HIT_INSTANT)
    report = runtime.run_sync()
    return engine, report


POLL_N_PAIRS = 2000


def test_platform_poll_overhead_inmemory_vs_replay():
    """The live-platform seam's constant factors: the same polling campaign
    driven by the in-memory REST fake versus a recorded cassette's replay
    (the zero-credential CI path).  Both must produce identical labels;
    ``platform_poll_*`` lands in BENCH_core.json for the trajectory gate."""
    # Collect then freeze the heap the earlier scale benchmarks leave
    # behind: a gen-2 collection triggered mid-campaign would otherwise
    # traverse millions of surviving objects and land a ~1.7s pause inside
    # whichever timed segment is running (observed as a 3x one-sided spike
    # flipping between the two metrics across full-suite runs).
    import gc

    gc.collect()
    gc.freeze()
    try:
        # -- in-memory fake (records the cassette as it runs) -----------
        clock = ManualClock()
        inner = InMemoryCrowdBackend(
            oracle=TRUTH,
            clock=clock.now,
            latency=lambda rng: rng.uniform(0.1, 4.0),
            seed=9,
        )
        recorder = RecordReplayBackend("record", inner=inner)
        start = time.perf_counter()
        mem_engine, mem_report = _drive_polling_campaign(recorder, clock)
        inmemory_s = time.perf_counter() - start

        # -- cassette replay --------------------------------------------
        clock = ManualClock()
        replayer = RecordReplayBackend("replay", cassette=recorder.cassette)
        start = time.perf_counter()
        replay_engine, replay_report = _drive_polling_campaign(replayer, clock)
        replay_s = time.perf_counter() - start
        replayer.assert_exhausted()
    finally:
        gc.unfreeze()

    assert replay_engine.result.labels() == mem_engine.result.labels()
    assert replay_report.n_completions == mem_report.n_completions

    _record(
        "platform_poll_inmemory",
        total_s=inmemory_s,
        per_completion_s=inmemory_s / mem_report.n_completions,
        completions_per_sec=mem_report.n_completions / inmemory_s,
        n_completions=mem_report.n_completions,
        n_pairs=POLL_N_PAIRS,
    )
    _record(
        "platform_poll_replay",
        total_s=replay_s,
        per_completion_s=replay_s / replay_report.n_completions,
        completions_per_sec=replay_report.n_completions / replay_s,
        n_completions=replay_report.n_completions,
        n_pairs=POLL_N_PAIRS,
    )
    _record(
        "platform_poll_replay_ratio",
        ratio=replay_s / inmemory_s if inmemory_s else float("inf"),
        n_interactions=len(recorder.cassette),
    )
    # Replay swaps the fake's oracle work for JSON matching; it must stay
    # within the same order of magnitude so cassette-driven CI runs and
    # docs examples remain cheap.
    assert replay_s < inmemory_s * 10


# ----------------------------------------------------------------------
# campaign service: journaled live run vs restart replay
# ----------------------------------------------------------------------
SERVICE_N_PAIRS = 2000


def test_service_restart_replay_throughput():
    """The campaign service's restart cost: one journaled in-memory campaign
    run live (every platform event fsync-batched to the journal), then the
    same campaign recovered from that journal alone.  Replay feeds journal
    records through the identical answer-application path without platform
    traffic, so it must land on the byte-identical engine fingerprint — and
    ``service_restart_*`` records how fast it does."""
    import asyncio
    import tempfile

    from repro.service import CampaignService
    from repro.spec import CampaignSpec, PlatformConfig

    items = PAIRS[:SERVICE_N_PAIRS]
    spec = CampaignSpec(
        order=[item.pair for item in items],
        mode="instant",
        platform=PlatformConfig(
            kind="in-memory",
            batch_size=20,
            n_assignments=1,
            options={
                "answers": [
                    [item.pair.left, item.pair.right, item.label.value]
                    for item in items
                ]
            },
        ),
    )

    def fingerprint(engine) -> str:
        return json.dumps(engine.state_fingerprint(), sort_keys=True)

    async def live_run(root):
        service = CampaignService(root)
        campaign = await service.create(spec, campaign_id="bench")
        await service.wait("bench")
        assert campaign.state.value == "done", campaign.error
        fp = fingerprint(campaign.engine)
        n_records = campaign._journal.next_seq - 1
        await service.close()
        return fp, n_records

    async def restart(root):
        service = CampaignService(root)
        recovered = await service.recover()
        assert recovered == ["bench"]
        campaign = await service.wait("bench")
        assert campaign.state.value == "done", campaign.error
        fp = fingerprint(campaign.engine)
        await service.close()
        return fp

    with tempfile.TemporaryDirectory() as root:
        start = time.perf_counter()
        live_fp, n_records = asyncio.run(live_run(root))
        live_s = time.perf_counter() - start

        start = time.perf_counter()
        replay_fp = asyncio.run(restart(root))
        replay_s = time.perf_counter() - start

    assert replay_fp == live_fp, "replay must reproduce the live engine state"

    _record(
        "service_restart_live",
        total_s=live_s,
        n_journal_records=n_records,
        records_per_sec=n_records / live_s,
        n_pairs=SERVICE_N_PAIRS,
    )
    _record(
        "service_restart_replay",
        total_s=replay_s,
        n_journal_records=n_records,
        records_per_sec=n_records / replay_s,
        n_pairs=SERVICE_N_PAIRS,
    )
    _record(
        "service_restart_replay_ratio",
        ratio=replay_s / live_s if live_s else float("inf"),
        n_journal_records=n_records,
    )
    # Replay does strictly less work than the live run (no platform
    # simulation, no polling, no journal writes for replayed records); it
    # must stay within the same order of magnitude so restart never costs
    # more than the campaign it resurrects.
    assert replay_s < live_s * 10


# ----------------------------------------------------------------------
# campaign service: snapshot + tail recovery vs full journal replay
# ----------------------------------------------------------------------
# One assignment per single-pair HIT with a review policy journals three
# records per crowdsourced pair (issue, completion, review), so this pair
# count clears the 100k-record floor the compaction gate is specified at.
RECOVERY_N_PAIRS = 35_000


def _recovery_workload(n_pairs: int, seed: int = 0):
    n_objects = n_pairs // 3
    rng = random.Random(seed)
    entity_of = {i: rng.randrange(n_objects // 10) for i in range(n_objects)}
    truth = GroundTruthOracle(entity_of)
    pairs: List[Pair] = []
    seen = set()
    while len(pairs) < n_pairs:
        a, b = rng.sample(range(n_objects), 2)
        pair = Pair(a, b)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs, truth


def test_service_recovery_compacted_throughput():
    """Bounded-time crash recovery: a 100k+-record journaled campaign
    recovered by full replay versus from its post-compaction snapshot +
    empty tail.  Replay cost grows with campaign age; the snapshot path is
    bounded by engine-state size — the ``service_recovery_compacted_*``
    entries pin the gap, and the in-test gates hold the snapshot path to
    >=10x full replay and batched replay itself well above the ~425
    records/sec per-record baseline this PR replaces.

    The artifact entries carry ``requires: "numpy"``: the 10x bound is
    specified against the vectorized backend's near-native array
    snapshot, so the whole test skips on a numpy-less runner.
    """
    if not vectorized_available():
        pytest.skip("numpy unavailable: the vectorized backend is the perf extra")
    import asyncio
    import tempfile

    from repro.crowd.review import ApproveAll
    from repro.service import CampaignService
    from repro.spec import CampaignSpec, PlatformConfig

    pairs, truth = _recovery_workload(RECOVERY_N_PAIRS)
    spec = CampaignSpec(
        order=pairs,
        mode="hit-rounds",
        backend="vectorized",
        review=ApproveAll(),
        platform=PlatformConfig(
            kind="in-memory",
            batch_size=1,
            n_assignments=1,
            options={
                "answers": [
                    [p.left, p.right, truth.label(p).value] for p in pairs
                ]
            },
        ),
    )

    def fingerprint(engine) -> str:
        return json.dumps(engine.state_fingerprint(), sort_keys=True)

    async def live_run(root):
        service = CampaignService(root)
        campaign = await service.create(spec, campaign_id="bench")
        await service.wait("bench")
        assert campaign.state.value == "done", campaign.error
        fp = fingerprint(campaign.engine)
        n_records = campaign._journal.next_seq - 1
        await service.close()
        return fp, n_records

    async def recover(root):
        # Timed section: recover + wait only.  The fingerprint is
        # verification, computed after the clock stops.
        import gc

        service = CampaignService(root)
        gc.collect()
        start = time.perf_counter()
        recovered = await service.recover()
        campaign = await service.wait("bench")
        elapsed = time.perf_counter() - start
        assert recovered == ["bench"]
        assert campaign.state.value == "done", campaign.error
        fp = fingerprint(campaign.engine)
        await service.close()
        return elapsed, fp

    def best_recover(root, n: int) -> Tuple[float, str]:
        # min-of-n: a single GC pause or scheduler hiccup lands squarely
        # inside a sub-second timed section, so one-shot timing would make
        # the ratio gate flaky on loaded runners.
        runs = [asyncio.run(recover(root)) for _ in range(n)]
        return min(t for t, _ in runs), runs[0][1]

    async def compact(root):
        service = CampaignService(root)
        await service.recover()
        await service.wait("bench")
        await service.compact("bench")
        await service.close()

    with tempfile.TemporaryDirectory() as root:
        live_fp, n_records = asyncio.run(live_run(root))
        assert n_records >= 100_000, n_records
        journal = Path(root) / "bench" / "journal.jsonl"
        full_bytes = journal.stat().st_size

        full_s, full_fp = best_recover(root, 2)
        asyncio.run(compact(root))
        compacted_bytes = journal.stat().st_size
        compacted_s, compacted_fp = best_recover(root, 3)

    assert full_fp == live_fp, "full replay must reproduce the live state"
    assert compacted_fp == live_fp, (
        "snapshot+tail recovery must reproduce the live state"
    )

    ratio = full_s / compacted_s if compacted_s else float("inf")
    _record(
        "service_recovery_full_replay",
        total_s=full_s,
        n_journal_records=n_records,
        records_per_sec=n_records / full_s,
        journal_bytes=full_bytes,
        n_pairs=RECOVERY_N_PAIRS,
        requires="numpy",
    )
    _record(
        "service_recovery_compacted",
        total_s=compacted_s,
        n_journal_records=n_records,
        journal_bytes=compacted_bytes,
        n_pairs=RECOVERY_N_PAIRS,
        requires="numpy",
    )
    _record(
        "service_recovery_compacted_ratio",
        ratio=ratio,
        n_journal_records=n_records,
        requires="numpy",
    )
    # Batched tail replay must beat the per-record baseline it replaced
    # (~425 records/sec in the PR-7 service_restart_replay entry) by a
    # wide margin even on a noisy runner.
    assert n_records / full_s > 425 * 4, (
        f"batched replay regressed to {n_records / full_s:.0f} records/sec"
    )
    # The tentpole bound: snapshot + empty tail beats replaying the full
    # journal by >=10x at 100k+ records.
    assert ratio >= 10, f"snapshot recovery only {ratio:.1f}x faster"
