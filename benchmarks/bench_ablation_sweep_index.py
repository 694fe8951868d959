"""Ablation: incremental deduction-sweep index vs the naive full scan.

The instant labeler re-checks pending pairs after every answer.  The
:class:`~repro.core.sweep.PendingPairIndex` narrows each re-check to pairs
whose endpoint clusters actually changed.  Both paths must produce identical
results; the index must not be slower.
"""

from __future__ import annotations

from repro.core.ordering import expected_order
from repro.crowd.campaign import InstantRunResult
from repro.crowd.clients import AnswerOrderClient, AnswerPolicy
from repro.engine import CrowdRuntime, LabelingEngine, RuntimeMode


def _workload(prepared, threshold=0.3):
    return expected_order(prepared.candidates_above(threshold)), prepared.truth


def _instant_run(order, truth, use_index):
    """Parallel(ID) with random answers, sweeping with or without the index."""
    engine = LabelingEngine(order, use_index=use_index)
    client = AnswerOrderClient(truth, AnswerPolicy.RANDOM, seed=0)
    report = CrowdRuntime(engine, client, mode=RuntimeMode.HIT_INSTANT).run_sync()
    return InstantRunResult.from_report(engine.result, report, instant_decision=True)


def test_instant_labeler_with_index(benchmark, paper_prepared):
    order, truth = _workload(paper_prepared)
    run = benchmark.pedantic(
        lambda: _instant_run(order, truth, use_index=True), rounds=1, iterations=1
    )
    assert run.trace[-1].n_available == 0


def test_instant_labeler_naive_sweep(benchmark, paper_prepared):
    order, truth = _workload(paper_prepared)
    run = benchmark.pedantic(
        lambda: _instant_run(order, truth, use_index=False), rounds=1, iterations=1
    )
    # identical outcome to the indexed run
    indexed = _instant_run(order, truth, use_index=True)
    assert run.result.labels() == indexed.result.labels()
    assert run.trace == indexed.trace
