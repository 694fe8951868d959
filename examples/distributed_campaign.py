"""A crowdsourced-join campaign on the distributed shard backend.

``backend="distributed"`` runs the engine's per-component shards on
worker processes reached over TCP sockets, a shared-nothing command
protocol that can leave the machine (``workers=["host:port", ...]``
connects to remote ``ShardWorkerHost`` processes started with
``python -m repro.engine.distributed --worker host:port``).  Here
``spawn_local_workers=N`` forks the worker hosts locally, so the example
runs offline in seconds while still exercising the real wire protocol end
to end.

Two acts:

1. a campaign over the distributed backend, checked label-for-label
   against the single-process monolithic run (the backends are pinned
   observationally identical — see docs/backends.md);
2. the worker-loss contract: the same campaign with one worker host
   SIGKILLed mid-flight.  The coordinator detects the dead worker,
   re-ships its components to the survivor from the authoritative
   snapshot, replays the committed events, and finishes with a
   ``state_fingerprint()`` byte-identical to the fault-free run.

Run:  python examples/distributed_campaign.py
(exits non-zero if parity or the recovery contract fails)
"""

import json
import os
import signal
import sys

from repro import expected_order
from repro.engine import AsyncDispatch, LabelingEngine
from repro.matcher import CandidateGenerator, TfIdfCosine, word_tokens
from repro.datasets import generate_paper_dataset, paper_spec

THRESHOLD = 0.3
SCALE = 0.08
SEED = 11
N_WORKERS = 2


def build_candidates():
    """A small Cora-like workload in the paper's heuristic order."""
    dataset = generate_paper_dataset(spec=paper_spec(SCALE), seed=SEED)
    tokens = {rid: word_tokens(text) for rid, text in dataset.texts().items()}
    tfidf = TfIdfCosine(tokens.values())
    generator = CandidateGenerator(
        similarity=lambda a, b: tfidf.similarity(tokens[a], tokens[b]),
        tokens=tokens,
        max_block_size=200,
    )
    candidates = expected_order(
        list(generator.generate(dataset.ids(), threshold=THRESHOLD))
    )
    return [c.pair for c in candidates], dataset.truth_oracle()


def run_rounds(order, truth, *, kill_worker=False):
    """Drive one round-per-frontier campaign on the distributed backend.

    With ``kill_worker=True``, one worker host is SIGKILLed halfway through
    the first round's answers — mid-campaign, with components and committed
    events on board.  Returns ``(fingerprint_json, coordinator_report)`` —
    the fingerprint is the engine's full observable state, serialized
    canonically so two runs can be compared byte for byte.
    """
    engine = LabelingEngine(order, backend="distributed", spawn_local_workers=N_WORKERS)
    try:
        coordinator = engine.executor
        round_index = 0
        killed = not kill_worker
        while not engine.is_done:
            frontier = engine.frontier()
            engine.publish(frontier)
            for i, pair in enumerate(frontier):
                if not killed and i == len(frontier) // 2:
                    victim = coordinator.worker_pids()[0]
                    os.kill(victim, signal.SIGKILL)  # a real, unceremonious death
                    killed = True
                engine.record_answer(pair, truth.label(pair), round_index)
            engine.sweep(round_index)
            round_index += 1
        report = {
            "n_workers": coordinator.n_workers,
            "n_components": coordinator.n_components,
            "live_workers": len(coordinator.live_worker_ids()),
            "reassignments": list(coordinator.reassignments),
            "rounds": round_index,
        }
        return json.dumps(engine.state_fingerprint(), sort_keys=True), report
    finally:
        engine.close()


def main() -> int:
    order, truth = build_candidates()
    print(f"{len(order):,} candidate pairs to label\n")

    # Act 1 — the distributed backend is a drop-in: same strategy surface,
    # same labels as the single-process monolithic engine.
    distributed = AsyncDispatch(
        backend="distributed", spawn_local_workers=N_WORKERS
    ).run(order, truth)
    monolithic = AsyncDispatch(backend="monolithic").run(order, truth)
    parity = distributed.labels() == monolithic.labels()
    print("distributed campaign over TCP shard workers")
    print(f"  pairs labeled        {distributed.n_pairs:6,}")
    print(f"  crowdsourced         {distributed.n_crowdsourced:6,}")
    print(f"  deduced for free     {distributed.n_deduced:6,}")
    print(f"  rounds               {distributed.n_rounds:6,}")
    print(f"  parity vs monolithic {'identical' if parity else 'DIVERGED'}")

    # Act 2 — kill a worker host mid-campaign; the coordinator re-ships its
    # components to the survivor and the campaign finishes unchanged.
    clean_fp, clean = run_rounds(order, truth)
    chaos_fp, chaos = run_rounds(order, truth, kill_worker=True)
    recovered = chaos_fp == clean_fp
    print("\nworker-loss recovery (SIGKILL mid-round)")
    print(f"  components / workers {clean['n_components']:6,} / {clean['n_workers']}")
    print(f"  workers left alive   {chaos['live_workers']:6,}")
    for event in chaos["reassignments"]:
        print(
            f"  re-assigned          {event['moved_components']:,} components "
            f"({event['moved_pairs']:,} pairs) after: {event['reason']}"
        )
    print(f"  state fingerprint    {'byte-identical' if recovered else 'DIVERGED'}")

    failures = []
    if not parity:
        failures.append("distributed labels diverged from monolithic")
    if not recovered:
        failures.append("post-SIGKILL fingerprint diverged from fault-free run")
    if not chaos["reassignments"]:
        failures.append("worker death produced no re-assignment record")
    if failures:
        print("\nCAMPAIGN FAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
