"""An async crowd campaign against a (fake) live platform.

Everything before this example ran against the discrete-event simulator.
Here the campaign runs the way it would against a real platform: the
``CrowdRuntime`` awaits HIT completions from a ``PollingPlatformClient``
that periodically fetches a REST-shaped backend — answers arrive *out of
order*, one worker abandons a HIT (it expires and is re-issued), and budget
and latency limits are enforced by the runtime, not the platform.

The backend is the in-memory fake shipped for tests, driven by a manual
clock, so the example is deterministic and runs offline in milliseconds; to
point the same campaign at a real service, use the MTurk backend shipped in
``repro.crowd.platforms`` (see ``examples/mturk_campaign.py`` and
``docs/crowd.md``) or implement the three-method ``RestCrowdBackend``
surface (create/fetch/expire) over the platform's HTTP API.

Run:  python examples/async_campaign.py
(exits non-zero if the campaign fails to label everything correctly)
"""

import asyncio
import sys

from repro import expected_order
from repro.core.oracle import GroundTruthOracle
from repro.crowd import (
    BudgetPolicy,
    InMemoryCrowdBackend,
    ManualClock,
    PollingPlatformClient,
    TimeoutPolicy,
)
from repro.engine import AsyncDispatch, CrowdRuntime, LabelingEngine, RuntimeMode
from repro.matcher import CandidateGenerator, TfIdfCosine, word_tokens
from repro.datasets import generate_paper_dataset, paper_spec

THRESHOLD = 0.3
SCALE = 0.08
SEED = 11


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
    return candidates, dataset.truth_oracle()


async def run_campaign(candidates, truth):
    clock = ManualClock()
    # The fake "live" platform: workers take 0.5-6 virtual hours per HIT
    # (drawn per HIT, so completions come back out of publication order)
    # and abandon HIT #2 outright — the runtime's timeout policy will
    # expire and re-issue it.
    backend = InMemoryCrowdBackend(
        oracle=truth,
        clock=clock.now,
        latency=lambda rng: rng.uniform(0.5, 6.0),
        drop_hit_ids={2},
        seed=SEED,
    )
    client = PollingPlatformClient(
        backend,
        batch_size=10,
        n_assignments=1,
        poll_interval=0.25,
        clock=clock.now,
        sleep=clock.sleep,  # polls advance the virtual clock
    )
    engine = LabelingEngine([c.pair for c in candidates])
    runtime = CrowdRuntime(
        engine,
        client,
        mode=RuntimeMode.HIT_INSTANT,  # re-decide after every completion
        budget=BudgetPolicy(max_assignments=5000),
        timeout=TimeoutPolicy(hit_timeout=12.0, max_reissues=3),
    )
    report = await runtime.run()
    return engine, report


def main() -> int:
    candidates, truth = build_candidates()
    print(f"{len(candidates):,} candidate pairs to label\n")

    engine, report = asyncio.run(run_campaign(candidates, truth))

    result = engine.result
    correct = sum(
        1 for pair in engine.pairs if result.label_of(pair) is truth.label(pair)
    )
    print("async campaign over PollingPlatformClient + in-memory backend")
    print(f"  pairs labeled        {result.n_pairs:6,}")
    print(f"  crowdsourced         {result.n_crowdsourced:6,}")
    print(f"  deduced for free     {result.n_deduced:6,}")
    print(f"  HITs published       {len(report.hit_batches):6,}")
    print(f"  completions applied  {report.n_completions:6,}")
    print(f"  expired / re-issued  {report.n_expired_hits:6,} / {report.n_reissued_hits:,}")
    print(f"  assignments spent    {report.assignments_committed:6,}")
    print(f"  virtual hours        {report.completion_hours:8.1f}")
    print(f"  labels correct       {correct:6,} / {result.n_pairs:,}")

    # The same semantics are available as an awaitable strategy: with its
    # default client, the deterministic simulated platform, AsyncDispatch
    # runs the paper's round-parallel labeler.
    rounds_result = AsyncDispatch(RuntimeMode.ROUNDS).run(
        [c.pair for c in candidates], truth
    )
    print(
        f"\nAsyncDispatch(ROUNDS): {rounds_result.n_crowdsourced:,} crowdsourced "
        f"in {rounds_result.n_rounds} rounds "
        f"({rounds_result.n_deduced:,} deduced)"
    )

    failures = []
    if result.n_pairs != len(candidates):
        failures.append(f"labeled {result.n_pairs} of {len(candidates)} pairs")
    if correct != result.n_pairs:
        failures.append(f"only {correct}/{result.n_pairs} labels correct")
    if rounds_result.n_pairs != len(candidates):
        failures.append("AsyncDispatch(ROUNDS) did not label every pair")
    if failures:
        print("\nCAMPAIGN FAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
