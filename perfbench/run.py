"""Campaign benchmark: hosts real campaigns on ``CampaignService``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tenants-instant --seed 1 \\
        --seconds 10 --trace 0

Each run generates its workload from ``--seed``, runs whole cycles (setup
trials, live phase, recovery; see ``harness.py``) for about ``--seconds``,
checks every output, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured without
any wrapper installed; every timing among them is scaled to a reference
host speed measured alongside it (``calibration.py``).  With ``--trace 1``
the run makes a warm-up cycle, then alternates untraced cycles with cycles
under the span wrappers of ``spans.py``, and reports the per-layer
metrics, including the tracing overhead of the traced cycles against the
untraced ones.  ``--tiny`` runs every workload at a size that finishes
within seconds, to check the harness itself.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

#: A run that has not finished after this many seconds gives up (exit 1).
RUN_LIMIT_S = 170


def end_to_end(cycles) -> Dict[str, tuple]:
    """The end-to-end metrics of a run's cycles, as ``name -> (value, unit)``.

    Every timing is scaled to the reference host speed by the kernel
    bursts of its cycle's phase (see ``calibration.py``).
    """
    from spans import percentile

    def timed(phase, values_of):
        return [v * c.host.scale(phase) for c in cycles for v in values_of(c)]

    ticks = timed("live", lambda c: c.ticks)
    status = timed("live", lambda c: c.status.latency)
    first = cycles[0]
    return {
        "setup_s": (statistics.median(timed("setup", lambda c: c.setup)), "s"),
        "answers_per_s": (
            sum(c.answers for c in cycles)
            / sum(timed("live", lambda c: [c.live_s])),
            "answers/s",
        ),
        "tick_p50_ms": (percentile(ticks, 50) * 1e3, "ms"),
        "tick_p99_ms": (percentile(ticks, 99) * 1e3, "ms"),
        "status_p50_ms": (percentile(status, 50) * 1e3, "ms"),
        "status_p99_ms": (percentile(status, 99) * 1e3, "ms"),
        "recover_s": (
            statistics.median(timed("recover", lambda c: c.recover)), "s"
        ),
        "crowdsourced_pairs": (first.crowdsourced_pairs, "pairs"),
        "assignments_paid": (first.assignments_paid, "assignments"),
        "crowd_time": (first.crowd_time, "clock_units"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def tally(cycles) -> tuple:
    """(correct, attempted, failed) over every operation and check."""
    attempted = failed = 0
    for c in cycles:
        loads = [c.status] + ([c.http] if c.http is not None else [])
        attempted += c.answers + sum(len(load.latency) for load in loads)
        attempted += len(c.recover)
        failed += sum(load.failed for load in loads)
        failed += sum(1 for _, ok in c.checks if not ok)
    first = cycles[0]
    for c in cycles[1:]:
        # The crowd is seeded and virtual-timed: every cycle of a run must
        # pay exactly the same cost.
        same = (
            c.crowdsourced_pairs == first.crowdsourced_pairs
            and c.assignments_paid == first.assignments_paid
            and c.crowd_time == first.crowd_time
        )
        c.check("cost repeats across cycles", same)
        failed += 0 if same else 1
    return failed == 0, attempted, failed


async def repeat(step, seconds: float) -> None:
    """Await ``step()`` whole, at least once, for about ``seconds``: stop
    when one more step as long as the last would end more than a tenth
    past ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        await step()
        now = time.perf_counter()
        if now - start + (now - began) > 1.1 * seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from harness import Bench, BenchError
    from workloads import WORKLOADS, tiny

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.tiny:
        workload = tiny(workload)

    def overtime(signum, frame):
        # Unwind (closing campaigns and shard workers) with a last five
        # seconds of grace; a cleanup that hangs is then killed outright.
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.alarm(5)
        raise BenchError(f"run exceeded {RUN_LIMIT_S}s")

    signal.signal(signal.SIGALRM, overtime)
    signal.alarm(RUN_LIMIT_S)
    workdir = CHECKOUT / ".perfbench_out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, str(workdir))
        if args.trace:
            from spans import Tracer, layer_metrics

            async def traced_run():
                # A warm-up cycle, then untraced and traced cycles in turn:
                # the overhead compares the two on a warm process and on
                # the same stretch of the box's time.
                tracer = Tracer()
                warmup = [await bench.cycle(tracer)]
                untraced, traced = [], []

                async def pair():
                    with tracer.gc_recorded():
                        untraced.append(await bench.cycle(tracer))
                    with tracer.installed():
                        traced.append(await bench.cycle(tracer))

                await repeat(pair, args.seconds)
                return warmup, untraced, traced, tracer

            warmup, untraced, traced, tracer = asyncio.run(traced_run())
            metrics = layer_metrics(workload, untraced, traced, tracer)
            cycles = warmup + untraced + traced
            tracer.write(CHECKOUT / ".perfbench_out" / f"spans-{workload.name}.csv")
        else:
            cycles = []

            async def cycle():
                cycles.append(await bench.cycle())

            asyncio.run(repeat(cycle, args.seconds))
            metrics = end_to_end(cycles)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed = tally(cycles)
    for c in cycles:
        for name, ok in c.checks:
            if not ok:
                print(f"perfbench: check failed: {name}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
