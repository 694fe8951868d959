"""Compare two BENCH_core.json artifacts and gate on timing regressions.

``bench_core_micro.py`` emits a machine-readable timing artifact
(``BENCH_core.json``) after every run; the committed copy in the repo root
is the *baseline* perf trajectory.  This tool diffs a freshly produced
artifact against that baseline, prints a per-metric table (optionally into
the GitHub Actions job summary), and exits non-zero when any tracked timing
regressed by more than the threshold — the CI ``bench-trajectory`` job runs
it on every push.

Tracked timings are the ``mean_s`` / ``total_s`` / ``*_s`` fields of each
result entry (lower is better); counters and derived speedups are reported
informationally but never gate.  A tracked timing that *disappears* from
the fresh artifact fails the gate too — losing a benchmark silently would
erode the trajectory; retire one by regenerating the committed baseline in
the same PR.  Two exemptions keep the gate honest across heterogeneous
runners:

* entries carrying a ``requires`` field name an optional dependency (e.g.
  the vectorized backend's ``"numpy"``); when such an entry is absent from
  one artifact it reports as *optional* instead of failing — the dependency
  simply was not installed on that runner;
* entries whose ``n_cpus`` fields disagree between the two artifacts (e.g.
  a baseline recorded on a 1-CPU container diffed on a 16-core runner)
  report as *hw-mismatch* and never gate: comparing parallel-scaling
  timings across different core counts asserts nothing about the code.

Single-sample timings (anything but a multi-round ``mean_s``) are gated at
``--single-sample-slack`` times the threshold, since one-shot totals carry
far more run-to-run variance than pytest-benchmark means.

Because the committed baseline usually comes from different hardware than
the CI runner, ``--calibrate`` rescales the baseline by a machine-speed
proxy before gating: ``--calibrate METRIC`` uses one designated metric's
ratio and exempts that metric from gating (CI uses ``host_calibration``, a
kernel that runs none of the program's code); ``--calibrate median`` uses
the median fresh/baseline ratio across all shared timings, which a single
genuine regression cannot shift but a change moving many timings can, and
exempts nothing.

Usage:
    python benchmarks/compare_bench.py \
        --baseline BENCH_core.json.baseline --fresh BENCH_core.json \
        [--threshold 0.25] [--calibrate host_calibration] \
        [--summary "$GITHUB_STEP_SUMMARY"]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

#: Result fields treated as gated timings (seconds, lower is better).
TIMING_SUFFIX = "_s"
DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True)
class MetricDelta:
    """One (metric, field) timing comparison."""

    metric: str
    field: str
    baseline_s: Optional[float]
    fresh_s: Optional[float]
    calibrated: bool = False
    #: The entry declares an optional dependency (``requires`` field):
    #: absence from either artifact is tolerated, not a lost benchmark.
    optional: bool = False
    #: The two artifacts recorded different ``n_cpus`` for this entry, so
    #: its timings compare different hardware and never gate.
    hw_mismatch: bool = False

    @property
    def ratio(self) -> Optional[float]:
        """fresh / baseline, or None when either side is missing/zero."""
        if not self.baseline_s or self.fresh_s is None:
            return None
        return self.fresh_s / self.baseline_s

    @property
    def single_sample(self) -> bool:
        """True for one-shot timings (``total_s``, ``build_s``, ...); only
        ``mean_s`` comes from repeated pytest-benchmark rounds."""
        return self.field != "mean_s"

    def status(self, threshold: float, single_sample_slack: float = 1.0) -> str:
        """'new' | 'gone' | 'optional' | 'hw-mismatch' | 'calibration' |
        'ok' | 'faster' | 'regressed'.

        ``single_sample_slack`` widens the threshold for one-shot timings,
        which carry far more run-to-run variance than multi-round means.
        """
        if self.baseline_s is None:
            return "new"
        if self.fresh_s is None:
            return "optional" if self.optional else "gone"
        if self.calibrated:
            return "calibration"
        if self.hw_mismatch:
            return "hw-mismatch"
        ratio = self.ratio
        if ratio is None:
            return "ok"
        if self.single_sample:
            threshold *= single_sample_slack
        if ratio > 1.0 + threshold:
            return "regressed"
        if ratio < 1.0 - threshold:
            return "faster"
        return "ok"


def _timing_fields(entry: dict) -> Dict[str, float]:
    """The gated timing fields of one result entry."""
    return {
        key: value
        for key, value in entry.items()
        if key.endswith(TIMING_SUFFIX) and isinstance(value, (int, float))
    }


def _is_optional(*entries: dict) -> bool:
    """True when any side of the comparison declares an optional
    dependency via the ``requires`` field."""
    return any(isinstance(entry.get("requires"), str) for entry in entries)


def _is_hw_mismatch(baseline_entry: dict, fresh_entry: dict) -> bool:
    """True when both entries recorded ``n_cpus`` and they disagree — the
    timings then measure different hardware, not different code."""
    base_cpus = baseline_entry.get("n_cpus")
    fresh_cpus = fresh_entry.get("n_cpus")
    return (
        isinstance(base_cpus, int)
        and isinstance(fresh_cpus, int)
        and base_cpus != fresh_cpus
    )


def load_results(path: Path) -> Dict[str, dict]:
    """The ``results`` table of a BENCH artifact."""
    payload = json.loads(path.read_text())
    results = payload.get("results")
    if not isinstance(results, dict):
        raise ValueError(f"{path}: not a BENCH artifact (no 'results' table)")
    return results


def _shared_ratios(
    baseline: Dict[str, dict], fresh: Dict[str, dict]
) -> List[float]:
    """fresh/baseline ratios of every timing present in both artifacts.

    Entries with mismatched ``n_cpus`` are left out: their ratios reflect
    the core-count difference, not machine speed, and would skew the
    median calibration proxy.
    """
    ratios: List[float] = []
    for metric in baseline.keys() & fresh.keys():
        if _is_hw_mismatch(baseline[metric], fresh[metric]):
            continue
        base_fields = _timing_fields(baseline[metric])
        fresh_fields = _timing_fields(fresh[metric])
        for field in base_fields.keys() & fresh_fields.keys():
            if base_fields[field]:
                ratios.append(fresh_fields[field] / base_fields[field])
    return ratios


def compute_deltas(
    baseline: Dict[str, dict],
    fresh: Dict[str, dict],
    calibrate: Optional[str] = None,
) -> Tuple[List[MetricDelta], float]:
    """Compare every tracked timing of ``fresh`` against ``baseline``.

    ``calibrate`` is either ``"median"`` (scale the baseline by the median
    shared-timing ratio; no metric is exempted) or a metric name (scale by
    that metric's ratio; the metric itself is exempted from gating).

    Returns:
        (deltas sorted by metric/field, calibration scale applied to the
        baseline timings — 1.0 when not calibrating).

    Raises:
        ValueError: if calibration has nothing comparable to work with.
    """
    scale = 1.0
    if calibrate == "median":
        ratios = _shared_ratios(baseline, fresh)
        if not ratios:
            raise ValueError("median calibration needs at least one shared timing")
        scale = median(ratios)
        calibrate = None  # nothing is exempt: every metric still gates
    elif calibrate is not None:
        base_entry = _timing_fields(baseline.get(calibrate, {}))
        fresh_entry = _timing_fields(fresh.get(calibrate, {}))
        shared = sorted(base_entry.keys() & fresh_entry.keys())
        if not shared or not base_entry[shared[0]]:
            raise ValueError(
                f"calibration metric {calibrate!r} has no comparable timing "
                "in both artifacts"
            )
        scale = fresh_entry[shared[0]] / base_entry[shared[0]]
    deltas: List[MetricDelta] = []
    for metric in sorted(baseline.keys() | fresh.keys()):
        base_entry = baseline.get(metric, {})
        fresh_entry = fresh.get(metric, {})
        base_fields = _timing_fields(base_entry)
        fresh_fields = _timing_fields(fresh_entry)
        for field in sorted(base_fields.keys() | fresh_fields.keys()):
            deltas.append(
                MetricDelta(
                    metric=metric,
                    field=field,
                    baseline_s=(
                        base_fields[field] * scale if field in base_fields else None
                    ),
                    fresh_s=fresh_fields.get(field),
                    calibrated=metric == calibrate,
                    optional=_is_optional(base_entry, fresh_entry),
                    hw_mismatch=_is_hw_mismatch(base_entry, fresh_entry),
                )
            )
    return deltas, scale


DEFAULT_SINGLE_SAMPLE_SLACK = 2.0


def gate_failures(
    deltas: List[MetricDelta],
    threshold: float,
    single_sample_slack: float = DEFAULT_SINGLE_SAMPLE_SLACK,
) -> List[MetricDelta]:
    """The deltas that fail the gate: regressions, plus tracked timings that
    vanished from the fresh artifact (silently losing a benchmark erodes the
    trajectory; retire one by regenerating the committed baseline)."""
    return [
        d
        for d in deltas
        if d.status(threshold, single_sample_slack) in ("regressed", "gone")
    ]


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value < 1e-3:
        return f"{value * 1e6:.1f}µs"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


_STATUS_ICON = {
    "ok": "✅ ok",
    "faster": "🚀 faster",
    "regressed": "❌ regressed",
    "new": "🆕 new",
    "gone": "❌ gone",
    "optional": "➖ optional",
    "hw-mismatch": "⚠️ hw-mismatch",
    "calibration": "⚖️ calibration",
}


def render_table(
    deltas: List[MetricDelta],
    threshold: float,
    scale: float,
    single_sample_slack: float = DEFAULT_SINGLE_SAMPLE_SLACK,
) -> str:
    """A GitHub-flavoured markdown report of every tracked timing."""
    lines = [
        "## Perf trajectory: BENCH_core.json vs committed baseline",
        "",
        f"Gate: fail on >{threshold:.0%} regression of any tracked mean timing, "
        f">{threshold * single_sample_slack:.0%} for single-sample timings"
        + (f"; baseline rescaled ×{scale:.3f} by calibration" if scale != 1.0 else "")
        + ".",
        "",
        "| metric | field | baseline | fresh | Δ | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for delta in deltas:
        ratio = delta.ratio
        change = f"{(ratio - 1.0) * 100:+.1f}%" if ratio is not None else "—"
        lines.append(
            f"| `{delta.metric}` | {delta.field} | {_fmt_seconds(delta.baseline_s)} "
            f"| {_fmt_seconds(delta.fresh_s)} | {change} "
            f"| {_STATUS_ICON[delta.status(threshold, single_sample_slack)]} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True, help="committed artifact")
    parser.add_argument("--fresh", type=Path, required=True, help="freshly produced artifact")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"allowed fractional slowdown before failing (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--calibrate",
        default=None,
        metavar="METRIC|median",
        help="rescale the baseline by a machine-speed proxy before gating: "
        "a metric name uses that metric's ratio and exempts it (CI: "
        "host_calibration), 'median' uses the median shared-timing ratio "
        "and exempts nothing",
    )
    parser.add_argument(
        "--single-sample-slack",
        type=float,
        default=DEFAULT_SINGLE_SAMPLE_SLACK,
        help="threshold multiplier for one-shot timings (every field except "
        f"mean_s), which carry more variance (default {DEFAULT_SINGLE_SAMPLE_SLACK})",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="append the markdown table to this file (e.g. $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    baseline = load_results(args.baseline)
    fresh = load_results(args.fresh)
    deltas, scale = compute_deltas(baseline, fresh, calibrate=args.calibrate)
    table = render_table(deltas, args.threshold, scale, args.single_sample_slack)
    print(table)
    if args.summary is not None:
        with args.summary.open("a") as handle:
            handle.write(table)

    failed = gate_failures(deltas, args.threshold, args.single_sample_slack)
    if failed:
        for delta in failed:
            if delta.status(args.threshold, args.single_sample_slack) == "gone":
                print(
                    f"MISSING: {delta.metric}.{delta.field} "
                    f"(baseline {_fmt_seconds(delta.baseline_s)}) is no longer "
                    "emitted — restore the benchmark or regenerate the "
                    "committed baseline",
                    file=sys.stderr,
                )
            else:
                effective = args.threshold * (
                    args.single_sample_slack if delta.single_sample else 1.0
                )
                print(
                    f"REGRESSION: {delta.metric}.{delta.field} "
                    f"{_fmt_seconds(delta.baseline_s)} -> {_fmt_seconds(delta.fresh_s)} "
                    f"({(delta.ratio - 1.0) * 100:+.1f}% > +{effective:.0%})",
                    file=sys.stderr,
                )
        return 1
    print(f"perf trajectory OK: {len(deltas)} tracked timings within ±{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
