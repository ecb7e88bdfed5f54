#!/usr/bin/env python3
"""Compare two google-benchmark JSON reports and flag regressions.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [--threshold PCT] [--metric M]

Prints a per-benchmark table of baseline vs current times and the percent
change (positive = slower than the baseline).  Exits non-zero when any
benchmark shared by both files regressed by more than --threshold percent
(default 25) — the contract of the CI perf-smoke job, which compares a
fresh `harness_bench` run against the checked-in BENCH_PR6.json.

Only benchmarks present in both files are compared; `aggregate_name`
entries (mean/median/stddev rows emitted with --benchmark_repetitions) are
skipped so each benchmark is judged by its primary measurement.  Times are
normalized through each entry's own time_unit, so reports with different
units compare correctly.

Benchmarks present in only one report are listed in a trailing
"added"/"removed" section with their times, so a rename or a deleted
benchmark is visible in the CI log instead of silently dropping out of the
comparison.  They never affect the exit status — the gate judges shared
benchmarks only.
"""

import argparse
import json
import sys

_TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load_benchmarks(path, metric):
    """Returns {benchmark name: seconds} for the primary entries of a report."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    results = {}
    for entry in document.get("benchmarks", []):
        if entry.get("run_type") == "aggregate" or "aggregate_name" in entry:
            continue
        name = entry.get("name")
        if name is None or metric not in entry:
            continue
        scale = _TIME_UNITS.get(entry.get("time_unit", "ns"))
        if scale is None:
            raise SystemExit(f"{path}: unknown time_unit in benchmark '{name}'")
        results[name] = entry[metric] * scale
    if not results:
        raise SystemExit(f"{path}: no benchmark entries with metric '{metric}'")
    return results


def format_seconds(seconds):
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline google-benchmark JSON")
    parser.add_argument("current", help="current google-benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="maximum tolerated slowdown in percent (default: 25)",
    )
    parser.add_argument(
        "--metric",
        default="real_time",
        choices=["real_time", "cpu_time"],
        help="which per-iteration time to compare (default: real_time)",
    )
    args = parser.parse_args(argv)

    baseline = load_benchmarks(args.baseline, args.metric)
    current = load_benchmarks(args.current, args.metric)

    shared = [name for name in baseline if name in current]
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))

    regressions = []
    if shared:
        width = max(len(name) for name in shared)
        print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  {'delta':>8}")
        for name in shared:
            before, after = baseline[name], current[name]
            delta = (after - before) / before * 100.0 if before > 0 else 0.0
            flag = ""
            if delta > args.threshold:
                regressions.append((name, delta))
                flag = "  << REGRESSION"
            print(
                f"{name:<{width}}  {format_seconds(before):>10}  "
                f"{format_seconds(after):>10}  {delta:>+7.1f}%{flag}"
            )
    if only_current:
        print(f"\nadded ({len(only_current)} benchmark(s) only in {args.current}):")
        for name in only_current:
            print(f"  {name}: {format_seconds(current[name])}")
    if only_baseline:
        print(f"\nremoved ({len(only_baseline)} benchmark(s) only in {args.baseline}):")
        for name in only_baseline:
            print(f"  {name}: {format_seconds(baseline[name])}")

    # Diagnose the empty intersection *after* the added/removed sections:
    # a wholesale rename (every baseline row "removed", every current row
    # "added") should leave its evidence in the CI log, not a bare error.
    if not shared:
        print(
            "\nFAIL: no benchmarks in common between the two reports "
            "(see the added/removed sections above)",
            file=sys.stderr,
        )
        return 1
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) slower than the "
            f"baseline by more than {args.threshold:.0f}%:",
            file=sys.stderr,
        )
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed by more than {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
