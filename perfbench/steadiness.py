#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
spread, (Q3 - Q1) / median over the runs, against its bound in
BENCHMARK.json.  A steady benchmark keeps every spread below a third of
its bound.  setup_s is held to its bound differently: its spread across
seeds is not judged, but the medians of two sets of runs of the same code
must agree within the bound, which --save and --against check.

    python3 perfbench/steadiness.py --workload ba_sweep --seeds 1-10 --save a.json
    python3 perfbench/steadiness.py --workload ba_sweep --seeds 1-10 --against a.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save", help="write the runs' metric values here (JSON)")
    parser.add_argument("--against", help="compare medians with a set written by --save")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", seconds,
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else None
        if done.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: FAILED (exit {done.returncode})\n{done.stderr}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        provenance = next((json.loads(line.split(" ", 1)[1]) for line in done.stdout.splitlines()
                           if line.startswith("provenance ")), {})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items())
              + f" steal={provenance.get('steal_frac')}", flush=True)
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    worse = []
    for name, series in values.items():
        median = stats.median(series)
        line = f"{name:40s} median {median:.5g}"
        if len(series) >= 2:
            line += f"  spread {stats.quartile_spread(series):.4f}"
        if name in bounds:
            line += f"  bound {bounds[name]}"
        if name in earlier:
            before = stats.median(earlier[name])
            change = (median - before) / before
            if better.get(name) == "higher":
                change = -change
            line += f"  worse than --against by {change:+.4f}"
            if name in bounds and change > bounds[name]:
                worse.append(name)
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n")
    if worse:
        print("medians worse than --against by more than the bound: " + ", ".join(worse))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
