#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end-to-end metrics from
untraced runs, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload ba_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt: the library, sociolearnd and the
benchmark programs) under .bench_build/.  Each run draws its inputs from
--seed, measures for --seconds, checks the outputs, prints one line per
metric and, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  It exits non-zero when any
check fails.  See perfbench/README.md for the workloads, the metrics and
the checks.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
PROGRAM_TIMEOUT_S = 170

WORKLOADS = ("ba_sweep", "hetero_reps", "service_mix")

# The metrics and their units, as BENCHMARK.json declares them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

# Metrics only service_mix defines, reported beside the declared ones on
# that workload (it is not declared in BENCHMARK.json; see README.md).
SERVICE_END_TO_END = {"jobs_per_s": "1/s"}
SERVICE_PER_LAYER = {
    "service.point_compute_ms": "ms",
    "service.noncompute_ms": "ms",
    "service.hit_ratio": "ratio",
    "service.rejected": "count",
    "service.store_objects": "count",
}


class BenchError(RuntimeError):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def check_checkout():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no sources to build (CMakeLists.txt and src/ missing)")


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "perfbench-build.log"
    jobs = str(os.cpu_count() or 1)
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
        done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                              stdout=out, stderr=subprocess.STDOUT, check=False)
    if done.returncode != 0:
        tail = build_log.read_text(errors="replace").splitlines()[-20:]
        raise BenchError("build failed:\n" + "\n".join(tail))


def run_program(args, timeout):
    """Runs a benchmark program in its own process group, returns its JSON
    document.  Anything the program leaves running (a daemon) is killed and
    waited for before this returns."""
    process = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=None,
                               start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        reap_group(process)
    if stdout is None:
        raise BenchError(f"{Path(args[0]).name} did not finish within {timeout:.0f} s")
    if process.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def reap_group(process):
    pgid = process.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    # Orphans of the group (not our children) cannot be waited for; poll
    # until the kernel has removed them.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and group_alive(pgid):
        time.sleep(0.05)


def group_alive(pgid):
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


# --- workloads ---------------------------------------------------------------

def run_batch(workload, seed, seconds, trace, work):
    spec = inputs.ba_sweep(seed) if workload == "ba_sweep" else inputs.hetero_reps(seed)
    overrides = work / "overrides.txt"
    overrides.write_text("\n".join(spec["overrides"]) + "\n")
    args = [str(BUILD / "perfbench_batch"), "--base", spec["base"],
            "--overrides", str(overrides), "--horizon", str(spec["horizon"]),
            "--reps", str(spec["replications"]), "--seed", str(spec["seed"]),
            "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work),
            "--min-jobs", "2" if workload == "ba_sweep" else "5",
            "--spans", str(WORK / f"spans-{workload}-{seed}.csv") if trace else ""]
    for axis in spec["sweep"]:
        args += ["--sweep", axis]
    raw = run_program(args, PROGRAM_TIMEOUT_S)
    raw["input_digest"] = text_digest(json.dumps(spec, sort_keys=True))
    return raw


def run_service(seed, seconds, trace, work):
    stream = inputs.service_stream(seed)
    stream_file = work / "stream.txt"
    stream_file.write_text("".join(f"{name} {beta} {s} {h} {r}\n"
                                   for name, beta, s, h, r in stream))
    args = [str(BUILD / "perfbench_client"), "--daemon", str(BUILD / "sgl" / "sociolearnd"),
            "--stream", str(stream_file), "--work-dir", str(work),
            "--seconds", str(seconds), "--trace", str(trace),
            "--spans", str(WORK / f"spans-service_mix-{seed}.csv") if trace else ""]
    raw = run_program(args, PROGRAM_TIMEOUT_S)
    raw["stream_counts"] = inputs.stream_counts(stream)
    raw["input_digest"] = text_digest(stream_file.read_text())
    return raw


# --- metrics -----------------------------------------------------------------

def batch_end_to_end(raw):
    jobs = raw["jobs"]
    bursts = raw["setup_s"]
    return {
        # The fastest set-up burst, not the median: see setup_burst in src/batch.cpp.
        "setup_s": min(bursts),
        "agent_steps_per_s": stats.median([j["agent_steps"] / j["wall_s"] for j in jobs]),
        "cpu_ns_per_agent_step": stats.median([j["cpu_s"] * 1e9 / j["agent_steps"] for j in jobs]),
        "peak_rss_mb": stats.median([j["peak_rss_mb"] for j in jobs]),
        "first_result_ms_p50": stats.median([j["first_result_s"] * 1e3 for j in jobs]),
    }, {"jobs": len(jobs), "setup_bursts": f"n={len(bursts)} mean={stats.mean(bursts):.6g} s"}


def service_end_to_end(raw):
    passes = raw["passes"]
    computed = [ms for p in passes for ms in p["first_result_ms"]]
    hits = [ms for p in passes for ms in p["cache_hit_ms"]]
    metrics = {
        "setup_s": stats.median(raw["setup_s"]),
        "agent_steps_per_s": stats.median([p["agent_steps"] / p["wall_s"] for p in passes]),
        "cpu_ns_per_agent_step": stats.median(
            [p["daemon_cpu_s"] * 1e9 / p["agent_steps"] for p in passes]),
        "peak_rss_mb": stats.median([p["daemon_maxrss_mb"] for p in passes]),
        "jobs_per_s": stats.median([p["requests"] / p["wall_s"] for p in passes]),
        "first_result_ms_p50": stats.median(computed),
    }
    # The service-only latency tails, printed (with their sample counts)
    # beside the end-to-end metrics.
    extra = {"passes": len(passes)}
    for name, values, p in (("first_result_ms_p90", computed, 90),
                            ("cache_hit_ms_p50", hits, 50),
                            ("cache_hit_ms_p99", hits, 99)):
        extra[name] = stats.percentile(values, p)
    return metrics, extra


def reference_check(workload, seed, isa, input_digest, digest):
    """Results must equal run 1's at the same seed on the same host: the
    first run of a (workload, seed, ISA, generated inputs) records its
    result digest, later runs compare against it.  Under kernel=auto the
    trajectories depend on the ISA, so no digest is pinned across hosts."""
    path = WORK / "reference" / f"{workload}-{seed}-{isa}-{input_digest}.digest"
    path.parent.mkdir(parents=True, exist_ok=True)
    if not path.exists():
        path.write_text(digest + "\n")
        return {"name": "same_seed_equals_first_run", "ok": True, "detail": "recorded"}
    recorded = path.read_text().strip()
    return {"name": "same_seed_equals_first_run", "ok": recorded == digest,
            "detail": "" if recorded == digest else f"{digest} != first run {recorded}"}


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def source_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for file in files:
            digest.update(str(file.relative_to(ROOT)).encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_ticks():
    """(stolen, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_frac(before, after):
    """Share of CPU time the hypervisor took away while the run measured:
    the host contention that makes same-host numbers noisy."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


def bench(workload, seed, seconds, trace):
    check_checkout()
    build()
    work = WORK / f"{workload}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ticks = cpu_ticks()
    try:
        if workload == "service_mix":
            raw = run_service(seed, seconds, trace, work)
        else:
            raw = run_batch(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = dict(raw["provenance"])
    provenance.update(workload=workload, seed=seed, trace=trace, git_commit=git_commit(),
                      source_sha256=source_digest(), steal_frac=steal_frac(ticks, cpu_ticks()))
    checks = list(raw["checks"])
    digest = raw.get("result_digest")
    if digest:
        checks.append(reference_check(workload, seed, provenance["isa"], raw["input_digest"],
                                      digest))

    service = workload == "service_mix"
    if service:
        attempted = sum(p["requests"] for p in raw["passes"])
        failed = sum(p["failed"] for p in raw["passes"])
        end_to_end, extra = service_end_to_end(raw)
        extra["computed_per_pass"], extra["hits_per_pass"] = raw["stream_counts"]
    else:
        attempted = len(raw["jobs"]) + (2 if trace else 0)
        failed = 0
        end_to_end, extra = batch_end_to_end(raw)
    failed_checks = [c for c in checks if not c["ok"]]
    failed = min(attempted, failed + sum(c.get("failures", 1) for c in failed_checks))
    correct = not failed_checks and failed == 0

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for check in checks:
        print(f"check {check['name']} {'ok' if check['ok'] else 'FAILED ' + check['detail']}")
    if trace:
        layers = raw["layers"]
        wanted = {**PER_LAYER, **(SERVICE_PER_LAYER if service else {})}
        missing = [name for name in wanted if name not in layers]
        if missing:
            raise BenchError(f"traced run reported no {', '.join(missing)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in wanted.items()}
    else:
        wanted = {**END_TO_END, **(SERVICE_END_TO_END if service else {})}
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in wanted.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        for name, value in extra.items():
            if isinstance(value, tuple):
                highest = stats.highest_percentile(value[1])
                print(f"metric {name} {value[0]:.6g} ms n={value[1]}"
                      + (f" (highest reportable: p{highest:g})" if highest else ""))
            else:
                print(f"info {name} {value}")
        if not service:
            print(f"metric jobs_per_s n/a 1/s (service_mix only: on {workload} it is a "
                  "constant times agent_steps_per_s)")
        for name in ("first_result_ms_p90", "cache_hit_ms_p50", "cache_hit_ms_p99"):
            if name not in extra:
                print(f"metric {name} n/a ms (no such events on {workload})")
        print(f"metric error_rate {failed / attempted:.6g} ratio n={attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    check_checkout()
    build()
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")], check=False)
    unit = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                           str(HERE / "tests"), "-t", str(HERE)], check=False)
    return 0 if selftest.returncode == 0 and unit.returncode == 0 else 1


def main():
    # A terminated run still stops the program it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build, then run the benchmark's own tests")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, stats.TooFewSamples, OSError, ValueError, KeyError, IndexError) as error:
        log(str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
