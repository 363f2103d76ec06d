#!/usr/bin/env python3
"""Host-time benchmark of the vcfr library.

Builds perfbench/perfbench.cpp together with the library in src/ (Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload in its own process, and prints its metrics. The last line of
standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all                # each workload once
    python3 perfbench/run.py --workload all --repeat 10    # medians, quartiles

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--repeat N runs each workload N times, with seeds N, N+1, ..., and prints
each metric's median, quartiles and spread (quartile distance / median).
Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-suite", "fleet-64x256", "serve-rerand"]
DEFAULT_SEED = 7
MAX_HOST_THREADS = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds perfbench in Release; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found: {os.path.join(ROOT, 'src')}")
        sys.exit(1)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process and returns its result."""
    spans = os.path.join(build_dir(), f"spans-{workload}-seed{seed}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    threads = 0
    try:
        # A pool thread lives for a whole kernel run, so sampling the task
        # list every 50 ms sees every thread the workload starts without
        # often waking an idle CPU.
        while proc.poll() is None:
            try:
                threads = max(threads, len(os.listdir(f"/proc/{proc.pid}/task")))
            except OSError:
                pass
            time.sleep(0.05)
        out = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        log(f"{workload}: perfbench exited with status {proc.returncode}")
        sys.exit(1)
    result = json.loads(out.strip().splitlines()[-1])
    result["host_threads"] = threads
    result["nproc"] = os.cpu_count()
    result["seconds"] = seconds
    result["trace"] = trace
    if threads > MAX_HOST_THREADS:
        log(f"!!! {workload} started {threads} host threads, more than "
            f"{MAX_HOST_THREADS}; the result is marked incorrect")
        result["correct"] = False
    return result


def print_result(r):
    print(f"{r['workload']}: seed {r['seed']}, failed {r['failed']}/"
          f"{r['attempted']}, {'correct' if r['correct'] else 'INCORRECT'}, "
          f"{r['reps']} reps, {r['host_threads']} host threads, "
          f"{r['build_type']} {r['compiler']}, nproc {r['nproc']}")
    raw = r.get("raw_metrics")
    if raw:
        print(f"  host reference {r['reference_s']:.6g} s; corrected metrics, "
              f"raw in the last column")
    for name, m in r["metrics"].items():
        extra = f" {raw[name]['value']:14.6g}" if raw else ""
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:6s}{extra}")
    meta = {k: v for k, v in r.items() if k != "metrics"}
    print(json.dumps({"meta": meta}))


def spread(values):
    """Median, quartiles and (q3 - q1) / median of a list of values."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def repeat(binary, workloads, args):
    summary = {}
    for w in workloads:
        runs = [run_workload(binary, w, args.seed + i, args.seconds, args.trace)
                for i in range(args.repeat)]
        print(f"{w}: {args.repeat} runs, seeds {args.seed}..."
              f"{args.seed + args.repeat - 1}, failed "
              f"{sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}")
        has_raw = all("raw_metrics" in r for r in runs)
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}" + ("  raw median, spread" if has_raw else ""))
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                             "unit": m["unit"]}
            line = (f"  {name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} "
                    f"{m['unit']:6s}")
            if has_raw:
                raw_med, _, _, raw_s = spread(
                    [r["raw_metrics"][name]["value"] for r in runs])
                metrics[name]["raw_median"] = raw_med
                metrics[name]["raw_spread"] = raw_s
                line += f" {raw_med:12.6g} {raw_s:8.4f}"
            print(line)
        summary[w] = {"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}
    print(json.dumps({"repeat": args.repeat, "workloads": summary}))


def main():
    ap = argparse.ArgumentParser(
        description="Host-time benchmark of the vcfr library.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload this many times and summarise")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.repeat < 0:
        ap.error("--seed, --seconds and --repeat must not be negative")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat:
        repeat(binary, workloads, args)
        return
    results = [run_workload(binary, w, args.seed, args.seconds, args.trace)
               for w in workloads]
    for r in results:
        print_result(r)
    if len(results) == 1:
        r = results[0]
        metrics = r["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
