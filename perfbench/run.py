#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the light-grid engines.

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --report      # every metric of every workload
    python3 perfbench/run.py --selftest    # the benchmark's own tests

The first call configures and builds perfbench/ (which compiles the
library sources under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls only re-check the
build.  A run prints its progress on stderr and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics.  Its metrics must be exactly the end_to_end (--trace 0) or
per_layer (--trace 1) names of BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build; returns the build directory or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, spec


def run_once(out, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, parsed result)."""
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(out, "spans-%s.tsv" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1, None
    want, _ = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra or mis-united %s" % (sorted(set(want) - set(got)),
                                          sorted(set(got.items()) -
                                                 set(want.items()))),
              file=sys.stderr)
        return 1, None
    return proc.returncode, result


def report(out):
    """Every metric of every workload, by name with its unit."""
    _, spec = expected_metrics(0)
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_once(out, w["name"], 1, spec["run_seconds"],
                                    trace)
            status = status or code
            if result is None:
                continue
            for name, m in result["metrics"].items():
                print("%-10s %-40s %16.6g %s" % (w["name"], name, m["value"],
                                                 m["unit"]))
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    out = build()
    if out is None:
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    if args.report:
        return report(out)
    if not args.workload:
        p.error("--workload is required")
    code, result = run_once(out, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
