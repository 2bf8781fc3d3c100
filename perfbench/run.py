#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
perfbench binary (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. The binary runs the workload in its own process;
this script then re-verifies the output samples it wrote with the
independent checkers and prints one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A build failure, a crash or a missing metric
exits non-zero without printing a result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # write nothing into the source tree
sys.path.insert(0, str(HERE))
import checkers  # noqa: E402

WORKLOADS = ("session_churn", "live_broadcast", "macro_day")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
        with open(log, "w") as log_file:
            for step in steps:
                try:
                    code = subprocess.run(step, stdout=log_file, stderr=subprocess.STDOUT,
                                          timeout=BUILD_TIMEOUT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    fail("build step %s failed: %s" % (step[:2], e))
                if code != 0:
                    tail = log.read_text().splitlines()[-15:]
                    fail("build failed (%s):\n%s" % (log, "\n".join(tail)))
    binary = out / "perfbench"
    if not binary.exists():
        fail("build produced no binary at %s" % binary)
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace, out_dir):
    """Run the perfbench binary; returns its result document (notes echoed)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.iterdir():
        old.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d: %s" % (workload, proc.returncode, proc.stderr.strip()))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the harness self-test (selftest.py)")
    args = ap.parse_args()
    if args.selftest:
        import selftest
        sys.exit(selftest.main())
    if args.workload is None:
        ap.error("--workload is required")

    binary = build()
    out_dir = ROOT / ".bench_out" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace, out_dir)

    # The binary has printed its own violations; add the checkers..
    violations = list(result["violations"])
    for kind, path in sorted(result["artifacts"].items()):
        if kind in checkers.CHECKS:
            found = checkers.CHECKS[kind](path)
            violations += found
            print("# independent %s check: %s" % (kind, "FAILED" if found else "passed"))
            for v in found:
                print("# VIOLATION: %s" % v)

    metrics = {}
    for name in expected_metrics(args.trace):
        if name not in result["metrics"]:
            fail("%s reported no %s" % (args.workload, name))
        metrics[name] = result["metrics"][name]
    print(json.dumps({"correct": bool(result["correct"]) and not violations,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
