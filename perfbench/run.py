#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (which compiles
the simulator library from ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs one workload:

  --trace 0  timed, untraced repetitions; prints the end-to-end metrics.
  --trace 1  one traced repetition plus layer probes; prints the per-layer
             metrics and writes a Chrome trace to
             <build>/perfbench/traces/<workload>-seed<N>.trace.json.

Every metric the runner measured is printed one per line and saved to
<build>/perfbench/<workload>-seed<N>-trace<T>.json. The last stdout line is
one JSON object holding the metrics BENCHMARK.json lists for the mode.
Spill and checkpoint files live in a scratch directory under <build> that
is deleted before exit. Exits 2 when the tree holds no simulator sources.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(out_dir):
    """Configures once, then rebuilds the runner; build logs go to stderr."""
    cmake_dir = os.path.join(out_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    # No --target: a build tree configured by an older perfbench/ may not
    # know the target yet, and building "all" re-runs configure first.
    steps.append(["cmake", "--build", cmake_dir, "-j4"])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench_runner")


def parse_args(workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at the root of the tree", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    args = parse_args([w["name"] for w in spec["workloads"]])
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} holds no simulator sources (CMakeLists.txt, src/)", 2)

    out_dir = build_dir()
    runner = build(out_dir)
    results_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(os.path.join(results_dir, "traces"), exist_ok=True)
    trace_path = os.path.join(results_dir, "traces",
                              f"{args.workload}-seed{args.seed}.trace.json")
    scratch = tempfile.mkdtemp(prefix=f"scratch-{args.workload}-",
                               dir=results_dir)
    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        command += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"runner exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for metric in wanted:
        got = measured.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} [{metric['unit']}] missing or "
                 f"reported as {got}")
        if not math.isfinite(got["value"]):
            fail(f"metric {metric['name']} is not finite: {got['value']}")

    width = max(len(name) for name in measured)
    for name, m in measured.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<{width}}  {failed_frac:.6g} 1")

    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds,
                  failed_frac=failed_frac)
    record_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: measured[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
