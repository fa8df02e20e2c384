#!/usr/bin/env python3
"""Runs perfbench/run.py over every workload.

    python3 perfbench/suite.py report     [--seconds S]
    python3 perfbench/suite.py selfcheck  [--seconds S]

report     prints every end-to-end metric (seed 1, untraced) and every
           per-layer metric (seed 7, traced) of every workload, each with
           its unit, and exits 1 if any output check failed.
selfcheck  checks the benchmark itself on seed 7: two same-seed runs of
           each mode give exactly equal deterministic counters, every metric
           BENCHMARK.json names is present with its unit on every workload,
           per-worker busy time stays within threads x run time, and no
           output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
TRACED_SEED = 7  # differs from the default, so claims get an unseen seed
DETERMINISTIC = {
    0: ["fidelity_bound"],
    1: ["core.ladder_level", "core.lossy_passes", "runtime.comm_mb",
        "runtime.spill_events", "runtime.fault_events",
        "runtime.remap_sweeps", "qsim.schedule_runs"],
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    """Runs one workload; returns its result object (the last stdout line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(
            f"run.py failed on {workload} (exit {proc.returncode})")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def report(spec, seconds):
    ok = True
    for trace, seed in ((0, DEFAULT_SEED), (1, TRACED_SEED)):
        for w in spec["workloads"]:
            text, result = run(w["name"], seed, seconds, trace)
            print(text.strip().rsplit("\n", 1)[0])
            ok = ok and result["failed"] == 0
    return 0 if ok else 1


def selfcheck(spec, seconds):
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            wanted = spec["per_layer" if trace else "end_to_end"]
            runs = [run(name, TRACED_SEED, seconds, trace)[1] for _ in range(2)]
            for i, result in enumerate(runs):
                if result["failed"]:
                    problems.append(f"{name} trace {trace} run {i}: "
                                    f"{result['failed']} checks failed")
                for m in wanted:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append(f"{name}: {m['name']} [{m['unit']}] "
                                        f"missing or reported as {got}")
            for key in DETERMINISTIC[trace]:
                a, b = (r["metrics"][key]["value"] for r in runs)
                if a != b:
                    problems.append(f"{name}: {key} differs between "
                                    f"same-seed runs: {a!r} vs {b!r}")
            if trace:
                for result in runs:
                    busy = result["metrics"]["core.busy_frac"]["value"]
                    if busy > 1.0:
                        problems.append(f"{name}: worker busy time is "
                                        f"{busy:.3f} x threads x run_s")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("selfcheck: " + p)
    print("selfcheck: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("report", "selfcheck"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json "
                             "run_seconds for report, 2 for selfcheck)")
    args = parser.parse_args()
    spec = load_spec()
    if args.mode == "report":
        return report(spec, args.seconds or spec["run_seconds"])
    return selfcheck(spec, args.seconds or 2)


if __name__ == "__main__":
    sys.exit(main())
