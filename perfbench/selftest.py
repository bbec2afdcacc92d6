#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json
it runs perfbench/run.py untraced and traced on two seeds at smoke
size and checks the result line against the contract: exactly the
keys correct/attempted/failed/metrics, every end-to-end (untraced) or
per-layer (traced) metric present with its unit, outputs correct with
no failed operation, and end-to-end values that are positive numbers.
It also checks that one seed always generates the same input digest
and two seeds different ones, and that run.py fails without printing
a result where the IQB sources are missing. Exits non-zero on the
first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        ["python3", str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check(condition, message):
    if not condition:
        print("FAIL:", message)
        sys.exit(1)


def result_line(proc, label):
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: outputs incorrect\n{proc.stdout}")
    check(result["failed"] == 0, f"{label}: {result['failed']} failed")
    check(result["attempted"] >= 1, f"{label}: nothing attempted")
    digests = [line for line in lines if line.startswith("# input digest")]
    return result, digests


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        seen = {}
        for seed in (3, 3, 4):
            for trace, catalogue in ((0, "end_to_end"), (1, "per_layer")):
                label = f"{workload} seed {seed} trace {trace}"
                result, digests = result_line(run(workload, seed, trace), label)
                metrics = result["metrics"]
                expected = {m["name"]: m["unit"] for m in SPEC[catalogue]}
                check(set(metrics) == set(expected),
                      f"{label}: metrics {sorted(set(metrics) ^ set(expected))}")
                for name, metric in metrics.items():
                    check(metric["unit"] == expected[name],
                          f"{label}: {name} unit {metric['unit']}")
                    if trace == 0:
                        check(metric["value"] > 0, f"{label}: {name} not > 0")
                seen.setdefault(seed, set()).update(digests)
                print("ok", label, flush=True)
        check(len(seen[3]) == 1, f"{workload}: seed 3 inputs differ between runs")
        check(seen[3] != seen[4], f"{workload}: seeds 3 and 4 give the same inputs")

    # Without the IQB sources the benchmark must fail and print no result.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name)
    proc = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare,
               script=bare / HERE.name / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory: run.py exited 0")
    check(not proc.stdout.strip().endswith("}"), "bare directory: printed a result")
    print("ok bare directory fails without a result")


if __name__ == "__main__":
    main()
