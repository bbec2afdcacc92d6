#!/usr/bin/env python3
"""Build and run the IQB chain benchmark.

    python3 perfbench/run.py --workload campaign|rescore|fleet \\
        --seed N --seconds S --trace 0|1 [--smoke 1]

Run from the root of a checkout. The first run configures and builds
perfbench/ (the IQB libraries from src/ plus the iqb_perfbench program)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later runs only rebuild what changed. Each run gets
a fresh work directory for its generated inputs, state dirs and program
logs, removed when it ends. A traced run (--trace 1) keeps its spans as
a /tracez document under <build>/traces/, which iqb_tracecat renders
for Perfetto.

The last line of stdout is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit status is 0 when that line was printed, non-zero otherwise
(sources missing, build failure, crash or timeout).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "rescore", "fleet")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then build incrementally; serialised by a lock."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / ".lock", "w") as lock, open(log, "w") as sink:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target",
                      "iqb_perfbench", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed; see " + str(log), 1)
    return out / "iqb_perfbench"


def complete(result, trace):
    """Order the metrics as BENCHMARK.json lists them. A traced result
    gains the per-layer metrics its workload never calls, at 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = spec["per_layer" if trace == "1" else "end_to_end"]
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in catalogue}
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}", 1)
    if trace == "0" and set(measured) != {m["name"] for m in catalogue}:
        fail("an end-to-end metric was not measured", 1)
    result["metrics"] = {
        m["name"]: measured.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in catalogue}
    return result


def recorded_digest(seed):
    table = json.loads((HERE / "campaign_digests.json").read_text())
    return table.get("digests", {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", default="0", choices=("0", "1"),
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no IQB sources under {ROOT / 'src'}")

    out = build_dir()
    binary = build(out)
    workdir = out / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--workdir", str(workdir),
               "--smoke", args.smoke]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_out = traces / f"{args.workload}-seed{args.seed}.tracez.json"
        command += ["--trace-out", str(trace_out)]
    if args.workload == "campaign" and args.smoke == "0":
        digest = recorded_digest(args.seed)
        if digest:
            command += ["--expect-digest", digest]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"iqb_perfbench exited {run.returncode} without a result", 1)
    result = complete(json.loads(lines[-1]), args.trace)
    if args.trace == "1":
        lines.insert(-1, f"# spans written to {trace_out}")
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
