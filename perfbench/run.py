#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Single-run form (one workload, one seed; the last stdout line is the result):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Summary form (every workload in its own process, once per seed):

    python3 perfbench/run.py --workload all --seeds 1,2,3 --seconds 10

The repository's library and the benchmark program are built in Release
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) at the
root of the checkout. A traced run writes its Chrome trace-event JSON to
traces/ in that directory.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark process watches its own deadlines (60 s per request, 170 s
# per run); this is the backstop for a process that cannot end itself.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/; run from a checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "dsnd_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "dsnd_perfbench"


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for folder in (ROOT / "src", HERE):
        files += [p for p in folder.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace, commit, echo=True):
    """Runs one workload process; returns its parsed result."""
    trace_out = binary.parent / "traces" / f"{workload}-seed{seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--trace-out", str(trace_out), "--commit", commit]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"DEADLINE_EXCEEDED [{workload}]: the run was killed after "
             f"{RUN_TIMEOUT_S} s", 3)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited with code {done.returncode}",
             done.returncode or 1)
    result = json.loads(lines[-1])
    missing = set(expected_metrics(trace)) - set(result["metrics"])
    extra = set(result["metrics"]) - set(expected_metrics(trace))
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
             f"extra {sorted(extra)}")
    if echo:
        for line in lines[:-1]:
            print(line)
        if trace:
            print(f"# trace {trace_out}")
    return result


def summary(binary, seeds, seconds, commit):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [run_one(binary, workload, seed, seconds, 0, commit, echo=False)
                   for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: seeds {','.join(map(str, seeds))}, attempted "
              f"{attempted}, failed {failed}, correct {str(correct).lower()}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            print(f"  {metric['name']:22s} {statistics.median(values):14.4f} "
                  f"{metric['unit']:12s} (min {min(values):.4f}, max {max(values):.4f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", default="")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    commit = commit_id()
    if args.workload == "all":
        seeds = [int(s) for s in args.seeds.split(",") if s] or [args.seed]
        summary(binary, seeds, args.seconds, commit)
        return
    result = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                     commit)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
