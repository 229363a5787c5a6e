#!/usr/bin/env python3
"""Entry point of the node benchmark.

    python3 nodebench/run.py --workload zipf_hot --seed 1 --seconds 30 --trace 0
    python3 nodebench/run.py --self-test

Run from the repository root. Builds nodebench/ (which compiles the SSTD
sources from ../src) with CMake into $CARGO_TARGET_DIR, default
.bench_build, then runs one node_bench pass and re-prints its output. The
last stdout line is the result JSON; its metric names must be exactly the
BENCHMARK.json end_to_end names (--trace 0) or per_layer names (--trace 1),
or the run fails. --self-test builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(build_dir, target):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = [["cmake", "--build", str(build_dir), "-j", "4", "--target", target]]
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def expected_names(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    names = list(result["metrics"])
    if names != expected_names(trace):
        return "metric names %s differ from BENCHMARK.json" % names
    if result["attempted"] < 1:
        return "no checks attempted"
    return None


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    target = "node_bench_test" if args.self_test else "node_bench"
    if not build(build_dir, target):
        return 1
    if args.self_test:
        return subprocess.run([str(build_dir / target)], cwd=build_dir).returncode

    scratch = build_dir / ("scratch-%d" % os.getpid())
    cmd = [str(build_dir / target), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(scratch)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans", str(traces / ("%s-%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: node_bench exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    problem = valid_result(lines[-1], args.trace)
    if problem:
        sys.stderr.write("run.py: %s\n" % problem)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
