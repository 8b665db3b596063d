#!/usr/bin/env python3
"""Builds and runs the MalNet benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload study-campaign|study-sharded|query-sync
                             [--seed 22] [--seconds 30] [--trace 0|1]

Run it from the root of a source tree. The first run configures and builds
perfbench/ (the repository's libraries plus malnet_bench) in a Release
tree under $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs only check that the build is up to date. Each invocation runs one
workload in its own malnet_bench process, so its set-up time and peak RSS
belong to that workload alone. The last line of standard output is the
JSON result; the build log and progress go to standard error. A traced run
(--trace 1) also writes its spans to <build>/traces/<workload>-seed<N>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study-campaign", "study-sharded", "query-sync")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds malnet_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no MalNet sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    tree = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", tree, "--target", "malnet_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(tree, "malnet_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=22)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny studies, for the self-test")
    ap.add_argument("--inject-wrong-answer", action="store_true",
                    help="corrupt one expected answer, for the self-test")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, "traces",
                                            f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"malnet_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
