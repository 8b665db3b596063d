#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Run from the root of a source tree. For every workload it runs
perfbench/run.py --tiny with tracing off and on, and checks that:
  * the last output line is a JSON object with exactly the keys correct,
    attempted, failed and metrics, with correct=true and failed=0;
  * the metrics are exactly the end_to_end (trace 0) or per_layer (trace 1)
    metrics named in BENCHMARK.json, each with its unit;
  * the traced run wrote its span file.
It then checks that a deliberately wrong expected answer is counted as a
failure (exit code 1, correct=false, failed >= 1) rather than passing, and
that run.py fails without printing a result in a directory that holds only
BENCHMARK.json and perfbench/. Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def check_metrics(result, wanted, label):
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    expect(set(got) == set(want), f"{label}: metric names match BENCHMARK.json"
           + ("" if set(got) == set(want) else
              f" (missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})"))
    bad_units = sorted(n for n in want if n in got and got[n] != want[n])
    expect(not bad_units, f"{label}: every metric carries its unit {bad_units or ''}")
    non_numeric = sorted(n for n, m in result["metrics"].items()
                         if not isinstance(m.get("value"), (int, float)))
    expect(not non_numeric, f"{label}: every value is a number {non_numeric or ''}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            label = f"{name} trace={trace}"
            rc, result = run(["--workload", name, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--tiny"])
            expect(rc == 0, f"{label}: exit code 0 (got {rc})")
            if result is None:
                expect(False, f"{label}: last line is a JSON result")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result has exactly the four keys")
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1, f"{label}: all checks passed")
            check_metrics(result, bench["per_layer" if trace else "end_to_end"], label)
            if trace:
                path = os.path.join(BUILD, "traces", f"{name}-seed7.json")
                expect(os.path.isfile(path), f"{label}: span file written")

    rc, result = run(["--workload", "query-sync", "--seed", "7", "--seconds", "1",
                      "--tiny", "--inject-wrong-answer"])
    expect(rc == 1, f"wrong expected answer: exit code 1 (got {rc})")
    expect(result is not None and result["correct"] is False and result["failed"] >= 1,
           "wrong expected answer: counted in failed, correct=false")
    if result is not None:
        check_metrics(result, bench["end_to_end"], "wrong expected answer")

    bare = os.path.join(BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query-sync",
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, text=True, timeout=180)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"bare directory: fails without a result (exit {proc.returncode})")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
