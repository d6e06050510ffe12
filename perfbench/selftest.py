#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks, at tiny input sizes:

  * every workload of BENCHMARK.json prints, untraced, exactly the
    end_to_end metrics with their units, and, traced, exactly the
    per_layer metrics, with no failed operation;
  * a corrupted golden digest shows up as failed operations
    (failed_frac > 0 in the traced run, failed > 0 untraced).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, goldens=None):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"]
    if goldens:
        command += ["--goldens", str(goldens)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def expect(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}")
        sys.exit(1)


def check_metrics(workload, trace, result, wanted):
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect(got == wanted,
           f"{workload} trace={trace}: metrics {sorted(got)} "
           f"!= {sorted(wanted)}")
    expect(result["correct"] and result["failed"] == 0 and
           result["attempted"] >= 1,
           f"{workload} trace={trace}: {result['failed']} of "
           f"{result['attempted']} failed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(workload, 0, run(workload, 0), end_to_end)
        check_metrics(workload, 1, run(workload, 1), per_layer)
        print(f"selftest: {workload}: every metric printed")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    corrupt = build_root / "perfbench-selftest" / "goldens-corrupt.txt"
    corrupt.parent.mkdir(parents=True, exist_ok=True)
    lines = (HERE / "goldens.txt").read_text().splitlines()
    index = next(i for i, line in enumerate(lines)
                 if line.startswith("tiny figure4 "))
    size, key, digest = lines[index].split()
    lines[index] = f"{size} {key} {'0' if digest[0] != '0' else '1'}{digest[1:]}"
    corrupt.write_text("\n".join(lines) + "\n")

    traced = run("fig5-branch", 1, corrupt)
    frac = traced["metrics"]["failed_frac"]["value"]
    expect(frac > 0 and not traced["correct"],
           f"corrupted golden gave failed_frac {frac}")
    untraced = run("fig5-branch", 0, corrupt)
    expect(untraced["failed"] > 0 and not untraced["correct"],
           "corrupted golden gave no failed pass untraced")
    print(f"selftest: corrupted golden -> failed_frac {frac}")
    print("selftest: ok")


if __name__ == "__main__":
    main()
