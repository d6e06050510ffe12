#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload fig5-branch|fig2-value|serve-mixed \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--goldens FILE]

Run from the root of a source checkout. The harness is built (Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones; see perfbench/README.md.

setup_s is the median of several set-ups: the measured run's own plus
SETUP_PROBES processes that stop right after set-up.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build the harness (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def spawn(command, timeout):
    """Run the harness; its spawn time anchors the set-up clock."""
    started = time.monotonic()
    done = subprocess.run(command + ["--spawn-time", repr(started)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}")
    lines = done.stdout.splitlines()
    if not lines:
        fail("harness printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig5-branch", "fig2-value", "serve-mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--goldens", default=str(HERE / "goldens.txt"))
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root / "perfbench")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = build_root / "perfbench-run"
    out_dir.mkdir(parents=True, exist_ok=True)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--goldens", args.goldens, "--out-dir", str(out_dir)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            _, probe = spawn(command + ["--setup-only"], timeout=60)
            setups.append(probe["metrics"]["setup_s"]["value"])
    notes, result = spawn(command,
                          timeout=max(1.0, deadline - time.monotonic()))
    for line in notes:
        print(line)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s samples: {', '.join(f'{s:.6f}' for s in setups)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
