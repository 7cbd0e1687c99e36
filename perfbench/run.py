#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload hit_4k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/ (and the FT-Cache libraries it compiles from src/) into the
directory named by $CARGO_TARGET_DIR, default .bench_build; later calls
rebuild incrementally.  Build output goes to stderr, so the benchmark's
result line stays the last line of stdout.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build() -> Path:
    out = build_dir()
    step = lambda cmd: subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      cwd=ROOT).returncode == 0
    if not (out / "CMakeCache.txt").exists():
        if not step(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not step(["cmake", "--build", str(out), "-j", jobs, "--target",
                 "perfbench", "perfbench_selftest"]):
        return None
    return out


def main() -> int:
    out = build()
    if out is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--selftest"]:
        if subprocess.run([str(out / "perfbench_selftest")]).returncode != 0:
            return 1
        return subprocess.run([sys.executable,
                               str(BENCH_DIR / "tests" / "test_output.py")],
                              cwd=ROOT).returncode
    cmd = [str(out / "perfbench"), *sys.argv[1:],
           "--spans-dir", str(out / "spans")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
