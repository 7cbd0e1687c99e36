#!/usr/bin/env python3
"""Checks that every workload's result line names every metric that
BENCHMARK.json lists, with its unit: end_to_end metrics with --trace 0,
per_layer metrics with --trace 1.  Runs each workload for one second.

    python3 perfbench/tests/test_output.py      (from the repository root)
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [*spec["command"], "--workload", workload["name"],
                   "--seed", "7", "--seconds", "1", "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[key]}
            problems = [f"missing {n}" for n in want if n not in got]
            problems += [f"{n} has unit {got[n]['unit']}, want {u}"
                         for n, u in want.items()
                         if n in got and got[n]["unit"] != u]
            problems += [f"unlisted {n}" for n in got if n not in want]
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            if not result.get("correct", False):
                problems.append("correct is not true")
            status = "ok" if not problems else "; ".join(problems)
            print(f"{workload['name']} --trace {trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
