"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 bench/selftest.py

For every workload: two traced runs of one seed must agree on every count,
on the inputs and on the answers, and pass every check; a run of another
seed must pass and see different inputs.  Exits 1 on any disagreement.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cold-cli", "warm-checks", "builder-suite")
COUNT_UNITS = ("count", "ratio")


def run(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary = next(line for line in lines if line.startswith(f"{workload}: "))
    fields = summary.split()
    digests = {"inputs": fields[fields.index("inputs") + 1],
               "answers": fields[fields.index("answers") + 1]}
    return json.loads(lines[-1]), digests


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        first, d1 = run(workload, 3, 1)
        second, d2 = run(workload, 3, 1)
        other, d3 = run(workload, 4, 0)
        counts = {name: m["value"] for name, m in first["metrics"].items()
                  if m["unit"] in COUNT_UNITS}
        again = {name: m["value"] for name, m in second["metrics"].items()
                 if m["unit"] in COUNT_UNITS}
        checks = {
            "every run passes its checks": first["correct"] and second["correct"]
            and other["correct"],
            "counts repeat exactly": counts == again,
            "inputs repeat": d1["inputs"] == d2["inputs"],
            "answers repeat": d1["answers"] == d2["answers"],
            "another seed, other inputs": d1["inputs"] != d3["inputs"],
        }
        for name, ok in checks.items():
            print(f"{'PASS' if ok else 'FAIL'} {workload}: {name}")
            if not ok:
                failures.append((workload, name))
        if counts != again:
            for name in counts:
                if counts[name] != again.get(name):
                    print(f"    {name}: {counts[name]} != {again.get(name)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
