"""Alternating parent/change rounds of the benchmark, summarised as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --pr N \\
        --run builder-suite:1 --run builder-suite:5 --run cold-cli:1 \\
        [--rounds 10] [--claim builder-suite:wall_s] \\
        [--count builder-suite:1:homkit.construct._check_chain_data] [--out BENCH_N.json]

Run from the repository root.  The parent side is ``git archive REV``; the
change side is a copy of the working tree's ``src/`` and ``bench/``, so
uncommitted changes are measured.  Both copies go under ``--workdir`` (a
new temporary directory by default, removed at the end).  Each round runs
the unchanged ``bench/run.py --workload W --seed S --seconds 15 --trace 0``
once on each side, one process at a time, the parent first in even rounds
and the change first in odd ones.  The environment is passed through as it
is, ``PYTHONDONTWRITEBYTECODE`` included.

For every workload and seed the summary gives each side's runs, failures,
correctness, medians, inclusive quartiles and values of the end-to-end
metrics ``BENCHMARK.json`` lists, and for each metric the ratio, the pairs
the change won (ties count for neither), the median gap, the parent's
interquartile range and a status against the metric's bound.  ``--claim
W:METRIC`` adds a claimed gain, met when the change wins at least nine pairs
in ten and the median gap exceeds the parent's interquartile range.

``--count W:S:DOTTED`` counts the calls of a function (``module.function``
or ``module.Class.method``) over one in-process run of the operations of
workload W at seed S (``bench/workloads.py``, full size), once per side.
Only ``builder-suite`` and ``warm-checks`` run in process, and only the
operations are counted, not their set-up.  A call is counted where the
function is looked up on its module or class when called, so a module that
imported it by name is not seen.  Counts of a deterministic workload repeat
exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 15
RUN_TIMEOUT_S = 600

# run inside a side's copy: the calls of the named functions over one run
# of a workload's operations; argv is workload, seed and the dotted names
COUNT_SCRIPT = r"""
import importlib, json, sys
sys.path[:0] = ["bench", "src"]
import workloads as wl
workload, seed, names = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
if workload == "builder-suite":
    ops = wl.builder_suite(seed, 1.0)
elif workload == "warm-checks":
    ops = wl.warm_checks(seed, 1.0)
else:
    raise SystemExit(f"{workload} does not run in process")
counts = dict.fromkeys(names, 0)

def counting(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name in names:
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    for attr in parts[cut:-1]:
        owner = getattr(owner, attr)
    setattr(owner, parts[-1], counting(name, getattr(owner, parts[-1])))
for op in ops:
    op.run()
print(json.dumps({"operations": len(ops), "calls": counts}))
"""


def end_to_end_metrics() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def prepare(parent: str, workdir: str) -> dict:
    """The two sides' directories: the parent from git archive, the change
    from the working tree's src/ and bench/ and BENCHMARK.json."""
    sides = {"parent": os.path.join(workdir, "parent"), "change": os.path.join(workdir, "change")}
    os.makedirs(sides["parent"])
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", sides["parent"]], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", ".bench_run")
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(sides["change"], part),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), sides["change"])
    return sides


def run_once(side_dir: str, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run, or a failed record."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=side_dir, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                "error": proc.stderr.strip()[-400:]}
    return json.loads(lines[-1])


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def side_summary(runs: list, metrics: list) -> dict:
    """Values round by round, None for a run that reported none, so the two
    sides' lists stay paired; medians and quartiles over the reported ones."""
    values = {m["name"]: [round(r["metrics"][m["name"]]["value"], 4)
                          if m["name"] in r["metrics"] else None for r in runs]
              for m in metrics}
    reported = {name: [x for x in v if x is not None] for name, v in values.items()}
    return {
        "runs": len(runs),
        "failed": sum(r["failed"] or 0 for r in runs),
        "all_correct": all(r["correct"] for r in runs),
        "median": {name: round(statistics.median(v), 4) for name, v in reported.items() if v},
        "quartiles": {name: quartiles(v) for name, v in reported.items() if v},
        "values": values,
        "errors": [r["error"] for r in runs if "error" in r],
    }


def compare(parent: dict, change: dict, metric: dict) -> dict:
    """Ratio, pairs won, median gap and status of one metric: worse beyond
    the bound, unresolved when the parent's spread exceeds the bound and not
    every change run beats every parent run, else within bound."""
    name, bound = metric["name"], metric["bound"]
    if name not in parent["median"] or name not in change["median"]:
        return {"bound": bound, "status": "no runs reported it"}
    lower = metric["better"] == "lower"
    pairs = [(a, b) for a, b in zip(parent["values"][name], change["values"][name])
             if a is not None and b is not None]
    old = [x for x in parent["values"][name] if x is not None]
    new = [x for x in change["values"][name] if x is not None]
    med_old, med_new = parent["median"][name], change["median"][name]
    ratio = med_new / med_old
    worse_by = ratio - 1 if lower else 1 - ratio
    won = sum((b < a) if lower else (b > a) for a, b in pairs)
    q1, _, q3 = parent["quartiles"][name]
    clear = max(new) < min(old) if lower else min(new) > max(old)
    if worse_by > bound:
        status = "worse than bound"
    elif (q3 - q1) / med_old > bound and not clear:
        status = "unresolved: parent spread exceeds the bound"
    else:
        status = "within bound"
    return {"ratio": round(ratio, 4), "worse_by": round(worse_by, 4), "bound": bound,
            "pairs_won": f"{won}/{len(pairs)}",
            "parent_iqr": round(q3 - q1, 4), "median_gap": round(abs(med_new - med_old), 4),
            "status": status}


def claim(key: str, entry: dict, metric: dict) -> dict:
    cmp = entry["comparison"][metric["name"]]
    if "ratio" not in cmp:
        return {"run": key, "metric": metric["name"], "status": "not met: " + cmp["status"]}
    won, pairs = map(int, cmp["pairs_won"].split("/"))
    better = cmp["worse_by"] < 0
    met = better and won >= 0.9 * pairs and cmp["median_gap"] > cmp["parent_iqr"]
    return {"run": key, "metric": metric["name"],
            "parent_median": entry["parent"]["median"][metric["name"]],
            "change_median": entry["change"]["median"][metric["name"]],
            "ratio": cmp["ratio"], "pairs_won": cmp["pairs_won"],
            "median_gap": cmp["median_gap"], "parent_iqr": cmp["parent_iqr"],
            "status": "met" if met else "not met"}


def count_calls(side_dir: str, workload: str, seed: int, names: list) -> dict:
    proc = subprocess.run([sys.executable, "-c", COUNT_SCRIPT, workload, str(seed), *names],
                          cwd=side_dir, capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_run(text: str) -> tuple:
    workload, seed = text.rsplit(":", 1)
    return workload, int(seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit, as git names it")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--run", action="append", required=True, type=parse_run,
                        help="WORKLOAD:SEED, repeatable")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC")
    parser.add_argument("--count", action="append", default=[], help="WORKLOAD:SEED:DOTTED")
    parser.add_argument("--workdir", help="where the two copies go (kept when given)")
    parser.add_argument("--out", help="default BENCH_<pr>.json at the repository root")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    metrics = end_to_end_metrics()
    by_name = {m["name"]: m for m in metrics}
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        sides = prepare(args.parent, workdir)
        runs = {f"{w}/seed{s}": {"parent": [], "change": []} for w, s in args.run}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for workload, seed in args.run:
                key = f"{workload}/seed{seed}"
                for side in order:
                    runs[key][side].append(run_once(sides[side], workload, seed))
                print(f"round {r + 1}/{args.rounds} {key} done", file=sys.stderr, flush=True)
        workloads = {}
        for key, both in runs.items():
            entry = {side: side_summary(both[side], metrics) for side in ("parent", "change")}
            entry["comparison"] = {m["name"]: compare(entry["parent"], entry["change"], m)
                                   for m in metrics}
            workloads[key] = entry
        counts = {}
        for spec in args.count:
            workload, seed, name = spec.split(":", 2)
            for side in ("parent", "change"):
                got = count_calls(sides[side], workload, int(seed), [name])
                counts.setdefault(f"{workload}/seed{seed}", {}).setdefault(name, {})[side] = \
                    got["calls"][name]
        claims = []
        for spec in args.claim:
            workload, name = spec.split(":", 1)
            claims += [claim(key, entry, by_name[name]) for key, entry in workloads.items()
                       if key.startswith(workload + "/")]
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "pr": args.pr,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "method": (f"tools/bench_pairs.py: bench/run.py unchanged, on git archive {args.parent} "
                   "and on the working tree's src/ and bench/, alternating which side runs "
                   "first from round to round; PYTHONDONTWRITEBYTECODE="
                   f"{os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')}; values in the "
                   "reference units bench/run.py reports; quartiles inclusive"),
        "parent": args.parent,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "rounds": {key: args.rounds for key in runs},
        "workloads": workloads,
        "claimed_gain": claims,
        "counts": counts,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
