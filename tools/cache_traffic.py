"""Hits, misses and entries of every registered memo table on the benchmark's workloads.

    python3 tools/cache_traffic.py [--seed N]

Runs every operation of ``bench/workloads.py`` in this process, on the
``src/`` of the same checkout, and prints one JSON object with a
``homkit.caches.stats()`` per phase:

- ``builder-suite``: its operations;
- ``warm-checks setup``: building its universes, pools and operations;
- ``warm-checks``: its operations, counted from the end of the set-up;
- ``cold-cli``: every request of its mix through ``homkit.cli.main``, each
  starting from ``clear_caches()`` as a fresh process does, summed.

Each workload starts from cleared caches.  Hits and misses of a phase are
the counts it added; entries are the table's size at its end (summed over
the cold-cli requests).  The workloads run at full size, as at the
benchmark's ``--seconds 15``.  Request files go to a temporary directory;
nothing is written in the repository.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import workloads as wl  # noqa: E402
from homkit import caches  # noqa: E402
from homkit.cli import main as cli_main  # noqa: E402


def added(before: dict, after: dict) -> dict:
    """The hits and misses each table gained from ``before`` to ``after``,
    with its entries at ``after``."""
    return {name: {"entries": s["entries"], "hits": s["hits"] - before[name]["hits"],
                   "misses": s["misses"] - before[name]["misses"]}
            for name, s in after.items()}


def run_ops(ops: list) -> dict:
    """The traffic of running ``ops`` once each, in order."""
    before = caches.stats()
    for op in ops:
        op.run()
    return added(before, caches.stats())


def cold_cli(seed: int) -> dict:
    """The traffic of the cold-cli requests, each from cleared caches, summed."""
    total = {name: dict.fromkeys(("entries", "hits", "misses"), 0) for name in caches.stats()}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        try:
            for op in wl.cold_cli(seed, 1.0, workdir, None):
                reqdir, argv = op.run.args[:2]
                os.chdir(reqdir)
                caches.clear_caches()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli_main(argv)
                for name, s in caches.stats().items():
                    for field, value in s.items():
                        total[name][field] += value
        finally:
            os.chdir(cwd)
    return total


def traffic(seed: int) -> dict:
    out = {"seed": seed}
    caches.clear_caches()
    out["builder-suite"] = run_ops(wl.builder_suite(seed, 1.0))
    caches.clear_caches()
    ops = wl.warm_checks(seed, 1.0)
    out["warm-checks setup"] = caches.stats()
    out["warm-checks"] = run_ops(ops)
    out["cold-cli"] = cold_cli(seed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(traffic(args.seed), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
