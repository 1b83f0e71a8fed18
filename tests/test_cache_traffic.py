"""``tools/cache_traffic.py`` runs the benchmark's workloads in one process
within 10 s and reports every registered memo table for each of them."""
from __future__ import annotations

import json
import os
import subprocess
import sys

from homkit import caches

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("builder-suite", "warm-checks setup", "warm-checks", "cold-cli")


def test_every_table_is_reported_for_every_workload():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "cache_traffic.py"),
                           "--seed", "1"], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["seed"] == 1
    for phase in PHASES:
        assert set(out[phase]) == set(caches.stats()), phase
    # the oracle table is read across the builds of the suite
    assert out["builder-suite"]["construct.module_oracles"]["hits"] > 0
