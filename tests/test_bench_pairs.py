"""The summaries of ``tools/bench_pairs.py`` on made-up runs: values stay
paired round by round when a run fails, pairs won count only the rounds
both sides reported, and a claim needs nine pairs in ten and a median gap
above the parent's interquartile range."""
from __future__ import annotations

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.2}


def runs(values: list) -> list:
    return [{"correct": True, "failed": 0, "metrics": {"wall_s": {"value": v, "unit": "s"}}}
            if v is not None else {"correct": False, "failed": None, "metrics": {},
                                   "error": "killed"}
            for v in values]


def test_a_failed_run_keeps_the_rounds_paired():
    parent = bench_pairs.side_summary(runs([1.0, 1.1, None, 0.9, 1.0]), [WALL])
    change = bench_pairs.side_summary(runs([0.9, 1.2, 0.5, 0.8, 0.9]), [WALL])
    assert parent["values"]["wall_s"] == [1.0, 1.1, None, 0.9, 1.0]
    assert parent["errors"] == ["killed"] and not parent["all_correct"]
    assert parent["median"]["wall_s"] == 1.0 and change["median"]["wall_s"] == 0.9
    cmp = bench_pairs.compare(parent, change, WALL)
    assert cmp["pairs_won"] == "3/4" and cmp["ratio"] == 0.9
    assert cmp["status"] == "within bound"


@pytest.mark.parametrize("change, met", [([0.8] * 9 + [1.2], True),
                                         ([0.8] * 8 + [1.2] * 2, False),
                                         ([0.97] * 10, False)])
def test_a_claim_needs_nine_pairs_and_a_gap_above_the_spread(change, met):
    parent = bench_pairs.side_summary(runs([1.0, 0.95, 1.05] * 3 + [1.0]), [WALL])
    entry = {"parent": parent, "change": bench_pairs.side_summary(runs(change), [WALL])}
    entry["comparison"] = {"wall_s": bench_pairs.compare(entry["parent"], entry["change"], WALL)}
    assert (bench_pairs.claim("w/seed1", entry, WALL)["status"] == "met") == met
