"""Any JSON document given to ``homkit validate`` or ``homkit check exact``
exits 0, 1 or 2, and given to any other check or build (``check
homotopic-zero`` takes a chain-map document) exits 0, 1, 2 or 3, never with
a traceback.

Documents come from two strategies: arbitrary JSON values, and objects
shaped like a complex document (ring, modules, diff) whose parts are
sometimes well formed and sometimes arbitrary, so that well-formed
complexes reach ``is_exact`` and its counting path.  The checkers and the
builder also get two-degree complexes with well-defined differentials, so
that they run past the codec.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from homkit.cli import main

from .test_cli import GROWING_SMITH_DOC

leaves = st.none() | st.booleans() | st.integers(-40, 40) | st.text(max_size=5)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=16)
degrees = st.integers(-2, 2).map(str)
rings = st.sampled_from([{"mod": 4}, {"mod": 6}, {"mod": 12}, {"integers": True}]) \
    | st.fixed_dictionaries({"mod": st.integers(-1, 12)}) | json_values
factor_lists = st.lists(st.sampled_from([0, 2, 3, 4, 6, 12]), max_size=2) \
    | st.lists(st.integers(-1, 12), max_size=3) | json_values
matrices = st.lists(st.lists(st.integers(-3, 12), min_size=1, max_size=2), min_size=1,
                    max_size=2) | json_values
complex_docs = st.fixed_dictionaries({
    "ring": rings,
    "modules": st.dictionaries(degrees, factor_lists, max_size=3) | json_values,
    "diff": st.dictionaries(degrees, matrices, max_size=3) | json_values,
})


@st.composite
def well_formed_docs(draw):
    """Two-degree complexes over Z/n whose differential is well defined,
    so that the checkers and builders run past the codec."""
    n = draw(st.sampled_from([2, 3, 4, 6]))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    lo = draw(st.integers(-2, 2))
    src, tgt = (draw(st.lists(st.sampled_from(divisors), max_size=2).map(sorted))
                for _ in range(2))
    # entry (i, j) is a multiple of t_i / gcd(t_i, s_j), so every column dies
    # where its source generator does
    rows = [[draw(st.integers(0, 3)) * (t // math.gcd(t, s)) for s in src] for t in tgt]
    doc = {"ring": {"mod": n}, "modules": {str(lo): src, str(lo + 1): tgt}, "diff": {}}
    if src and tgt:
        doc["diff"][str(lo)] = rows
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("command", [["validate"], ["check", "exact"]], ids=" ".join)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_values | complex_docs)
@example(doc={"ring": {"mod": 4}, "modules": {"0": [2], "1": [2]}, "diff": {"0": [[1]]}})
@example(doc={"ring": {"mod": 2}, "modules": {"0": [2], "1": [2], "2": [2]},
              "diff": {"0": [[1]], "1": [[1]]}})
@example(doc=GROWING_SMITH_DOC)
@example(doc={"ring": {"integers": True}, "modules": {"0": [False]}})
@example(doc={"ring": {"mod": 4}, "modules": {"0": [True]}})
@example(doc={"ring": {"integers": "no"}, "modules": {"0": [2]}})
@example(doc={"ring": {"integers": 1, "mod": 4}, "modules": {"0": [2]}})
def test_any_json_document_exits_cleanly(command, doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    assert run(command + [str(doc_path)]) in (0, 1, 2)


# the checkers and a builder on small universes; exit 3 (a hypothesis not
# established) is a clean answer as well.  Exactness universes need two
# degrees, so the eps1 and dg checks take `--window 2`.
SMALL = ["--bound", "2", "--window", "2"]


@pytest.mark.parametrize("command", [
    ["check", "x-injective", "{doc}", *SMALL],
    ["check", "eps1-perp", "{doc}", *SMALL],
    ["check", "dg-injective", "{doc}", *SMALL],
    ["build", "precover", "{doc}", "--output", "{out}"],
], ids=lambda argv: " ".join(argv[:2]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_values | complex_docs | well_formed_docs())
@example(doc={"ring": {"mod": 4}, "modules": {"0": [2], "1": [2]}, "diff": {"0": [[1]]}})
@example(doc={"ring": {"mod": 6}, "modules": {"0": [6]}, "diff": {}})
def test_checks_and_builds_exit_cleanly(command, doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    argv = [a.format(doc=doc_path, out=doc_path.parent / "out") for a in command]
    assert run(argv) in (0, 1, 2, 3)


classes = st.sampled_from(["all", "ann:2", "free", "zero", "pred:2?", "ann:0", "bogus"])


@pytest.mark.parametrize("command", [
    ["check", "x-projective", "{doc}", *SMALL],
    ["check", "dg-projective", "{doc}", *SMALL],
    ["build", "preenvelope", "{doc}", "--output", "{out}"],
], ids=lambda argv: " ".join(argv[:2]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_values | complex_docs | well_formed_docs(), xclass=classes)
@example(doc={"ring": {"mod": 4}, "modules": {"0": [2], "1": [2]}, "diff": {"0": [[1]]}},
         xclass="all")
@example(doc={"ring": {"mod": 6}, "modules": {"0": [6]}, "diff": {}}, xclass="ann:2")
def test_lazy_pool_commands_exit_cleanly(command, doc_path, doc, xclass):
    doc_path.write_text(json.dumps(doc))
    argv = [a.format(doc=doc_path, out=doc_path.parent / "out") for a in command]
    assert run(argv + ["--class", xclass]) in (0, 1, 2, 3)


# the envelope search enumerates the submodules of its ambient components
# and refuses, with exit 2, components of more than 36 elements
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_values | well_formed_docs(), xclass=classes)
@example(doc={"ring": {"mod": 4}, "modules": {"0": [2], "1": [4]}, "diff": {"0": [[2]]}},
         xclass="all")
def test_build_envelope_exits_cleanly(doc_path, doc, xclass):
    doc_path.write_text(json.dumps(doc))
    assert run(["build", "envelope", str(doc_path), "--bound", "2",
                "--output", str(doc_path.parent / "out"), "--class", xclass]) in (0, 1, 2, 3)


@st.composite
def chain_map_docs(draw):
    """Chain-map documents: the identity or zero map of a well-formed
    complex, or arbitrary matrices between well-formed or arbitrary ends."""
    source = draw(well_formed_docs())
    shape = draw(st.sampled_from(["identity", "zero", "arbitrary"]))
    if shape == "arbitrary":
        target = draw(well_formed_docs() | complex_docs)
        maps = draw(st.dictionaries(degrees, matrices, max_size=2) | json_values)
    else:
        target = source
        maps = {k: [[int(shape == "identity" and i == j) for j in range(len(fs))]
                    for i in range(len(fs))]
                for k, fs in source["modules"].items() if fs}
    return {"source": source, "target": target, "map": maps}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_values | chain_map_docs())
@example(doc={"source": {"ring": {"mod": 4}, "modules": {"0": [4], "1": [4]},
                         "diff": {"0": [[1]]}},
              "target": {"ring": {"mod": 4}, "modules": {"0": [4], "1": [4]},
                         "diff": {"0": [[1]]}},
              "map": {"0": [[1]], "1": [[1]]}})
def test_homotopic_zero_exits_cleanly(doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    assert run(["check", "homotopic-zero", str(doc_path)]) in (0, 1, 2, 3)


# every verb that reads a document; a builder also needs an output directory
DOCUMENT_VERBS = [["validate"]] + [["check", kind] for kind in (
    "exact", "homotopic-zero", "x-injective", "x-projective", "dg-injective", "dg-projective",
    "eps1-perp")] + [["build", kind] for kind in ("precover", "preenvelope", "envelope")]


@pytest.mark.parametrize("command", DOCUMENT_VERBS, ids=" ".join)
@pytest.mark.parametrize("opener", ["[", '{"a": '], ids=["arrays", "objects"])
def test_deeply_nested_json_exits_two_with_a_message(command, opener, tmp_path):
    # deeper than the parser's recursion limit, which raises RecursionError
    doc = tmp_path / "deep.json"
    doc.write_text(opener * 100_000)
    argv = command + [str(doc)] + (["--output", str(tmp_path / "out")]
                                   if command[0] == "build" else [])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert "nest too deeply" in err.getvalue()
