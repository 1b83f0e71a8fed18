"""Any JSON document given to ``homkit validate`` or ``homkit check exact``
exits 0, 1 or 2, never with a traceback.

Documents come from two strategies: arbitrary JSON values, and objects
shaped like a complex document (ring, modules, diff) whose parts are
sometimes well formed and sometimes arbitrary, so that well-formed
complexes reach ``is_exact`` and its counting path.
"""
from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from homkit.cli import main

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


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.mark.parametrize("command", [["validate"], ["check", "exact"]], ids=" ".join)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_values | complex_docs)
@example(doc={"ring": {"mod": 4}, "modules": {"0": [2], "1": [2]}, "diff": {"0": [[1]]}})
@example(doc={"ring": {"mod": 2}, "modules": {"0": [2], "1": [2], "2": [2]},
              "diff": {"0": [[1]], "1": [[1]]}})
def test_any_json_document_exits_cleanly(command, doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(command + [str(doc_path)])
    assert rc in (0, 1, 2)
