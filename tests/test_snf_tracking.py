"""One-sided Smith tracking against the full elimination.

``_snf_core`` tracks u and its inverse only when ``left`` and v only when
``right``, and ``_snf_full`` is its matrix face.  The pivot sequence reads
only the working matrix, so d and each tracked transform must equal the
full run's, and every caller that leaves a side out must return exactly
what it returns when all three are tracked.
"""
from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from homkit import exactalg, modules
from homkit.exactalg import (
    ZZ,
    IntMatrix,
    Zmod,
    _snf_core,
    _snf_full,
    integer_kernel,
    smith_normal_form,
)
from homkit.modules import normalize_presentation

FULL = _snf_full


def tracked(fn):
    """``fn()`` with every ``_snf_core`` call, wherever it is read from,
    tracking all sides; at least one elimination must run through it."""
    calls = []

    def full(m, cols, left=True, right=True):
        calls.append((left, right))
        return _snf_core(m, cols)

    with mock.patch.object(exactalg, "_snf_core", full), \
            mock.patch.object(modules, "_snf_core", full):
        out = fn()
    assert calls
    return out


@st.composite
def matrices(draw, min_rows=0, max_rows=4, max_cols=5):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(0, max_cols))
    entry = st.integers(-9, 9)
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    # planted zero rows and columns
    for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if rows:
            grid[i] = [0] * cols
    for j in draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in grid:
            if cols:
                row[j] = 0
    return IntMatrix(rows, cols, tuple(tuple(r) for r in grid))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_each_side_matches_the_full_run(a):
    u, d, v, ui = FULL(a)
    assert _snf_full(a, left=False) == (None, d, v, None)
    assert _snf_full(a, right=False) == (u, d, None, ui)
    assert _snf_full(a, left=False, right=False) == (None, d, None, None)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernels_and_normal_forms_match_full_tracking(a):
    assert integer_kernel(a) == tracked(lambda: integer_kernel(a))
    assert smith_normal_form(a) == tracked(lambda: smith_normal_form(a))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from([ZZ, Zmod(4), Zmod(6), Zmod(12)]))
def test_presentations_match_full_tracking(rel, ring):
    got = normalize_presentation(ring, rel.rows, rel)
    assert got == tracked(lambda: normalize_presentation(ring, rel.rows, rel))


@settings(max_examples=300, deadline=None)
@given(matrices(min_rows=1), st.data())
def test_integer_solves_match_full_tracking(a, data):
    rhs = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=a.rows, max_size=a.rows),
                             min_size=1, max_size=3))
    # the kernel of [a | rhs] holds the integer solves of a x = -rhs
    aug = a.hstack(IntMatrix.from_columns(rhs, rows=a.rows))
    assert integer_kernel(aug) == tracked(lambda: integer_kernel(aug))


def test_one_row_shapes():
    for a in (IntMatrix.from_rows([[0, 0, 0]]), IntMatrix.from_rows([[4, 6, 0, 10]]),
              IntMatrix.from_rows([[7]]), IntMatrix.zero(1, 0)):
        u, d, v, ui = FULL(a)
        assert _snf_full(a, left=False)[1:3] == (d, v)
        assert integer_kernel(a) == tracked(lambda: integer_kernel(a))
