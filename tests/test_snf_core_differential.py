"""The Smith core on plain lists and the kernel path on it, against the
bodies they replace.

``exactalg._snf_core`` keeps the old elimination's pivot sequence: the first
entry of least absolute value in row-major order, then the same row and
column steps, with the work that cannot change them skipped.
``helpers.snf_oracle`` is the old ``_SnfState``/``_snf_full`` verbatim, so
(u, d, v, u^-1) must agree bit for bit for every choice of tracked sides, on
matrices with planted zero rows and columns, negative entries, unit and
non-unit pivots, and in the two shapes the kernel path eliminates:
[F | E] (a map beside its target's relations) and [Y | n I] (relations
beside n times the identity).  ``modules._kernel_inclusion`` must equal the
old composition ``_sublattice_module(f.source, _kernel_generators(f))``
(``helpers.kernel_inclusion_oracle``) on random maps over Z/2 to Z/36 and
over Z, and on every map it receives during a slice of warm-checks.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from homkit import caches, complexes, lifting, modules, xclass
from homkit.exactalg import ZZ, IntMatrix, Zmod, _snf_full, integer_kernel
from homkit.lifting import dg_x_injective, eps1_perp_homotopy, x_injective_complex
from homkit.modules import FpModule, ModuleMap, _kernel_inclusion, normalize_presentation
from homkit.xclass import ALL

from .helpers import (
    integer_kernel_oracle,
    kernel_inclusion_oracle,
    presentation_oracle,
    snf_oracle,
)
from .test_cycle_blocks_differential import warm_slice

SIDES = [(True, True), (True, False), (False, True), (False, False)]


def grid_matrix(grid: list, cols: int) -> IntMatrix:
    return IntMatrix(len(grid), cols, tuple(map(tuple, grid)))


@st.composite
def grids(draw, max_rows=6, max_cols=7):
    """(rows as lists, column count): entries from a few magnitudes, with
    planted zero rows and columns, and either a planted unit or only
    multiples of 2 or 3, so that no pivot is a unit."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    entry = st.integers(-draw(st.sampled_from([2, 9, 40])), 9).map(lambda x: scale * x)
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if rows:
            grid[i] = [0] * cols
    for j in draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in grid:
            if cols:
                row[j] = 0
    if rows and cols and scale == 1 and draw(st.booleans()):
        unit = draw(st.sampled_from([1, -1]))
        grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = unit
    return grid, cols


@st.composite
def map_with_relations(draw):
    """[F | E]: a map's matrix F beside the relation columns E of its
    target's factors (zero factors give no column)."""
    grid, cols = draw(grids(max_rows=5, max_cols=5))
    factors = draw(st.lists(st.sampled_from([0, 2, 3, 4, 6, 12, 36]), min_size=len(grid),
                            max_size=len(grid)))
    nonzero = [i for i, d in enumerate(factors) if d]
    return [row + [factors[i] if i == k else 0 for k in nonzero]
            for i, row in enumerate(grid)], cols + len(nonzero)


@st.composite
def relations_with_modulus(draw):
    """[Y | n I]: relations beside n times the identity."""
    grid, cols = draw(grids(max_rows=5, max_cols=5))
    n = draw(st.integers(2, 36))
    k = len(grid)
    return [row + [n if j == i else 0 for j in range(k)] for i, row in enumerate(grid)], cols + k


def assert_matches_oracle(grid: list, cols: int) -> None:
    a = grid_matrix(grid, cols)
    for left, right in SIDES:
        assert _snf_full(a, left, right) == snf_oracle(a, left, right)
    assert integer_kernel(a) == integer_kernel_oracle(a)


@settings(max_examples=400, deadline=None)
@given(grids())
def test_the_core_matches_the_oracle(case):
    assert_matches_oracle(*case)


@settings(max_examples=200, deadline=None)
@given(map_with_relations())
def test_maps_beside_their_relations_match_the_oracle(case):
    assert_matches_oracle(*case)


@settings(max_examples=200, deadline=None)
@given(relations_with_modulus())
def test_relations_beside_the_modulus_match_the_oracle(case):
    assert_matches_oracle(*case)


@settings(max_examples=200, deadline=None)
@given(grids(max_rows=5, max_cols=6), st.sampled_from([ZZ, Zmod(2), Zmod(12), Zmod(36)]))
def test_presentations_match_the_oracle(case, ring):
    rel = grid_matrix(*case)
    assert normalize_presentation(ring, rel.rows, rel) == presentation_oracle(ring, rel.rows, rel)


@pytest.mark.parametrize("rows", [
    [[0, -2, 2], [2, 2, -2]],           # every nonzero entry ties
    [[4, 6, 6], [6, -4, 4], [6, 4, 9]],  # ties in one row and across rows
    [[3, 5, -1], [1, 7, 2]],            # a -1 in the first row before a 1 in the second
    [[0, 0], [0, 0], [-1, 1]],          # the first rows empty
])
def test_ties_go_to_the_first_least_entry(rows):
    a = IntMatrix.from_rows(rows)
    for left, right in SIDES:
        assert _snf_full(a, left, right) == snf_oracle(a, left, right)


# -- the kernel path --------------------------------------------------------

def divisor_chain(draw, n: int) -> tuple:
    """Invariant factors of a module over Z/n (n > 0), or over Z (n == 0)."""
    if n == 0:
        torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4), (2, 6), (6, 12)]))
        return torsion + (0,) * draw(st.integers(0, 2))
    chain, last = [], 1
    for _ in range(draw(st.integers(0, 3))):
        options = [d for d in range(2, n + 1) if n % d == 0 and d % last == 0]
        if not options:
            break
        last = draw(st.sampled_from(options))
        chain.append(last)
    return tuple(chain)


@st.composite
def module_maps(draw):
    n = draw(st.sampled_from([0] + list(range(2, 37))))
    ring = Zmod(n) if n else ZZ
    source = FpModule(ring, divisor_chain(draw, n))
    target = FpModule(ring, divisor_chain(draw, n))
    rows = []
    for e in target.factors:
        row = []
        for d in source.factors:
            # the least multiple x with d * x dying in R/(e)
            step = e // math.gcd(d, e) if e else (0 if d else 1)
            row.append(step * draw(st.integers(-6, 6)))
        rows.append(row)
    return ModuleMap(source, target, IntMatrix(target.ngens, source.ngens, tuple(map(tuple, rows))))


@settings(max_examples=400, deadline=None)
@given(module_maps())
def test_kernel_inclusions_match_the_old_composition(f):
    assert _kernel_inclusion(f) == kernel_inclusion_oracle(f)


@pytest.mark.parametrize("n", [4, 6])
def test_kernel_inclusions_of_a_warm_checks_slice_match(n, monkeypatch):
    seen = []

    def compared(f):
        got = _kernel_inclusion(f)
        assert got == kernel_inclusion_oracle(f)
        seen.append(f)
        return got

    for mod in (modules, complexes, xclass, lifting):
        monkeypatch.setattr(mod, "_kernel_inclusion", compared)
    caches.clear_caches()
    cu, eu, mu, inputs = warm_slice(n)
    for c in inputs:
        x_injective_complex(c, ALL, cu, keep_witnesses=True)
        eps1_perp_homotopy(c, eu, keep_witnesses=True)
        dg_x_injective(c, ALL, eu, mu=mu, keep_witnesses=True)
    caches.clear_caches()
    # the checks reach the kernel path hundreds of times, on maps with
    # kernels and without
    assert len(seen) > 100
    assert any(f.source.ngens and _kernel_inclusion(f)[0].is_zero() for f in seen)
    assert any(not _kernel_inclusion(f)[0].is_zero() for f in seen)
