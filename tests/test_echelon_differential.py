"""The one echelon form against the solvers and bases it replaced.

``CongruenceSystem.factor`` solves every system from one Howell (Z/n) or
Hermite (Z) form of [A^T | I], and ``_echelon`` is the one echelon routine
behind it, ``howell_form`` and ``modules.image_order``.  The old
valuation-pivoted solver with its CRT step, the Smith-form solver and the
twin Hermite/Howell helpers are kept in ``helpers`` as oracles: every
particular solution, every None and every kernel basis must match them bit
for bit, batch after batch on one record, and so must every basis, coset
representative and image order.  A negative control checks the answers
against the congruences themselves.
"""
from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from homkit import exactalg
from homkit.exactalg import (
    ZZ,
    CongruenceSystem,
    IntMatrix,
    Zmod,
    _echelon,
    _echelon_reduce,
    howell_form,
)
from homkit.modules import FpModule, ModuleMap, image_order

from .helpers import (
    hermite_reduce,
    hermite_rows,
    howell_basis,
    howell_reduce_vector,
    old_solve_columns,
)

MODULI = [2, 4, 6, 8, 9, 12, 16, 27, 36, 72]
Z_ROW_MODULI = [0, 2, 3, 4, 6, 9]


def divisors(n: int) -> list:
    return [d for d in range(2, n + 1) if n % d == 0]


def bound(n: int) -> int:
    return 2 * n if n else 6


@st.composite
def congruence_systems(draw):
    """``(ring, nvars, rows)`` with rows ``(coefficients, modulus)`` as given
    to ``add``: sparse rows with mixed moduli, in any shape, wide (more
    unknowns than rows) or tall, with no unknowns or no rows among them."""
    n = draw(st.sampled_from([0] + MODULI))
    shape = draw(st.sampled_from(["any", "wide", "tall"]))
    nvars, nrows = {"any": (draw(st.integers(0, 5)), draw(st.integers(0, 5))),
                    "wide": (draw(st.integers(5, 8)), draw(st.integers(1, 3))),
                    "tall": (draw(st.integers(1, 3)), draw(st.integers(5, 8)))}[shape]
    entry = st.integers(-bound(n), bound(n))
    moduli = st.sampled_from(divisors(n)) if n else st.sampled_from(Z_ROW_MODULI)
    rows = []
    for _ in range(nrows):
        used = draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars))
        rows.append(({j: draw(entry) for j in range(nvars) if used[j]}, draw(moduli)))
    return (Zmod(n) if n else ZZ), nvars, rows


def image_column(rows, x) -> list:
    return [sum(c * x[j] for j, c in coeffs.items()) for coeffs, _ in rows]


@st.composite
def columns(draw, ring, nvars, rows):
    """Right-hand sides: the zero column, then random ones and images A x
    (always solvable)."""
    entry = st.integers(-bound(ring.modulus), bound(ring.modulus))
    cols = [[0] * len(rows)]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            cols.append([draw(entry) for _ in rows])
        else:
            cols.append(image_column(rows, [draw(entry) for _ in range(nvars)]))
    return cols


def build(ring, nvars, rows) -> CongruenceSystem:
    system = CongruenceSystem(ring, nvars)
    for coeffs, m in rows:
        system.add(coeffs, 0, m)
    return system


@settings(max_examples=400, deadline=None)
@given(congruence_systems(), st.data())
def test_solve_columns_matches_the_old_solvers(system, data):
    ring, nvars, rows = system
    cols = data.draw(columns(ring, nvars, rows))
    assert build(ring, nvars, rows).solve_columns(cols) == \
        old_solve_columns(ring, nvars, rows, cols)


@settings(max_examples=250, deadline=None)
@given(congruence_systems(), st.data())
def test_a_record_matches_the_old_solvers_batch_after_batch(system, data):
    ring, nvars, rows = system
    batches = [data.draw(columns(ring, nvars, rows)) for _ in range(3)]
    record = build(ring, nvars, rows).factor()
    for batch in [*batches, batches[0]]:
        parts, kernel = record.solve_columns(batch)
        assert (parts, kernel) == old_solve_columns(ring, nvars, rows, batch)
        # scribbling on an answer must not reach the record
        for part in parts:
            if part:
                part[0] += 1
        for row in kernel:
            row.append(1)
        kernel.append([1])


def test_a_dense_system_over_z_is_one_echelon_pass(monkeypatch):
    # each positive row modulus m is a line (m e_r | 0) of the one echelon
    # form; posed as an auxiliary unknown it needed a second pass, and its
    # Hermite insertion let the entries of this system grow for seconds
    rng = random.Random(1)
    nvars, nrows = 10, 12
    rows = [({j: rng.randint(-9, 9) for j in range(nvars)}, rng.choice([0, 2, 3, 4, 6]))
            for _ in range(nrows)]
    cols = [[0] * nrows] + [[rng.randint(-9, 9) for _ in range(nrows)] for _ in range(3)] + \
        [image_column(rows, [rng.randint(-9, 9) for _ in range(nvars)]) for _ in range(2)]
    passes = []

    def counted(*args):
        passes.append(args)
        return _echelon(*args)

    monkeypatch.setattr(exactalg, "_echelon", counted)
    record = build(ZZ, nvars, rows).factor()
    assert len(passes) == 1
    assert record.solve_columns(cols) == old_solve_columns(ZZ, nvars, rows, cols)
    assert len(passes) == 1


def holds(rows, x, col) -> bool:
    """Every congruence sum c_j x_j = b (mod m) of ``rows`` holds."""
    for (coeffs, m), b, lhs in zip(rows, col, image_column(rows, x)):
        if (lhs - b) % m if m else lhs != b:
            return False
    return True


@settings(max_examples=400, deadline=None)
@given(congruence_systems(), st.data())
def test_every_image_column_is_solved_by_a_solution(system, data):
    # negative control: the answers are checked against the rows themselves
    ring, nvars, rows = system
    entry = st.integers(-bound(ring.modulus), bound(ring.modulus))
    cols = [image_column(rows, [data.draw(entry) for _ in range(nvars)]) for _ in range(3)]
    parts, kernel = build(ring, nvars, rows).solve_columns(cols)
    for part, col in zip(parts, cols):
        assert part is not None and holds(rows, part, col)
    zero = [0] * len(rows)
    assert all(holds(rows, k, zero) for k in kernel)


@st.composite
def row_lists(draw, n):
    cols = draw(st.integers(0, 6))
    entry = st.integers(-bound(n), bound(n))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=7))
    return rows, cols, [draw(entry) for _ in range(cols)]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([0] + MODULI), st.data())
def test_echelon_matches_the_old_hermite_and_howell_bases(n, data):
    rows, cols, vec = data.draw(row_lists(n))
    basis = _echelon(rows, cols, n)
    if n:
        assert basis == howell_basis(rows, cols, n)
        assert _echelon_reduce(vec, basis, n) == howell_reduce_vector(vec, basis, n)
    else:
        assert basis == hermite_rows(rows, cols)
        assert _echelon_reduce(vec, basis, n) == hermite_reduce(list(vec), basis)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODULI), st.data())
def test_howell_form_matches_the_old_basis(n, data):
    rows, cols, _ = data.draw(row_lists(n))
    old = howell_basis(rows, cols, n)
    old += [[0] * cols] * (len(rows) - len(old))
    assert howell_form(IntMatrix.from_rows(rows, cols=cols), Zmod(n)) == \
        IntMatrix.from_rows(old, cols=cols)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODULI), st.data())
def test_image_order_matches_the_old_basis(n, data):
    ring = Zmod(n)
    factors = sorted(data.draw(st.lists(st.sampled_from(divisors(n)), min_size=1, max_size=3)))
    while any(b % a for a, b in zip(factors, factors[1:])):
        factors.pop()
    target = FpModule(ring, tuple(factors))
    k = data.draw(st.integers(0, 4))
    entries = [[data.draw(st.integers(0, n - 1)) for _ in range(k)] for _ in factors]
    f = ModuleMap(FpModule(ring, (n,) * k), target, IntMatrix.from_rows(entries, cols=k))
    cols = [[n // e * x % n for e, x in zip(factors, col)] for col in f.matrix.columns()]
    want = math.prod(n // next(x for x in row if x) for row in howell_basis(cols, len(factors), n))
    assert image_order(f.target, f.matrix) == want
