"""The multi-right-hand-side solvers against one solve per column.

``CongruenceSystem.solve_columns`` reads every column's solution off one
echelon form, and the record ``CongruenceSystem.factor`` returns keeps
doing so batch after batch.  ``old_solve_mod`` and ``old_solve_int`` below
are the single-column solvers that preceded them, built on the old
Hermite/Howell bases kept in ``helpers``: every column's particular
solution and the kernel basis must match them bit for bit, and a column
must be unsolvable exactly when the oracle says so.
"""
from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from homkit.exactalg import (
    ZZ,
    CongruenceSystem,
    IntMatrix,
    Zmod,
    _factorize,
    _snf_full,
    _val,
)
from homkit.modules import FpModule, MapSystem, ModuleMap

from .helpers import hermite_rows, howell_basis, howell_reduce_vector


def old_solve_local(rows, rhs, p, k):
    q = p ** k
    m = [[x % q for x in row] for row in rows]
    b = [x % q for x in rhs]
    nrows, ncols = len(m), (len(m[0]) if m else 0)
    used = [False] * nrows
    pivots = []
    while True:
        best = None
        for j in range(ncols):
            for i in range(nrows):
                if used[i] or m[i][j] == 0:
                    continue
                e = _val(m[i][j], p)
                if best is None or e < best[0]:
                    best = (e, j, i)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        e, j, i = best
        used[i] = True
        unit = (m[i][j] // (p ** e)) % q
        inv = pow(unit, -1, q)
        m[i] = [(inv * x) % q for x in m[i]]
        b[i] = (inv * b[i]) % q
        pivots.append((i, j, e))
        pe = p ** e
        for i2 in range(nrows):
            if used[i2] or m[i2][j] == 0:
                continue
            c = m[i2][j] // pe
            m[i2] = [(x - c * y) % q for x, y in zip(m[i2], m[i])]
            b[i2] = (b[i2] - c * b[i]) % q
    for i in range(nrows):
        if not used[i] and b[i] % q != 0:
            return None, None

    def fill(x, rhs_by_pivot, upto):
        for t in range(upto, -1, -1):
            i, j, e = pivots[t]
            s = (rhs_by_pivot[t] - sum(m[i][c] * x[c] for c in range(ncols) if c != j)) % q
            pe = p ** e
            if s % pe != 0:
                return None
            x[j] = (s // pe) % (p ** (k - e))
        return x

    part = fill([0] * ncols, [b[i] for i, _, _ in pivots], len(pivots) - 1)
    if part is None:
        return None, None
    zeros = [0] * len(pivots)
    gens = []
    for t0, (i0, j0, e0) in enumerate(pivots):
        if e0 == 0:
            continue
        x = [0] * ncols
        x[j0] = p ** (k - e0)
        gens.append(fill(x, zeros, t0 - 1))
    pivot_cols = {j for _, j, _ in pivots}
    for c in range(ncols):
        if c in pivot_cols:
            continue
        x = [0] * ncols
        x[c] = 1
        gens.append(fill(x, zeros, len(pivots) - 1))
    return part, gens


def old_solve_mod(rows, rhs, n):
    ncols = len(rows[0]) if rows else 0
    if not rows:
        basis = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
        return [0] * ncols, basis
    parts, genlists, mods = [], [], []
    for p, k in _factorize(n):
        part, gens = old_solve_local(rows, rhs, p, k)
        if part is None:
            return None, None
        parts.append(part)
        genlists.append(gens)
        mods.append(p ** k)
    part = [0] * ncols
    gens = []
    for idx, q in enumerate(mods):
        rest = n // q
        coeff = 1 if rest == 1 else (rest * pow(rest % q, -1, q)) % n
        part = [(a + coeff * b) % n for a, b in zip(part, parts[idx])]
        for g in genlists[idx]:
            gens.append([(coeff * x) % n for x in g])
    basis = howell_basis(gens, ncols, n)
    return howell_reduce_vector(part, basis, n), basis


def old_solve_int(rows, rhs):
    ncols = len(rows[0]) if rows else 0
    if not rows:
        basis = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
        return [0] * ncols, basis
    a = IntMatrix.from_rows(rows, cols=ncols)
    u, d, v, _ = _snf_full(a)
    c = [sum(u.entries[i][t] * rhs[t] for t in range(a.rows)) for i in range(a.rows)]
    z = [0] * ncols
    for i in range(a.rows):
        di = d.entries[i][i] if i < min(a.rows, ncols) else 0
        if di != 0:
            if c[i] % di != 0:
                return None, None
            z[i] = c[i] // di
        elif c[i] != 0:
            return None, None
    x = [sum(v.entries[i][j] * z[j] for j in range(ncols)) for i in range(ncols)]
    gens = []
    for j in range(ncols):
        dj = d.entries[j][j] if j < min(a.rows, ncols) else 0
        if dj == 0:
            gens.append(list(v.col(j)))
    basis = hermite_rows(gens, ncols)
    for row in basis:
        lead = next(j for j, e in enumerate(row) if e != 0)
        q = x[lead] // row[lead]
        if q:
            x = [a - q * b for a, b in zip(x, row)]
    return x, basis


def solve_mod_columns(rows, cols, n):
    """Every column's solution and the Howell kernel from one elimination
    of the rows over Z/n."""
    system = CongruenceSystem(Zmod(n), len(rows[0]))
    for row in rows:
        system.add(dict(enumerate(row)), 0, n)
    return system.solve_columns(cols)


@st.composite
def right_hand_sides(draw, rows, lo, hi):
    """A few right-hand sides for ``rows``: some random, some images of a
    random vector (solvable), always the zero column first."""
    r, c = len(rows), len(rows[0])
    cols = [[0] * r]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            cols.append([draw(st.integers(lo, hi)) for _ in range(r)])
        else:
            x = [draw(st.integers(lo, hi)) for _ in range(c)]
            cols.append([sum(a * b for a, b in zip(row, x)) for row in rows])
    return cols


@st.composite
def systems(draw, lo, hi):
    """Rows of a random system and a few right-hand sides for it."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [[draw(st.integers(lo, hi)) for _ in range(c)] for _ in range(r)]
    return rows, draw(right_hand_sides(rows, lo, hi))


def assert_matches_per_column(parts, basis, oracle):
    for col, part in zip(oracle, parts):
        want_part, want_basis = col
        assert part == want_part
        if want_part is not None:
            assert basis == want_basis
    # the zero column is always solvable, so the basis is always compared
    assert oracle[0][0] is not None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 9, 12, 36]), st.data())
def test_mod_columns_match_one_solve_per_column(n, data):
    rows, cols = data.draw(systems(-2 * n, 2 * n))
    parts, basis = solve_mod_columns(rows, cols, n)
    assert len(parts) == len(cols)
    assert_matches_per_column(parts, basis, [old_solve_mod(rows, col, n) for col in cols])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_int_columns_match_one_solve_per_column(data):
    rows, cols = data.draw(systems(-6, 6))
    system = CongruenceSystem(ZZ, len(rows[0]))
    for row in rows:
        system.add(dict(enumerate(row)), 0, 0)
    parts, basis = system.solve_columns(cols)
    assert len(parts) == len(cols)
    assert_matches_per_column(parts, basis, [old_solve_int(rows, col) for col in cols])


def solve_in_batches(ring, rows, batches, oracle):
    """Factor the rows once, solve each batch on the record and then the
    first batch again: every column must match ``oracle``.  Everything a
    solve returns is scribbled on before the next, which must not reach
    the record."""
    system = CongruenceSystem(ring, len(rows[0]))
    for row in rows:
        system.add(dict(enumerate(row)), 0, ring.modulus)
    record = system.factor()
    for batch in [*batches, batches[0]]:
        parts, basis = record.solve_columns(batch)
        assert len(parts) == len(batch)
        assert_matches_per_column(parts, basis, [oracle(col) for col in batch])
        for part in parts:
            if part:
                part[0] += 1
        for row in basis:
            row.append(1)
        basis.append([1])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 9, 12, 36]), st.data())
def test_a_mod_record_solves_batch_after_batch(n, data):
    rows, first = data.draw(systems(-2 * n, 2 * n))
    batches = [first] + [data.draw(right_hand_sides(rows, -2 * n, 2 * n)) for _ in range(2)]
    solve_in_batches(Zmod(n), rows, batches, lambda col: old_solve_mod(rows, col, n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_an_int_record_solves_batch_after_batch(data):
    rows, first = data.draw(systems(-6, 6))
    batches = [first] + [data.draw(right_hand_sides(rows, -6, 6)) for _ in range(2)]
    solve_in_batches(ZZ, rows, batches, lambda col: old_solve_int(rows, col))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([4, 6, 8, 12]), st.data())
def test_map_system_solve_each_matches_solve(n, data):
    # one unknown u: A -> B with L o u = rhs, for several rhs at once
    ring = Zmod(n)
    divisors = [d for d in range(2, n + 1) if n % d == 0]

    def module():
        factors = sorted(data.draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=2)))
        while any(b % a for a, b in zip(factors, factors[1:])):
            factors = factors[:-1]
        return FpModule(ring, tuple(factors))

    def some_map(src, tgt):
        entries = [[data.draw(st.integers(0, n - 1)) for _ in range(src.ngens)]
                   for _ in range(tgt.ngens)]
        # scale each entry into Hom(Z/dj, Z/di) so that the map is well defined
        for i, di in enumerate(tgt.factors):
            for j, dj in enumerate(src.factors):
                entries[i][j] *= di // math.gcd(di, dj)
        return ModuleMap(src, tgt, IntMatrix.from_rows(entries, cols=src.ngens))

    a, b, c = module(), module(), module()
    lmap = some_map(b, c)
    rhss = [some_map(a, c) for _ in range(data.draw(st.integers(1, 4)))]
    rhss.append(lmap.compose(some_map(a, b)))       # one that is solvable

    def system(rhs):
        ms = MapSystem(ring)
        ms.unknown("u", a, b)
        ms.equation([(lmap, "u", None, 1)], rhs, (a, c))
        return ms

    assert system(None).solve_each([[rhs] for rhs in rhss]) == \
        [system(rhs).solve() for rhs in rhss]
