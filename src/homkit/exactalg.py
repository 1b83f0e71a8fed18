"""Exact integer and modular matrix arithmetic.

Smith normal form over Z, Howell canonical form over Z/n, and exact
linear-system solving over both rings.  Everything runs on plain Python
integers (arbitrary precision), matrices are immutable tuples of tuples,
and all functions are pure, so the whole module is thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class ExactAlgError(ValueError):
    """Raised for dimension mismatches and unsupported ring arguments."""


@dataclass(frozen=True)
class RingSpec:
    """Coefficient ring: the integers when ``modulus == 0``, else Z/modulus."""

    modulus: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 0 or self.modulus == 1:
            raise ExactAlgError(f"modulus must be 0 (meaning Z) or >= 2, got {self.modulus}")

    @property
    def is_modular(self) -> bool:
        return self.modulus != 0

    def reduce(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def __str__(self) -> str:
        return f"Z/{self.modulus}" if self.modulus else "Z"


ZZ = RingSpec(0)


def Zmod(n: int) -> RingSpec:
    return RingSpec(n)


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Immutable integer matrix; ``entries[i][j]`` is row i, column j."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ExactAlgError("entry grid does not match declared shape")

    @staticmethod
    def from_rows(rows_data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows_data = [tuple(int(x) for x in r) for r in rows_data]
        if rows_data:
            ncols = len(rows_data[0])
        else:
            if cols is None:
                raise ExactAlgError("empty matrix needs an explicit column count")
            ncols = cols
        return IntMatrix(len(rows_data), ncols, tuple(rows_data))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def column(vec: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(vec), 1, tuple((int(x),) for x in vec))

    @staticmethod
    def from_columns(cols_data: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if cols_data:
            nrows = len(cols_data[0])
        else:
            if rows is None:
                raise ExactAlgError("empty matrix needs an explicit row count")
            nrows = rows
        return IntMatrix(nrows, len(cols_data),
                         tuple(tuple(int(c[i]) for c in cols_data) for i in range(nrows)))

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ExactAlgError("hstack: row counts differ")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(self.entries[i] + other.entries[i] for i in range(self.rows)))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ExactAlgError("vstack: column counts differ")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactAlgError("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(c * x for x in r) for r in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ExactAlgError(f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                               for row in self.entries))

    def reduce_mod(self, n: int) -> "IntMatrix":
        if n == 0:
            return self
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(x % n for x in r) for r in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def to_lists(self) -> list:
        return [list(r) for r in self.entries]


def _gcdex(a: int, b: int):
    """Extended gcd data: (g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0
    and s*v - t*u = 1, so the 2x2 transform is unimodular."""
    if a == 0 and b == 0:
        return 0, 1, 0, 0, 1
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    g = old_r
    if g < 0:
        g, old_s, old_t = -g, -old_s, -old_t
    u, v = -(b // g), a // g
    return g, old_s, old_t, u, v


def det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ExactAlgError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

class _SnfState:
    """Mutable elimination state tracking u and its inverse (``left``) and v
    (``right``); an untracked transform is None and costs nothing."""

    def __init__(self, a: IntMatrix, left: bool, right: bool):
        self.m = [list(r) for r in a.entries]
        self.R, self.C = a.rows, a.cols
        eye = lambda n: [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        self.u = eye(self.R) if left else None
        self.ui = eye(self.R) if left else None
        self.v = eye(self.C) if right else None

    # row ops act on m and u on the left; ui absorbs the inverse on the right
    def row_swap(self, i, j):
        self.m[i], self.m[j] = self.m[j], self.m[i]
        if self.u is not None:
            self.u[i], self.u[j] = self.u[j], self.u[i]
            for r in self.ui:
                r[i], r[j] = r[j], r[i]

    def row_add(self, i, j, c):
        # row_i += c * row_j
        self.m[i] = [x + c * y for x, y in zip(self.m[i], self.m[j])]
        if self.u is not None:
            self.u[i] = [x + c * y for x, y in zip(self.u[i], self.u[j])]
            for r in self.ui:
                r[j] -= c * r[i]

    def row_neg(self, i):
        self.m[i] = [-x for x in self.m[i]]
        if self.u is not None:
            self.u[i] = [-x for x in self.u[i]]
            for r in self.ui:
                r[i] = -r[i]

    def col_swap(self, i, j):
        for r in self.m:
            r[i], r[j] = r[j], r[i]
        for r in self.v or ():
            r[i], r[j] = r[j], r[i]

    def col_add(self, j, k, c):
        # col_j += c * col_k
        for r in self.m:
            r[j] += c * r[k]
        for r in self.v or ():
            r[j] += c * r[k]

    def col_neg(self, j):
        for r in self.m:
            r[j] = -r[j]
        for r in self.v or ():
            r[j] = -r[j]


def _snf_full(a: IntMatrix, left: bool = True, right: bool = True):
    """Return (u, d, v, u_inv) with u*a*v = d in Smith normal form.

    u and u_inv are tracked only when ``left`` and v only when ``right``;
    an untracked transform is returned as None.  The pivot sequence reads
    only the working matrix, so d and every tracked transform are the same
    whatever is left out."""
    st = _SnfState(a, left, right)
    m, R, C = st.m, st.R, st.C
    t = 0
    while True:
        # locate a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, R):
            for j in range(t, C):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        st.row_swap(t, pivot[0])
        st.col_swap(t, pivot[1])
        if m[t][t] < 0:
            st.row_neg(t)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, R):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    st.row_add(i, t, -q)
                    if m[i][t] != 0:
                        st.row_swap(t, i)
                        if m[t][t] < 0:
                            st.row_neg(t)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, C):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    st.col_add(j, t, -q)
                    if m[t][j] != 0:
                        st.col_swap(t, j)
                        if m[t][t] < 0:
                            st.col_neg(t)  # keep pivot positive after the swap
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            offender = None
            p = m[t][t]
            for i in range(t + 1, R):
                for j in range(t + 1, C):
                    if m[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            st.row_add(t, offender, 1)
        t += 1
    to_mat = lambda lst, r, c: None if lst is None else \
        IntMatrix(r, c, tuple(tuple(row) for row in lst))
    return to_mat(st.u, R, R), to_mat(m, R, C), to_mat(st.v, C, C), to_mat(st.ui, R, R)


def smith_normal_form(a: IntMatrix):
    """Smith normal form over Z.

    Returns ``(u, d, v)`` with ``u @ a @ v == d``, u and v unimodular, and d
    diagonal with nonnegative entries satisfying d1 | d2 | ... .
    """
    u, d, v, _ = _snf_full(a)
    return u, d, v


def integer_kernel(a: IntMatrix) -> list:
    """Columns generating {x in Z^cols : a @ x = 0} (a lattice basis)."""
    _, d, v, _ = _snf_full(a, left=False)
    gens = []
    for j in range(a.cols):
        dj = d.entries[j][j] if j < min(a.rows, a.cols) else 0
        if dj == 0:
            gens.append(v.col(j))
    return gens


def _hermite_insert(basis: dict, row: list):
    """Insert a row into a column-indexed echelon basis over Z."""
    r = list(row)
    while True:
        lead = None
        for j, x in enumerate(r):
            if x != 0:
                lead = j
                break
        if lead is None:
            return
        if lead in basis:
            p = basis[lead]
            g, s, t, uu, vv = _gcdex(p[lead], r[lead])
            newp = [s * x + t * y for x, y in zip(p, r)]
            newr = [uu * x + vv * y for x, y in zip(p, r)]
            basis[lead] = newp
            r = newr
        else:
            if r[lead] < 0:
                r = [-x for x in r]
            basis[lead] = r
            return


def hermite_rows(rows: Iterable[Sequence[int]], cols: int) -> list:
    """Canonical row Hermite form of the lattice spanned by ``rows``."""
    basis: dict = {}
    for row in rows:
        _hermite_insert(basis, list(row))
    pivots = sorted(basis)
    out = [basis[j] for j in pivots]
    # reduce entries above each pivot, sweeping pivot columns left to right
    # (a later reduction never disturbs an earlier pivot column)
    for idx in range(len(pivots)):
        j = pivots[idx]
        p = out[idx][j]
        for k in range(idx):
            q = out[k][j] // p
            if q:
                out[k] = [x - q * y for x, y in zip(out[k], out[idx])]
    return out


# ---------------------------------------------------------------------------
# Howell form over Z/n
# ---------------------------------------------------------------------------

def _unit_scaling(p: int, n: int) -> int:
    """A unit c mod n with c*p == gcd(p, n) mod n."""
    p %= n
    if p == 0:
        return 1
    g = math.gcd(p, n)
    pbar, nbar = p // g, n // g
    c = pow(pbar, -1, nbar) if nbar > 1 else 1
    t = 0
    while math.gcd(c + t * nbar, n) != 1:
        t += 1
    return (c + t * nbar) % n


def _howell_insert(basis: dict, row: list, n: int):
    """Phase-1 insertion: keep a triangular basis, preserving the row span."""
    r = [x % n for x in row]
    while True:
        lead = None
        for j, x in enumerate(r):
            if x != 0:
                lead = j
                break
        if lead is None:
            return
        if lead in basis:
            p = basis[lead]
            g, s, t, uu, vv = _gcdex(p[lead], r[lead])
            newp = [(s * x + t * y) % n for x, y in zip(p, r)]
            newr = [(uu * x + vv * y) % n for x, y in zip(p, r)]
            basis[lead] = newp
            r = newr
        else:
            basis[lead] = r
            return


def _howell_basis(rows: Iterable[Sequence[int]], cols: int, n: int) -> list:
    basis: dict = {}
    for row in rows:
        _howell_insert(basis, list(row), n)
    # closure: annihilator multiples only create content to the right,
    # so one left-to-right sweep suffices
    for j in range(cols):
        if j in basis:
            p = basis[j][j]
            ann = n // math.gcd(p, n)
            if ann % n != 0:
                w = [(ann * x) % n for x in basis[j]]
                w[j] = 0
                _howell_insert(basis, w, n)
    pivots = sorted(basis)
    out = []
    for j in pivots:
        row = basis[j]
        c = _unit_scaling(row[j], n)
        out.append([(c * x) % n for x in row])
    for idx in range(len(pivots)):
        j = pivots[idx]
        p = out[idx][j]
        for k in range(idx):
            q = out[k][j] // p
            if q:
                out[k] = [(x - q * y) % n for x, y in zip(out[k], out[idx])]
    return out


def howell_form(a: IntMatrix, ring: RingSpec) -> IntMatrix:
    """Howell canonical form of the row span of ``a`` over Z/n.

    The result has the same shape as ``a`` (canonical rows first, zero rows
    padded below), preserves the row span exactly, and is idempotent.  Plain
    echelon forms do not determine row spans over Z/n; the Howell form does.
    """
    if not ring.is_modular:
        raise ExactAlgError("howell_form requires a modular ring; use smith_normal_form over Z")
    n = ring.modulus
    out = _howell_basis([list(r) for r in a.entries], a.cols, n)
    # annihilator rows can push the basis past the input row count, so pad
    # only up to whichever is larger; the result is still idempotent
    while len(out) < a.rows:
        out.append([0] * a.cols)
    return IntMatrix.from_rows(out, cols=a.cols)


def _howell_reduce_vector(vec: list, basis: list, n: int) -> list:
    """Canonical coset representative of vec modulo the span of a Howell basis."""
    x = [v % n for v in vec]
    for row in basis:
        lead = None
        for j, e in enumerate(row):
            if e != 0:
                lead = j
                break
        if lead is None:
            continue
        q = x[lead] // row[lead]
        if q:
            x = [(a - q * b) % n for a, b in zip(x, row)]
    return x


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _factorize(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _val(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _eliminate_local(rows: list, p: int, k: int):
    """One valuation-pivoted elimination of A over Z/p^k, kept for any number
    of right-hand sides given then or later.

    Pivots are chosen with minimal p-adic valuation (ties broken by column,
    then row), and only not-yet-pivoted rows are cleared: an unused row's
    entries all have valuation >= the current pivot exponent, so the clearing
    division is exact.  A pivot row is never touched again, which keeps every
    entry of pivot row t at valuation >= e_t; back-substitution in reverse
    pivot order is therefore exact as well.

    Returns ``(solve, kernel generators)``.  ``solve(rhs_cols)`` replays the
    recorded row operations, in the order they were applied, on all
    right-hand sides at once and back-substitutes through the reduced pivot
    rows; ``solve(rhs_cols)[c]`` is None when column c has no solution.
    """
    q = p ** k
    m = [[x % q for x in row] for row in rows]
    nrows, ncols = len(m), (len(m[0]) if m else 0)
    used = [False] * nrows
    pivots = []  # (row, col, exponent) in processing order; exponents nondecreasing
    ops = []     # (pivot row, inverse unit, [(cleared row, multiple), ...]) per pivot
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
                break  # a unit pivot in the leftmost eligible column is optimal
        if best is None:
            break
        e, j, i = best
        used[i] = True
        unit = (m[i][j] // (p ** e)) % q
        inv = pow(unit, -1, q)
        m[i] = [(inv * x) % q for x in m[i]]
        pivots.append((i, j, e))
        pe = p ** e
        clears = []
        for i2 in range(nrows):
            if used[i2] or m[i2][j] == 0:
                continue
            c = m[i2][j] // pe
            m[i2] = [(x - c * y) % q for x, y in zip(m[i2], m[i])]
            clears.append((i2, c))
        ops.append((i, inv, clears))
    unused = [i for i in range(nrows) if not used[i]]

    def fill(x, rhs_by_pivot, upto):
        # fill pivot coordinates upto..0 in reverse processing order
        for t in range(upto, -1, -1):
            i, j, e = pivots[t]
            s = (rhs_by_pivot[t] - sum(m[i][c] * x[c] for c in range(ncols) if c != j)) % q
            pe = p ** e
            if s % pe != 0:
                return None
            x[j] = (s // pe) % (p ** (k - e))
        return x

    def solve(rhs_cols: list) -> list:
        b = [[col[i] % q for col in rhs_cols] for i in range(nrows)]
        for i, inv, clears in ops:
            b[i] = [(inv * x) % q for x in b[i]]
            for i2, c in clears:
                b[i2] = [(x - c * y) % q for x, y in zip(b[i2], b[i])]
        return [None if any(b[i][c] for i in unused) else
                fill([0] * ncols, [b[i][c] for i, _, _ in pivots], len(pivots) - 1)
                for c in range(len(rhs_cols))]

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
    return solve, gens


def _eliminate_mod(rows: list, n: int):
    """One elimination per prime power of n of A (at least one row) over
    Z/n, with the CRT coefficients that combine them.  Returns ``(solve,
    Howell kernel rows)``; ``solve(rhs_cols)[c]`` is None when column c has
    no solution, and otherwise the canonical (lexicographically least)
    representative of its coset modulo the kernel."""
    ncols = len(rows[0])
    local_solves = []
    gens = []
    for p, k in _factorize(n):
        q = p ** k
        rest = n // q
        coeff = 1 if rest == 1 else (rest * pow(rest % q, -1, q)) % n
        local_solve, local_gens = _eliminate_local(rows, p, k)
        local_solves.append((coeff, local_solve))
        gens.extend([(coeff * x) % n for x in g] for g in local_gens)
    basis = _howell_basis(gens, ncols, n)

    def solve(rhs_cols: list) -> list:
        # CRT-combine the local solutions
        parts = [[0] * ncols for _ in rhs_cols]
        for coeff, local_solve in local_solves:
            parts = [None if part is None or local is None else
                     [(a + coeff * b) % n for a, b in zip(part, local)]
                     for part, local in zip(parts, local_solve(rhs_cols))]
        return [None if part is None else _howell_reduce_vector(part, basis, n)
                for part in parts]

    return solve, basis


def _hermite_reduce(x: list, basis: list) -> list:
    """Canonical representative of x modulo the span of a Hermite basis."""
    for row in basis:
        lead = next(j for j, e in enumerate(row) if e != 0)
        q = x[lead] // row[lead]
        if q:
            x = [a - q * b for a, b in zip(x, row)]
    return x


def _eliminate_int(rows: list):
    """One Smith normal form u A v = d of A (at least one row) over Z.
    Returns ``(solve, kernel generators)``; ``solve(rhs_cols)[c]`` is column
    c's particular solution, not reduced, or None when it has none."""
    ncols = len(rows[0])
    a = IntMatrix.from_rows(rows, cols=ncols)
    u, d, v, _ = _snf_full(a)
    diag = [d.entries[i][i] if i < min(a.rows, ncols) else 0
            for i in range(max(a.rows, ncols))]

    def particular(rhs):
        c = [sum(u.entries[i][t] * rhs[t] for t in range(a.rows)) for i in range(a.rows)]
        z = [0] * ncols
        for i in range(a.rows):
            if diag[i] != 0:
                if c[i] % diag[i] != 0:
                    return None
                z[i] = c[i] // diag[i]
            elif c[i] != 0:
                return None
        return [sum(v.entries[i][j] * z[j] for j in range(ncols)) for i in range(ncols)]

    return (lambda rhs_cols: [particular(rhs) for rhs in rhs_cols]), \
        [list(v.col(j)) for j in range(ncols) if diag[j] == 0]


def solve_linear(a: IntMatrix, b: IntMatrix, ring: RingSpec):
    """Solve ``a @ x = b`` over the ring, all columns of b in one elimination.

    Returns ``(particular, kernel)`` where ``particular`` is an
    ``a.cols x b.cols`` matrix (or None when some column is unsolvable) and
    ``kernel`` is a matrix whose columns generate {v : a @ v = 0}.  The
    particular solution is canonical: each column is reduced to the
    distinguished representative of its solution coset, so repeated runs give
    identical answers.
    """
    if a.rows != b.rows:
        raise ExactAlgError(f"dimension mismatch: a has {a.rows} rows, b has {b.rows}")
    system = CongruenceSystem(ring, a.cols)
    for row in a.entries:
        system.add(dict(enumerate(row)), 0, ring.modulus)
    parts, kern = system.solve_columns(b.columns())
    kernel = IntMatrix.from_columns(kern, rows=a.cols)
    if any(part is None for part in parts):
        return None, kernel
    return IntMatrix.from_columns(parts, rows=a.cols), kernel


class CongruenceSystem:
    """Accumulates rows  sum_i coeff_i * x_i = rhs (mod m)  and solves them.

    Over Z/n every row modulus m must divide n and the row is rescaled by n/m;
    over Z a modulus m > 0 adds one auxiliary unknown with coefficient m, and
    m == 0 means exact equality.  Solving projects auxiliaries away and
    returns canonical particular solutions plus kernel generators for the
    real unknowns.  ``factor`` eliminates the coefficient rows once into a
    record that solves any number of right-hand sides, then or later
    ("factor once, solve many"); ``solve_columns`` and ``solve`` are its
    many- and one-column uses.
    """

    def __init__(self, ring: RingSpec, nvars: int):
        self.ring = ring
        self.nvars = nvars
        self._rows: list = []
        self._rhs: list = []
        self._mods: list = []

    def add(self, coeffs: dict, rhs: int, modulus: int) -> None:
        self._rows.append(dict(coeffs))
        self._rhs.append(rhs)
        self._mods.append(modulus)

    def solve(self):
        """The canonical particular solution for the right-hand sides given
        to ``add`` plus kernel generators, or ``(None, None)``."""
        parts, kern = self.solve_columns([self._rhs])
        return (None, None) if parts[0] is None else (parts[0], kern)

    def solve_columns(self, columns: Sequence[Sequence[int]]):
        """Solve the rows once for each right-hand side in ``columns`` (one
        value per added row, in order; the values given to ``add`` are not
        read).  Returns ``(particulars, kernel)``: ``particulars[c]`` is the
        canonical solution for column c, or None when it has none."""
        return self.factor().solve_columns(columns)

    def factor(self) -> "_FactoredSystem":
        """One elimination of the rows added so far (their right-hand sides
        are not read), as a record whose ``solve_columns`` answers as this
        system's would, for any columns and as often as asked."""
        nvars, n = self.nvars, self.ring.modulus
        if not self._rows:
            # no constraints: zero solves every column and the kernel is everything
            return _FactoredSystem(0, lambda columns: (
                [[0] * nvars for _ in columns],
                [[int(i == j) for j in range(nvars)] for i in range(nvars)]))
        if self.ring.is_modular:
            rows = []
            scales = []
            for coeffs, m in zip(self._rows, self._mods):
                if m == 0 or n % m != 0:
                    raise ExactAlgError(f"row modulus {m} does not divide ring modulus {n}")
                scale = n // m
                row = [0] * nvars
                for var, c in coeffs.items():
                    row[var] = (row[var] + scale * c) % n
                rows.append(row)
                scales.append(scale)
            solve, basis = _eliminate_mod(rows, n)
            kernel = [g for g in basis if any(g)]
            return _FactoredSystem(len(rows), lambda columns: (
                solve([[(s * r) % n for s, r in zip(scales, col)] for col in columns]),
                [list(g) for g in kernel]))
        # over Z: auxiliary unknowns absorb the moduli
        naux = sum(1 for m in self._mods if m > 0)
        total = nvars + naux
        rows = []
        aux = nvars
        for coeffs, m in zip(self._rows, self._mods):
            row = [0] * total
            for var, c in coeffs.items():
                row[var] += c
            if m > 0:
                row[aux] = m
                aux += 1
            rows.append(row)
        solve, kern = _eliminate_int(rows)
        gens = [g[:nvars] for g in kern]
        basis = hermite_rows([g for g in gens if any(g)], nvars)
        return _FactoredSystem(len(rows), lambda columns: (
            [None if part is None else _hermite_reduce(part[:nvars], basis)
             for part in solve([list(col) for col in columns])],
            [list(g) for g in basis]))


class _FactoredSystem:
    """A ``CongruenceSystem`` after its one elimination.  ``solve_columns``
    replays it on new right-hand sides; it never changes the elimination
    and every list it returns is new, so one record serves every later solve
    of the same rows."""

    __slots__ = ("nrows", "_solve")

    def __init__(self, nrows: int, solve):
        self.nrows = nrows
        self._solve = solve

    def solve_columns(self, columns: Sequence[Sequence[int]]):
        """``(particulars, kernel)`` for right-hand sides of one value per
        row, as ``CongruenceSystem.solve_columns``."""
        if any(len(col) != self.nrows for col in columns):
            raise ExactAlgError(f"right-hand sides need {self.nrows} values")
        return self._solve(columns)
