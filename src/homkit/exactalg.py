"""Exact integer and modular matrix arithmetic.

Smith normal form over Z, and one echelon routine, the Howell form over
Z/n and the Hermite form over Z, through which every linear system over
either ring is solved.  Everything runs on plain Python integers
(arbitrary precision), matrices are immutable tuples of tuples, and all
functions are pure, so the whole module is thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, mul
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
        if len(self.entries) != self.rows or \
                list(map(len, self.entries)).count(self.cols) != self.rows:
            raise ExactAlgError("entry grid does not match declared shape")

    @staticmethod
    def from_rows(rows_data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows_data = [tuple(map(int, r)) for r in rows_data]
        if rows_data:
            ncols = len(rows_data[0])
        else:
            if cols is None:
                raise ExactAlgError("empty matrix needs an explicit column count")
            ncols = cols
        return IntMatrix(len(rows_data), ncols, tuple(rows_data))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def column(vec: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(vec), 1, tuple((int(x),) for x in vec))

    @staticmethod
    def from_columns(cols_data: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols_data = [tuple(map(int, c)) for c in cols_data]
        if cols_data:
            nrows = len(cols_data[0])
        else:
            if rows is None:
                raise ExactAlgError("empty matrix needs an explicit row count")
            nrows = rows
        if list(map(len, cols_data)).count(nrows) != len(cols_data):
            raise ExactAlgError("columns of different lengths")
        return IntMatrix(nrows, len(cols_data), _zip_rows(cols_data, nrows))

    def col(self, j: int) -> tuple:
        return tuple(map(itemgetter(j), self.entries))

    def columns(self) -> list:
        return list(_zip_rows(self.entries, self.cols))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, _zip_rows(self.entries, self.cols))

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
        cols = _zip_rows(other.entries, other.cols)
        return IntMatrix(self.rows, other.cols,
                         tuple([tuple([sum(map(mul, row, col)) for col in cols])
                                for row in self.entries]))

    def reduce_mod(self, n: int) -> "IntMatrix":
        if n == 0:
            return self
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(x % n for x in r) for r in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def to_lists(self) -> list:
        return [list(r) for r in self.entries]


def _zip_rows(lines: Sequence[tuple], n: int) -> tuple:
    """The transpose of ``lines``, equal-length tuples, as n tuples: ``zip``
    alone gives none when there are no lines to read them from."""
    return tuple(zip(*lines)) if lines else ((),) * n


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


# ---------------------------------------------------------------------------
# Echelon forms: Howell over Z/n, Hermite over Z
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


def _lead(row: list) -> Optional[int]:
    for j, x in enumerate(row):
        if x:
            return j
    return None


def _mod(row: Sequence[int], n: int) -> list:
    """A new list of row's entries, reduced mod n when n > 0."""
    return [x % n for x in row] if n else list(row)


def _comb(a: int, u: list, b: int, v: list, n: int) -> list:
    """a*u + b*v, reduced mod n when n > 0."""
    if n:
        return [(a * x + b * y) % n for x, y in zip(u, v)]
    return [a * x + b * y for x, y in zip(u, v)]


def _echelon(rows: Iterable[Sequence[int]], cols: int, n: int) -> list:
    """The canonical echelon basis of the span of ``rows``: the Howell basis
    over Z/n when n > 1, the Hermite basis over Z when n == 0.

    Each lead is a divisor of n (positive over Z) and the entries above it
    are reduced below it.  Over Z/n the basis is closed under annihilator
    multiples, so for every column k the rows leading past k span all of
    the span that is zero up to k (Howell, "Spans in the module (Z_m)^s",
    1986); over Z every echelon basis has that property."""
    basis: dict = {}

    def insert(r: list) -> None:
        lead = _lead(r)
        while lead is not None:
            p = basis.get(lead)
            if p is None:
                basis[lead] = r
                return
            # a lead that divides r's clears it; otherwise the unimodular
            # gcd transform of the two rows takes the gcd as the lead
            q, rem = divmod(r[lead], p[lead])
            if rem:
                _, s, t, u, v = _gcdex(p[lead], r[lead])
                basis[lead], r = _comb(s, p, t, r, n), _comb(u, p, v, r, n)
            else:
                r = _comb(1, r, -q, p, n)
            lead = _lead(r)

    for row in rows:
        insert(_mod(row, n))
    if n:
        # annihilator multiples only create content to the right, so one
        # left-to-right sweep closes the basis
        for j in range(cols):
            if j in basis:
                ann = n // math.gcd(basis[j][j], n)
                if ann != n:
                    insert([(ann * x) % n for x in basis[j]])
    pivots = sorted(basis)
    out = []
    for j in pivots:
        row = basis[j]
        c = _unit_scaling(row[j], n) if n else (-1 if row[j] < 0 else 1)
        out.append(_mod([c * x for x in row], n))
    # reduce above each pivot, sweeping pivot columns left to right (a later
    # reduction never disturbs an earlier pivot column)
    for idx, j in enumerate(pivots):
        p = out[idx]
        for k in range(idx):
            q = out[k][j] // p[j]
            if q:
                out[k] = _comb(1, out[k], -q, p, n)
    return out


def _echelon_reduce(x: Sequence[int], basis: list, n: int) -> list:
    """The canonical representative of x modulo the span of an ``_echelon``
    basis (or of a leading run of its rows)."""
    x = _mod(x, n)
    for row in basis:
        lead = _lead(row)
        q = x[lead] // row[lead]
        if q:
            x = _comb(1, x, -q, row, n)
    return x


def howell_form(a: IntMatrix, ring: RingSpec) -> IntMatrix:
    """Howell canonical form of the row span of ``a`` over Z/n.

    The result has the same shape as ``a`` (canonical rows first, zero rows
    padded below), preserves the row span exactly, and is idempotent.  Plain
    echelon forms do not determine row spans over Z/n; the Howell form does.
    It is the form ``CongruenceSystem`` solves with, from the same routine.
    """
    if not ring.is_modular:
        raise ExactAlgError("howell_form requires a modular ring; use smith_normal_form over Z")
    n = ring.modulus
    out = _echelon(a.entries, a.cols, n)
    # annihilator rows can push the basis past the input row count, so pad
    # only up to whichever is larger; the result is still idempotent
    while len(out) < a.rows:
        out.append([0] * a.cols)
    return IntMatrix.from_rows(out, cols=a.cols)


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


def solve_linear(a: IntMatrix, b: IntMatrix, ring: RingSpec):
    """Solve ``a @ x = b`` over the ring, all columns of b from one echelon
    form of [a^T | I] (a ``CongruenceSystem`` with one row per row of a).

    Returns ``(particular, kernel)`` where ``particular`` is an
    ``a.cols x b.cols`` matrix (or None when some column is unsolvable) and
    ``kernel`` is a matrix whose columns are the canonical (Howell over
    Z/n, Hermite over Z) basis of {v : a @ v = 0}.  The particular solution
    is canonical: each column is reduced against that basis to the
    distinguished representative of its solution coset, so repeated runs
    give identical answers.
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
    over Z a modulus m > 0 is one more line (m e_r | 0) of the echelon form,
    and m == 0 means exact equality.  ``factor`` builds one echelon form of
    [A^T | I], the Howell form over Z/n and the Hermite form over Z, into a
    record that solves any number of right-hand sides, then or later
    ("factor once, solve many"); ``solve_columns`` and ``solve`` are its
    many- and one-column uses.  Solving returns canonical particular
    solutions plus the canonical kernel basis.
    """

    def __init__(self, ring: RingSpec, nvars: int):
        self.ring = ring
        self.nvars = nvars
        self._rows: list = []
        self._rhs: list = []
        self._mods: list = []

    def add(self, coeffs: dict, rhs: int, modulus: int) -> None:
        """Add the row  sum coeffs[i] * x_i = rhs (mod modulus): integer
        coefficients of unknowns in range(nvars), a modulus >= 0 and a
        right-hand side, an integer as every column ``solve_columns`` reads."""
        for var, c in coeffs.items():
            if not isinstance(var, int) or not 0 <= var < self.nvars:
                raise ExactAlgError(f"unknown {var!r} is not in range({self.nvars})")
            if not isinstance(c, int):
                raise ExactAlgError(f"coefficient {c!r} of unknown {var} is not an integer")
        if not isinstance(modulus, int) or modulus < 0:
            raise ExactAlgError(f"row modulus {modulus!r} is not an integer >= 0")
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
        """One echelon form of [A^T | I], a line per unknown, for the rows
        added so far (their right-hand sides are not read), as a record
        whose ``solve_columns`` answers as this system's would, for any
        columns and as often as asked.

        Over Z each row r with modulus m > 0 puts the line (m e_r | 0) ahead
        of the unknowns' lines, so the form spans {(A x + M y, x)}.  Its rows
        leading in the A-block reduce (-b, 0) to (0, x) with A x = b modulo
        the rows' moduli exactly when b has a solution; the rest are (0, k)
        with A k = 0 modulo them, the kernel's canonical basis, which
        reduces x to the canonical particular solution."""
        nvars, n, nrows = self.nvars, self.ring.modulus, len(self._rows)
        if n:
            for m in self._mods:
                if m == 0 or n % m != 0:
                    raise ExactAlgError(f"row modulus {m} does not divide ring modulus {n}")
            scales = [n // m for m in self._mods]
            lines = []
        else:
            scales = [1] * nrows
            lines = [[m if j == r else 0 for j in range(nrows + nvars)]
                     for r, m in enumerate(self._mods) if m]
        # line i: unknown i's coefficient in each row, then e_i
        unknowns = [[0] * nrows + [int(i == j) for j in range(nvars)] for i in range(nvars)]
        for r, (coeffs, s) in enumerate(zip(self._rows, scales)):
            for var, c in coeffs.items():
                unknowns[var][r] += s * c
        form = _echelon(lines + unknowns, nrows + nvars, n)
        split = next((k for k, row in enumerate(form) if not any(row[:nrows])), len(form))
        pivots = form[:split]
        kernel = [row[nrows:] for row in form[split:]]

        def solve(columns):
            parts = []
            for col in columns:
                x = _echelon_reduce([-s * b for s, b in zip(scales, col)] + [0] * nvars, pivots, n)
                parts.append(None if any(x[:nrows]) else _echelon_reduce(x[nrows:], kernel, n))
            return parts, [list(g) for g in kernel]

        return _FactoredSystem(nrows, solve)


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
        if any(len(col) != self.nrows for col in columns) or \
                not all(isinstance(v, int) for col in columns for v in col):
            raise ExactAlgError(f"right-hand sides need {self.nrows} integer values")
        return self._solve(columns)
