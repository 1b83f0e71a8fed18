"""Exact integer and modular matrix arithmetic.

Smith normal form over Z, and one echelon routine, the Howell form over
Z/n and the Hermite form over Z, through which every linear system over
either ring is solved.  Everything runs on plain Python integers
(arbitrary precision), matrices are immutable tuples of tuples, and all
functions are pure, so the whole module is thread-safe.
"""
from __future__ import annotations

import math
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from .values import Frozen


class ExactAlgError(ValueError):
    """Raised for dimension mismatches and unsupported ring arguments."""


class RingSpec(Frozen):
    """Coefficient ring: the integers when ``modulus == 0``, else Z/modulus."""

    _fields = ("modulus",)

    def __init__(self, modulus: int = 0) -> None:
        object.__setattr__(self, "modulus", modulus)
        if modulus < 0 or modulus == 1:
            raise ExactAlgError(f"modulus must be 0 (meaning Z) or >= 2, got {modulus}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.modulus == other.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus,))

    @property
    def is_modular(self) -> bool:
        return self.modulus != 0

    def __str__(self) -> str:
        return f"Z/{self.modulus}" if self.modulus else "Z"


ZZ = RingSpec(0)


def Zmod(n: int) -> RingSpec:
    return RingSpec(n)


class IntMatrix(Frozen):
    """Immutable integer matrix; ``entries[i][j]`` is row i, column j."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        if len(entries) != rows or list(map(len, entries)).count(cols) != rows:
            raise ExactAlgError("entry grid does not match declared shape")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

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

# the most bits an entry of ``_snf_core``'s pivot row may have when its
# stage starts: a working matrix whose entries grow past it is refused, not
# reduced on for minutes.  Every row operation adds a multiple of a pivot
# row, so a growth that lasts shows in some stage's pivot row.
_SNF_ENTRY_BITS = 8192


class EntrySizeCapError(ExactAlgError):
    """Raised when a pivot stage of a Smith normal form starts with an entry
    of more than ``_SNF_ENTRY_BITS`` bits in its pivot row."""


def _snf_core(m: list, cols: int, left: bool = True, right: bool = True) -> tuple:
    """Smith normal form of the matrix a whose rows are the lists ``m``,
    with ``cols`` columns, reduced in place: returns (u, d, v, u^-1) as
    lists, d being m, with u*a*v = d; u is a list of rows, and v and u^-1,
    which only ever take column operations, are lists of their columns.

    u and u^-1 are tracked only when ``left`` and v only when ``right``; an
    untracked transform is returned as None.  The pivot sequence reads only
    the working matrix, so d and every tracked transform are the same
    whatever is left out.  Each stage t pivots on the first entry of least
    absolute value in the trailing block, in row-major order, and clears
    its column and row; before it, the rows and columns above t are zero
    outside the diagonal, so the steps skip them, and a pivot of 1 divides
    the rest of the block without a sweep.  A stage whose pivot row holds
    an entry of more than ``_SNF_ENTRY_BITS`` bits raises EntrySizeCapError."""
    R, C = len(m), cols

    def eye(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return rows

    u, ui = (eye(R), eye(R)) if left else (None, None)
    v = eye(C) if right else None

    # row ops act on m and u on the left; u^-1 absorbs the inverse on the right
    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        if left:
            u[i], u[j] = u[j], u[i]
            ui[i], ui[j] = ui[j], ui[i]

    def row_add(i, j, c):
        # row_i += c * row_j
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        if left:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            ui[j] = [x - c * y for x, y in zip(ui[j], ui[i])]

    def row_neg(i):
        m[i] = [-x for x in m[i]]
        if left:
            u[i] = [-x for x in u[i]]
            ui[i] = [-x for x in ui[i]]

    # rows above t are zero from column t on, so column ops skip them
    def col_swap(t, j):
        for i in range(t, R):
            r = m[i]
            r[t], r[j] = r[j], r[t]
        if right:
            v[t], v[j] = v[j], v[t]

    def col_neg(t):
        for i in range(t, R):
            m[i][t] = -m[i][t]
        if right:
            v[t] = [-x for x in v[t]]

    t = 0
    while True:
        # the first entry of least absolute value in the trailing block, in
        # row-major order, so the search stops at an entry of absolute
        # value 1; rows from t on are zero before column t
        pivot, best = None, 0
        for i in range(t, R):
            least = min(filter(None, map(abs, m[i])), default=0)
            if least and (not best or least < best):
                pivot, best = i, least
                if least == 1:
                    break
        if pivot is None:
            break
        bits = max(map(abs, m[pivot])).bit_length()
        if bits > _SNF_ENTRY_BITS:
            raise EntrySizeCapError(
                f"Smith normal form refused at pivot stage {t}: an entry of the pivot row "
                f"has grown to {bits} bits, past the cap of {_SNF_ENTRY_BITS}")
        row_swap(t, pivot)
        col_swap(t, list(map(abs, m[t])).index(best))
        if m[t][t] < 0:
            row_neg(t)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, R):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        row_add(i, t, -q)
                    if m[i][t]:
                        row_swap(t, i)
                        if m[t][t] < 0:
                            row_neg(t)
                        dirty = True
            if dirty:
                continue
            # clear row t; column t is zero below it until a column swap
            row, below, vt = m[t], [], None
            for j in range(t + 1, C):
                if row[j]:
                    q = row[j] // row[t]
                    if q:
                        # col_j -= q * col_t
                        row[j] -= q * row[t]
                        for r in below:
                            r[j] -= q * r[t]
                        if right:
                            # v's column t is sparse: add only its nonzero entries
                            if vt is None:
                                vt = [(k, y) for k, y in enumerate(v[t]) if y]
                            vj = v[j]
                            for k, y in vt:
                                vj[k] -= q * y
                    if row[j]:
                        col_swap(t, j)
                        if row[t] < 0:
                            col_neg(t)  # keep pivot positive after the swap
                        below, vt = [r for r in m[t + 1:] if r[t]], None
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot, which
            # a pivot of 1 has already
            p = m[t][t]
            offender = None if p == 1 else next(
                (i for i in range(t + 1, R) if any(map(p.__rmod__, m[i]))), None)
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1
    return u, m, v, ui


def _snf_full(a: IntMatrix, left: bool = True, right: bool = True):
    """Return (u, d, v, u_inv) with u*a*v = d in Smith normal form, as
    matrices: ``_snf_core`` on the rows of a, an untracked transform None."""
    u, d, v, ui = _snf_core([list(r) for r in a.entries], a.cols, left, right)
    rows = lambda lst: None if lst is None else IntMatrix(len(lst), len(lst), tuple(map(tuple, lst)))
    cols = lambda lst: None if lst is None else IntMatrix(len(lst), len(lst), _zip_rows(lst, len(lst)))
    return rows(u), IntMatrix(a.rows, a.cols, tuple(map(tuple, d))), cols(v), cols(ui)


def smith_normal_form(a: IntMatrix):
    """Smith normal form over Z.

    Returns ``(u, d, v)`` with ``u @ a @ v == d``, u and v unimodular, and d
    diagonal with nonnegative entries satisfying d1 | d2 | ... .
    """
    u, d, v, _ = _snf_full(a)
    return u, d, v


def integer_kernel(a: IntMatrix) -> list:
    """Columns generating {x in Z^cols : a @ x = 0} (a lattice basis)."""
    _, d, v, _ = _snf_core([list(r) for r in a.entries], a.cols, left=False)
    r = min(a.rows, a.cols)
    return [tuple(v[j]) for j in range(a.cols) if j >= r or d[j][j] == 0]


# ---------------------------------------------------------------------------
# Echelon forms: Howell over Z/n, Hermite over Z
# ---------------------------------------------------------------------------

def _unit_scaling(p: int, n: int) -> int:
    """A unit c mod n with c*p == gcd(p, n) mod n: 1 for a p that divides n."""
    p %= n
    if p == 0 or n % p == 0:
        return 1
    g = math.gcd(p, n)
    pbar, nbar = p // g, n // g
    c = pow(pbar, -1, nbar) if nbar > 1 else 1
    t = 0
    while math.gcd(c + t * nbar, n) != 1:
        t += 1
    return (c + t * nbar) % n


def _lead(row: list, start: int = 0) -> Optional[int]:
    """The first column from ``start`` on where row is not zero, or None."""
    for j in range(start, len(row)):
        if row[j]:
            return j
    return None


def _mod(row: Sequence[int], n: int) -> list:
    """A new list of row's entries, reduced mod n when n > 0."""
    return [x % n for x in row] if n else list(row)


def _comb(a: int, u: list, b: int, v: list, n: int, start: int) -> list:
    """a*u + b*v, reduced mod n when n > 0, for rows v that are zero before
    column ``start`` and u that is too unless a == 1: u's entries there are
    kept and only the rest is combined."""
    tail = zip(u[start:], v[start:])
    if n:
        return u[:start] + [(a * x + b * y) % n for x, y in tail]
    return u[:start] + [a * x + b * y for x, y in tail]


def _echelon(rows: Iterable[Sequence[int]], cols: int, n: int, leads_only: bool = False) -> list:
    """The canonical echelon basis of the span of ``rows``: the Howell basis
    over Z/n when n > 1, the Hermite basis over Z when n == 0.

    Each lead is a divisor of n (positive over Z) and the entries above it
    are reduced below it.  Over Z/n the basis is closed under annihilator
    multiples, so for every column k the rows leading past k span all of
    the span that is zero up to k (Howell, "Spans in the module (Z_m)^s",
    1986); over Z every echelon basis has that property.  With
    ``leads_only`` the lead entries of the closed basis are returned
    instead, before they are scaled: each generates the same ideal as its
    scaled lead, so the span's order over Z/n is prod n / gcd(lead, n)."""
    basis: dict = {}

    def insert(r: list) -> None:
        lead = _lead(r)
        while lead is not None:
            p = basis.get(lead)
            if p is None:
                basis[lead] = r
                return
            # a lead that divides r's clears it; otherwise the unimodular
            # gcd transform of the two rows takes the gcd as the lead.  Both
            # rows are zero before the lead, and r is zero at it afterwards
            q, rem = divmod(r[lead], p[lead])
            if rem:
                _, s, t, u, v = _gcdex(p[lead], r[lead])
                basis[lead], r = _comb(s, p, t, r, n, lead), _comb(u, p, v, r, n, lead)
            else:
                r = _comb(1, r, -q, p, n, lead)
            lead = _lead(r, lead + 1)

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
    if leads_only:
        return [row[j] for j, row in basis.items()]
    pivots = sorted(basis)
    out = []
    for j in pivots:
        row = basis[j]
        c = _unit_scaling(row[j], n) if n else (-1 if row[j] < 0 else 1)
        out.append(row if c == 1 else _mod([c * x for x in row], n))
    # reduce above each pivot, sweeping pivot columns left to right (a later
    # reduction never disturbs an earlier pivot column)
    for idx, j in enumerate(pivots):
        p = out[idx]
        for k in range(idx):
            q = out[k][j] // p[j]
            if q:
                out[k] = _comb(1, out[k], -q, p, n, j)
    return out


def _echelon_reduce(x: Sequence[int], basis: list, n: int) -> list:
    """The canonical representative of x modulo the span of an ``_echelon``
    basis (or of a leading run of its rows), whose leads increase."""
    x = _mod(x, n)
    lead = 0
    for row in basis:
        while not row[lead]:
            lead += 1
        q = x[lead] // row[lead]
        if q:
            x = _comb(1, x, -q, row, n, lead)
        lead += 1
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

# trial division tries no divisor above this, so a modulus whose cofactor
# past it may be composite is refused in milliseconds, not factored for ever
_TRIAL_DIVISION_CAP = 1 << 16


class FactorizationCapError(ExactAlgError):
    """Raised for a number that trial division up to ``_TRIAL_DIVISION_CAP``
    cannot factor."""


def _factorize(n: int) -> list:
    """The (prime, exponent) pairs of n >= 1 in increasing order, by trial
    division.  Once the divisors up to ``_TRIAL_DIVISION_CAP`` are divided
    out, what is left must be 1 or a prime below the cap's square, else
    FactorizationCapError: so every n < 2^32 is factored."""
    m, out = n, []
    d = 2
    while d * d <= m and d <= _TRIAL_DIVISION_CAP:
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            out.append((d, k))
        d += 1
    if d * d <= m:
        raise FactorizationCapError(
            f"cannot factor {n}: trial division stops at {_TRIAL_DIVISION_CAP} "
            f"and its cofactor {m} has no factor up to there")
    if m > 1:
        out.append((m, 1))
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
