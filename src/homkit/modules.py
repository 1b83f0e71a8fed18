"""Finitely presented modules over Z or Z/n and their homomorphisms.

A module is stored in canonical invariant-factor form: a tuple of factors
d1 | d2 | ... with di > 1 (or di == 0 for a free Z summand), the module being
the direct sum of R/(di).  Maps are matrices on the canonical generators,
column j giving the image of source generator j.  Kernels, images, cokernels,
pushouts, Hom and Ext groups, and injective hulls over Z/n are all computed
through exact integer normal forms, so every answer is certified rather than
approximate.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import product as iproduct, repeat
from operator import mod, mul
from typing import Iterator, Optional, Sequence

from . import caches
from .exactalg import (
    CongruenceSystem,
    IntMatrix,
    RingSpec,
    _echelon,
    _factorize,
    _snf_core,
    _zip_rows,
    integer_kernel,
)
from .values import Frozen


class ModuleError(ValueError):
    pass


class FpModule(Frozen):
    """A finitely presented module in canonical invariant-factor form."""

    __slots__ = _fields = ("ring", "factors")

    def __init__(self, ring: RingSpec, factors: tuple) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "factors", factors)
        n = ring.modulus
        prev = None
        for d in factors:
            if d == 1 or d < 0:
                raise ModuleError(f"invalid invariant factor {d}")
            if n:
                if d == 0 or n % d != 0:
                    raise ModuleError(f"factor {d} does not divide the modulus {n}")
            if prev is not None:
                if prev == 0 and d != 0:
                    raise ModuleError("zero factors must come last")
                if prev != 0 and d != 0 and d % prev != 0:
                    raise ModuleError(f"divisibility chain broken: {prev} does not divide {d}")
            prev = d

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ring, self.factors) == (other.ring, other.factors)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring, self.factors))

    @staticmethod
    def zero(ring: RingSpec) -> "FpModule":
        return FpModule(ring, ())

    @staticmethod
    def free(ring: RingSpec, rank: int) -> "FpModule":
        f = ring.modulus if ring.is_modular else 0
        return FpModule(ring, tuple(f for _ in range(rank)))

    @property
    def ngens(self) -> int:
        return len(self.factors)

    def is_zero(self) -> bool:
        return not self.factors

    def size(self) -> Optional[int]:
        """Number of elements, or None for an infinite module over Z."""
        total = 1
        for d in self.factors:
            if d == 0:
                return None
            total *= d
        return total

    def elements(self) -> Iterator[tuple]:
        if self.size() is None:
            raise ModuleError("cannot enumerate an infinite module")
        yield from iproduct(*(range(d) for d in self.factors))

    def reduce_element(self, vec: Sequence[int]) -> tuple:
        return tuple(x % d if d else x for x, d in zip(vec, self.factors))

    def relation_lattice(self) -> IntMatrix:
        """Columns generating the defining relation lattice in Z^ngens."""
        return _diagonal(self.factors)

    def describe(self) -> str:
        if not self.factors:
            return "0"
        parts = []
        for d in self.factors:
            parts.append("Z" if d == 0 else f"Z/{d}")
        return " + ".join(parts)


def _diagonal(factors: Sequence[int]) -> IntMatrix:
    """The columns d e_i for the nonzero d = factors[i], in order: the
    relations of the sum of the R/(d_i)."""
    nonzero = [i for i, d in enumerate(factors) if d]
    rows = [[0] * len(nonzero) for _ in factors]
    for c, i in enumerate(nonzero):
        rows[i][c] = factors[i]
    return IntMatrix(len(factors), len(nonzero), tuple(map(tuple, rows)))


class ModuleMap(Frozen):
    """Homomorphism between canonical modules, as a matrix on generators.

    Column j holds the image of source generator j in target coordinates.
    Well-definedness (dj * column_j dies in the target) is checked on
    construction and entries are reduced mod the target factors, so equal
    maps compare equal structurally.
    """

    __slots__ = _fields = ("source", "target", "matrix")

    def __init__(self, source: FpModule, target: FpModule, matrix: IntMatrix) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.matrix) == \
                (other.source, other.target, other.matrix)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.matrix))

    def __post_init__(self) -> None:
        if self.source.ring != self.target.ring:
            raise ModuleError("source and target live over different rings")
        if (self.matrix.rows, self.matrix.cols) != (self.target.ngens, self.source.ngens):
            raise ModuleError(
                f"matrix shape {self.matrix.rows}x{self.matrix.cols} does not match "
                f"{self.target.ngens}x{self.source.ngens}")
        reduced = _checked_rows(self.source.factors, self.target.factors, self.matrix.entries)
        if reduced != self.matrix.entries:
            object.__setattr__(self, "matrix", IntMatrix(self.matrix.rows, self.matrix.cols, reduced))

    @staticmethod
    def identity(m: FpModule) -> "ModuleMap":
        return ModuleMap(m, m, IntMatrix.identity(m.ngens))

    @staticmethod
    def zero(source: FpModule, target: FpModule) -> "ModuleMap":
        return ModuleMap(source, target, IntMatrix.zero(target.ngens, source.ngens))

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target != self.source:
            raise ModuleError("composition mismatch")
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if (self.source, self.target) != (other.source, other.target):
            raise ModuleError("cannot add maps with different endpoints")
        return ModuleMap(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self + (-other)

    def __neg__(self) -> "ModuleMap":
        return ModuleMap(self.source, self.target, -self.matrix)

    def apply(self, vec: Sequence[int]) -> tuple:
        out = [sum(self.matrix.entries[i][j] * vec[j] for j in range(self.source.ngens))
               for i in range(self.target.ngens)]
        return self.target.reduce_element(out)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def is_mono(self) -> bool:
        if self.source.ring.is_modular:
            return image_order(self.target, self.matrix) == self.source.size()
        return _kernel_inclusion(self)[0].is_zero()

    def is_epi(self) -> bool:
        if self.source.ring.is_modular:
            return image_order(self.target, self.matrix) == self.target.size()
        return cokernel(self)[0].is_zero()


def _checked_rows(source: Sequence[int], target: Sequence[int], rows) -> tuple:
    """The rows of a matrix from the sum of R/(d_j) (``source`` factors) to
    the sum of R/(d_i) (``target``), each reduced modulo its d_i, as the
    matrix of ``ModuleMap``; ModuleError when the map is not well defined,
    that is when d_j times column j survives in the target.  One pass per
    row: reduce it and test d_j * x == 0 mod d_i for every d_j."""
    reduced, bad = [], False
    for row, di in zip(rows, target):
        red = tuple(map(mod, row, repeat(di))) if di else tuple(row)
        bad = bad or any(map(mod, map(mul, source, red), repeat(di)) if di else map(mul, source, red))
        reduced.append(red)
    if bad:
        j = min(j for red, di in zip(reduced, target)
                for j, (dj, x) in enumerate(zip(source, red)) if (dj * x % di if di else dj * x))
        raise ModuleError(
            f"not well defined: factor {source[j]} times column {j} survives in the target")
    return tuple(reduced)


def _primes(n: int) -> tuple:
    return tuple(p for p, _ in _factorize(n))


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

class Presentation(Frozen):
    """Canonicalized presentation: module plus change-of-basis matrices.

    ``to_canonical`` maps old generator coordinates to canonical ones,
    ``from_canonical`` lifts canonical generators back; the two compose to
    the identity up to the defining relations.
    """

    _fields = ("module", "to_canonical", "from_canonical")


def normalize_presentation(ring: RingSpec, ngens: int, relations: IntMatrix) -> Presentation:
    """Canonical invariant-factor form of Z^ngens (or (Z/n)^ngens) modulo
    the column span of ``relations``."""
    if relations.rows != ngens:
        raise ModuleError("relation matrix must have one row per generator")
    n, cols = ring.modulus, relations.cols
    rows = [list(r) for r in relations.entries]
    if n:
        # the relations n e_i of (Z/n)^ngens, as columns after the given ones
        for i, row in enumerate(rows):
            row += [0] * ngens
            row[cols + i] = n
        cols += ngens
    u, d, _, ui = _snf_core(rows, cols, right=False)
    diag = [d[i][i] if i < cols else 0 for i in range(ngens)]
    keep = [i for i, x in enumerate(diag) if x != 1]
    to_can, from_can = [u[i] for i in keep], [ui[i] for i in keep]
    if n:
        to_can = [[x % n for x in r] for r in to_can]
        from_can = [[x % n for x in c] for c in from_can]
    return Presentation(FpModule(ring, tuple(diag[i] for i in keep)),
                        IntMatrix(len(keep), ngens, tuple(map(tuple, to_can))),
                        IntMatrix(ngens, len(keep), _zip_rows(from_can, ngens)))


# lifting's section solves pose the same systems and right-hand sides again
# and again; the answers are stored, not the (several times larger) eliminations
_MODULE_SOLUTIONS = caches.table("modules.module_solutions")


def _solve_in_module_columns(target: FpModule, mat: IntMatrix, columns) -> list:
    """Solve mat @ x = b, row i a congruence mod target factor i, for each
    right-hand side b in ``columns`` with one elimination, none when the same
    system and columns were solved before (``modules.module_solutions``);
    returns each column's particular solution as a new list, or None."""
    columns = tuple(map(tuple, columns))

    def solve() -> tuple:
        sys = CongruenceSystem(target.ring, mat.cols)
        for i, di in enumerate(target.factors):
            sys.add({j: mat.entries[i][j] for j in range(mat.cols) if mat.entries[i][j]}, 0, di)
        return tuple(None if part is None else tuple(part) for part in sys.solve_columns(columns)[0])

    parts = _MODULE_SOLUTIONS.lookup((target.ring, target.factors, mat.cols, mat.entries, columns), solve)
    return [None if part is None else list(part) for part in parts]


def _solve_in_module(target: FpModule, mat: IntMatrix, rhs: IntMatrix):
    """Solve mat @ x = rhs where each row i is a congruence mod target factor i.

    Returns a particular solution matrix (columns aligned with rhs) or None.
    """
    parts = _solve_in_module_columns(target, mat, rhs.columns())
    if any(part is None for part in parts):
        return None
    return IntMatrix.from_columns(parts, rows=mat.cols)


class SubquotientWitness(Frozen):
    """A submodule presented inside an ambient module, with exactness data:
    ``inclusion`` is sub -> ambient, mono, and ``quotient_map`` is ambient
    -> quotient, epi."""

    _fields = ("ambient", "sub", "inclusion", "quotient", "quotient_map")


def _sublattice_module(ambient: FpModule, gen_cols: IntMatrix,
                       below: Optional[IntMatrix] = None) -> tuple:
    """Canonical form of the submodule of ``ambient`` generated by the given
    generator columns, taken modulo the span of the columns ``below`` when
    given; returns (module, the ambient coordinates of its generators).
    Its relations are the y with gen_cols @ y in the span of ``below`` and
    the ambient relations, read off one integer kernel of
    [gen_cols | below | ambient relations]."""
    lam = ambient.relation_lattice()
    if below is not None:
        lam = below.hstack(lam)
    k = gen_cols.cols
    rel_y = [col[:k] for col in integer_kernel(gen_cols.hstack(lam))] if k else []
    pres = normalize_presentation(ambient.ring, k, IntMatrix(k, len(rel_y), _zip_rows(rel_y, k)))
    return pres.module, gen_cols @ pres.from_canonical


def submodule_witness(ambient: FpModule, gen_cols: IntMatrix) -> SubquotientWitness:
    sub, incl_mat = _sublattice_module(ambient, gen_cols)
    inclusion = ModuleMap(sub, ambient, incl_mat)
    quot, qmap = cokernel(inclusion)
    return SubquotientWitness(ambient, sub, inclusion, quot, qmap)


def _kernel_generators(f: ModuleMap) -> IntMatrix:
    """Columns generating the kernel lattice of f in the source coordinates:
    the x with f x in the target's relation lattice."""
    g = f.source.ngens
    gens = [col[:g] for col in integer_kernel(f.matrix.hstack(f.target.relation_lattice()))]
    return IntMatrix(g, len(gens), _zip_rows(gens, g))


def _kernel_inclusion(f: ModuleMap) -> tuple:
    """Kernel of f as (submodule, inclusion into the source), without the
    quotient that ``kernel`` adds."""
    sub, incl_mat = _sublattice_module(f.source, _kernel_generators(f))
    return sub, ModuleMap(sub, f.source, incl_mat)


def kernel(f: ModuleMap) -> SubquotientWitness:
    """Kernel of f as a certified submodule of the source."""
    sub, inclusion = _kernel_inclusion(f)
    quot, qmap = cokernel(inclusion)
    return SubquotientWitness(f.source, sub, inclusion, quot, qmap)


def image(f: ModuleMap) -> SubquotientWitness:
    """Image of f as a certified submodule of the target."""
    return submodule_witness(f.target, f.matrix)


def image_order(target: FpModule, mat: IntMatrix) -> int:
    """|im| of the map over Z/n into ``target`` with matrix ``mat``, from one
    Howell basis of its columns.

    The target, a sum of Z/e_i, embeds in (Z/n)^r by x_i -> (n/e_i) x_i;
    a Howell basis of the embedded columns spans a group of order
    prod n / gcd(lead, n) over its rows (Howell, "Spans in the module
    (Z_m)^s", 1986); the leads are read before ``_echelon`` scales them
    and reduces above them, which the count does not need.  Zero columns
    add nothing to the span and are left out."""
    ring = target.ring
    if not ring.is_modular:
        raise ModuleError("image orders are counted over Z/n only")
    n = ring.modulus
    scales = [n // e for e in target.factors]
    cols = [[s * x for s, x in zip(scales, col)] for col in mat.columns() if any(col)]
    order = 1
    for lead in _echelon(cols, len(scales), n, leads_only=True):
        order *= n // math.gcd(lead, n)
    return order


def _cokernel(f: ModuleMap) -> tuple:
    """Presentation and projection of the cokernel of f.  Both public entry
    points call this directly, so wrapping one of them from outside does not
    count the calls of the other."""
    rels = f.matrix.hstack(f.target.relation_lattice())
    pres = normalize_presentation(f.target.ring, f.target.ngens, rels)
    return pres, ModuleMap(f.target, pres.module, pres.to_canonical)


def cokernel(f: ModuleMap) -> tuple:
    """Cokernel of f: returns (module, projection epi)."""
    pres, proj = _cokernel(f)
    return pres.module, proj


def cokernel_with_section(f: ModuleMap) -> tuple:
    """Cokernel plus a generator-wise set-section of the projection."""
    pres, proj = _cokernel(f)
    return pres.module, proj, pres.from_canonical


# ---------------------------------------------------------------------------
# Direct sums and pushouts
# ---------------------------------------------------------------------------

class DirectSum(Frozen):
    _fields = ("module", "injections", "projections")


_DIRECT_SUMS = caches.table("modules.direct_sum")


def direct_sum(ms: Sequence[FpModule]) -> DirectSum:
    """Canonical direct sum with injections and projections.

    The concatenated factor list is renormalized, so the result is always in
    invariant-factor form (e.g. Z/2 + Z/3 over Z becomes Z/6).  Memoised on
    the list of summands.
    """
    ms = tuple(ms)
    return _DIRECT_SUMS.lookup(ms, lambda: _direct_sum(ms))


def _direct_sum(ms: tuple) -> DirectSum:
    if not ms:
        raise ModuleError("direct_sum needs the ring; pass at least the zero module")
    ring = ms[0].ring
    if any(m.ring != ring for m in ms):
        raise ModuleError("mixed rings in direct sum")
    total = sum(m.ngens for m in ms)
    pres = normalize_presentation(ring, total, _diagonal([d for m in ms for d in m.factors]))
    injections = []
    projections = []
    offset = 0
    for m in ms:
        inj_cols = [pres.to_canonical.col(offset + i) for i in range(m.ngens)]
        inj = ModuleMap(m, pres.module, IntMatrix.from_columns(inj_cols, rows=pres.module.ngens))
        proj_rows = [pres.from_canonical.entries[offset + i] for i in range(m.ngens)]
        proj = ModuleMap(pres.module, m, IntMatrix.from_rows(proj_rows, cols=pres.module.ngens))
        injections.append(inj)
        projections.append(proj)
        offset += m.ngens
    return DirectSum(pres.module, tuple(injections), tuple(projections))


class Pushout(Frozen):
    """Pushout of alpha: S -> X along a mono iota: S -> M.

    The corner P is (X + M) / A with A generated by (alpha(s), -iota(s));
    the leg X -> P stays mono whenever iota is.  ``presentation_relations``
    holds the A-columns inside X + M coordinates.
    """

    _fields = ("module", "leg_from_alpha_target", "leg_from_iota_target",
               "presentation_relations")


def pushout(alpha: ModuleMap, iota: ModuleMap) -> Pushout:
    if alpha.source != iota.source:
        raise ModuleError("pushout legs must share their source")
    if not iota.is_mono():
        raise ModuleError("iota must be injective for this pushout construction")
    X, M = alpha.target, iota.target
    gx, gm = X.ngens, M.ngens
    a_cols = alpha.matrix.vstack(-iota.matrix)
    pres = normalize_presentation(X.ring, gx + gm, _diagonal(X.factors + M.factors).hstack(a_cols))
    theta = ModuleMap(X, pres.module,
                      IntMatrix.from_columns([pres.to_canonical.col(i) for i in range(gx)],
                                             rows=pres.module.ngens))
    gamma = ModuleMap(M, pres.module,
                      IntMatrix.from_columns([pres.to_canonical.col(gx + i) for i in range(gm)],
                                             rows=pres.module.ngens))
    return Pushout(pres.module, theta, gamma, a_cols)


# ---------------------------------------------------------------------------
# Hom, Ext and injective hulls
# ---------------------------------------------------------------------------

class HomModule(Frozen):
    """Hom(source, target) as a canonical module plus an element <-> map codec.

    Each entry (i, j, order, scale) of ``pairs`` is a coordinate: matrix
    entry (i, j) ranges over ``order`` many multiples of ``scale`` in target
    slot i.  The instance keeps a ``__dict__`` for its cached properties.
    """

    _fields = ("source", "target", "module", "pairs", "to_canonical", "from_canonical")

    def encode(self, f: ModuleMap) -> tuple:
        if f.source != self.source or f.target != self.target:
            raise ModuleError("map does not belong to this hom module")
        raw = []
        for (i, j, order, scale) in self.pairs:
            v = f.matrix.entries[i][j]
            raw.append((v // scale) % order if order else v)
        out = [sum(self.to_canonical.entries[r][t] * raw[t] for t in range(len(raw)))
               for r in range(self.module.ngens)]
        return self.module.reduce_element(out)

    def decode(self, elem: Sequence[int]) -> ModuleMap:
        return ModuleMap(self.source, self.target,
                         IntMatrix.from_rows(self._rows(elem), cols=self.source.ngens))

    def _rows(self, elem: Sequence[int]) -> list:
        """The matrix rows of the map of ``elem``, each entry reduced modulo
        its row's target factor."""
        return self._pair_rows([sum(self.from_canonical.entries[t][r] * elem[r]
                                    for r in range(self.module.ngens))
                                for t in range(len(self.pairs))])

    def _pair_rows(self, raw: Sequence[int]) -> list:
        """The matrix rows of the map with raw coordinates ``raw``, one per
        entry of ``pairs``, read modulo each pair's order."""
        mat = [[0] * self.source.ngens for _ in range(self.target.ngens)]
        for (i, j, order, scale), v in zip(self.pairs, raw):
            mat[i][j] = (v % order if order else v) * scale
        return mat

    def elements(self) -> Iterator[ModuleMap]:
        for elem in self.module.elements():
            yield self.decode(elem)

    def _scan(self) -> Iterator[tuple]:
        """``_scan_maps`` of this group, in degree 0."""
        return _scan_maps(self.module, lambda elem: {0: self._rows(elem)},
                          [(0, self.source.ngens, self.target.factors)])

    @cached_property
    def _inclusion(self) -> "ModuleMap":
        """The group's embedding in its ambient group: itself, by the identity."""
        return ModuleMap.identity(self.module)

    @cached_property
    def _section_columns(self) -> tuple:
        """The columns of ``_inclusion``: the right-hand sides of the section
        solves of every restriction into this group."""
        return tuple(self._inclusion.matrix.columns())


def _scan_maps(module: FpModule, rows, shapes: list) -> Iterator[tuple]:
    """``(element, blocks)`` for every element of a finite group of maps, in
    ``module.elements()`` order, with ``blocks`` holding its raw matrix (a
    tuple of row tuples) in each degree of ``shapes``: ``(degree, source
    generators, target factors)``.

    ``rows(elem)`` gives an element's matrix rows by degree (a degree it
    leaves out is zero); it is read once per generator and builds no
    ``ModuleMap``.  Decoding is a homomorphism, so each element's flattened
    matrix is the integer sum of its coordinates times the generators'; the
    walk keeps that sum in one vector, stepping it from each element to the
    next in ``itertools.product`` order, and reduces a copy modulo each
    row's target factor.  When coordinate i advances and every later one
    wraps from f_j - 1 to 0, the step is gens[i] - sum_{j>i} (f_j - 1) gens[j].
    """
    if module.size() is None:
        raise ModuleError("cannot enumerate an infinite module")
    mods = [e for _, ncols, fac in shapes for e in fac for _ in range(ncols)]
    factors, ngens = module.factors, module.ngens
    gens = []
    for g in range(ngens):
        blocks = rows(tuple(1 if t == g else 0 for t in range(ngens)))
        gens.append([x for k, ncols, fac in shapes
                     for row in blocks.get(k, [[0] * ncols] * len(fac)) for x in row])
    steps = []
    for i in range(ngens):
        step = gens[i]
        for j in range(i + 1, ngens):
            step = [s - (factors[j] - 1) * x for s, x in zip(step, gens[j])]
        steps.append(step)
    tops = [f - 1 for f in factors]
    cuts = []
    pos = 0
    for k, ncols, fac in shapes:
        cuts.append((k, [(pos + r * ncols, pos + (r + 1) * ncols) for r in range(len(fac))]))
        pos += ncols * len(fac)

    def walk():
        vec = [0] * len(mods)
        for elem in iproduct(*(range(f) for f in factors)):
            red = [x % m if m else x for x, m in zip(vec, mods)]
            yield elem, {k: tuple(tuple(red[a:b]) for a, b in spans) for k, spans in cuts}
            i = ngens - 1
            while i >= 0 and elem[i] == tops[i]:
                i -= 1
            if i >= 0:
                vec = [x + s for x, s in zip(vec, steps[i])]

    return walk()


def _hom_pair_data(ring: RingSpec, dj: int, di: int):
    """Cyclic structure of Hom(R/dj, R/di): (order, scale) with the maps being
    multiplication by multiples of ``scale``; order == 0 means a free Z of them."""
    if ring.is_modular:
        g = math.gcd(dj, di)
        return g, di // g
    if di == 0 and dj == 0:
        return 0, 1
    if di == 0:
        return 1, 0   # Hom(Z/d, Z) = 0
    if dj == 0:
        return di, 1  # Hom(Z, Z/d) = Z/d
    g = math.gcd(dj, di)
    return g, di // g


@caches.register_lru("modules.hom_module")
@lru_cache(maxsize=None)
def hom_module(source: FpModule, target: FpModule) -> HomModule:
    """Hom(source, target) with its canonical-form codec."""
    if source.ring != target.ring:
        raise ModuleError("mixed rings in hom")
    ring = source.ring
    pairs = []
    for i, di in enumerate(target.factors):
        for j, dj in enumerate(source.factors):
            order, scale = _hom_pair_data(ring, dj, di)
            if order == 1:
                continue
            pairs.append((i, j, order, scale))
    pres = normalize_presentation(ring, len(pairs), _diagonal([order for _, _, order, _ in pairs]))
    return HomModule(source, target, pres.module, tuple(pairs),
                     pres.to_canonical, pres.from_canonical)


def _composition_matrix(h_from: HomModule, h_to: HomModule, coeff) -> ModuleMap:
    """The map h_from.module -> h_to.module of composing with a map, in
    closed form.  The generator of raw pair (i, j), multiplication by
    scale_ij from source slot j to target slot i, composes to scale_ij * c
    in pair (i', j'), c = ``coeff(i', j', i, j)`` the entry linking the two
    pairs (0 if none): scale_ij * c / scale'_i'j' times its generator, an
    exact division as the composite is well defined.  Conjugated by the two
    codecs and reduced by ``ModuleMap`` this equals decoding, composing and
    encoding each generator, entry for entry."""
    m = IntMatrix.from_rows([[scale * coeff(i2, j2, i, j) // scale2
                              for i, j, _, scale in h_from.pairs]
                             for i2, j2, _, scale2 in h_to.pairs], cols=len(h_from.pairs))
    return ModuleMap(h_from.module, h_to.module, h_to.to_canonical @ m @ h_from.from_canonical)


# the hom modules are functions of their endpoints, so a composition matrix
# is keyed by the endpoint the two hom modules share and the map
_PRECOMPOSE = caches.table("modules.hom_precompose")
_POSTCOMPOSE = caches.table("modules.hom_postcompose")


def hom_precompose(h_from: HomModule, h_to: HomModule, phi: ModuleMap) -> ModuleMap:
    """The map Hom(A, N) -> Hom(A', N) given by f -> f o phi, phi: A' -> A;
    memoised per (N, phi)."""
    if h_from.source != phi.target or h_to.source != phi.source or h_from.target != h_to.target:
        raise ModuleError("precomposition data mismatch")
    return _PRECOMPOSE.lookup((h_to.target, phi), lambda: _composition_matrix(
        h_from, h_to, lambda i2, j2, i, j: phi.matrix.entries[j][j2] if i == i2 else 0))


def hom_postcompose(h_from: HomModule, h_to: HomModule, psi: ModuleMap) -> ModuleMap:
    """The map Hom(A, N) -> Hom(A, N') given by f -> psi o f, psi: N -> N';
    memoised per (A, psi)."""
    if h_from.target != psi.source or h_to.target != psi.target or h_from.source != h_to.source:
        raise ModuleError("postcomposition data mismatch")
    return _POSTCOMPOSE.lookup((h_to.source, psi), lambda: _composition_matrix(
        h_from, h_to, lambda i2, j2, i, j: psi.matrix.entries[i2][i] if j == j2 else 0))


def ext1_module(m: FpModule, n: FpModule) -> FpModule:
    """Ext^1(m, n) computed from the canonical one-step free presentation
    0 -> K -> F0 -> m -> 0 as the cokernel of Hom(F0, n) -> Hom(K, n)."""
    if m.ring != n.ring:
        raise ModuleError("mixed rings in ext")
    f0 = FpModule.free(m.ring, m.ngens)
    proj = ModuleMap(f0, m, IntMatrix.identity(m.ngens))
    sub, inclusion = _kernel_inclusion(proj)
    restriction = hom_precompose(hom_module(f0, n), hom_module(sub, n), inclusion)
    return cokernel(restriction)[0]


def injective_hull(m: FpModule) -> tuple:
    """Injective hull over Z/n: returns (hull, essential mono embedding).

    Each factor d splits into its prime parts Z/p^a, and Z/p^a embeds
    essentially in Z/p^{v_p(n)} by multiplication with p^{v-a}.  Over Z the
    hull of a torsion module is not finitely generated, so only modular
    rings are supported.
    """
    if not m.ring.is_modular:
        raise ModuleError("injective hulls are only computable over Z/n here")
    n = m.ring.modulus
    nfac = dict(_factorize(n))
    hull_factors = []
    embed_cols = []   # per source generator, dict hull_index -> entry
    hull_index = 0
    positions = []
    for d in m.factors:
        entry = {}
        for p, a in _factorize(d):
            v = nfac[p]
            hull_factors.append(p ** v)
            entry[hull_index] = p ** (v - a)
            hull_index += 1
        positions.append(entry)
    raw_rows = len(hull_factors)
    embed = [[0] * m.ngens for _ in range(raw_rows)]
    for j, entry in enumerate(positions):
        for i, val in entry.items():
            embed[i][j] = val
    pres = normalize_presentation(m.ring, raw_rows, _diagonal(hull_factors))
    emb = pres.to_canonical @ IntMatrix.from_rows(embed, cols=m.ngens)
    hull = pres.module
    embedding = ModuleMap(m, hull, emb)
    return hull, embedding


# ---------------------------------------------------------------------------
# Submodule enumeration (finite modules only)
# ---------------------------------------------------------------------------

def _add_elements(m: FpModule, a: tuple, b: tuple) -> tuple:
    return m.reduce_element([x + y for x, y in zip(a, b)])


def span_elements(m: FpModule, gens: Sequence[tuple]) -> frozenset:
    zero = m.reduce_element([0] * m.ngens)
    seen = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = _add_elements(m, v, g)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def all_submodules(m: FpModule) -> list:
    """Every submodule of a finite module, as frozensets of elements,
    in a deterministic order (by size, then sorted element list)."""
    size = m.size()
    if size is None or size > 4096:
        raise ModuleError("submodule enumeration needs a small finite module")
    elements = sorted(m.elements())
    zero = m.reduce_element([0] * m.ngens)
    cyclic = {x: span_elements(m, [x]) for x in elements}
    seen = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        s = frontier.pop()
        for x in elements:
            if x in s:
                continue
            # the span of s and x is s + <x>
            bigger = frozenset(_add_elements(m, a, y) for a in s for y in cyclic[x])
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def _span_inclusion(m: FpModule, elems: Sequence[tuple]) -> tuple:
    """The submodule of m spanned by ``elems`` as (submodule, inclusion),
    without the quotient that ``submodule_from_elements`` adds."""
    gen_cols = IntMatrix.from_columns([list(e) for e in elems], rows=m.ngens)
    sub, incl_mat = _sublattice_module(m, gen_cols)
    return sub, ModuleMap(sub, m, incl_mat)


def submodule_from_elements(m: FpModule, elems: Sequence[tuple]) -> SubquotientWitness:
    sub, inclusion = _span_inclusion(m, elems)
    quot, qmap = cokernel(inclusion)
    return SubquotientWitness(m, sub, inclusion, quot, qmap)


# ---------------------------------------------------------------------------
# Linear systems whose unknowns are module maps
# ---------------------------------------------------------------------------

def _check_rhs(rhs: Optional[ModuleMap], S: FpModule, T: FpModule) -> None:
    if rhs is not None and (rhs.source, rhs.target) != (S, T):
        raise ModuleError(f"right-hand side is not a map {S} -> {T}")


# a MapSystem's coefficient rows are a function of its structure alone, and
# builds and homotopy searches pose the same few systems again and again
_MAP_SYSTEMS = caches.table("modules.map_systems")


class MapSystem:
    """Simultaneous linear equations over unknown module maps.

    Unknowns are declared with source and target; their well-definedness
    congruences are added automatically.  Equations have the form

        sum_k  L_k o U_{name_k} o R_k  =  rhs      in Hom(S, T)

    entered per term, and every solve returns the canonical solution, so
    downstream constructions are reproducible.  The elimination of a system
    is memoised in ``modules.map_systems`` by its structure (ring, unknowns,
    equation terms and spaces), so a system posed again with other
    right-hand sides is not eliminated again.
    """

    def __init__(self, ring: RingSpec):
        self.ring = ring
        self._unknowns: list = []
        self._offsets: dict = {}
        self._shapes: dict = {}
        self._nvars = 0
        self._equations: list = []

    def unknown(self, name: str, source: FpModule, target: FpModule) -> str:
        if name in self._offsets:
            raise ModuleError(f"duplicate unknown {name}")
        if source.ring != self.ring or target.ring != self.ring:
            raise ModuleError(f"unknown {name} is not a map of modules over the system's ring")
        self._offsets[name] = self._nvars
        self._shapes[name] = (source, target)
        self._unknowns.append(name)
        self._nvars += source.ngens * target.ngens
        return name

    def _var(self, name: str, p: int, q: int) -> int:
        src, tgt = self._shapes[name]
        return self._offsets[name] + p * src.ngens + q

    def equation(self, terms: Sequence[tuple], rhs: Optional[ModuleMap],
                 space: tuple) -> None:
        """Add one map equation in Hom(S, T), ``space = (S, T)``; ``terms``
        are (L, name, R, sign) with L, R ModuleMaps (or None for identity)
        composing as L o U o R: S -> T, and ``rhs`` is a map S -> T or None
        for zero."""
        S, T = space
        for L, name, R, _ in terms:
            if name not in self._shapes:
                raise ModuleError(f"equation names undeclared unknown {name!r}")
            src, tgt = self._shapes[name]
            ends = ((tgt, tgt) if L is None else (L.source, L.target),
                    (src, src) if R is None else (R.source, R.target))
            if ends != ((tgt, T), (S, src)):
                raise ModuleError(f"L o {name} o R does not compose to a map {S} -> {T}")
        _check_rhs(rhs, S, T)
        self._equations.append((list(terms), rhs, space))

    def _key(self) -> tuple:
        """Everything the coefficient rows are built from, in order."""
        return (self.ring,
                tuple((name, *self._shapes[name]) for name in self._unknowns),
                tuple((tuple(map(tuple, terms)), *space) for terms, _, space in self._equations))

    def _system(self) -> CongruenceSystem:
        """The congruences of the unknowns' well-definedness followed by those
        of the equations, with zero right-hand sides."""
        sys = CongruenceSystem(self.ring, self._nvars)
        for name in self._unknowns:
            src, tgt = self._shapes[name]
            for q, dq in enumerate(src.factors):
                if dq == 0:
                    continue
                for p, dp in enumerate(tgt.factors):
                    sys.add({self._var(name, p, q): dq}, 0, dp)
        for terms, _, (S, T) in self._equations:
            for r, modulus in enumerate(T.factors):
                for c in range(S.ngens):
                    coeffs: dict = {}
                    for (L, name, R, sign) in terms:
                        src, tgt = self._shapes[name]
                        lmat = L.matrix if L is not None else IntMatrix.identity(T.ngens)
                        rmat = R.matrix if R is not None else IntMatrix.identity(S.ngens)
                        for p in range(tgt.ngens):
                            lv = lmat.entries[r][p]
                            if lv == 0:
                                continue
                            for q in range(src.ngens):
                                rv = rmat.entries[q][c]
                                if rv == 0:
                                    continue
                                var = self._var(name, p, q)
                                coeffs[var] = coeffs.get(var, 0) + sign * lv * rv
                    sys.add(coeffs, 0, modulus)
        return sys

    def _rhs_column(self, rhss: Sequence[Optional[ModuleMap]]) -> list:
        """One right-hand side value per congruence of ``_system``: zero for
        well-definedness, then the entries of each equation's rhs map."""
        col = []
        for name in self._unknowns:
            src, tgt = self._shapes[name]
            col.extend(0 for dq in src.factors if dq != 0 for _ in tgt.factors)
        for (_, _, (S, T)), rhs in zip(self._equations, rhss, strict=True):
            _check_rhs(rhs, S, T)
            col.extend(rhs.matrix.entries[r][c] if rhs is not None else 0
                       for r in range(T.ngens) for c in range(S.ngens))
        return col

    def _maps(self, part: Optional[list]) -> Optional[dict]:
        if part is None:
            return None
        out = {}
        for name in self._unknowns:
            src, tgt = self._shapes[name]
            base = self._offsets[name]
            mat = [[part[base + p * src.ngens + q] for q in range(src.ngens)]
                   for p in range(tgt.ngens)]
            out[name] = ModuleMap(src, tgt, IntMatrix.from_rows(mat, cols=src.ngens))
        return out

    def solve(self) -> Optional[dict]:
        """The canonical solution for the equations' own right-hand sides,
        as a map per unknown, or None."""
        return self.solve_each([[rhs for _, rhs, _ in self._equations]])[0]

    def solve_each(self, rhs_sets: Sequence[Sequence[Optional[ModuleMap]]]) -> list:
        """Solve the system once per entry of ``rhs_sets`` with one
        elimination (none when the same system was eliminated before).  Each
        entry gives a right-hand side map (None for zero) per equation, in
        the order the equations were added, in place of the equations' own;
        the result is the solution ``solve`` would return for it, or None."""
        if not rhs_sets:
            return []
        columns = [self._rhs_column(rhss) for rhss in rhs_sets]
        factored = _MAP_SYSTEMS.lookup(self._key(), lambda: self._system().factor())
        parts, _ = factored.solve_columns(columns)
        return [self._maps(part) for part in parts]
