"""Bounded cochain complexes, chain maps, homotopies, cones and solvers.

Differentials raise degree and satisfy d o d = 0.  All stored complexes are
two-sided bounded so that every quantifier downstream stays finite.  The
mapping cone uses the sign convention [[-d, 0], [f, d]] and shifting by k
multiplies the differential by (-1)^k; with these choices the canonical cone
sequence is degreewise split and splitting is equivalent to null-homotopy
of the glued map, which the solvers here decide exactly.
"""
from __future__ import annotations

from functools import cached_property
from operator import add
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from . import caches
from .exactalg import IntMatrix, RingSpec
from .modules import (
    DirectSum,
    FpModule,
    MapSystem,
    ModuleMap,
    direct_sum,
    hom_module,
    hom_postcompose,
    hom_precompose,
    image_order,
    _checked_rows,
    _kernel_generators,
    _kernel_inclusion,
    _scan_maps,
    _solve_in_module,
    _sublattice_module,
)
from .values import Frozen, Record


class ComplexError(ValueError):
    pass


class Complex(Frozen):
    """Degree-indexed family of modules with degree-raising differentials.

    A frozen value: its components and differentials are read-only
    mappings, sorted by degree, and it is equal to, and hashed as, any
    complex with the same ``canonical_key``."""

    __slots__ = ("ring", "_components", "_differentials", "_key")
    _fields = ("ring", "_components", "_differentials")

    def __init__(self, ring: RingSpec, components: Dict[int, FpModule],
                 differentials: Dict[int, ModuleMap], check: bool = True):
        object.__setattr__(self, "ring", ring)
        comps = {k: m for k, m in components.items() if not m.is_zero()}
        for k, m in comps.items():
            if m.ring != ring:
                raise ComplexError(f"component at degree {k} lives over {m.ring}, not {ring}")
        diffs = {}
        for k, d in differentials.items():
            if k in comps and (k + 1) in comps:
                if d.source != comps[k] or d.target != comps[k + 1]:
                    raise ComplexError(f"differential at degree {k} has wrong endpoints")
                diffs[k] = d
            elif not d.is_zero():
                raise ComplexError(f"nonzero differential at degree {k} touches a zero component")
        for k in comps:
            if (k + 1) in comps and k not in diffs:
                diffs[k] = ModuleMap.zero(comps[k], comps[k + 1])
        object.__setattr__(self, "_components", MappingProxyType(dict(sorted(comps.items()))))
        object.__setattr__(self, "_differentials", MappingProxyType(dict(sorted(diffs.items()))))
        object.__setattr__(self, "_key", None)
        if check:
            verdict = validate_complex(self)
            if not verdict.ok:
                raise ComplexError(verdict.message)

    @property
    def support(self) -> Optional[Tuple[int, int]]:
        """The least and the greatest nonzero degree, the first and the last
        key of the sorted components, or None for the zero complex."""
        comps = self._components
        if not comps:
            return None
        return next(iter(comps)), next(reversed(comps))

    def degrees(self) -> list:
        return list(self._components)

    def component(self, k: int) -> FpModule:
        return self._components.get(k, FpModule.zero(self.ring))

    def differential(self, k: int) -> ModuleMap:
        if k in self._differentials:
            return self._differentials[k]
        return ModuleMap.zero(self.component(k), self.component(k + 1))

    def is_zero(self) -> bool:
        return not self._components

    def total_size(self) -> Optional[int]:
        total = 1
        for m in self._components.values():
            s = m.size()
            if s is None:
                return None
            total *= s
        return total

    def canonical_key(self) -> tuple:
        """Built on first use and kept: nothing changes a complex after
        construction."""
        if self._key is None:
            object.__setattr__(self, "_key", (
                self.ring,
                tuple((k, m.factors) for k, m in self._components.items()),
                tuple((k, d.matrix.entries) for k, d in self._differentials.items())))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def describe(self) -> str:
        if self.is_zero():
            return "0"
        lo, hi = self.support
        parts = [f"{k}:{self.component(k).describe()}" for k in range(lo, hi + 1)]
        return "[" + ", ".join(parts) + "]"

    def __repr__(self) -> str:
        return f"Complex({self.describe()})"


class ComplexVerdict(Frozen):
    _fields = ("ok", "degree", "message")


def validate_complex(c: Complex) -> ComplexVerdict:
    """Check d o d = 0 degreewise; reports the middle degree of the first
    offending composite.  Each composite is a reduced ``_composite`` product;
    a differential touching a zero component is absent, and zero."""
    diffs = c._differentials
    for k in diffs:
        if (k + 1) in diffs and any(map(any, _composite(diffs[k + 1], diffs[k]))):
            return ComplexVerdict(False, k + 1, f"d o d is nonzero through degree {k + 1}")
    return ComplexVerdict(True, None, "valid complex")


def _composite(a: Optional[ModuleMap], b: Optional[ModuleMap]) -> Optional[list]:
    """The matrix rows of a o b, reduced modulo a's target factors as
    ``a.compose(b)`` would store them, without building that map; None when
    a or b is None, an absent (zero) map."""
    if a is None or b is None:
        return None
    rows = _row_product(a.matrix.entries, b.matrix.entries, b.source.ngens)
    return [[x % d for x in row] if d else row for row, d in zip(rows, a.target.factors)]


def zero_complex(ring: RingSpec) -> Complex:
    return Complex(ring, {}, {})


def sphere(n: int, m: FpModule) -> Complex:
    """The complex with m concentrated in degree n."""
    if m.is_zero():
        return zero_complex(m.ring)
    return Complex(m.ring, {n: m}, {})


def disk(n: int, m: FpModule) -> Complex:
    """The contractible complex with m in degrees n and n+1, identity between."""
    if m.is_zero():
        return zero_complex(m.ring)
    return Complex(m.ring, {n: m, n + 1: m}, {n: ModuleMap.identity(m)})


def shift(c: Complex, k: int) -> Complex:
    """Degree shift: shifted^m = c^{m+k}, differential scaled by (-1)^k."""
    sign = -1 if k % 2 else 1
    comps = {deg - k: m for deg, m in c._components.items()}
    diffs = {deg - k: (d if sign == 1 else -d) for deg, d in c._differentials.items()}
    return Complex(c.ring, comps, diffs, check=False)


class ChainMap(Frozen):
    """Degreewise map commuting with the differentials: a frozen value with
    read-only components, equal to and hashed as any chain map with the same
    ``canonical_key``, shown by the default repr."""

    __slots__ = _fields = ("source", "target", "_components")
    __repr__ = object.__repr__

    def __init__(self, source: Complex, target: Complex,
                 components: Dict[int, ModuleMap], check: bool = True):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        comps = {}
        for k, f in components.items():
            if f.is_zero():
                continue
            if f.source != source.component(k) or f.target != target.component(k):
                raise ComplexError(f"chain map component at degree {k} has wrong endpoints")
            comps[k] = f
        object.__setattr__(self, "_components", MappingProxyType(dict(sorted(comps.items()))))
        if check and not self.commutes():
            raise ComplexError("components do not commute with the differentials")

    def component(self, k: int) -> ModuleMap:
        if k in self._components:
            return self._components[k]
        return ModuleMap.zero(self.source.component(k), self.target.component(k))

    def commutes(self) -> bool:
        """d o f == f o d in every degree, compared as reduced ``_composite``
        products; an absent differential or component is zero."""
        comps = self._components
        d_src, d_tgt = self.source._differentials, self.target._differentials
        for k in set(self.source.degrees()) | set(self.target.degrees()):
            left = _composite(d_tgt.get(k), comps.get(k))
            right = _composite(comps.get(k + 1), d_src.get(k))
            if left is None or right is None:
                if any(map(any, left or right or ())):
                    return False
            elif left != right:
                return False
        return True

    def is_zero(self) -> bool:
        return not self._components

    def is_mono(self) -> bool:
        return all(self.component(k).is_mono() for k in self.source.degrees())

    def is_epi(self) -> bool:
        return all(self.component(k).is_epi() for k in self.target.degrees())

    def compose(self, other: "ChainMap") -> "ChainMap":
        if other.target != self.source:
            raise ComplexError("chain map composition mismatch")
        degs = set(other.source.degrees())
        comps = {k: self.component(k).compose(other.component(k)) for k in degs}
        return ChainMap(other.source, self.target, comps, check=False)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        degs = set(self._components) | set(other._components)
        comps = {k: self.component(k) + other.component(k) for k in degs}
        return ChainMap(self.source, self.target, comps, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        degs = set(self._components) | set(other._components)
        comps = {k: self.component(k) - other.component(k) for k in degs}
        return ChainMap(self.source, self.target, comps, check=False)

    @staticmethod
    def zero(source: Complex, target: Complex) -> "ChainMap":
        return ChainMap(source, target, {}, check=False)

    @staticmethod
    def identity(c: Complex) -> "ChainMap":
        return ChainMap(c, c, {k: ModuleMap.identity(c.component(k)) for k in c.degrees()},
                        check=False)

    def canonical_key(self) -> tuple:
        return (self.source.canonical_key(), self.target.canonical_key(),
                tuple((k, f.matrix.entries) for k, f in self._components.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, ChainMap) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())


class Homotopy(Frozen):
    """Degree -1 family s with  s o d + d o s = f  for the stored chain map:
    frozen, with read-only components, and compared and hashed by identity
    under the default repr."""

    __slots__ = _fields = ("chain_map", "_components")
    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

    def __init__(self, chain_map: ChainMap, components: Dict[int, ModuleMap],
                 check: bool = True):
        object.__setattr__(self, "chain_map", chain_map)
        comps = {}
        for k, s in components.items():
            if s.is_zero():
                continue
            if s.source != chain_map.source.component(k) or \
               s.target != chain_map.target.component(k - 1):
                raise ComplexError(f"homotopy component at degree {k} has wrong endpoints")
            comps[k] = s
        object.__setattr__(self, "_components", MappingProxyType(dict(sorted(comps.items()))))
        if check and not self.verifies():
            raise ComplexError("homotopy identity fails")

    def component(self, k: int) -> ModuleMap:
        if k in self._components:
            return self._components[k]
        return ModuleMap.zero(self.chain_map.source.component(k),
                              self.chain_map.target.component(k - 1))

    def verifies(self) -> bool:
        f = self.chain_map
        degs = set(f.source.degrees()) | set(f.target.degrees())
        for k in degs:
            lhs = self.component(k + 1).compose(f.source.differential(k)) + \
                  f.target.differential(k - 1).compose(self.component(k))
            if lhs.matrix.entries != f.component(k).matrix.entries:
                return False
        return True


class ShortExactOfComplexes(Frozen):
    _fields = ("left", "middle", "right", "inj", "surj")

    def validate(self) -> bool:
        """Degreewise exactness of 0 -> L^k -> M^k -> R^k -> 0: surj o inj
        is zero and the row L^k -> M^k -> R^k is exact at all three terms."""
        degs = set(self.middle.degrees()) | set(self.left.degrees()) | set(self.right.degrees())
        for k in degs:
            inj, surj = self.inj.component(k), self.surj.component(k)
            if not surj.compose(inj).is_zero() or not exact_at(_row_complex(inj, surj), (0, 1, 2)):
                return False
        return True


def _row_complex(first: ModuleMap, second: ModuleMap) -> Complex:
    """The three-term complex first, second in degrees 0, 1, 2, for maps
    with second o first = 0."""
    return Complex(first.source.ring, {0: first.source, 1: first.target, 2: second.target},
                   {0: first, 1: second}, check=False)


def direct_sum_complexes(xs: Sequence[Complex]) -> tuple:
    """Degreewise direct sum with injection/projection chain maps."""
    if not xs:
        raise ComplexError("need at least one summand")
    ring = xs[0].ring
    degs = sorted({k for x in xs for k in x.degrees()})
    sums = {k: direct_sum([x.component(k) for x in xs]) for k in degs}
    comps = {k: sums[k].module for k in degs}
    diffs = {}
    for k in degs:
        if (k + 1) not in comps:
            continue
        total = None
        for idx, x in enumerate(xs):
            term = sums[k + 1].injections[idx].compose(
                x.differential(k)).compose(sums[k].projections[idx])
            total = term if total is None else total + term
        diffs[k] = total
    out = Complex(ring, comps, diffs, check=False)
    injs = []
    projs = []
    for idx, x in enumerate(xs):
        injs.append(ChainMap(x, out, {k: sums[k].injections[idx] for k in x.degrees()},
                             check=False))
        projs.append(ChainMap(out, x, {k: sums[k].projections[idx] for k in x.degrees()},
                              check=False))
    return out, injs, projs


def _subcomplex(amb: Complex, incls: Dict[int, ModuleMap], check: bool = True) -> Complex:
    """The subcomplex of amb with the source of ``incls[k]`` in degree k and
    each differential solved from incl_{k+1} o delta = d o incl_k, uniquely
    since an inclusion is mono; ComplexError when d leaves the subcomplex."""
    comps = {k: f.source for k, f in incls.items()}
    diffs = {}
    for k, f in incls.items():
        if (k + 1) not in comps or comps[k].is_zero() or comps[k + 1].is_zero():
            continue
        sol = _solve_in_module(amb.component(k + 1), incls[k + 1].matrix,
                               amb.differential(k).matrix @ f.matrix)
        if sol is None:
            raise ComplexError(f"the differential leaves the subcomplex at degree {k}")
        diffs[k] = ModuleMap(comps[k], comps[k + 1], sol)
    return Complex(amb.ring, comps, diffs, check=check)


def mapping_cone(f: ChainMap) -> tuple:
    """Mapping cone of f: X -> Y with its canonical degreewise-split sequence
    0 -> Y -> cone -> X[1] -> 0."""
    X, Y = f.source, f.target
    ring = X.ring
    sx = shift(X, 1)
    degs = sorted(set(sx.degrees()) | set(Y.degrees()))
    sums = {k: direct_sum([sx.component(k), Y.component(k)]) for k in degs}
    comps = {k: sums[k].module for k in degs}
    diffs = {}
    for k in degs:
        if (k + 1) not in comps:
            continue
        dx = sx.differential(k)          # already carries the shift sign
        term = sums[k + 1].injections[0].compose(dx).compose(sums[k].projections[0])
        fk = f.component(k + 1)          # X^{k+1} = sx^k -> Y^{k+1}... see below
        glue = sums[k + 1].injections[1].compose(fk).compose(sums[k].projections[0])
        dy = sums[k + 1].injections[1].compose(Y.differential(k)).compose(sums[k].projections[1])
        diffs[k] = term + glue + dy
    cone = Complex(ring, comps, diffs, check=False)
    inj = ChainMap(Y, cone, {k: sums[k].injections[1] for k in Y.degrees()}, check=False)
    surj = ChainMap(cone, sx, {k: sums[k].projections[0] for k in degs if k in sums}, check=False)
    seq = ShortExactOfComplexes(Y, cone, sx, inj, surj)
    return cone, seq


class HomDegree(Record):
    """One degree of a hom complex: ``blocks`` holds (i, HomModule) per
    source degree i, and ``sum`` their direct sum."""

    _fields = ("degree", "blocks", "sum")

    def element_from_family(self, family: dict) -> tuple:
        """The element of this degree whose block i holds the map family[i]
        (zero where family has no map)."""
        total = [0] * self.sum.module.ngens
        for idx, (i, hm) in enumerate(self.blocks):
            f = family.get(i)
            if f is None:
                continue
            coords = hm.encode(f)
            piece = self.sum.injections[idx].apply(coords)
            total = [a + b for a, b in zip(total, piece)]
        return self.sum.module.reduce_element(total)


class HomComplexData(Record):
    """The hom complex of x and y, with its ``HomDegree`` per degree n in
    ``degrees``."""

    _fields = ("x", "y", "complex", "degrees")


def hom_complex_data(x: Complex, y: Complex, degrees: Optional[Sequence[int]] = None) -> HomComplexData:
    """Internal hom complex with block bookkeeping.

    Degree n component is the sum over i of Hom(x^i, y^{i+n})
    (``_hom_degree``), and its differential is ``_differential_rows``, the
    one assembly path chain-map groups read their d^0 from too.
    """
    ring = x.ring
    if x.is_zero() or y.is_zero():
        return HomComplexData(x, y, zero_complex(ring), {})
    xlo, xhi = x.support
    ylo, yhi = y.support
    lo, hi = ylo - xhi, yhi - xlo
    wanted = range(lo, hi + 1) if degrees is None else [n for n in degrees if lo <= n <= hi]
    deg_data = {n: d for n in wanted if (d := _hom_degree(x, y, n)) is not None}
    comps = {n: d.sum.module for n, d in deg_data.items()}
    diffs = {}
    for n, d in deg_data.items():
        if (n + 1) in deg_data:
            source, target = d.sum.module, deg_data[n + 1].sum.module
            rows = _differential_rows(x, y, d, deg_data[n + 1])
            diffs[n] = ModuleMap(source, target, IntMatrix(len(rows), source.ngens, rows))
    return HomComplexData(x, y, Complex(ring, comps, diffs, check=False), deg_data)


def _hom_degree(x: Complex, y: Complex, n: int) -> Optional[HomDegree]:
    """Degree n of Hom(x, y): its nonzero blocks Hom(x^i, y^{i+n}) in the
    order of i and their direct sum, or None when it has none."""
    blocks = []
    for i, xi in x._components.items():
        yi = y._components.get(i + n)
        if yi is None:
            continue
        hm = hom_module(xi, yi)
        if not hm.module.is_zero():
            blocks.append((i, hm))
    if not blocks:
        return None
    return HomDegree(n, tuple(blocks), direct_sum([hm.module for _, hm in blocks]))


def _differential_rows(x: Complex, y: Complex, d: HomDegree, tgt: HomDegree) -> list:
    """The matrix rows, not reduced, of the hom-complex differential from
    degree n = ``d.degree`` to n + 1 (``tgt``).  It sends a family (f^i) to
    d_y o f^i - (-1)^n f^{i+1} o d_x, so its blocks are the memoised
    ``hom_postcompose`` by d_y and ``hom_precompose`` by d_x, negated when
    n is even, assembled by ``_block_rows`` with the projections of the
    degree-n sum."""
    n = d.degree
    blocks = []
    for s, (i, hm) in enumerate(d.blocks):
        for t, (ti, thm) in enumerate(tgt.blocks):
            if ti == i:
                blocks.append((s, t, hom_postcompose(hm, thm, y.differential(i + n)).matrix))
            elif ti == i - 1:
                block = hom_precompose(hm, thm, x.differential(i - 1)).matrix
                blocks.append((s, t, -block if n % 2 == 0 else block))
    right = [_sparse_rows(p.matrix.entries) for p in d.sum.projections]
    return _block_rows(tgt.sum, blocks, d.sum.module.ngens, right)


def _block_rows(tgt: DirectSum, blocks: list, width: int, right: Sequence) -> list:
    """The rows, not reduced, of the map into tgt.module that is the sum of
    injection t o block o right[s] over the (s, t, block matrix) in
    ``blocks``, with right[s] the ``_sparse_rows`` of a map with ``width``
    columns into the s-th summand of a direct sum: its projection, or a
    projection of a cycle inclusion.

    Each target summand's rows are one zero-skipping integer product per
    block, summed, then one product with its injection; over the integers
    the sum equals the product of the full block-matrix factors entry for
    entry, so a reduction of the rows gives the map's matrix."""
    parts: dict = {}        # t -> the rows of sum_s block o right[s]
    for s, t, block in blocks:
        rows = _sparse_product(block.entries, right[s], width)
        if t in parts:
            rows = [list(map(add, r, q)) for r, q in zip(parts[t], rows)]
        parts[t] = rows
    total = [(0,) * width] * tgt.module.ngens
    for t, rows in parts.items():
        for r, row in enumerate(_row_product(tgt.injections[t].matrix.entries, rows, width)):
            total[r] = tuple(map(add, total[r], row))
    return total


def _sparse_rows(b: Sequence[Sequence[int]]) -> list:
    """The (column, entry) pairs of the nonzero entries of each row of b."""
    return [[(j, y) for j, y in enumerate(row) if y] for row in b]


def _sparse_product(a: Sequence[Sequence[int]], sparse: list, width: int) -> list:
    """a @ b on lists of rows, for b with ``width`` columns given by its
    ``_sparse_rows``, skipping the zero entries of both factors."""
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                for j, y in sparse[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def _row_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], width: int) -> list:
    """a @ b on lists of rows, b with ``width`` columns, skipping the zero
    entries of both factors."""
    return _sparse_product(a, _sparse_rows(b), width)


def hom_complex(x: Complex, y: Complex) -> Complex:
    return hom_complex_data(x, y).complex


# ---------------------------------------------------------------------------
# Homology and exactness
# ---------------------------------------------------------------------------

class ExactnessReport(Frozen):
    """Whether a complex is exact, and ``homology``: degree k -> the
    invariant factors of H^k, a read-only mapping in increasing degree, so
    that equal reports hash and print alike."""

    _fields = ("exact", "homology")

    def __init__(self, exact: bool, homology: dict) -> None:
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "homology", MappingProxyType(dict(sorted(homology.items()))))

    def __hash__(self) -> int:
        return hash((self.exact, tuple(self.homology.items())))


def homology_at(c: Complex, k: int) -> FpModule:
    """H^k = ker d^k / im d^{k-1}, computed on the integer lattices: the
    submodule of C^k that the kernel generators of d^k span, modulo the
    columns of d^{k-1}."""
    comp = c.component(k)
    if comp.is_zero():
        return FpModule.zero(c.ring)
    return _sublattice_module(comp, _kernel_generators(c.differential(k)),
                              c.differential(k - 1).matrix)[0]


def exact_at(c: Complex, degrees: Iterable[int]) -> bool:
    """True when H^k(c) = 0 at every k in ``degrees``, for c with d o d = 0.

    Over Z/n, c is exact at k iff |im d^{k-1}| * |im d^k| = |C^k|; each
    differential's image order is counted once and read at both of its
    degrees.  Over Z, where components may be infinite, the homology is
    computed."""
    if not c.ring.is_modular:
        return all(homology_at(c, k).is_zero() for k in degrees)
    orders: dict = {}

    def order(k: int) -> int:
        if k not in orders:
            d = c._differentials.get(k)
            # an absent differential touches a zero component
            orders[k] = 1 if d is None else image_order(d.target, d.matrix)
        return orders[k]

    return all(order(k - 1) * order(k) == c.component(k).size() for k in degrees)


def is_exact(c: Complex) -> ExactnessReport:
    """Exactness verdict with the homology invariant factors per degree.

    Over Z/n an exact complex is certified by ``exact_at``; the homology is
    computed only when that fails, over Z, or when d o d != 0 (counting
    presumes a complex, the homology path answers for any family of maps)."""
    if c.is_zero():
        return ExactnessReport(True, {})
    lo, hi = c.support
    degrees = range(lo, hi + 1)
    if c.ring.is_modular and exact_at(c, degrees) and validate_complex(c).ok:
        return ExactnessReport(True, {k: () for k in degrees})
    hom = {k: homology_at(c, k).factors for k in degrees}
    return ExactnessReport(all(not fac for fac in hom.values()), hom)


# ---------------------------------------------------------------------------
# Homotopy and splitting solvers
# ---------------------------------------------------------------------------

def null_homotopy(f: ChainMap) -> Optional[Homotopy]:
    """Find s with s o d + d o s = f, or None; the solution is canonical."""
    X, Y = f.source, f.target
    if X.is_zero() or Y.is_zero():
        return Homotopy(f, {}, check=False)
    ms = MapSystem(X.ring)
    xlo, xhi = X.support
    names = {}
    for k in range(xlo, xhi + 2):
        if not X.component(k).is_zero() and not Y.component(k - 1).is_zero():
            names[k] = ms.unknown(f"s{k}", X.component(k), Y.component(k - 1))
    for k in range(xlo - 1, xhi + 2):
        if X.component(k).is_zero() or Y.component(k).is_zero():
            continue
        terms = []
        if (k + 1) in names:
            terms.append((None, names[k + 1], X.differential(k), 1))
        if k in names:
            terms.append((Y.differential(k - 1), names[k], None, 1))
        ms.equation(terms, f.component(k), (X.component(k), Y.component(k)))
    sol = ms.solve()
    if sol is None:
        return None
    comps = {k: sol[name] for k, name in names.items()}
    return Homotopy(f, comps, check=False)


def splits(seq: ShortExactOfComplexes) -> Optional[ChainMap]:
    """A retraction r with r o inj = id as chain maps, or None."""
    return _factor_through(seq.inj, [ChainMap.identity(seq.left)], True)[0]


def _sphere_map(f: ModuleMap) -> ChainMap:
    """f as a chain map of the degree-zero spheres on its ends."""
    return ChainMap(sphere(0, f.source), sphere(0, f.target), {0: f}, check=False)


def _factor_through(phi, fs: Sequence, injective: bool) -> list:
    """For each f in ``fs`` the canonical chain map g with g o phi = f
    (``injective``) or phi o g = f, or None.  Module maps are taken as maps
    of degree-zero spheres; the fs share their ends.  g's components in
    degree order are the unknowns of one ``MapSystem``, its equations are
    g's chain squares and components, and each f is one right-hand side."""
    if isinstance(phi, ModuleMap):
        phi, fs = _sphere_map(phi), [_sphere_map(f) for f in fs]
    # g: S -> T, and the component equations live in Hom(A^k, C^k)
    (S, T), (A, C) = ((phi.target, fs[0].target), (phi.source, fs[0].target)) if injective \
        else ((fs[0].source, phi.source), (fs[0].source, phi.target))
    ms = MapSystem(S.ring)
    names = {k: ms.unknown(f"g{k}", S.component(k), T.component(k))
             for k in S.degrees() if not T.component(k).is_zero()}
    slots = []      # per equation, the degree of f its right-hand side is, or None
    for k in S.degrees():
        # chain square g^{k+1} d_S = d_T g^k
        if T.component(k + 1).is_zero():
            continue
        terms = [(None, names[k + 1], S.differential(k), 1)] if (k + 1) in names else []
        if k in names:
            terms.append((T.differential(k), names[k], None, -1))
        if terms:
            ms.equation(terms, None, (S.component(k), T.component(k + 1)))
            slots.append(None)
    for k in A.degrees():
        # g^k o phi^k = f^k (injective) or phi^k o g^k = f^k; with no g^k, f^k = 0
        if C.component(k).is_zero():
            continue
        terms = []
        if k in names:
            terms.append((None, names[k], phi.component(k), 1) if injective
                         else (phi.component(k), names[k], None, 1))
        ms.equation(terms, None, (A.component(k), C.component(k)))
        slots.append(k)
    sols = ms.solve_each([[None if k is None else f.component(k) for k in slots] for f in fs])
    return [None if sol is None else
            ChainMap(S, T, {k: sol[name] for k, name in names.items()}, check=False)
            for sol in sols]


# ---------------------------------------------------------------------------
# Chain map groups via degree-zero hom-complex cycles
# ---------------------------------------------------------------------------

class ChainMapGroup(Record):
    """The abelian group of chain maps A -> B as a module with a decoder.

    It is the group of cycles of Hom^0 = sum_i Hom(A^i, B^i), the kernel of
    d^0 into Hom^1.  It keeps Hom^0's blocks and sum (None when Hom^0 is
    zero) and, from ``complexes.cycle_presentations``, the cycle module, its
    inclusion into Hom^0's sum (None then too) and the P_s, one per block s
    of Hom^0 (``_cycle_blocks``; () without cycles); no hom complex is built
    for it.  The instance keeps a ``__dict__`` for its cached properties."""

    _fields = ("source", "target", "module", "_hom0", "_inclusion", "_blocks")
    _defaults = (("_blocks", ()),)

    def decode(self, elem: Sequence[int]) -> ChainMap:
        comps = {}
        for k, rows in self._rows(elem).items():
            src, tgt = self.source.component(k), self.target.component(k)
            comps[k] = ModuleMap(src, tgt, IntMatrix.from_rows(rows, cols=src.ngens))
        return ChainMap(self.source, self.target, comps, check=False)

    @cached_property
    def _pair_blocks(self) -> tuple:
        """(degree, Hom block, from_canonical @ P_s) per block of Hom^0: the
        raw ``HomModule.pairs`` coordinates of every group generator's
        component in that degree, as integer rows."""
        width = self.module.ngens
        return tuple((i, hm, tuple(map(tuple, _row_product(hm.from_canonical.entries, p, width))))
                     for (i, hm), p in zip(self._hom0.blocks, self._blocks))

    @cached_property
    def _sparse_blocks(self) -> list:
        """The ``_sparse_rows`` of each P_s, the right factors of every
        ``chain_group_image`` out of this group."""
        return [_sparse_rows(p) for p in self._blocks]

    @cached_property
    def _section_columns(self) -> tuple:
        """The columns of the cycle inclusion: the right-hand sides of the
        section solves of every restriction into this group."""
        return tuple(self._inclusion.matrix.columns())

    def _rows(self, elem: Sequence[int]) -> dict:
        """The matrix rows of the chain map of ``elem`` in each degree with a
        nonzero Hom block, as ``HomModule._rows`` gives them."""
        if self._inclusion is None:
            return {}
        return {i: hm._pair_rows([sum(x * e for x, e in zip(row, elem)) for row in raw])
                for i, hm, raw in self._pair_blocks}

    def _scan(self) -> Iterator[tuple]:
        """``_scan_maps`` of this group, in the degrees where source and
        target are both nonzero."""
        shapes = [(k, self.source.component(k).ngens, self.target.component(k).factors)
                  for k in self.source.degrees() if not self.target.component(k).is_zero()]
        return _scan_maps(self.module, self._rows, shapes)

    def elements(self) -> Iterator[ChainMap]:
        if self.module.size() is None:
            raise ComplexError("infinite chain map group")
        for elem in self.module.elements():
            yield self.decode(elem)

    def encode(self, f: ChainMap) -> Optional[tuple]:
        """Coordinates of a chain map in the cycle group, if it lies there."""
        if self._inclusion is None:
            return () if f.is_zero() else None
        target_elem = self._hom0.element_from_family(dict(f._components))
        amb = self._hom0.sum.module
        rhs = IntMatrix.from_columns([list(target_elem)], rows=amb.ngens)
        sol = _solve_in_module(amb, self._inclusion.matrix, rhs)
        if sol is None:
            return None
        return tuple(sol.entries[i][0] for i in range(self.module.ngens))


_CHAIN_GROUP_CACHE = caches.table("complexes.chain_map_group")
# many chain-map groups share their d^0: the cycles are a function of it
_CYCLE_PRESENTATIONS = caches.table("complexes.cycle_presentations")


def chain_map_group(a: Complex, b: Complex) -> ChainMapGroup:
    return _CHAIN_GROUP_CACHE.lookup((a.canonical_key(), b.canonical_key()),
                                     lambda: _chain_map_group(a, b))


def _chain_map_group(a: Complex, b: Complex) -> ChainMapGroup:
    """The group from Hom^0 and Hom^1 (``_hom_degree``) and the d^0 rows of
    ``_differential_rows`` between them, reduced and checked as a
    ``ModuleMap`` would (``_checked_rows``); the cycles come from
    ``_cycle_presentation``."""
    hom0 = _hom_degree(a, b, 0)
    if hom0 is None:
        return ChainMapGroup(a, b, FpModule.zero(a.ring), None, None, ())
    amb = hom0.sum.module
    hom1 = _hom_degree(a, b, 1)
    if hom1 is None:
        target, rows = FpModule.zero(a.ring), ()
    else:
        target = hom1.sum.module
        rows = _checked_rows(amb.factors, target.factors, _differential_rows(a, b, hom0, hom1))
    sub, inclusion, blocks = _cycle_presentation(hom0, target, rows)
    return ChainMapGroup(a, b, sub, hom0, inclusion, blocks)


def _cycle_presentation(hom0: HomDegree, target: FpModule, rows: tuple) -> tuple:
    """(cycle module, inclusion into Hom^0's sum, P_s blocks) for the
    d^0 from Hom^0 (``hom0``) into ``target``, Hom^1's sum module or zero
    when there is no Hom^1, with reduced matrix rows ``rows``: the whole
    sum when the target is zero, else ``_kernel_inclusion`` of d^0, and
    ``_cycle_blocks``.

    Read from ``complexes.cycle_presentations``, keyed by the ring, the
    factors of each Hom^0 summand (the P_s depend on the summand
    projections, not only on the sum), the target factors and the rows:
    the key fixes Hom^0's sum with its projections, so the value computed
    for one group serves every group with the same key."""
    amb = hom0.sum.module
    key = (amb.ring, tuple(hm.module.factors for _, hm in hom0.blocks), target.factors, rows)

    def compute() -> tuple:
        if target.is_zero():
            sub, inclusion = amb, ModuleMap.identity(amb)
        else:
            sub, inclusion = _kernel_inclusion(
                ModuleMap(amb, target, IntMatrix(len(rows), amb.ngens, rows)))
        return sub, inclusion, _cycle_blocks(hom0.sum, inclusion)

    return _CYCLE_PRESENTATIONS.lookup(key, compute)


def _cycle_blocks(amb: DirectSum, inclusion: ModuleMap) -> tuple:
    """P_s = projection s o ``inclusion`` for each summand s of Hom^0, as
    integer row tuples (smaller than lists), not reduced: a chain-map
    group's cycle inclusion in block coordinates."""
    width = inclusion.source.ngens
    return tuple(tuple(map(tuple, _row_product(p.matrix.entries, inclusion.matrix.entries, width)))
                 for p in amb.projections)


def chain_group_image(g_from: ChainMapGroup, g_to: ChainMapGroup, phi: ChainMap,
                      pre: bool) -> IntMatrix:
    """The matrix, reduced, of the map g_from.module -> Hom^0 of g_to
    sending f to f o phi (``pre``) or to phi o f, in the coordinates of the
    hom-complex degree zero that holds g_to's cycles, which g_to must have;
    zero when g_from has none.

    On Hom^0 = sum_i Hom(x^i, y^i) the map is block diagonal in the
    degreewise ``hom_precompose`` (``hom_postcompose``) matrices by phi^i,
    applied to g_from's cycle inclusion in block coordinates (its
    ``_sparse_blocks``): one product per block, assembled by
    ``_block_rows`` and checked as a ``ModuleMap`` would (``_checked_rows``),
    building none.  It is the restriction between the two groups followed
    by g_to's injective cycle inclusion, so lifting reads sections and
    counterexamples off it without solving for the restriction itself."""
    tgt, width = g_to._hom0, g_from.module.ngens
    if g_from._inclusion is None:
        return IntMatrix.zero(tgt.sum.module.ngens, 0)
    compose = hom_precompose if pre else hom_postcompose
    slots = {i: t for t, (i, _) in enumerate(tgt.blocks)}
    blocks = [(s, slots[i], compose(hm, tgt.blocks[slots[i]][1], phi.component(i)).matrix)
              for s, (i, hm) in enumerate(g_from._hom0.blocks) if i in slots]
    rows = _block_rows(tgt.sum, blocks, width, g_from._sparse_blocks)
    return IntMatrix(len(rows), width,
                     _checked_rows(g_from.module.factors, tgt.sum.module.factors, rows))


def chain_maps(a: Complex, b: Complex, cap: int = 100000) -> list:
    grp = chain_map_group(a, b)
    size = grp.module.size()
    if size is None or size > cap:
        raise ComplexError(f"chain map group too large to enumerate ({size})")
    return list(grp.elements())


def complex_isomorphic(a: Complex, b: Complex) -> bool:
    """True when some chain map is a degreewise isomorphism."""
    if a.degrees() != b.degrees():
        return False
    if any(a.component(k).factors != b.component(k).factors for k in a.degrees()):
        return False
    verdicts = {}     # (degree, matrix rows) -> is the component an isomorphism

    def iso(k: int, rows: tuple) -> bool:
        # the ends have the same factors, so a finite component is onto iff
        # injective; ``_scan`` walks finite groups only, and a map of finite
        # order is not injective on a free Z summand
        if (k, rows) not in verdicts:
            src, tgt = a.component(k), b.component(k)
            f = ModuleMap(src, tgt, IntMatrix(tgt.ngens, src.ngens, rows))
            verdicts[(k, rows)] = f.is_mono()
        return verdicts[(k, rows)]

    return any(all(iso(k, blocks[k]) for k in a.degrees())
               for _, blocks in chain_map_group(a, b)._scan())
