"""Shared deterministic generators and test-only oracles for the randomized suites."""
from __future__ import annotations

import math
import random
from functools import partial
from itertools import accumulate
from typing import Optional

from homkit import (
    ChainMap,
    Complex,
    FpModule,
    ModuleMap,
    RingSpec,
    chain_map_group,
    disk,
    hom_module,
)
from homkit.complexes import (
    HomComplexData,
    HomDegree,
    _row_product,
    chain_group_image,
    exact_at,
    null_homotopy,
    zero_complex,
)
from homkit.construct import (
    BuildStep,
    OracleHypothesisError,
    PrecoverResult,
    PreenvelopeResult,
    _block_matrices,
    _oracle_at,
    _passing,
    _side_words,
    _verified_membership,
)
from homkit.exactalg import (
    CongruenceSystem,
    ExactAlgError,
    IntMatrix,
    _factorize,
    _gcdex,
    _snf_full,
    _unit_scaling,
    _val,
    integer_kernel,
)
from homkit.lifting import _CHAIN_SEARCH_CAP
from homkit.modules import (
    MapSystem,
    ModuleError,
    Presentation,
    _kernel_inclusion,
    direct_sum,
    hom_postcompose,
    hom_precompose,
    normalize_presentation,
)
from homkit.xclass import _fits, _shape, module_universe


def small_modules(ring: RingSpec, max_size: int) -> list:
    """All modules over Z/n with at most ``max_size`` elements."""
    def chains(prefix, prod):
        out = [tuple(prefix)]
        for d in range(2, ring.modulus + 1):
            if ring.modulus % d:
                continue
            if prefix and d % prefix[-1] != 0:
                continue
            if prod * d <= max_size:
                out.extend(chains(prefix + [d], prod * d))
        return out
    facs = sorted(set(chains([], 1)), key=lambda f: (len(f), f))
    return [FpModule(ring, f) for f in facs]


def random_complex(rng: random.Random, ring: RingSpec, members: list,
                   max_degrees: int = 3, lo_range=(-1, 1)) -> Complex:
    """A random bounded complex with components from ``members``."""
    ndeg = rng.randint(1, max_degrees)
    lo = rng.randint(*lo_range)
    comps = {k: rng.choice(members) for k in range(lo, lo + ndeg)}
    for _ in range(60):
        diffs = {}
        ok = True
        prev = None
        for k in range(lo, lo + ndeg - 1):
            hm = hom_module(comps[k], comps[k + 1])
            if hm.module.is_zero():
                d = ModuleMap.zero(comps[k], comps[k + 1])
            else:
                els = list(hm.module.elements())
                d = hm.decode(els[rng.randrange(len(els))])
            if prev is not None and not d.compose(prev).is_zero():
                ok = False
                break
            diffs[k] = d
            prev = d
        if ok:
            return Complex(ring, comps, diffs)
    return Complex(ring, comps, {})


def random_chain_map(rng: random.Random, x: Complex, y: Complex) -> ChainMap:
    grp = chain_map_group(x, y)
    size = grp.module.size()
    if not size or size == 1:
        return ChainMap.zero(x, y)
    els = list(grp.module.elements())
    return grp.decode(els[rng.randrange(len(els))])


def competitors(x, u, degrees, injective: bool) -> list:
    """Disks in the given degrees on the nonzero class members that pass the
    side's module test: every competitor the factorization verifiers
    account for."""
    return [disk(k, m) for m in _passing(x, u, injective) if not m.is_zero() for k in degrees]


def disk_maps(k: int, m: FpModule, y: Complex, into: bool) -> tuple:
    """Generators and order of the group of chain maps disk(k, m) -> y, or
    y -> disk(k, m) when ``into``: a chain map disk(k, m) -> y is
    (f, d_y^k o f) for a unique f in Hom(m, y^k), and a chain map
    y -> disk(k, m) is (g o d_y^k, g) for a unique g in Hom(y^{k+1}, m).
    The order is None when the group is infinite."""
    d = disk(k, m)
    hm = hom_module(y.component(k + 1), m) if into else hom_module(m, y.component(k))
    ngens = hm.module.ngens
    gens = []
    for t in range(ngens):
        f = hm.decode(tuple(1 if s == t else 0 for s in range(ngens)))
        if into:
            comps = {k: f.compose(y.differential(k)), k + 1: f}
            gens.append(ChainMap(y, d, comps, check=False))
        else:
            comps = {k: f, k + 1: y.differential(k).compose(f)}
            gens.append(ChainMap(d, y, comps, check=False))
    return gens, hm.module.size()


def random_automorphism(rng: random.Random, m: FpModule) -> tuple:
    """(a, a^-1) for an automorphism a of a finite module drawn by ``rng``
    from the invertible elements of Hom(m, m)."""
    hm = hom_module(m, m)
    isos = [f for f in map(hm.decode, hm.module.elements()) if f.is_mono() and f.is_epi()]
    a = rng.choice(isos)
    one = ModuleMap.identity(m)
    return a, next(b for b in isos if b.compose(a) == one)


def twisted_copy(rng: random.Random, c: Complex) -> Complex:
    """An isomorphic copy of c: each d^k becomes a_{k+1} o d^k o a_k^-1 for
    random automorphisms a_k of the components."""
    autos = {k: random_automorphism(rng, c.component(k)) for k in c.degrees()}
    diffs = {k: autos[k + 1][0].compose(c.differential(k)).compose(autos[k][1])
             for k in c.degrees() if k + 1 in autos}
    return Complex(c.ring, {k: c.component(k) for k in c.degrees()}, diffs)


# ---------------------------------------------------------------------------
# Hom-complex differentials, chain-map groups, their generator rows and
# restriction images as they were assembled before a group kept its cycle
# inclusion in block coordinates, kept as test-only oracles
# ---------------------------------------------------------------------------

def block_sum_oracle(src, tgt, blocks: list, right: Optional[ModuleMap] = None) -> ModuleMap:
    """The map src.module -> tgt.module assembled from blocks, followed by
    ``right`` when given: the sum of injection t o block o projection s over
    the (s, t, block matrix) in ``blocks``, computed as one integer product
    Inj @ Big @ Proj (@ right), with Inj the injections side by side, Proj
    the projections stacked and Big every block copied in at its summand
    offsets, reduced once at the end."""
    toff = list(accumulate((f.source.ngens for f in tgt.injections), initial=0))
    soff = list(accumulate((f.target.ngens for f in src.projections), initial=0))
    big = [[0] * soff[-1] for _ in range(toff[-1])]
    for s, t, block in blocks:
        for r, row in enumerate(block.entries, toff[t]):
            big[r][soff[s]:soff[s + 1]] = row
    inj = [sum((f.matrix.entries[i] for f in tgt.injections), ()) for i in range(tgt.module.ngens)]
    proj = [row for f in src.projections for row in f.matrix.entries]
    total = _row_product(_row_product(inj, big, soff[-1]), proj, src.module.ngens)
    source = src.module
    if right is not None:
        source = right.source
        total = _row_product(total, right.matrix.entries, source.ngens)
    return ModuleMap(source, tgt.module, IntMatrix.from_rows(total, cols=source.ngens))


def hom_complex_data_oracle(x: Complex, y: Complex, degrees=None) -> HomComplexData:
    """``complexes.hom_complex_data`` as it was: the blocks found by asking
    every degree of x's support for its component, each differential one
    ``block_sum_oracle`` of the signed composition blocks."""
    ring = x.ring
    if x.is_zero() or y.is_zero():
        return HomComplexData(x, y, zero_complex(ring), {})
    xlo, xhi = x.support
    ylo, yhi = y.support
    lo, hi = ylo - xhi, yhi - xlo
    wanted = range(lo, hi + 1) if degrees is None else [n for n in degrees if lo <= n <= hi]
    deg_data = {}
    for n in wanted:
        blocks = []
        for i in range(xlo, xhi + 1):
            if x.component(i).is_zero() or y.component(i + n).is_zero():
                continue
            hm = hom_module(x.component(i), y.component(i + n))
            if hm.module.is_zero():
                continue
            blocks.append((i, hm))
        if blocks:
            ds = direct_sum([hm.module for _, hm in blocks])
            deg_data[n] = HomDegree(n, tuple(blocks), ds)
    comps = {n: d.sum.module for n, d in deg_data.items()}
    diffs = {}
    for n, d in deg_data.items():
        if (n + 1) not in deg_data:
            continue
        tgt = deg_data[n + 1]
        blocks = []
        for s, (i, hm) in enumerate(d.blocks):
            for t, (ti, thm) in enumerate(tgt.blocks):
                if ti == i:
                    blocks.append((s, t, hom_postcompose(hm, thm, y.differential(i + n)).matrix))
                elif ti == i - 1:
                    block = hom_precompose(hm, thm, x.differential(i - 1)).matrix
                    blocks.append((s, t, -block if n % 2 == 0 else block))
        if blocks:
            diffs[n] = block_sum_oracle(d.sum, tgt.sum, blocks)
    return HomComplexData(x, y, Complex(ring, comps, diffs, check=False), deg_data)


def chain_map_group_oracle(a: Complex, b: Complex) -> tuple:
    """(module, cycle inclusion or None) of the chain maps a -> b, from the
    d^0 of ``hom_complex_data_oracle``."""
    data = hom_complex_data_oracle(a, b, degrees=(0, 1))
    if 0 not in data.degrees:
        return FpModule.zero(a.ring), None
    d0 = data.complex.differential(0)
    if d0.target.is_zero():
        amb = data.degrees[0].sum.module
        return amb, ModuleMap.identity(amb)
    return _kernel_inclusion(d0)


def chain_group_rows_oracle(grp, elem) -> dict:
    """``ChainMapGroup._rows`` as it was: the element's Hom^0 coordinates,
    then per block its projection and ``HomModule._rows``, each a reduced
    ``ModuleMap.apply``."""
    if grp._inclusion is None:
        return {}
    data = grp._hom0
    coords = grp._inclusion.apply(elem)
    return {i: hm._rows(data.sum.projections[idx].apply(coords))
            for idx, (i, hm) in enumerate(data.blocks)}


def chain_group_image_oracle(g_from, g_to, phi: ChainMap, pre: bool) -> ModuleMap:
    """``complexes.chain_group_image`` as it was: one ``block_sum_oracle``
    of the composition blocks followed by g_from's cycle inclusion."""
    src, tgt = g_from._hom0, g_to._hom0
    compose = hom_precompose if pre else hom_postcompose
    slots = {i: t for t, (i, _) in enumerate(tgt.blocks)}
    blocks = [(s, slots[i], compose(hm, tgt.blocks[slots[i]][1], phi.component(i)).matrix)
              for s, (i, hm) in enumerate(src.blocks) if i in slots]
    return block_sum_oracle(src.sum, tgt.sum, blocks, right=g_from._inclusion)


# ---------------------------------------------------------------------------
# The per-type lifting path, kept as a test-only oracle: the restriction
# between hom groups as its own matrix, its sections and its first element
# outside the image
# ---------------------------------------------------------------------------

def solve_in_module_columns_oracle(target: FpModule, mat: IntMatrix, columns) -> list:
    """``modules._solve_in_module_columns`` without its memo table: one
    fresh elimination solving mat @ x = b, row i a congruence mod target
    factor i, for each right-hand side b in ``columns``; each column's
    particular solution, or None where it has none."""
    ring = target.ring
    sys = CongruenceSystem(ring, mat.cols)
    for i, di in enumerate(target.factors):
        modulus = di if di else (ring.modulus if ring.is_modular else 0)
        sys.add({j: mat.entries[i][j] for j in range(mat.cols) if mat.entries[i][j]}, 0, modulus)
    return sys.solve_columns(columns)[0]


def chain_group_compose(g_from, g_to, phi: ChainMap, pre: bool) -> ModuleMap:
    """The map g_from.module -> g_to.module sending f to f o phi (``pre``)
    or to phi o f, as one matrix: the composites of g_from's cycle
    generators, ``chain_group_image``, solved against g_to's inclusion with
    one elimination; each column is the canonical solution ``g_to.encode``
    would return."""
    if g_from._inclusion is None or g_to._inclusion is None:
        return ModuleMap.zero(g_from.module, g_to.module)
    image = chain_group_image(g_from, g_to, phi, pre)
    parts = solve_in_module_columns_oracle(g_to._inclusion.target, g_to._inclusion.matrix,
                                           image.columns())
    if any(part is None for part in parts):
        raise AssertionError("composite escaped the chain-map group")
    return ModuleMap(g_from.module, g_to.module,
                     IntMatrix.from_columns(parts, rows=g_to.module.ngens))


def induced_restriction(phi, obj, injective: bool, hom) -> tuple:
    """The map a lifting test needs to be onto, for phi: A -> B:

    injective:  Hom(B, obj) -> Hom(A, obj), f -> f o phi
    otherwise:  Hom(obj, A) -> Hom(obj, B), f -> phi o f

    Returns (map, source group, target group, f -> image of f).  For
    modules the map is the memoised ``hom_precompose`` (``hom_postcompose``)
    matrix; for complexes ``chain_group_compose``."""
    grp_from, grp_to = (hom(phi.target, obj), hom(phi.source, obj)) if injective \
        else (hom(obj, phi.source), hom(obj, phi.target))
    fn = (lambda f: f.compose(phi)) if injective else phi.compose
    if isinstance(phi, ModuleMap):
        restr = (hom_precompose if injective else hom_postcompose)(grp_from, grp_to, phi)
    else:
        restr = chain_group_compose(grp_from, grp_to, phi, pre=injective)
    return restr, grp_from, grp_to, fn


def section_certificate(restr: ModuleMap) -> list:
    """Canonical preimages of the target generators (the lift data) of a
    restriction matrix."""
    n = restr.target.ngens
    units = [[1 if r == g else 0 for r in range(n)] for g in range(n)]
    return solve_in_module_columns_oracle(restr.target, restr.matrix, units)


def first_outside_image(proj: ModuleMap) -> tuple:
    """First element of a map's target group (in enumeration order) outside
    its image, given the projection onto its nonzero cokernel."""
    return next(elem for elem in proj.source.elements() if any(proj.apply(elem)))


# the group sizes up to which the old lifting confirmer enumerated, by level
CONFIRM_CAPS = {"module": 1 << 16, "complex": 1 << 14}


def confirm_no_preimage(grp, fn, f, cap: int) -> None:
    """The old lifting confirmer, kept as a test-only oracle: exhaustively
    re-verify that no g in the group has fn(g) == f; groups above ``cap``
    elements, and infinite ones, are not enumerated."""
    size = grp.module.size()
    if size is None or size > cap:
        return
    for g in grp.elements():
        if fn(g) == f:
            raise AssertionError("counterexample refuted by exhaustive search")


def old_retraction(L: Complex, M: Complex, inj: ChainMap) -> Optional[ChainMap]:
    """The canonical chain map r: M -> L with r o inj = id, or None, by the
    retraction system ``splits`` solved before the shared factoring solver
    (the test-only oracle)."""
    if L.is_zero():
        return ChainMap.zero(M, L)
    ms = MapSystem(L.ring)
    names = {}
    for k in M.degrees():
        if not L.component(k).is_zero():
            names[k] = ms.unknown(f"r{k}", M.component(k), L.component(k))
    degs = set(M.degrees()) | set(L.degrees())
    for k in degs:
        # chain square r^{k+1} d_M = d_L r^k
        if not M.component(k).is_zero() and not L.component(k + 1).is_zero():
            terms = []
            if (k + 1) in names:
                terms.append((None, names[k + 1], M.differential(k), 1))
            if k in names:
                terms.append((L.differential(k), names[k], None, -1))
            if terms:
                ms.equation(terms, None, (M.component(k), L.component(k + 1)))
        # retraction on the inclusion
        if not L.component(k).is_zero():
            if k not in names:
                return None
            ms.equation([(None, names[k], inj.component(k), 1)],
                        ModuleMap.identity(L.component(k)), (L.component(k), L.component(k)))
    sol = ms.solve()
    if sol is None:
        return None
    comps = {k: sol[name] for k, name in names.items()}
    return ChainMap(M, L, comps, check=False)


# ---------------------------------------------------------------------------
# The per-element counterexample searches, kept as test-only oracles: one
# linear solve per group element, where ``lifting._first_outside_image``
# names the first element outside an image as the last generator with no
# section, read off one solve
# ---------------------------------------------------------------------------

def factorization_check(built: Complex, cmap: ChainMap, y: Complex, comp: Complex,
                        injective: bool):
    """The test of maps h between y and one competitor: the returned function
    takes a list of such maps and gives the failure message of the first one
    that does not factor through cmap, or None when all do.  One map system
    serves every h; only its right-hand sides change."""
    name = _side_words(injective)[1]
    src, tgt = (built, comp) if injective else (comp, built)   # g runs src -> tgt
    ms = MapSystem(y.ring)
    names = {k: ms.unknown(f"g{k}", src.component(k), tgt.component(k))
             for k in comp.degrees() if not built.component(k).is_zero()}
    vanishing = [k for k in comp.degrees() if k not in names]
    slots = []        # per equation, the degree of h on its right-hand side
    for k in names:
        left, right = (None, cmap.component(k)) if injective else (cmap.component(k), None)
        space = (y.component(k), comp.component(k)) if injective \
            else (comp.component(k), y.component(k))
        ms.equation([(left, names[k], right, 1)], None, space)
        slots.append(k)
        if (k + 1) in names:
            ms.equation([(None, names[k + 1], src.differential(k), 1),
                         (tgt.differential(k), names[k], None, -1)],
                        None, (src.component(k), tgt.component(k + 1)))
            slots.append(None)

    def first_failure(hs: list) -> Optional[str]:
        possible = [all(h.component(k).is_zero() for k in vanishing) for h in hs]
        sols = iter(ms.solve_each([[h.component(k) if k is not None else None for k in slots]
                                   for h, ok in zip(hs, possible) if ok]))
        for ok in possible:
            if not ok:
                return f"factorization impossible: {name} vanishes where the map does not"
            if next(sols) is None:
                return (f"map into {comp.describe()} does not factor through the envelope"
                        if injective else
                        f"competitor map from {comp.describe()} does not factor through the cover")
        return None

    return first_failure


def first_non_nullhomotopic(src: Complex, tgt: Complex) -> Optional[ChainMap]:
    """The first chain map src -> tgt (in enumeration order) for which
    ``null_homotopy`` finds no homotopy, one solve per chain map; None when
    every one is null-homotopic or the group has more than
    ``lifting._CHAIN_SEARCH_CAP`` elements."""
    grp = chain_map_group(src, tgt)
    size = grp.module.size()
    if size is None or size > _CHAIN_SEARCH_CAP:
        return None
    for g in grp.elements():
        if null_homotopy(g) is None:
            return g
    return None


def contractible_by_retractions(e: Complex) -> bool:
    """Whether the bounded exact complex e is contractible, solving nothing.

    As e is exact, Z^(k+1) = B^(k+1) and 0 -> Z^k -> E^k -> Z^(k+1) -> 0 is
    exact, so e is contractible iff every one of these splits: iff each
    cycle inclusion Z^k -> E^k has a retraction.  A retraction is searched
    among all the elements of Hom(E^k, Z^k)."""
    if not exact_at(e, e.degrees()):
        raise ValueError(f"{e.describe()} is not exact")
    for k in e.degrees():
        if e.component(k + 1).is_zero():
            continue        # Z^k = E^k
        cycles, incl = _kernel_inclusion(e.differential(k))
        one = ModuleMap.identity(cycles).matrix.entries
        if not any(r.compose(incl).matrix.entries == one
                   for r in hom_module(e.component(k), cycles).elements()):
            return False
    return True


def pool_without_repeat_skip(members: list, epi: bool, scan, close, parts):
    """``xclass._pool``'s entries as they were before it skipped a member
    isomorphic to an earlier one, one list: every nonzero member that fits
    the fixed one is scanned."""
    for _, block in blocks_without_repeat_skip(members, epi, scan, close, parts):
        yield from block()


def blocks_without_repeat_skip(members: list, epi: bool, scan, close, parts):
    """``pool_without_repeat_skip`` in the form of ``xclass._pool``: one
    ``(None, make_block)`` per fixed member, no block tagged as a repeat."""
    shapes = [_shape(parts(m)) for m in members]

    def block(j: int):
        seen = set()
        for i, other in enumerate(members):
            if other.is_zero() or not _fits(shapes[i], shapes[j]):
                continue
            for key, decode in scan(*((members[j], other) if epi else (other, members[j]))):
                if key not in seen:
                    seen.add(key)
                    f = decode()
                    yield f, close(f)

    for j in range(len(members)):
        yield None, partial(block, j)


# ---------------------------------------------------------------------------
# The congruence solvers ``exactalg`` used before one echelon form of
# [A^T | I] replaced them: a valuation-pivoted elimination per prime power
# of n recombined by CRT over Z/n, a Smith form over Z, and separate Hermite
# and Howell bases for the kernels.  Kept verbatim as oracles.
# ---------------------------------------------------------------------------

def hermite_insert(basis: dict, row: list):
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


def hermite_rows(rows, cols: int) -> list:
    """Canonical row Hermite form of the lattice spanned by ``rows``."""
    basis: dict = {}
    for row in rows:
        hermite_insert(basis, list(row))
    pivots = sorted(basis)
    out = [basis[j] for j in pivots]
    for idx in range(len(pivots)):
        j = pivots[idx]
        p = out[idx][j]
        for k in range(idx):
            q = out[k][j] // p
            if q:
                out[k] = [x - q * y for x, y in zip(out[k], out[idx])]
    return out


def hermite_reduce(x: list, basis: list) -> list:
    """Canonical representative of x modulo the span of a Hermite basis."""
    for row in basis:
        lead = next(j for j, e in enumerate(row) if e != 0)
        q = x[lead] // row[lead]
        if q:
            x = [a - q * b for a, b in zip(x, row)]
    return x


def howell_insert(basis: dict, row: list, n: int):
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


def howell_basis(rows, cols: int, n: int) -> list:
    """Howell basis of the span of ``rows`` over Z/n."""
    basis: dict = {}
    for row in rows:
        howell_insert(basis, list(row), n)
    for j in range(cols):
        if j in basis:
            p = basis[j][j]
            ann = n // math.gcd(p, n)
            if ann % n != 0:
                w = [(ann * x) % n for x in basis[j]]
                w[j] = 0
                howell_insert(basis, w, n)
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


def howell_reduce_vector(vec: list, basis: list, n: int) -> list:
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


def eliminate_local(rows: list, p: int, k: int):
    """One valuation-pivoted elimination of A over Z/p^k: ``(solve, kernel
    generators)``, ``solve(rhs_cols)[c]`` None when column c has no
    solution."""
    q = p ** k
    m = [[x % q for x in row] for row in rows]
    nrows, ncols = len(m), (len(m[0]) if m else 0)
    used = [False] * nrows
    pivots = []
    ops = []
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


def eliminate_mod(rows: list, n: int):
    """``eliminate_local`` per prime power of n, CRT-combined: ``(solve,
    Howell kernel rows)``, each solution the canonical coset
    representative."""
    ncols = len(rows[0])
    local_solves = []
    gens = []
    for p, k in _factorize(n):
        q = p ** k
        rest = n // q
        coeff = 1 if rest == 1 else (rest * pow(rest % q, -1, q)) % n
        local_solve, local_gens = eliminate_local(rows, p, k)
        local_solves.append((coeff, local_solve))
        gens.extend([(coeff * x) % n for x in g] for g in local_gens)
    basis = howell_basis(gens, ncols, n)

    def solve(rhs_cols: list) -> list:
        parts = [[0] * ncols for _ in rhs_cols]
        for coeff, local_solve in local_solves:
            parts = [None if part is None or local is None else
                     [(a + coeff * b) % n for a, b in zip(part, local)]
                     for part, local in zip(parts, local_solve(rhs_cols))]
        return [None if part is None else howell_reduce_vector(part, basis, n)
                for part in parts]

    return solve, basis


def eliminate_int(rows: list):
    """One Smith normal form of A over Z: ``(solve, kernel generators)``,
    each solution not reduced."""
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


def old_solve_columns(ring: RingSpec, nvars: int, rows: list, columns) -> tuple:
    """``CongruenceSystem.solve_columns`` as the old solvers answered it:
    ``rows`` are ``(coefficients, modulus)`` pairs as given to ``add``."""
    n = ring.modulus
    if not rows:
        return ([[0] * nvars for _ in columns],
                [[int(i == j) for j in range(nvars)] for i in range(nvars)])
    if n:
        scales = [n // m for _, m in rows]
        mat = [[0] * nvars for _ in rows]
        for row, (coeffs, _), s in zip(mat, rows, scales):
            for var, c in coeffs.items():
                row[var] = (row[var] + s * c) % n
        solve, basis = eliminate_mod(mat, n)
        return (solve([[(s * r) % n for s, r in zip(scales, col)] for col in columns]),
                [list(g) for g in basis if any(g)])
    naux = sum(1 for _, m in rows if m > 0)
    mat = []
    aux = nvars
    for coeffs, m in rows:
        row = [0] * (nvars + naux)
        for var, c in coeffs.items():
            row[var] += c
        if m > 0:
            row[aux] = m
            aux += 1
        mat.append(row)
    solve, kern = eliminate_int(mat)
    basis = hermite_rows([g[:nvars] for g in kern if any(g[:nvars])], nvars)
    return ([None if part is None else hermite_reduce(part[:nvars], basis)
             for part in solve([list(col) for col in columns])], basis)


# ---------------------------------------------------------------------------
# The value-type bodies ``exactalg`` and ``modules`` had before their
# builtin-speed products and one-pass checks, kept as test-only oracles
# ---------------------------------------------------------------------------

def int_matrix_oracle(rows: int, cols: int, entries: tuple) -> IntMatrix:
    """``IntMatrix(rows, cols, entries)`` after the old two-step shape check."""
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ExactAlgError("entry grid does not match declared shape")
    return IntMatrix(rows, cols, entries)


def from_rows_oracle(rows_data, cols: Optional[int] = None) -> IntMatrix:
    rows_data = [tuple(int(x) for x in r) for r in rows_data]
    if rows_data:
        ncols = len(rows_data[0])
    else:
        if cols is None:
            raise ExactAlgError("empty matrix needs an explicit column count")
        ncols = cols
    return int_matrix_oracle(len(rows_data), ncols, tuple(rows_data))


def from_columns_oracle(cols_data, rows: Optional[int] = None) -> IntMatrix:
    """The old ``from_columns``, for columns of equal length (it read the
    first column's length and indexed the others by it)."""
    if cols_data:
        nrows = len(cols_data[0])
    else:
        if rows is None:
            raise ExactAlgError("empty matrix needs an explicit row count")
        nrows = rows
    return int_matrix_oracle(nrows, len(cols_data),
                             tuple(tuple(int(c[i]) for c in cols_data) for i in range(nrows)))


def col_oracle(a: IntMatrix, j: int) -> tuple:
    return tuple(a.entries[i][j] for i in range(a.rows))


def transpose_oracle(a: IntMatrix) -> IntMatrix:
    return int_matrix_oracle(a.cols, a.rows, tuple(tuple(a.entries[i][j] for i in range(a.rows))
                                                   for j in range(a.cols)))


def matmul_oracle(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ExactAlgError(f"shape mismatch in product: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bt = transpose_oracle(b).entries
    return int_matrix_oracle(a.rows, b.cols,
                             tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                                   for row in a.entries))


def module_map_check_oracle(source: FpModule, target: FpModule, matrix: IntMatrix) -> tuple:
    """The entries ``ModuleMap`` stores for ``matrix``, by the old check:
    reduce every row, then test column by column; raises its ModuleError."""
    reduced = tuple(tuple(x % di if di else x for x in matrix.entries[i])
                    for i, di in enumerate(target.factors))
    for j, dj in enumerate(source.factors):
        for i, di in enumerate(target.factors):
            v = dj * reduced[i][j]
            if (v % di if di else v) != 0:
                raise ModuleError(
                    f"not well defined: factor {dj} times column {j} survives in the target")
    return reduced


def induced_oracle(grp_from, grp_to, fn) -> ModuleMap:
    """The map grp_from.module -> grp_to.module sending each generator's map
    to fn of it, decoded, composed and encoded one generator at a time: the
    body ``hom_precompose`` and ``hom_postcompose`` had on a miss, and the
    restriction between chain-map groups by the same loop."""
    cols = []
    for k in range(grp_from.module.ngens):
        elem = tuple(1 if t == k else 0 for t in range(grp_from.module.ngens))
        coords = grp_to.encode(fn(grp_from.decode(elem)))
        if coords is None:
            raise AssertionError("composite escaped the chain-map group")
        cols.append(coords)
    return ModuleMap(grp_from.module, grp_to.module,
                     IntMatrix.from_columns(cols, rows=grp_to.module.ngens))


def homology_oracle(c: Complex, k: int) -> FpModule:
    """``complexes.homology_at`` as it was before it became one
    ``_sublattice_module`` call: the kernel generators and the relations
    among them each from their own integer kernel."""
    comp = c.component(k)
    if comp.is_zero():
        return FpModule.zero(c.ring)
    g = comp.ngens
    dk = c.differential(k)
    lam_next = c.component(k + 1).relation_lattice()
    ker_gens = [list(col[:g]) for col in integer_kernel(dk.matrix.hstack(lam_next))] \
        if not c.component(k + 1).is_zero() else \
        [[1 if i == j else 0 for i in range(g)] for j in range(g)]
    prev = c.differential(k - 1)
    im_cols = prev.matrix.columns() if not c.component(k - 1).is_zero() else []
    lam = comp.relation_lattice()
    rel_cols = [list(col) for col in im_cols] + [list(col) for col in lam.columns()]
    B = IntMatrix.from_columns(ker_gens, rows=g)
    rel_in_B = []
    if B.cols:
        combined = B.hstack(IntMatrix.from_columns(rel_cols, rows=g))
        for col in integer_kernel(combined):
            rel_in_B.append(list(col[: B.cols]))
    pres = normalize_presentation(c.ring, B.cols, IntMatrix.from_columns(rel_in_B, rows=B.cols))
    return pres.module


# ---------------------------------------------------------------------------
# The Smith normal form and the kernel path as they were before they ran on
# plain lists, kept verbatim as test-only oracles: every elimination state
# an ``IntMatrix`` and every step of the kernel path its own matrix
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


def snf_oracle(a: IntMatrix, left: bool = True, right: bool = True):
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


def integer_kernel_oracle(a: IntMatrix) -> list:
    _, d, v, _ = snf_oracle(a, left=False)
    gens = []
    for j in range(a.cols):
        dj = d.entries[j][j] if j < min(a.rows, a.cols) else 0
        if dj == 0:
            gens.append(v.col(j))
    return gens


def presentation_oracle(ring: RingSpec, ngens: int, relations: IntMatrix) -> Presentation:
    if relations.rows != ngens:
        raise ModuleError("relation matrix must have one row per generator")
    rel = relations
    if ring.is_modular:
        rel = rel.hstack(IntMatrix.identity(ngens).scale(ring.modulus))
    u, d, _, ui = snf_oracle(rel, right=False)
    diag = [d.entries[i][i] if i < min(d.rows, d.cols) else 0 for i in range(ngens)]
    keep = [i for i, x in enumerate(diag) if x != 1]
    factors = tuple(diag[i] for i in keep)
    module = FpModule(ring, factors)
    to_can = IntMatrix.from_rows([u.entries[i] for i in keep], cols=ngens)
    from_can = IntMatrix.from_columns([ui.col(i) for i in keep], rows=ngens)
    if ring.is_modular:
        to_can, from_can = (IntMatrix(m.rows, m.cols, tuple(tuple(x % ring.modulus for x in r)
                                                             for r in m.entries))
                            for m in (to_can, from_can))
    return Presentation(module, to_can, from_can)


def sublattice_module_oracle(ambient: FpModule, gen_cols: IntMatrix,
                             below: Optional[IntMatrix] = None) -> tuple:
    lam = ambient.relation_lattice()
    if below is not None:
        lam = below.hstack(lam)
    rel_y = [col[:gen_cols.cols] for col in integer_kernel_oracle(gen_cols.hstack(lam))] \
        if gen_cols.cols else []
    pres = presentation_oracle(ambient.ring, gen_cols.cols,
                               IntMatrix.from_columns(rel_y, rows=gen_cols.cols))
    return pres.module, gen_cols @ pres.from_canonical


def kernel_generators_oracle(f: ModuleMap) -> IntMatrix:
    g = f.source.ngens
    return IntMatrix.from_columns(
        [col[:g] for col in integer_kernel_oracle(f.matrix.hstack(f.target.relation_lattice()))],
        rows=g)


def kernel_inclusion_oracle(f: ModuleMap) -> tuple:
    """``_kernel_inclusion(f)`` as the composition
    ``_sublattice_module(f.source, _kernel_generators(f))`` it was."""
    sub, incl_mat = sublattice_module_oracle(f.source, kernel_generators_oracle(f))
    return sub, ModuleMap(sub, f.source, incl_mat)


def glued_precover_oracle(y: Complex, x, u=None, oracle=None) -> PrecoverResult:
    """``precover_bounded`` as it was before each glued differential became
    one ``ModuleMap`` of summed matrix products: every differential is
    assembled from the direct sum's block maps by ``compose``, ``+`` and
    ``-``, each an intermediate validated map."""
    if y.is_zero():
        return PrecoverResult(zero_complex(y.ring), ChainMap.zero(zero_complex(y.ring), y),
                              [], {}, [])
    if u is None and y.ring.is_modular:
        u = module_universe(y.ring, 8)
    lo, hi = y.support
    log: list = []
    oracle_log: list = []
    p0, f0 = _oracle_at(y, lo, x, u, oracle, injective=False)
    oracle_log.append((lo, p0, f0))
    comps = {lo: p0, lo + 1: p0}
    diffs = {lo: ModuleMap.identity(p0)}
    verticals = {lo: f0}
    log.append(BuildStep(lo, {"base": True, "cover": p0, "map": f0}))
    for deg in range(lo + 1, hi + 1):
        p_new, f_new = _oracle_at(y, deg, x, u, oracle, injective=False)
        oracle_log.append((deg, p_new, f_new))
        second = comps[deg - 1]
        top = comps[deg]
        lam_top = diffs[deg - 1]
        lam_prev = diffs.get(deg - 2)
        vert_prev = verticals[deg - 1]
        a_prev = y.differential(deg - 1)
        ms = MapSystem(y.ring)
        ms.unknown("s1", second, p_new)
        ms.equation([(f_new, "s1", None, 1)], a_prev.compose(vert_prev),
                    (second, y.component(deg)))
        if lam_prev is not None:
            ms.equation([(None, "s1", lam_prev, 1)], None, (comps[deg - 2], p_new))
        sol = ms.solve()
        if sol is None:
            raise OracleHypothesisError(
                f"gluing system for s1 at degree {deg} is unsolvable; the module-cover "
                "hypothesis fails on this input",
                system={"unknown": "s1", "degree": deg,
                        "cover_map": f_new, "rhs": a_prev.compose(vert_prev),
                        "previous_differential": lam_prev})
        s1 = sol["s1"]
        ms2 = MapSystem(y.ring)
        ms2.unknown("s2", top, p_new)
        ms2.equation([(None, "s2", lam_top, 1)], s1, (second, p_new))
        sol2 = ms2.solve()
        if sol2 is None:
            raise OracleHypothesisError(
                f"gluing system for s2 at degree {deg} is unsolvable",
                system={"unknown": "s2", "degree": deg,
                        "top_differential": lam_top, "rhs": s1})
        s2 = sol2["s2"]
        ds = direct_sum([top, p_new])
        comps[deg] = ds.module
        comps[deg + 1] = p_new
        diffs[deg - 1] = ds.injections[0].compose(lam_top) + ds.injections[1].compose(s1)
        diffs[deg] = s2.compose(ds.projections[0]) - ds.projections[1]
        verticals[deg] = f_new.compose(ds.projections[1])
        log.append(BuildStep(deg, {
            "cover": p_new, "map": f_new, "s1": s1, "s2": s2,
            "lambda_top": lam_top, "lambda_prev": lam_prev,
            "vertical_prev": vert_prev, "a_prev": a_prev,
        }))
    cover = Complex(y.ring, comps, diffs, check=False)
    cmap = ChainMap(cover, y, verticals, check=False)
    membership = _verified_membership(cover, cmap, y, x, injective=False)
    return PrecoverResult(cover, cmap, oracle_log, membership, log)


def glued_preenvelope_oracle(y: Complex, x, u=None, oracle=None) -> PreenvelopeResult:
    """``preenvelope_bounded`` with its differentials glued from block maps
    by ``compose``, ``+`` and ``-``, as it was."""
    if y.is_zero():
        return PreenvelopeResult(zero_complex(y.ring),
                                 ChainMap.zero(y, zero_complex(y.ring)), [], {}, [])
    if u is None and y.ring.is_modular:
        u = module_universe(y.ring, 8)
    lo, hi = y.support
    log: list = []
    oracle_log: list = []
    e0, f0 = _oracle_at(y, hi, x, u, oracle, injective=True)
    oracle_log.append((hi, e0, f0))
    comps = {hi - 1: e0, hi: e0}
    diffs = {hi - 1: ModuleMap.identity(e0)}
    verticals = {hi: f0}
    log.append(BuildStep(hi, {"base": True, "envelope": e0, "map": f0}))
    for deg in range(hi - 1, lo - 1, -1):
        e_new, f_new = _oracle_at(y, deg, x, u, oracle, injective=True)
        oracle_log.append((deg, e_new, f_new))
        low = comps[deg]
        lam_low = diffs[deg]
        vert_prev = verticals[deg + 1]
        a_deg = y.differential(deg)
        ms = MapSystem(y.ring)
        ms.unknown("t", e_new, low)
        ms.equation([(lam_low, "t", f_new, 1)], vert_prev.compose(a_deg),
                    (y.component(deg), comps[deg + 1]))
        sol = ms.solve()
        if sol is None:
            raise OracleHypothesisError(
                f"gluing system for t at degree {deg} is unsolvable; the module-envelope "
                "hypothesis fails on this input",
                system={"unknown": "t", "degree": deg,
                        "envelope_map": f_new, "low_differential": lam_low,
                        "rhs": vert_prev.compose(a_deg)})
        t = sol["t"]
        s = lam_low.compose(t)
        ds = direct_sum([e_new, low])
        comps[deg] = ds.module
        comps[deg - 1] = e_new
        diffs[deg] = s.compose(ds.projections[0]) + lam_low.compose(ds.projections[1])
        diffs[deg - 1] = ds.injections[0] - ds.injections[1].compose(t)
        verticals[deg] = ds.injections[0].compose(f_new)
        log.append(BuildStep(deg, {
            "envelope": e_new, "map": f_new, "t": t, "s": s,
            "lambda_low": lam_low, "vertical_prev": vert_prev, "a": a_deg,
        }))
    env = Complex(y.ring, comps, diffs, check=False)
    emap = ChainMap(y, env, verticals, check=False)
    membership = _verified_membership(env, emap, y, x, injective=True)
    return PreenvelopeResult(env, emap, oracle_log, membership, log)


# ---------------------------------------------------------------------------
# The builders as they were while their first gluing step solved for s2
# (precover) and composed t with the base disk's identity (preenvelope),
# kept verbatim as test-only oracles of the first step taken directly
# ---------------------------------------------------------------------------

def first_step_solved_precover_oracle(y: Complex, x, u=None, oracle=None) -> PrecoverResult:
    """``precover_bounded`` solving s2 o id = s1 for s2 at the first step,
    as at every later one."""
    if y.is_zero():
        result = PrecoverResult(zero_complex(y.ring), ChainMap.zero(zero_complex(y.ring), y),
                                [], {}, [])
        return result
    if u is None and y.ring.is_modular:
        u = module_universe(y.ring, 8)
    lo, hi = y.support
    log: list = []
    oracle_log: list = []

    p0, f0 = _oracle_at(y, lo, x, u, oracle, injective=False)
    oracle_log.append((lo, p0, f0))
    comps = {lo: p0, lo + 1: p0}
    diffs = {lo: ModuleMap.identity(p0)}
    verticals = {lo: f0}
    log.append(BuildStep(lo, {"base": True, "cover": p0, "map": f0}))

    for deg in range(lo + 1, hi + 1):
        p_new, f_new = _oracle_at(y, deg, x, u, oracle, injective=False)
        oracle_log.append((deg, p_new, f_new))
        second = comps[deg - 1]
        top = comps[deg]
        lam_top = diffs[deg - 1]
        lam_prev = diffs.get(deg - 2)
        vert_prev = verticals[deg - 1]
        a_prev = y.differential(deg - 1)

        ms = MapSystem(y.ring)
        ms.unknown("s1", second, p_new)
        ms.equation([(f_new, "s1", None, 1)], a_prev.compose(vert_prev),
                    (second, y.component(deg)))
        if lam_prev is not None:
            ms.equation([(None, "s1", lam_prev, 1)], None, (comps[deg - 2], p_new))
        sol = ms.solve()
        if sol is None:
            raise OracleHypothesisError(
                f"gluing system for s1 at degree {deg} is unsolvable; the module-cover "
                "hypothesis fails on this input",
                system={"unknown": "s1", "degree": deg,
                        "cover_map": f_new, "rhs": a_prev.compose(vert_prev),
                        "previous_differential": lam_prev})
        s1 = sol["s1"]

        ms2 = MapSystem(y.ring)
        ms2.unknown("s2", top, p_new)
        ms2.equation([(None, "s2", lam_top, 1)], s1, (second, p_new))
        sol2 = ms2.solve()
        if sol2 is None:
            raise OracleHypothesisError(
                f"gluing system for s2 at degree {deg} is unsolvable",
                system={"unknown": "s2", "degree": deg,
                        "top_differential": lam_top, "rhs": s1})
        s2 = sol2["s2"]

        ds = direct_sum([top, p_new])
        (i0, i1), (p0, p1) = _block_matrices(ds)
        comps[deg] = ds.module
        comps[deg + 1] = p_new
        diffs[deg - 1] = ModuleMap(second, ds.module, i0 @ lam_top.matrix + i1 @ s1.matrix)
        diffs[deg] = ModuleMap(ds.module, p_new, s2.matrix @ p0 - p1)
        verticals[deg] = f_new.compose(ds.projections[1])
        log.append(BuildStep(deg, {
            "cover": p_new, "map": f_new, "s1": s1, "s2": s2,
            "lambda_top": lam_top, "lambda_prev": lam_prev,
            "vertical_prev": vert_prev, "a_prev": a_prev,
        }))

    # checked once, by _verified_membership
    cover = Complex(y.ring, comps, diffs, check=False)
    cmap = ChainMap(cover, y, verticals, check=False)
    membership = _verified_membership(cover, cmap, y, x, injective=False)
    return PrecoverResult(cover, cmap, oracle_log, membership, log)


def first_step_composed_preenvelope_oracle(y: Complex, x, u=None,
                                           oracle=None) -> PreenvelopeResult:
    """``preenvelope_bounded`` composing t with the base disk's identity for
    s at the first step, as at every later one."""
    if y.is_zero():
        return PreenvelopeResult(zero_complex(y.ring),
                                 ChainMap.zero(y, zero_complex(y.ring)), [], {}, [])
    if u is None and y.ring.is_modular:
        u = module_universe(y.ring, 8)
    lo, hi = y.support
    log: list = []
    oracle_log: list = []

    e0, f0 = _oracle_at(y, hi, x, u, oracle, injective=True)
    oracle_log.append((hi, e0, f0))
    comps = {hi - 1: e0, hi: e0}
    diffs = {hi - 1: ModuleMap.identity(e0)}
    verticals = {hi: f0}
    log.append(BuildStep(hi, {"base": True, "envelope": e0, "map": f0}))

    for deg in range(hi - 1, lo - 1, -1):
        e_new, f_new = _oracle_at(y, deg, x, u, oracle, injective=True)
        oracle_log.append((deg, e_new, f_new))
        low = comps[deg]                  # current lowest component
        lam_low = diffs[deg]              # mono: low -> comps[deg+1]
        vert_prev = verticals[deg + 1]
        a_deg = y.differential(deg)

        ms = MapSystem(y.ring)
        ms.unknown("t", e_new, low)
        ms.equation([(lam_low, "t", f_new, 1)], vert_prev.compose(a_deg),
                    (y.component(deg), comps[deg + 1]))
        sol = ms.solve()
        if sol is None:
            raise OracleHypothesisError(
                f"gluing system for t at degree {deg} is unsolvable; the module-envelope "
                "hypothesis fails on this input",
                system={"unknown": "t", "degree": deg,
                        "envelope_map": f_new, "low_differential": lam_low,
                        "rhs": vert_prev.compose(a_deg)})
        t = sol["t"]
        s = lam_low.compose(t)

        ds = direct_sum([e_new, low])
        (i0, i1), (p0, p1) = _block_matrices(ds)
        comps[deg] = ds.module
        comps[deg - 1] = e_new
        diffs[deg] = ModuleMap(ds.module, lam_low.target, s.matrix @ p0 + lam_low.matrix @ p1)
        diffs[deg - 1] = ModuleMap(e_new, ds.module, i0 - i1 @ t.matrix)
        verticals[deg] = ds.injections[0].compose(f_new)
        log.append(BuildStep(deg, {
            "envelope": e_new, "map": f_new, "t": t, "s": s,
            "lambda_low": lam_low, "vertical_prev": vert_prev, "a": a_deg,
        }))

    env = Complex(y.ring, comps, diffs, check=False)
    emap = ChainMap(y, env, verticals, check=False)
    membership = _verified_membership(env, emap, y, x, injective=True)
    return PreenvelopeResult(env, emap, oracle_log, membership, log)


# ---------------------------------------------------------------------------
# ``Complex``, ``ChainMap`` and ``Homotopy`` as the plain mutable classes
# they were before they became frozen values, kept verbatim as test-only
# oracles
# ---------------------------------------------------------------------------

def mutable_complex_oracles() -> dict:
    """Name -> class of the three types as they were: instance dicts,
    component dicts, the canonical key kept in a plain attribute.  Each
    ``__qualname__`` is its name, as the default repr reads it."""
    from typing import Dict, Tuple

    from homkit.complexes import ComplexError, _composite, validate_complex

    class Complex:
        """Degree-indexed family of modules with degree-raising differentials."""

        def __init__(self, ring: RingSpec, components: Dict[int, FpModule],
                     differentials: Dict[int, ModuleMap], check: bool = True):
            self.ring = ring
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
            self._components = dict(sorted(comps.items()))
            self._differentials = dict(sorted(diffs.items()))
            self._key: Optional[tuple] = None
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
                self._key = (self.ring,
                             tuple((k, m.factors) for k, m in self._components.items()),
                             tuple((k, d.matrix.entries) for k, d in self._differentials.items()))
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

    class ChainMap:
        """Degreewise map commuting with the differentials."""

        def __init__(self, source: Complex, target: Complex,
                     components: Dict[int, ModuleMap], check: bool = True):
            self.source = source
            self.target = target
            comps = {}
            for k, f in components.items():
                if f.is_zero():
                    continue
                if f.source != source.component(k) or f.target != target.component(k):
                    raise ComplexError(f"chain map component at degree {k} has wrong endpoints")
                comps[k] = f
            self._components = dict(sorted(comps.items()))
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


    class Homotopy:
        """Degree -1 family s with  s o d + d o s = f  for the stored chain map."""

        def __init__(self, chain_map: ChainMap, components: Dict[int, ModuleMap],
                     check: bool = True):
            self.chain_map = chain_map
            comps = {}
            for k, s in components.items():
                if s.is_zero():
                    continue
                if s.source != chain_map.source.component(k) or \
                   s.target != chain_map.target.component(k - 1):
                    raise ComplexError(f"homotopy component at degree {k} has wrong endpoints")
                comps[k] = s
            self._components = dict(sorted(comps.items()))
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

    classes = (Complex, ChainMap, Homotopy)
    for cls in classes:
        cls.__qualname__ = cls.__name__
    return {cls.__name__: cls for cls in classes}


# ---------------------------------------------------------------------------
# The value types as the ``@dataclass`` declarations they were, kept as
# test-only oracles of the hand-written classes
# ---------------------------------------------------------------------------

def factorize_oracle(n: int) -> list:
    """``exactalg._factorize`` before its trial-division cap: unbounded."""
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


def dataclass_oracles() -> dict:
    """Name -> class of the 21 value types as ``@dataclass`` declarations:
    each one's decorator, fields and ``__post_init__`` verbatim, its other
    methods left out, and its ``__qualname__`` set to its name, as the
    generated repr reads it.  Their fields are given homkit's own values, so
    ``ModuleMap``'s check reads ``ngens`` from homkit's ``FpModule``."""
    import re
    from dataclasses import dataclass, field

    from homkit.modules import _checked_rows

    @dataclass(frozen=True)
    class RingSpec:
        """Coefficient ring: the integers when ``modulus == 0``, else Z/modulus."""

        modulus: int = 0

        def __post_init__(self) -> None:
            if self.modulus < 0 or self.modulus == 1:
                raise ExactAlgError(f"modulus must be 0 (meaning Z) or >= 2, got {self.modulus}")

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

    @dataclass(frozen=True, slots=True)
    class FpModule:
        """A finitely presented module in canonical invariant-factor form."""

        ring: RingSpec
        factors: tuple

        def __post_init__(self) -> None:
            n = self.ring.modulus
            prev = None
            for d in self.factors:
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

    @dataclass(frozen=True, slots=True)
    class ModuleMap:
        """Homomorphism between canonical modules, as a matrix on generators."""

        source: FpModule
        target: FpModule
        matrix: IntMatrix

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

    @dataclass(frozen=True)
    class Presentation:
        module: FpModule
        to_canonical: IntMatrix
        from_canonical: IntMatrix

    @dataclass(frozen=True)
    class SubquotientWitness:
        ambient: FpModule
        sub: FpModule
        inclusion: ModuleMap      # sub -> ambient, mono
        quotient: FpModule
        quotient_map: ModuleMap   # ambient -> quotient, epi

    @dataclass(frozen=True)
    class DirectSum:
        module: FpModule
        injections: tuple
        projections: tuple

    @dataclass(frozen=True)
    class Pushout:
        module: FpModule
        leg_from_alpha_target: ModuleMap   # X -> P
        leg_from_iota_target: ModuleMap    # M -> P
        presentation_relations: IntMatrix  # the A-columns inside X + M coordinates

    @dataclass(frozen=True)
    class HomModule:
        source: FpModule
        target: FpModule
        module: FpModule
        pairs: tuple              # (i, j, order, scale): coordinate (i,j) ranges over
                                  # multiples of scale in target slot i, order many
        to_canonical: IntMatrix
        from_canonical: IntMatrix

    @dataclass(frozen=True)
    class ComplexVerdict:
        ok: bool
        degree: Optional[int]
        message: str

    @dataclass(frozen=True)
    class ShortExactOfComplexes:
        left: Complex
        middle: Complex
        right: Complex
        inj: ChainMap
        surj: ChainMap

    @dataclass
    class HomDegree:
        degree: int
        blocks: tuple            # tuple of (i, HomModule) with i the source degree
        sum: DirectSum

    @dataclass
    class HomComplexData:
        x: Complex
        y: Complex
        complex: Complex
        degrees: dict            # n -> HomDegree

    @dataclass(frozen=True)
    class ExactnessReport:
        exact: bool
        homology: dict           # degree -> invariant factors of H^k

    @dataclass
    class ChainMapGroup:
        source: Complex
        target: Complex
        module: FpModule
        _hom0: Optional[HomDegree]
        _inclusion: Optional[ModuleMap]        # cycles -> Hom^0's sum module
        _blocks: tuple = ()     # P_s per block s of Hom^0 (``_cycle_blocks``); () without cycles

    @dataclass(frozen=True)
    class XClassSpec:
        kind: str
        param: Optional[int] = None
        pattern: Optional[str] = None
        zero_is_member: bool = True

        def __post_init__(self) -> None:
            if self.kind not in ("all", "zero", "free", "ann", "pred"):
                raise ModuleError(f"unknown class kind {self.kind!r}")
            if self.kind == "ann" and (self.param is None or self.param < 1):
                raise ModuleError("ann class needs a positive annihilator")
            if self.kind == "pred":
                if self.pattern is None:
                    raise ModuleError("pred class needs a pattern")
                try:
                    re.compile(self.pattern)
                except re.error as exc:
                    raise ModuleError(f"invalid pred pattern {self.pattern!r}: {exc}") from None

    @dataclass
    class Verdict:
        holds: bool
        universe: str
        checked: int = 0
        witnesses: list = field(default_factory=list)
        counterexample: Optional[dict] = None
        extra: dict = field(default_factory=dict)

    @dataclass
    class BuildStep:
        degree: int
        data: dict

    @dataclass
    class PrecoverResult:
        cover: Complex
        map: ChainMap                    # cover -> input, degreewise epi
        per_degree_oracle: list          # (degree, cover module, cover map)
        kernel_membership: dict          # degree -> (kernel factors, in class)
        build_log: list                  # ordered BuildStep records

    @dataclass
    class PreenvelopeResult:
        env: Complex
        map: ChainMap                    # input -> env, degreewise mono
        per_degree_oracle: list
        cokernel_membership: dict
        build_log: list

    @dataclass
    class EnvelopeResult:
        envelope: Complex
        inclusion: ChainMap
        injective_verdict: Verdict
        essential: bool
        essential_witness: Optional[dict]
        closure_report: dict
        candidates_examined: int

    classes = [RingSpec, IntMatrix, FpModule, ModuleMap, Presentation, SubquotientWitness,
               DirectSum, Pushout, HomModule, ComplexVerdict, ShortExactOfComplexes,
               HomDegree, HomComplexData, ExactnessReport, ChainMapGroup, XClassSpec,
               Verdict, BuildStep, PrecoverResult, PreenvelopeResult, EnvelopeResult]
    for cls in classes:
        cls.__qualname__ = cls.__name__
    return {cls.__name__: cls for cls in classes}


def scalar_hash_ring_spec() -> type:
    """A mutant of the ``RingSpec`` oracle that hashes its modulus alone,
    ``hash(4)`` where the declaration hashes ``(4,)``: a comparison with the
    oracle must see it."""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class RingSpec:
        modulus: int = 0

        def __hash__(self) -> int:
            return hash(self.modulus)

    RingSpec.__qualname__ = "RingSpec"
    return RingSpec
