"""Shared deterministic generators for the randomized suites."""
from __future__ import annotations

import random
from functools import partial
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
from homkit.complexes import chain_group_image, null_homotopy
from homkit.construct import _side_words
from homkit.exactalg import CongruenceSystem, IntMatrix
from homkit.lifting import _CHAIN_SEARCH_CAP
from homkit.modules import MapSystem, hom_postcompose, hom_precompose
from homkit.xclass import _fits, _shape


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
    parts = solve_in_module_columns_oracle(image.target, g_to._inclusion.matrix,
                                           image.matrix.columns())
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
# reads the first element outside an image off its cokernel
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
