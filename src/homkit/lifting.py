"""Universe-bounded checkers for class-relative injectivity and projectivity.

Each checker quantifies over a declared finite universe and returns a Verdict
that names the universe, carries a re-validatable certificate for every tested
instance, and on failure reports the enumeration-order-first counterexample.

A lifting test "every f extends along i" (or, dually, "every f lifts through
q") is decided as surjectivity of the restriction between hom groups, read
off its image in the target's ambient group (a hom module is its own, a
chain-map group sits in Hom^0) and the target's inclusion: the sections
(the certificate) are one solve against the inclusion columns, and the
counterexample is the last generator without a section.  Only the
witness-free onto test depends on the type: hom modules take ``is_epi``,
which also runs over Z, and chain-map groups count the image order.  One
driver runs this for all four checkers (injective or projective, modules or
complexes), and each counterexample is confirmed by one solve of its
extension (lift) system, ``complexes._factor_through``, of any size.
"""
from __future__ import annotations

from typing import Callable, Optional

from . import caches
from .exactalg import IntMatrix
from .modules import (
    FpModule,
    ModuleError,
    ModuleMap,
    _kernel_inclusion,
    _solve_in_module_columns,
    cokernel,
    ext1_module,
    hom_module,
    hom_postcompose,
    hom_precompose,
    image_order,
)
from .complexes import (
    ChainMap,
    ChainMapGroup,
    Complex,
    ComplexError,
    _factor_through,
    _row_complex,
    _row_product,
    _sphere_map,
    chain_group_image,
    chain_map_group,
    exact_at,
    hom_complex_data,
    is_exact,
    null_homotopy,
    shift,
    sphere,
)
from .xclass import (
    ComplexUniverse,
    Eps1Universe,
    ModuleUniverse,
    UniverseCapError,
    XClassSpec,
    cokernel_complex,
    contains_complex,
    contains_module,
    module_universe,
)
from .values import Record


class HypothesisError(ValueError):
    """A lemma checker refused to assert: its hypotheses were not established."""


class Verdict(Record):
    """A check's answer over a named universe.  Without ``witnesses`` or
    ``extra`` it starts with a fresh empty list and dict."""

    _fields = ("holds", "universe", "checked", "witnesses", "counterexample", "extra")

    def __init__(self, holds: bool, universe: str, checked: int = 0,
                 witnesses: Optional[list] = None, counterexample: Optional[dict] = None,
                 extra: Optional[dict] = None) -> None:
        self.holds = holds
        self.universe = universe
        self.checked = checked
        self.witnesses = [] if witnesses is None else witnesses
        self.counterexample = counterexample
        self.extra = {} if extra is None else extra


# the four lifting checkers' witness-free verdicts are pure functions of
# (object, class, universe): repeated checks hit this table, not a re-scan
_VERDICT_CACHE = caches.table("lifting.verdicts")

# hom_exactness enumerates the middle maps only up to this many chain maps
_CHAIN_SEARCH_CAP = 1 << 14


# ---------------------------------------------------------------------------
# The lifting driver
# ---------------------------------------------------------------------------

def _restriction_image(phi, obj, injective: bool, hom: Callable) -> tuple:
    """(target group, image) of the restriction a lifting test needs to be
    onto, for phi: A -> B:

    injective:  Hom(B, obj) -> Hom(A, obj), f -> f o phi
    otherwise:  Hom(obj, A) -> Hom(obj, B), f -> phi o f

    ``image`` is the restriction followed by the target's inclusion: the
    memoised ``hom_precompose`` (``hom_postcompose``) map for hom modules,
    the reduced matrix of ``chain_group_image`` for chain-map groups.  When
    the target group is zero the source group is not built and the image is
    None."""
    grp_to = hom(phi.source, obj) if injective else hom(obj, phi.target)
    if grp_to.module.is_zero():
        return grp_to, None
    grp_from = hom(phi.target, obj) if injective else hom(obj, phi.source)
    if isinstance(phi, ModuleMap):
        return grp_to, (hom_precompose if injective else hom_postcompose)(grp_from, grp_to, phi)
    return grp_to, chain_group_image(grp_from, grp_to, phi, injective)


def _first_without_section(sections: list) -> Optional[tuple]:
    """The first element, in enumeration order (the last coordinate fastest),
    outside the image that ``sections`` were solved against, one per group
    generator (None for a generator outside it): as the elements before
    generator e_j span e_(j+1)..e_k, it is e_j for the largest j with None."""
    missing = [j for j, part in enumerate(sections) if part is None]
    return tuple(int(i == missing[-1]) for i in range(len(sections))) if missing else None


def _first_outside_image(target: FpModule, image: IntMatrix, columns) -> Optional[tuple]:
    """First element (in enumeration order) of a group whose injective
    inclusion into ``target`` has the columns ``columns`` that the inclusion
    takes outside the span of ``image``'s columns, or None: one solve."""
    return _first_without_section(_solve_in_module_columns(target, image, columns))


def _onto(phi, obj, injective: bool, hom: Callable, keep_witnesses: bool) -> tuple:
    """(whether the restriction of ``_restriction_image`` is onto, the
    canonical preimages of its target group's generators, the solutions of
    image @ s = inclusion column g as the inclusion is injective).  Without
    witnesses hom modules first take ``is_epi``, which over Z/n counts the
    image and over Z reads the cokernel, and chain-map groups (over Z/n
    only) compare the image order with the target group's; onto, they give
    no preimages."""
    grp_to, image = _restriction_image(phi, obj, injective, hom)
    if image is None:
        return True, []
    ambient = grp_to._inclusion.target
    if isinstance(phi, ModuleMap):
        if not keep_witnesses and image.is_epi():
            return True, None
        image = image.matrix
    elif not keep_witnesses and image_order(ambient, image) == grp_to.module.size():
        return True, None
    sections = _solve_in_module_columns(ambient, image, grp_to._section_columns)
    return None not in sections, sections


def _lifting_verdict(obj, x: XClassSpec, u, blocks: Callable, injective: bool,
                     keep_witnesses: bool, *, level: str, hom: Callable,
                     member: Callable, finish: Optional[Callable] = None) -> Verdict:
    """The block loop shared by the four lifting checkers.

    ``blocks()`` yields ``(repeat, entries)``: the universe maps phi
    (injections when ``injective``, else surjections) with their cokernels
    (kernels), one block per fixed member of a complex pool (the target of
    the injections, the source of the surjections; ``xclass._Pool``) and
    one block for a module pool.  ``repeat`` is the index of the earlier
    block whose fixed member this one's is isomorphic to, or None.  The
    loop reads the blocks in order, up to the first counterexample; the
    maps whose cokernel (kernel) passes ``member`` are tested by whether the
    restriction of ``_restriction_image`` is onto, decided by ``_onto``,
    whose sections are the witness and name the counterexample f, the last
    target generator without one; one solve for a g with g o phi = f (phi o
    g = f), ``_factor_through``, of any size and over Z too, confirms it.

    Without witnesses a repeat block is not read; it adds the ``checked``
    count of the block it repeats, and that is exact: the loop reached it,
    so that block passed in full, and composing with the isomorphism pairs
    the two blocks' entries one to one with the same scanned member (the
    same support filter), isomorphic cokernels (kernels: the same
    ``member`` answer) and the same onto answer, lifting being a property
    of the isomorphism class.  With witnesses every block is read, since
    each instance carries its own sections.  ``level`` ("module" or
    "complex") names the certificates, and ``finish`` may add to the verdict
    before it is cached.
    """
    side, role, part = ("extension", "mono", "cokernel") if injective \
        else ("lift", "epi", "kernel")
    kind = f"{level}-{side}"

    def run() -> Verdict:
        verdict = Verdict(True, u.describe() + f", class={x.key()}")
        checked = []    # the count each block added, by block index
        for repeat, entries in blocks():
            if repeat is not None and not keep_witnesses:
                checked.append(checked[repeat])
                verdict.checked += checked[repeat]
                continue
            start = verdict.checked
            for phi, quotient in entries:
                if not member(x, quotient):
                    continue
                verdict.checked += 1
                onto, sections = _onto(phi, obj, injective, hom, keep_witnesses)
                if onto:
                    if keep_witnesses:
                        verdict.witnesses.append({"kind": kind, role: phi, part: quotient,
                                                  "section": sections})
                    continue
                grp_to = hom(phi.source, obj) if injective else hom(obj, phi.target)
                f = grp_to.decode(_first_without_section(sections))
                if _factor_through(phi, [f], injective)[0] is not None:
                    raise AssertionError("counterexample refuted by a solve")
                verdict.holds = False
                verdict.counterexample = {"kind": kind, role: phi, "map": f}
                break
            if not verdict.holds:
                break
            checked.append(verdict.checked - start)
        if finish is not None:
            finish(verdict)
        return verdict

    if keep_witnesses:
        return run()
    return _VERDICT_CACHE.lookup((kind, obj, x.key(), u.describe()), run)


def _check_rings(m: FpModule, u: ModuleUniverse) -> None:
    if m.ring != u.ring:
        raise ValueError("module and universe rings differ")


# ---------------------------------------------------------------------------
# Module level
# ---------------------------------------------------------------------------

def _fresh(verdict: Verdict) -> Verdict:
    """A copy of ``verdict`` with its own witnesses list, counterexample and
    extra dicts: what the public checkers return, so that changing a result
    does not change the verdict ``lifting.verdicts`` holds for the next
    call.  Internal readers, which only read a verdict, take the stored one
    from ``_module_verdict`` or ``_complex_verdict``."""
    return Verdict(verdict.holds, verdict.universe, verdict.checked, list(verdict.witnesses),
                   None if verdict.counterexample is None else dict(verdict.counterexample),
                   dict(verdict.extra))


def x_injective_module(e: FpModule, x: XClassSpec, u: ModuleUniverse,
                       keep_witnesses: bool = True) -> Verdict:
    """Lifting test: every map into e from the source of a universe injection
    with class-member cokernel extends over the injection.

    The verdict's ``extra`` carries the parallel vanishing criterion: the
    one-step extension group against every cokernel realized by the tested
    injections must vanish.  The two computations are independent and are
    expected to agree.
    """
    return _fresh(_module_verdict(e, x, u, True, keep_witnesses))


def x_projective_module(p: FpModule, x: XClassSpec, u: ModuleUniverse,
                        keep_witnesses: bool = True) -> Verdict:
    """Dual lifting test: every map from p to the target of a universe
    surjection with class-member kernel lifts through the surjection."""
    return _fresh(_module_verdict(p, x, u, False, keep_witnesses))


def _module_verdict(m: FpModule, x: XClassSpec, u: ModuleUniverse, injective: bool,
                    keep_witnesses: bool) -> Verdict:
    """The verdict of ``x_injective_module`` (``injective``) or
    ``x_projective_module``, the stored one when witness-free."""
    _check_rings(m, u)

    def ext_vanishing(verdict: Verdict) -> None:
        coks = {cok.factors: cok for _, cok in u.mono_pool() if contains_module(x, cok)}
        ext_holds = all(ext1_module(cok, m).is_zero() for cok in coks.values())
        verdict.extra["ext_vanishing_holds"] = ext_holds
        verdict.extra["criteria_agree"] = ext_holds == verdict.holds

    pool = u.mono_pool if injective else u.epi_pool
    return _lifting_verdict(m, x, u, lambda: [(None, pool())], injective, keep_witnesses,
                            level="module", hom=hom_module, member=contains_module,
                            finish=ext_vanishing if injective else None)


# ---------------------------------------------------------------------------
# Complex level
# ---------------------------------------------------------------------------

def _supports_overlap(a: Complex, b: Complex) -> bool:
    sa, sb = a.support, b.support
    if sa is None or sb is None:
        return False
    return sa[0] <= sb[1] and sb[0] <= sa[1]


def _blocks_meeting(pool, c: Complex, scanned: Callable) -> Callable:
    """``pool``'s blocks, each read for the maps whose ``scanned`` end
    overlaps c's support only; a block no reader reads is not built."""
    return lambda: ((repeat, (pair for pair in block if _supports_overlap(scanned(pair[0]), c)))
                    for repeat, block in pool.blocks())


def x_injective_complex(c: Complex, x: XClassSpec, cu: ComplexUniverse,
                        keep_witnesses: bool = True) -> Verdict:
    """Every chain map into c from the source of a universe chain injection
    whose cokernel complex is a class complex must extend over the injection."""
    return _fresh(_complex_verdict(c, x, cu, True, keep_witnesses))


def x_projective_complex(c: Complex, x: XClassSpec, cu: ComplexUniverse,
                         keep_witnesses: bool = True) -> Verdict:
    """Every chain map from c to the target of a universe chain surjection
    whose kernel complex is a class complex must lift through the surjection."""
    return _fresh(_complex_verdict(c, x, cu, False, keep_witnesses))


def _complex_verdict(c: Complex, x: XClassSpec, cu: ComplexUniverse, injective: bool,
                     keep_witnesses: bool) -> Verdict:
    """The verdict of ``x_injective_complex`` (``injective``) or
    ``x_projective_complex``, the stored one when witness-free.  The pool is
    read lazily, up to the first counterexample; injections whose source
    (surjections whose target) misses c's support only restrict (receive)
    the zero map."""
    blocks = _blocks_meeting(cu.monos, c, lambda phi: phi.source) if injective \
        else _blocks_meeting(cu.epis, c, lambda psi: psi.target)
    return _lifting_verdict(c, x, cu, blocks, injective, keep_witnesses,
                            level="complex", hom=chain_map_group, member=contains_complex)


# ---------------------------------------------------------------------------
# Homotopy-level orthogonality and differential-graded checks
# ---------------------------------------------------------------------------

def _member_hom(eu: Eps1Universe, idx: int, c: Complex, into: bool) -> Optional[Complex]:
    """Hom(E, c) (``into``) or Hom(c, E) for the member E at ``idx``, or None,
    with no hom complex built, when E is contractible
    (``Eps1Universe.contraction``): then both are exact everywhere."""
    if eu.contraction(idx) is not None:
        return None
    e = eu.members[idx]
    return hom_complex_data(*((e, c) if into else (c, e))).complex


def _check_hom_rings(c: Complex, eu: Eps1Universe) -> None:
    # refused up front: a universe of contractible members builds no hom
    if c.ring != eu.ring:
        raise ModuleError("mixed rings in hom")


def eps1_perp_homotopy(i: Complex, eu: Eps1Universe,
                       keep_witnesses: bool = True) -> Verdict:
    """Every chain map from a shifted universe member into the complex must be
    null-homotopic.

    Exactness and kernel membership are invariant under degree shifts, so the
    universe is taken as closed under them: each member E is slid across the
    complex's support and the maps from shift(E, -1) are tested in every
    overlapping position s, which holds iff Hom(shift(E, -1 - s), C) is exact
    in degree zero.  That is Hom(E, C) in degree s + 1, with the same blocks
    and signed differential.  The slides cover its support and the degree
    above, so position s fails iff s + 1 is the least degree where Hom(E, C)
    is not exact, read off the one hom complex ``_member_hom`` builds for
    each member, every check anew: none for a contractible member
    (``Eps1Universe.contraction``), whose Hom(E, C) is exact everywhere.
    Each witness names the member and its position, the support of
    shift(E, -1 - s).  The counterexample is the first chain map from
    shift(E, -1 - s), the only shifted complex built, outside the image of
    the hom complex's d^{-1}, the null-homotopic maps
    (``_first_non_nullhomotopic``), which a nonzero homology guarantees.
    A complex over another ring than the universe's raises ModuleError."""
    _check_hom_rings(i, eu)
    verdict = Verdict(True, eu.describe() + ", closed under shifts")
    for idx, e_cx in enumerate(eu.members):
        hom = _member_hom(eu, idx, i, True)
        inexact = None if hom is None else \
            next((k for k in hom.degrees() if not exact_at(hom, (k,))), None)
        support = e_cx.support
        if support is None or i.is_zero():
            slides = range(1)
        else:
            # a homotopy reaches one degree below the source
            (elo, ehi), (ilo, ihi) = support, i.support
            slides = range(ilo - ehi - 1, ihi - elo + 1)
        for s in slides:
            verdict.checked += 1
            if s + 1 != inexact:
                if keep_witnesses:
                    verdict.witnesses.append({
                        "kind": "perp", "member": e_cx,
                        "position": None if support is None
                        else (support[0] + 1 + s, support[1] + 1 + s),
                        "h0_trivial": True,
                    })
                continue
            src = shift(e_cx, -1 - s)
            g = _first_non_nullhomotopic(src, i)
            if g is None:
                raise AssertionError(f"Hom is not exact in degree {inexact}, yet every chain "
                                     f"map from {src.describe()} is null-homotopic")
            verdict.holds = False
            verdict.counterexample = {"kind": "perp", "member": e_cx, "map": g}
            return verdict
    return verdict


def _first_non_nullhomotopic(src: Complex, tgt: Complex) -> Optional[ChainMap]:
    """The first chain map src -> tgt outside the image of d^{-1}: s -> d o s
    + s o d of Hom(src, tgt), the null-homotopic maps, read off one solve
    of any group size and confirmed by one; None when there is none."""
    grp = chain_map_group(src, tgt)
    if grp._inclusion is None:
        return None
    boundaries = hom_complex_data(src, tgt, degrees=(-1, 0)).complex.differential(-1)
    elem = _first_outside_image(boundaries.target, boundaries.matrix, grp._section_columns)
    g = None if elem is None else grp.decode(elem)
    if g is not None and null_homotopy(g) is not None:
        raise AssertionError("counterexample refuted by a null-homotopy")
    return g


def _dg_verdict(i: Complex, x: XClassSpec, eu: Eps1Universe,
                mu: Optional[ModuleUniverse], keep_witnesses: bool,
                injective: bool) -> Verdict:
    """Component test on every degree, then exactness of the internal hom from
    every universe member into the complex (injective) or from the complex
    into every member (projective), Hom(E, C) or Hom(C, E) as ``_member_hom``
    builds it, once per member and every check anew: a contractible member
    (``Eps1Universe.contraction``) gives an exact hom complex either way,
    and none is built for it.  ``exact_at`` decides each other member on
    its hom complex, and only a counterexample's homology is computed, off
    the same complex.  A complex over another ring than the universe's
    raises ModuleError."""
    _check_hom_rings(i, eu)
    if mu is None:
        mu = module_universe(i.ring, 8)
    component_test = x_injective_module if injective else x_projective_module
    verdict = Verdict(True, f"{eu.describe()}; components over {mu.describe()}")
    for k in i.degrees():
        comp_verdict = component_test(i.component(k), x, mu, keep_witnesses=False)
        verdict.checked += 1
        if not comp_verdict.holds:
            verdict.holds = False
            verdict.counterexample = {"kind": "component", "degree": k,
                                      "inner": comp_verdict.counterexample}
            return verdict
    for idx, e_cx in enumerate(eu.members):
        verdict.checked += 1
        hom = _member_hom(eu, idx, i, injective)
        if hom is not None and not exact_at(hom, hom.degrees()):
            verdict.holds = False
            verdict.counterexample = {"kind": "hom-not-exact", "member": e_cx,
                                      "homology": dict(is_exact(hom).homology)}
            return verdict
        if keep_witnesses:
            verdict.witnesses.append({"kind": "hom-exact", "member": e_cx})
    return verdict


def dg_x_injective(i: Complex, x: XClassSpec, eu: Eps1Universe,
                   mu: Optional[ModuleUniverse] = None,
                   keep_witnesses: bool = True) -> Verdict:
    """Component test plus exactness of the internal hom from every universe
    member into the complex."""
    return _dg_verdict(i, x, eu, mu, keep_witnesses, injective=True)


def dg_x_projective(i: Complex, x: XClassSpec, eu: Eps1Universe,
                    mu: Optional[ModuleUniverse] = None,
                    keep_witnesses: bool = True) -> Verdict:
    """Component test plus exactness of the internal hom from the complex
    into every universe member."""
    return _dg_verdict(i, x, eu, mu, keep_witnesses, injective=False)


# ---------------------------------------------------------------------------
# Hom-sequence exactness against a probe complex
# ---------------------------------------------------------------------------

def hom_exactness(beta: ModuleMap, theta: ModuleMap, probe: Complex,
                  side: str, x: XClassSpec) -> Verdict:
    """Exactness of the induced hom sequence at its middle term.

    side == "left":  maps(probe, A) -> maps(probe, B) -> maps(probe, C)
    side == "right": maps(C, probe) -> maps(B, probe) -> maps(A, probe)

    where maps(probe, M) are the chain maps into the degree-zero sphere on M
    and dually.  Hypotheses (the row is exact at B and the stated class
    membership) are verified first; a violation raises HypothesisError.
    The middle maps, the chain maps g with theta o g^0 = 0 (left) or
    g^0 o beta = 0, are listed only up to ``_CHAIN_SEARCH_CAP``; more raise
    UniverseCapError, and infinitely many (over Z) raise ComplexError.  The
    chain-map group they lie in may itself be infinite.
    """
    if beta.target != theta.source:
        raise ValueError("the two maps do not compose")
    if not theta.compose(beta).is_zero():
        raise HypothesisError("image of the first map is not inside the kernel of the second")
    if not exact_at(_row_complex(beta, theta), (1,)):
        raise HypothesisError("row is not exact at its middle module")
    if side == "left":
        if not contains_module(x, _kernel_inclusion(theta)[0]):
            raise HypothesisError("kernel of the second map is outside the class")
    elif side == "right":
        cok, _ = cokernel(theta)
        if not contains_module(x, cok):
            raise HypothesisError("cokernel of the second map is outside the class")
    else:
        raise ValueError("side must be 'left' or 'right'")

    left = side == "left"
    verdict = Verdict(True, f"hom sequence over probe {probe.describe()}, side={side}")
    # the middle maps g are the degree-zero components of the chain maps
    # probe -> sphere(0, B) (left) or sphere(0, B) -> probe (right)
    ends = (probe, sphere(0, beta.target)) if left else (sphere(0, beta.target), probe)
    key = "lift" if left else "factor"
    grp = chain_map_group(*ends)
    middle = _middle_inclusion(grp, theta if left else beta, left)
    size = middle.source.size()
    if size is None:
        raise ComplexError("infinite chain map group of middle maps")
    if size > _CHAIN_SEARCH_CAP:
        raise UniverseCapError(
            f"too many middle maps to enumerate: {size} chain maps from {ends[0].describe()} "
            f"to {ends[1].describe()} (search cap {_CHAIN_SEARCH_CAP})")
    # the kernel's elements in group coordinates, sorted: grp.elements() order
    fs = [grp.decode(elem) for elem in sorted(map(middle.apply, middle.source.elements()))]
    # a lift u (left: beta o u = g, u o d^{-1} = 0) or an extension h (right:
    # h o theta = g, d^0 o h = 0) of each g is a chain map through the sphere
    # map of beta (theta); one solve for all of them
    sols = _factor_through(_sphere_map(beta if left else theta), fs, injective=not left)
    for f, sol in zip(fs, sols):
        g = f.component(0)
        verdict.checked += 1
        if sol is None:
            verdict.holds = False
            verdict.counterexample = {"kind": "hom-row", "map": g}
            break
        verdict.witnesses.append({"kind": "hom-row", "middle": g, key: sol.component(0)})
    return verdict


def _middle_inclusion(grp: ChainMapGroup, f: ModuleMap, left: bool) -> ModuleMap:
    """The inclusion into ``grp.module`` of its chain maps g with f o g^0 = 0
    (``left``) or g^0 o f = 0, for a group of chain maps into or out of a
    degree-zero sphere, whose Hom^0 is the one block Hom(probe^0, B) (left)
    or Hom(B, probe^0): the kernel of the composition matrix of f applied to
    the group's cycle inclusion in that block."""
    if grp._inclusion is None:
        return ModuleMap.identity(grp.module)
    (_, hm), = grp._hom0.blocks
    if left:
        induced = hom_postcompose(hm, hom_module(hm.source, f.target), f)
    else:
        induced = hom_precompose(hm, hom_module(f.source, hm.target), f)
    rows = _row_product(induced.matrix.entries, grp._blocks[0], grp.module.ngens)
    return _kernel_inclusion(ModuleMap(grp.module, induced.target,
                                       IntMatrix.from_rows(rows, cols=grp.module.ngens)))[1]


# ---------------------------------------------------------------------------
# Null-homotopy of maps guarded by class hypotheses
# ---------------------------------------------------------------------------

def null_map_property(f: ChainMap, direction: str, x: XClassSpec,
                      cu: ComplexUniverse) -> Verdict:
    """Assert a chain map is null-homotopic once its class hypotheses hold.

    direction == "fromProjective": the source must pass the projective-complex
    test and the target must be a class complex; direction == "toInjective"
    dually.  Unestablished hypotheses raise HypothesisError instead of
    producing a spurious verdict.
    """
    if direction == "fromProjective":
        if not contains_complex(x, f.target):
            raise HypothesisError("target is not a class complex")
        hyp = _complex_verdict(f.source, x, cu, False, False)
        if not hyp.holds:
            raise HypothesisError("source failed the projective-complex test")
    elif direction == "toInjective":
        if not contains_complex(x, f.source):
            raise HypothesisError("source is not a class complex")
        hyp = _complex_verdict(f.target, x, cu, True, False)
        if not hyp.holds:
            raise HypothesisError("target failed the injective-complex test")
    else:
        raise ValueError("direction must be fromProjective or toInjective")
    verdict = Verdict(True, cu.describe() + f", class={x.key()}, direction={direction}")
    verdict.checked = 1
    h = null_homotopy(f)
    if h is None:
        verdict.holds = False
        verdict.counterexample = {"kind": "not-null-homotopic", "map": f}
    else:
        verdict.witnesses.append({"kind": "homotopy", "homotopy": h})
    return verdict


def summand_retraction(xc: Complex, y: Complex, incl: ChainMap, x: XClassSpec,
                       cu: ComplexUniverse) -> Optional[ChainMap]:
    """Retraction of a class-cokernel inclusion of an injective-complex.

    Verifies the hypotheses (the included complex passes the injective test
    and the cokernel complex is a class complex) before solving for r with
    r o incl = id as chain maps."""
    if incl.source != xc or incl.target != y:
        raise ValueError("inclusion endpoints do not match")
    if not incl.is_mono():
        raise HypothesisError("inclusion is not degreewise injective")
    cok = cokernel_complex(incl)
    if not contains_complex(x, cok):
        raise HypothesisError("cokernel complex is outside the class")
    hyp = _complex_verdict(xc, x, cu, True, False)
    if not hyp.holds:
        raise HypothesisError("included complex failed the injective-complex test")
    return _factor_through(incl, [ChainMap.identity(xc)], True)[0]
