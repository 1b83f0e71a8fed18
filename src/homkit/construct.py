"""Constructive builders: bounded precovers and preenvelopes by induction on
the window, a desk-scale injective-envelope search, and the counterexample
fixture separating componentwise injectivity from complex injectivity.

The precover of a bounded complex is glued degree by degree from module-level
covers P^k -» Y^k: the partial cover ends in ... -> P^{n-1}+P^n -> P^n -> 0,
and each step solves two small linear systems (canonically, so rebuilds are
bit-identical) whose solutions s1, s2 populate the next differentials

    (x, y) -> (lambda(x, y), s1(x, y))        and   (x, y) -> s2(x) - y.

The preenvelope construction mirrors this on the injective side with

    x -> (x, -t(x))                           and   (x, y) -> s(x) + l(y).

Every build is re-verified from scratch before being returned: exactness,
degreewise surjectivity (injectivity), kernel (cokernel) class membership,
and the factorization property against the disk competitors: one onto test
each, and the first map outside the image named for a competitor that fails.
The pure module-level answers these read (the builtin module covers and
envelopes, the members passing the side's test, the onto answers of module
maps) are computed once and kept in ``caches`` tables.
"""
from __future__ import annotations

from itertools import product as iproduct
from typing import Callable, Iterator, Optional

from . import caches
from .exactalg import IntMatrix
from .modules import (
    FpModule,
    MapSystem,
    ModuleMap,
    _solve_in_module,
    _span_inclusion,
    all_submodules,
    cokernel,
    direct_sum,
    hom_module,
    injective_hull,
    span_elements,
    submodule_from_elements,
)
from .complexes import (
    ChainMap,
    Complex,
    _subcomplex,
    chain_map_group,
    direct_sum_complexes,
    disk,
    exact_at,
    validate_complex,
    zero_complex,
)
from .xclass import (
    ComplexUniverse,
    ModuleUniverse,
    XClassSpec,
    _map_quotient,
    _Replay,
    cokernel_complex,
    contains_module,
    default_complex_universe,
    enumerate_epis,
    enumerate_monos,
    kernel_complex,
    module_universe,
)
from .lifting import (
    Verdict,
    _first_outside_image,
    _module_verdict,
    _onto,
    _restriction_image,
    x_injective_complex,
)
from .values import Record


class BuildError(ValueError):
    pass


class OracleHypothesisError(BuildError):
    """The per-module cover/envelope hypothesis failed within the universe.

    When a gluing system is the culprit, ``system`` carries its matrices so
    the failure can be serialized and replayed."""

    def __init__(self, message: str, system: Optional[dict] = None):
        super().__init__(message)
        self.system = system or {}


# ---------------------------------------------------------------------------
# Module-level oracles
# ---------------------------------------------------------------------------

def free_cover(m: FpModule) -> tuple:
    """The free module on m's generators with the canonical surjection."""
    p = FpModule.free(m.ring, m.ngens)
    return p, ModuleMap(p, m, IntMatrix.identity(m.ngens))


def _side_words(injective: bool) -> tuple:
    """(class property, built object, its quotient, what its map is), naming
    a side in messages."""
    return ("injective", "envelope", "cokernel", "injective") if injective \
        else ("projective", "cover", "kernel", "onto")


def _quotient(f: ModuleMap, injective: bool) -> FpModule:
    """The cokernel of an envelope map, or the kernel of a cover map, read
    from the per-map quotient table the pools share."""
    return _map_quotient(f, injective)[0]


# the class members passing the side's module test, one list per (class,
# universe, side) grown as far as a reader has read: each member is tested
# once and every reader sees them in member order
_COMPETITORS = caches.table("construct.competitors")
# (map, competitor, side) -> whether every map between the competitor and the
# map's far end factors through it: the witness-free answer of lifting._onto
_ONTO = caches.table("construct.onto")


def _passing(x: XClassSpec, u: ModuleUniverse, injective: bool) -> _Replay:
    """The members of u in the class that pass the side's module test, in
    member order, tested lazily as readers reach them."""
    def make():
        return (e for e in u.members
                if contains_module(x, e) and _module_verdict(e, x, u, injective, False).holds)
    return _COMPETITORS.lookup((x.key(), u.describe(), injective), lambda: _Replay(make))


def _onto_module(phi: ModuleMap, m: FpModule, injective: bool) -> bool:
    """Whether every map from m into phi's target (from phi's source into m)
    lifts along (extends along) phi: ``lifting._onto`` without witnesses."""
    return _ONTO.lookup((phi, m, injective),
                        lambda: _onto(phi, m, injective, hom_module, False)[0])


def _search_oracle(m: FpModule, x: XClassSpec, u: ModuleUniverse, injective: bool) -> tuple:
    """The first universe member passing the side's test, with the first
    injection from m into it (surjection from it onto m) whose cokernel
    (kernel) is in the class."""
    prop, built, part, _ = _side_words(injective)
    for e in _passing(x, u, injective):
        for f in (enumerate_monos(m, e) if injective else enumerate_epis(e, m)):
            if contains_module(x, _quotient(f, injective)):
                return e, f
    raise OracleHypothesisError(
        f"no class-{prop} {built} of {m.describe()} with class {part} in {u.describe()}")


def _verify_oracle(e: FpModule, f: ModuleMap, x: XClassSpec, u: Optional[ModuleUniverse],
                   injective: bool) -> None:
    """Re-verify a module envelope f: m -> e (cover f: e -> m): f is injective
    (onto), e and its cokernel (kernel) are in the class, e passes the side's
    module test and every map between m and a universe member passing it
    factors through f.  Raises OracleHypothesisError at the first check that
    fails."""
    prop, built, part, adjective = _side_words(injective)
    if not (f.is_mono() if injective else f.is_epi()):
        raise OracleHypothesisError(f"{built} map is not {adjective}")
    if not contains_module(x, _quotient(f, injective)):
        raise OracleHypothesisError(f"{built} {part} left the class")
    if not contains_module(x, e):
        raise OracleHypothesisError(f"{built} module left the class")
    if u is None or not e.ring.is_modular:
        return
    if not _module_verdict(e, x, u, injective, False).holds:
        raise OracleHypothesisError(f"{built} module failed the {prop} test")
    for cand in _passing(x, u, injective):
        if not _onto_module(f, cand, injective):
            raise OracleHypothesisError(
                f"map {'into' if injective else 'from'} {cand.describe()} does not "
                f"factor through the {built}")


# (module, class, universe, side, verified) -> the builtin strategy's module
# envelope (cover); user oracles are called afresh on every request
_MODULE_ORACLES = caches.table("construct.module_oracles")


def _module_oracle(m: FpModule, x: XClassSpec, u: Optional[ModuleUniverse],
                   oracle: Optional[Callable], verify: bool, injective: bool) -> tuple:
    """The module envelope f: m -> e (cover f: e -» m) from ``oracle`` when
    given; otherwise the injective hull (free cover) when the class is
    everything, else the first one the universe search finds.  Re-verified
    by ``_verify_oracle`` when ``verify``.  The builtin strategies are
    memoised; a failure is raised afresh each time."""
    if u is None:
        u = module_universe(m.ring, 8) if m.ring.is_modular else None
    if oracle is not None:
        e, f = oracle(m)
        if verify:
            _verify_oracle(e, f, x, u, injective)
        return e, f
    key = (m, x.key(), None if u is None else u.describe(), injective, verify)
    return _MODULE_ORACLES.lookup(key, lambda: _builtin_oracle(m, x, u, verify, injective))


def _builtin_oracle(m: FpModule, x: XClassSpec, u: Optional[ModuleUniverse], verify: bool,
                    injective: bool) -> tuple:
    """``_module_oracle`` without a user oracle, before memoisation."""
    if x.kind == "all":
        if injective and not m.ring.is_modular:
            raise BuildError("builtin envelope strategy needs a modular ring")
        e, f = injective_hull(m) if injective else free_cover(m)
    elif u is None:
        raise BuildError("universe required for the search strategy")
    else:
        e, f = _search_oracle(m, x, u, injective)
    if verify:
        _verify_oracle(e, f, x, u, injective)
    return e, f


def module_epi_precover(m: FpModule, x: XClassSpec,
                        u: Optional[ModuleUniverse] = None,
                        oracle: Optional[Callable] = None,
                        verify: bool = True) -> tuple:
    """A surjection q: p -» m with p class-projective, p and ker(q) in the
    class, and the factorization property against every universe map into m
    from a class-projective member.

    The builtin strategy uses the free cover when the class is everything;
    otherwise the universe is searched exhaustively.
    """
    return _module_oracle(m, x, u, oracle, verify, injective=False)


def module_mono_preenvelope(m: FpModule, x: XClassSpec,
                            u: Optional[ModuleUniverse] = None,
                            oracle: Optional[Callable] = None,
                            verify: bool = True) -> tuple:
    """An injection f: m -> e with e class-injective, e and coker(f) in the
    class, and the factorization property against universe maps out of m."""
    return _module_oracle(m, x, u, oracle, verify, injective=True)


# ---------------------------------------------------------------------------
# Bounded precover
# ---------------------------------------------------------------------------

def _oracle_at(y: Complex, deg: int, x: XClassSpec, u: Optional[ModuleUniverse],
               oracle: Optional[Callable], injective: bool) -> tuple:
    """The module envelope (cover) of y's component in degree deg; the zero
    module with the zero map when that component is zero."""
    m = y.component(deg)
    if m.is_zero():
        z = FpModule.zero(y.ring)
        return z, ModuleMap.zero(m, z) if injective else ModuleMap.zero(z, m)
    return _module_oracle(m, x, u, oracle, True, injective)


def _block_matrices(ds) -> tuple:
    """The matrices of a two-term direct sum's injections and projections.
    A glued differential is one ``ModuleMap`` of their summed products:
    reducing modulo the target's factors once gives the entries of the
    composite of the block maps."""
    return tuple(m.matrix for m in ds.injections), tuple(m.matrix for m in ds.projections)


class BuildStep(Record):
    _fields = ("degree", "data")


class PrecoverResult(Record):
    """A precover: ``map`` is cover -> input, degreewise epi;
    ``per_degree_oracle`` lists (degree, cover module, cover map),
    ``kernel_membership`` maps each degree to (kernel factors, in class) and
    ``build_log`` holds the ordered ``BuildStep`` records.

    A result ``precover_bounded`` returns also carries ``_certified``,
    outside the fields: the (cover, map) pair it certified
    (``_is_certified``)."""

    _fields = ("cover", "map", "per_degree_oracle", "kernel_membership", "build_log")

    def kernel(self) -> Complex:
        return kernel_complex(self.map)


class PreenvelopeResult(Record):
    """A preenvelope: ``map`` is input -> env, degreewise mono; the other
    fields, and ``_certified``, are those of ``PrecoverResult``, for
    cokernels."""

    _fields = ("env", "map", "per_degree_oracle", "cokernel_membership", "build_log")

    def coker(self) -> Complex:
        return cokernel_complex(self.map)


def precover_bounded(y: Complex, x: XClassSpec,
                     u: Optional[ModuleUniverse] = None,
                     oracle: Optional[Callable] = None) -> PrecoverResult:
    """Glue module covers into a cover of the whole bounded complex.

    Base: the disk on a cover of the lowest component.  Each later step maps
    the current second-from-top component into the new cover module by a
    canonical solve constrained by

        s1 o (previous differential) = 0
        (new cover map) o s1 = (input differential) o (current vertical)

    and extends the top by s2, the unique solution of s2 o (top differential)
    = s1.  At the first step the top differential is the base disk's
    identity, so s2 is s1 itself.  An unsolvable step is reported as a
    hypothesis failure together with the failing system.
    """
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

        # the first step's top differential is the base disk's identity
        if deg == lo + 1:
            s2 = s1
        else:
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
    result = PrecoverResult(cover, cmap, oracle_log, membership, log)
    result._certified = (cover, cmap)
    return result


def _verified_membership(built: Complex, cmap: ChainMap, y: Complex, x: XClassSpec,
                         injective: bool) -> dict:
    """Class membership of the degreewise cokernels of the preenvelope map
    (kernels of the precover map), after re-verifying from scratch that the
    build is an exact complex with a degreewise injective (onto) chain map
    whose cokernels (kernels) stay in the class."""
    _, name, part, adjective = _side_words(injective)
    membership = {}
    for k in built.degrees():
        quot = _quotient(cmap.component(k), injective)
        membership[k] = (quot.factors, contains_module(x, quot))
    _check_chain_data(built, cmap, name)
    if not exact_at(built, built.degrees()):
        raise BuildError(f"built {name} is not exact")
    for k in y.degrees():
        if not (cmap.component(k).is_mono() if injective else cmap.component(k).is_epi()):
            raise BuildError(f"{name} map is not {adjective} at degree {k}")
    for k, (fac, ok) in membership.items():
        if not ok:
            raise BuildError(f"{name} {part} at degree {k} left the class: {fac}")
    return membership


def _check_chain_data(built: Complex, cmap: ChainMap, name: str) -> None:
    """BuildError unless ``built`` is a complex and ``cmap`` a chain map."""
    if not validate_complex(built).ok:
        raise BuildError(f"built {name} is not a complex")
    if not cmap.commutes():
        raise BuildError(f"{name} map is not a chain map")


def preenvelope_bounded(y: Complex, x: XClassSpec,
                        u: Optional[ModuleUniverse] = None,
                        oracle: Optional[Callable] = None) -> PreenvelopeResult:
    """Dual construction: glue module envelopes into an envelope of the
    bounded input, building downward from the top degree."""
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
        # the first step's low differential is the base disk's identity
        s = t if deg == hi - 1 else lam_low.compose(t)

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
    result = PreenvelopeResult(env, emap, oracle_log, membership, log)
    result._certified = (env, emap)
    return result


# ---------------------------------------------------------------------------
# Factorization verification against enumerated competitors
# ---------------------------------------------------------------------------

def _verify_factorization(built: Complex, cmap: ChainMap, y: Complex, x: XClassSpec,
                          u: ModuleUniverse, injective: bool, certified: bool = False) -> int:
    """Check that every chain map h from a projective competitor into y
    factors as cmap o g through the precover, or dually that every h from y
    into an injective competitor factors as g o cmap through the preenvelope;
    returns the number of maps certified, the sum of the competitors'
    chain-map group orders.

    ``built`` is checked to be a complex and ``cmap`` a chain map unless
    ``certified``: they are the very objects the builder certified, and
    complexes and chain maps are frozen values.  The endpoints of cmap are
    checked always.

    By the disk adjunction, chain maps D^k(m) -> Y are Hom(m, Y^k) and chain
    maps Y -> D^k(m) are Hom(Y^{k+1}, m), naturally in Y.  So once built is
    a complex and cmap a chain map, every h of D^k(m) factors
    iff g -> cmap^k o g, Hom(m, P^k) -> Hom(m, Y^k), is onto (u -> u o
    cmap^{k+1}, Hom(E^{k+1}, m) -> Hom(Y^{k+1}, m)): one onto answer per
    competitor and component, ``_onto_module``, which remembers it.  The
    first competitor that fails it raises BuildError for the first h
    outside the image of the chain-map restriction, named by one solve
    (``lifting._first_outside_image``)."""
    name = _side_words(injective)[1]
    if not certified:
        _check_chain_data(built, cmap, name)
    if (cmap.source, cmap.target) != ((y, built) if injective else (built, y)):
        raise BuildError(f"{name} map does not run between the input and the {name}")
    if y.is_zero():
        return 0
    lo, hi = y.support
    shift = 1 if injective else 0
    components = [(k, k + shift, cmap.component(k + shift)) for k in range(lo - 1, hi + 1)]
    tested = 0
    for m in _passing(x, u, injective):
        if m.is_zero():
            continue
        for k, deg, phi in components:
            if _onto_module(phi, m, injective):
                hm = hom_module(y.component(deg), m) if injective else hom_module(m, y.component(deg))
                tested += hm.module.size()
                continue
            comp = disk(k, m)
            grp, image = _restriction_image(cmap, comp, injective, chain_map_group)
            h = grp.decode(_first_outside_image(grp._inclusion.target, image, grp._section_columns))
            if any(built.component(j).is_zero() and not h.component(j).is_zero()
                   for j in comp.degrees()):
                raise BuildError(f"factorization impossible: {name} vanishes where the map does not")
            side = "map into" if injective else "competitor map from"
            raise BuildError(f"{side} {comp.describe()} does not factor through the {name}")
    return tested


def _is_certified(result, built: Complex) -> bool:
    """Whether ``built`` and ``result.map`` are the very complex and chain map
    the builder certified for ``result``; a result built elsewhere, or whose
    fields were reassigned, is not.  Tampering with the frozen values
    themselves through ``object.__setattr__`` is out of scope."""
    pair = getattr(result, "_certified", None)
    return pair is not None and pair[0] is built and pair[1] is result.map


def verify_precover_factorization(result: PrecoverResult, y: Complex, x: XClassSpec,
                                  u: ModuleUniverse) -> int:
    """Check that every chain map from a disk competitor into y factors
    through the cover (``_verify_factorization``); returns the number of maps
    certified.  BuildError when the result is not a chain map into y or a map
    does not factor."""
    return _verify_factorization(result.cover, result.map, y, x, u, injective=False,
                                 certified=_is_certified(result, result.cover))


def verify_preenvelope_factorization(result: PreenvelopeResult, y: Complex,
                                     x: XClassSpec, u: ModuleUniverse) -> int:
    """Check that every chain map from y into a disk competitor factors
    through the preenvelope (``_verify_factorization``); returns the number of
    maps certified.  BuildError when the result is not a chain map out of y or
    a map does not factor."""
    return _verify_factorization(result.env, result.map, y, x, u, injective=True,
                                 certified=_is_certified(result, result.env))


# ---------------------------------------------------------------------------
# Injective envelope of a complex (desk scale)
# ---------------------------------------------------------------------------

class EnvelopeResult(Record):
    _fields = ("envelope", "inclusion", "injective_verdict", "essential", "essential_witness",
               "closure_report", "candidates_examined")


# (class key, universe description) -> the closure check's verdict
_EXTENSION_CLOSURE = caches.table("construct.extension_closure")
_QUOTIENT_CLOSURE = caches.table("construct.quotient_closure")

# the closure checks' caps in elements: extension middle terms, members quotiented
_CLOSURE_PAIR_CAP = 16
_CLOSURE_SIZE_CAP = 16


def _check_extension_closure(x: XClassSpec, u: ModuleUniverse) -> bool:
    """Partial test on the universe: every enumerable extension of a class
    member by a class member stays in the class.  The class of everything and
    the zero-only class are closed outright; for the rest, middle terms up to
    ``_CLOSURE_PAIR_CAP`` elements are enumerated by matching cokernels."""
    if x.kind in ("all", "zero"):
        return True
    from .xclass import _factor_chains
    ring = u.ring
    for a in u.members:
        if a.is_zero() or not contains_module(x, a):
            continue
        for c in u.members:
            if c.is_zero() or not contains_module(x, c):
                continue
            sa, sc = a.size(), c.size()
            if sa * sc > _CLOSURE_PAIR_CAP:
                continue
            for fac in _factor_chains(ring.modulus, sa * sc):
                m = FpModule(ring, fac)
                if m.size() != sa * sc:
                    continue
                for i in enumerate_monos(a, m):
                    if cokernel(i)[0].factors == c.factors and not contains_module(x, m):
                        return False
    return True


def _check_quotient_closure(x: XClassSpec, u: ModuleUniverse) -> bool:
    if x.kind in ("all", "zero"):
        return True
    for m in u.members:
        if not contains_module(x, m) or m.size() > _CLOSURE_SIZE_CAP:
            continue
        for sub in all_submodules(m):
            wit = submodule_from_elements(m, sorted(sub))
            if not contains_module(x, wit.quotient):
                return False
    return True


def _ambient_injective(b: Complex) -> tuple:
    """Embed b into a sum of disks on component hulls: at each degree m the
    ambient is E(b^m) + E(b^{m-1}) and b embeds by (hull, hull o d)."""
    ring = b.ring
    lo, hi = b.support
    hulls = {}
    for k in range(lo, hi + 1):
        if not b.component(k).is_zero():
            hulls[k] = injective_hull(b.component(k))
    keys = sorted(hulls)
    amb, injs, _ = direct_sum_complexes([disk(k - 1, hulls[k][0]) for k in keys])
    comps = {}
    for m in b.degrees():
        comps[m] = injs[keys.index(m)].component(m).compose(hulls[m][1])
        if (m + 1) in hulls:
            comps[m] = comps[m] + injs[keys.index(m + 1)].component(m).compose(
                hulls[m + 1][1]).compose(b.differential(m))
    return amb, ChainMap(b, amb, comps)


def _subcomplexes(cx: Complex, floor: dict) -> Iterator[dict]:
    """The subcomplexes of cx containing ``floor`` (degree -> element set,
    zero where absent), as per-degree element sets: the product of each
    degree's ``all_submodules`` containing the floor, in order, kept when
    closed under the differential."""
    degs = cx.degrees()
    per_degree = [[s for s in all_submodules(cx.component(k)) if floor.get(k, frozenset()) <= s]
                  for k in degs]
    chosen_sets = (dict(zip(degs, combo)) for combo in iproduct(*per_degree))
    return (chosen for chosen in chosen_sets if _closed_under_differential(cx, chosen))


def _closed_under_differential(cx: Complex, chosen: dict) -> bool:
    """True when the per-degree element sets ``chosen`` (one per degree of
    cx) form a subcomplex: the differential maps each set into the next
    one, and to zero above the top degree."""
    for k, elems in chosen.items():
        d = cx.differential(k)
        nxt = chosen.get(k + 1)
        for v in elems:
            w = d.apply(v)
            if (w not in nxt) if nxt is not None else any(w):
                return False
    return True


def _subcomplex_to_complex(amb: Complex, chosen: dict) -> tuple:
    """Materialize a per-degree element-set subcomplex: (complex, inclusion)."""
    incls = {k: _span_inclusion(amb.component(k), sorted(elems))[1]
             for k, elems in chosen.items()}
    sub = _subcomplex(amb, incls)
    return sub, ChainMap(sub, amb, incls, check=False)


# the subcomplex search enumerates every submodule of each ambient component:
# all_submodules takes at most 0.5 s on the modules of up to 36 elements,
# but 8.6 s on (Z/2)^6 and 88 s on (Z/4)^4
_AMBIENT_COMPONENT_CAP = 36
# the largest input complex, in elements, that the envelope search takes
_ENVELOPE_SIZE_CAP = 512


def x_injective_envelope(b: Complex, x: XClassSpec,
                         module_bound: int = 8,
                         cu: Optional[ComplexUniverse] = None) -> EnvelopeResult:
    """Search for a class-injective envelope of a tiny complex.

    The input is embedded in a sum of disks on component hulls; among the
    subcomplexes between the image and the ambient whose quotient by the
    image is a class complex, a maximal one is selected, its injectivity is
    verified against the complex universe, and essentiality of the embedding
    is checked by enumerating the nonzero subcomplexes of the result.

    A candidate S is judged on element sets: S^k / I^k, for I the image, is
    the submodule q(S^k) of the cokernel q: amb^k -» amb^k / I^k, so only
    the chosen candidate is materialized.
    """
    if not b.ring.is_modular:
        raise BuildError("envelope search requires a modular ring")
    u = module_universe(b.ring, module_bound)
    key = (x.key(), u.describe())
    closure = {
        "extension_closed": _EXTENSION_CLOSURE.lookup(key, lambda: _check_extension_closure(x, u)),
        "quotient_closed": _QUOTIENT_CLOSURE.lookup(key, lambda: _check_quotient_closure(x, u)),
    }
    if not all(closure.values()):
        raise OracleHypothesisError(
            f"class closure hypotheses failed on {u.describe()}: {closure}")
    if b.is_zero():
        zc = zero_complex(b.ring)
        verdict = Verdict(True, "zero complex", 0)
        return EnvelopeResult(zc, ChainMap.zero(zc, zc), verdict, True, None, closure, 0)
    if b.total_size() is None or b.total_size() > _ENVELOPE_SIZE_CAP:
        raise BuildError("input complex exceeds the envelope size cap")
    amb, incl = _ambient_injective(b)
    if any(amb.component(k).size() > _AMBIENT_COMPONENT_CAP for k in amb.degrees()):
        raise BuildError(f"an ambient component exceeds the envelope search cap of "
                         f"{_AMBIENT_COMPONENT_CAP} elements")
    if cu is None:
        cu = default_complex_universe(b.ring, amb.support, full_bound=4,
                                      disk_bound=module_bound)
    image = {}
    for k in amb.degrees():
        img = {incl.component(k).apply(v) for v in b.component(k).elements()} \
            if not b.component(k).is_zero() else \
            {amb.component(k).reduce_element([0] * amb.component(k).ngens)}
        image[k] = span_elements(amb.component(k), sorted(img))
    quotients = {k: submodule_from_elements(amb.component(k), sorted(image[k])).quotient_map
                 for k in amb.degrees()}

    def admissible_at(k: int, s: frozenset) -> bool:
        q = quotients[k]
        return contains_module(x, _span_inclusion(q.target, sorted({q.apply(v) for v in s}))[0])

    candidates = list(_subcomplexes(amb, image))
    # degrees where S is zero are not judged
    admissible = [c for c in candidates
                  if all(len(s) == 1 or admissible_at(k, s) for k, s in c.items())]
    if not admissible:
        raise BuildError("no admissible intermediate subcomplex (unexpected)")
    maximal = [c for c in admissible
               if not any(other != c and all(c[k] <= other[k] for k in c) for other in admissible)]
    t_cx, t_incl = _subcomplex_to_complex(amb, maximal[0])
    # the embedding of b into the chosen subcomplex
    b_comps = {}
    for k in b.degrees():
        target_mat = incl.component(k).matrix
        sol = _solve_in_module(amb.component(k), t_incl.component(k).matrix, target_mat)
        if sol is None:
            raise BuildError("embedded image escaped the chosen subcomplex")
        b_comps[k] = ModuleMap(b.component(k), t_cx.component(k), sol)
    b_incl = ChainMap(b, t_cx, b_comps)
    verdict = x_injective_complex(t_cx, x, cu, keep_witnesses=False)
    essential, witness = _essential_check(b_incl)
    return EnvelopeResult(t_cx, b_incl, verdict, essential, witness, closure,
                          len(candidates))


def _essential_check(incl: ChainMap) -> tuple:
    """Every nonzero subcomplex of the target must meet the embedded image."""
    t_cx = incl.target
    img_sets = {}
    for k in t_cx.degrees():
        src = incl.source.component(k)
        img = {incl.component(k).apply(v) for v in src.elements()} if not src.is_zero() \
            else set()
        zero = t_cx.component(k).reduce_element([0] * t_cx.component(k).ngens)
        img.discard(zero)
        img_sets[k] = img
    for chosen in _subcomplexes(t_cx, {}):
        if all(len(s) == 1 for s in chosen.values()):
            continue
        if not any(chosen[k] & img_sets[k] for k in chosen):
            return False, {"subcomplex": {k: sorted(s) for k, s in chosen.items()}}
    return True, None


# ---------------------------------------------------------------------------
# Counterexample fixture
# ---------------------------------------------------------------------------

def fixture_injective_components_not_injective_complex() -> Complex:
    """A complex whose components are both self-injective while the complex
    itself fails the injective-complex test.

    Over a finite ring every injective endomorphism of an injective module is
    onto, so the classical separating example (an injective ring with an
    injective, non-surjective self-map) cannot be instantiated here.  This
    fixture demonstrates the same separation over Z/4: multiplication by two
    on the length-two complex has self-injective components but nonvanishing
    homology, and the universe search finds a map that does not extend.
    """
    from .exactalg import Zmod
    ring = Zmod(4)
    z4 = FpModule(ring, (4,))
    return Complex(ring, {0: z4, 1: z4},
                   {0: ModuleMap(z4, z4, IntMatrix.from_rows([[2]]))})
