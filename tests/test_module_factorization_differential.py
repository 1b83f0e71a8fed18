"""The module-level certification of builds against the paths it replaced.

``verify_precover_factorization`` and ``verify_preenvelope_factorization``
decide each disk competitor by one onto test of a module restriction map
(the disk adjunction).  ``generator_verify`` below is the previous
implementation, kept here as the oracle: it read the generators of each
competitor's chain-map group off the adjunction (``helpers.disk_maps``,
formerly ``complexes.disk_maps``), solved them
in one map system (``helpers.factorization_check``, formerly
``construct._factorization_check``, with ``MapSystem.solve_each``) and
fell back to the group's elements when one did not factor.  Both must
report the same number of maps on built results, against the classes
everything, free and ann(2), and raise the same exception with the same
message on broken ones.

``validate_complex`` and ``ChainMap.commutes`` compare reduced row products
instead of composed maps; ``compose_validate`` and ``compose_commutes`` are
the composing versions they replaced, and every verdict must agree.
"""
from __future__ import annotations

import functools
import random

import pytest

from homkit.complexes import (
    ChainMap,
    Complex,
    ComplexVerdict,
    chain_map_group,
    disk,
    sphere,
    validate_complex,
)
from homkit.construct import (
    BuildError,
    OracleHypothesisError,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
)
from homkit.exactalg import ZZ, IntMatrix, Zmod
from homkit.modules import FpModule, ModuleMap, hom_module
from homkit.xclass import ALL, FREE, ann

from .helpers import competitors, disk_maps, factorization_check, random_complex, small_modules
from .test_factorization_differential import (
    BROKEN_CASES,
    CASES,
    case_id,
    dropped,
    outcome,
    universe,
    zeroed,
)
from .test_pool_differential import fresh_universe

CLASSES = [ALL, FREE, ann(2)]


# ---------------------------------------------------------------------------
# The oracle: generators from the disk adjunction, solved as chain maps
# ---------------------------------------------------------------------------

def generator_verify(built, cmap, y, x, u, injective) -> int:
    """The generator verifier, as it was before the module onto test."""
    if y.is_zero():
        return 0
    lo, hi = y.support
    tested = 0
    for comp in competitors(x, u, range(lo - 1, hi + 1), injective):
        k = comp.support[0]
        gens, order = disk_maps(k, comp.component(k), y, into=injective)
        first_failure = factorization_check(built, cmap, y, comp, injective)
        if order is not None and first_failure(gens) is None:
            tested += order
            continue
        for h in (chain_map_group(y, comp) if injective else chain_map_group(comp, y)).elements():
            tested += 1
            failure = first_failure([h])
            if failure is not None:
                raise BuildError(failure)
    return tested


def verify(result, y, x, u, injective) -> int:
    if injective:
        return verify_preenvelope_factorization(result, y, x, u)
    return verify_precover_factorization(result, y, x, u)


def oracle(result, y, x, u, injective) -> int:
    built = result.env if injective else result.cover
    return generator_verify(built, result.map, y, x, u, injective)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def three_degree_complexes(count: int) -> list:
    """Seeded complexes over Z/4 on degrees 0, 1 and 2 with components of at
    most eight elements, the shape of the builder suite's random inputs."""
    ring = Zmod(4)
    rng = random.Random(0)
    members = [m for m in small_modules(ring, 8) if not m.is_zero()]
    out = []
    while len(out) < count:
        c = random_complex(rng, ring, members, max_degrees=3, lo_range=(0, 0))
        if len(c.degrees()) == 3:
            out.append(c)
    return out


INPUTS = CASES + [(4, y) for y in three_degree_complexes(8)]


@functools.lru_cache(maxsize=None)
def built_result(index: int, injective: bool, cls: int = 0):
    """The precover (preenvelope) of input ``index`` for ``CLASSES[cls]``,
    or None when the module hypothesis fails for that class."""
    n, y = INPUTS[index]
    build = preenvelope_bounded if injective else precover_bounded
    try:
        return build(y, CLASSES[cls], u=universe(n))
    except OracleHypothesisError:
        return None


# ---------------------------------------------------------------------------
# Factorization: maps tested and failures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("injective", [False, True], ids=["precover", "preenvelope"])
@pytest.mark.parametrize("index", range(len(INPUTS)),
                         ids=[case_id(c) for c in INPUTS])
def test_maps_tested_match_the_generator_path(index, injective):
    # every result built for one class is verified against all three
    n, y = INPUTS[index]
    u = universe(n)
    for cls in range(len(CLASSES)):
        result = built_result(index, injective, cls)
        if result is None:
            continue
        for x in CLASSES:
            new = outcome(lambda: verify(result, y, x, u, injective))
            assert new == outcome(lambda: oracle(result, y, x, u, injective)), x.key()


BROKEN = BROKEN_CASES + [(4, y) for y in three_degree_complexes(4)]


@pytest.mark.parametrize("breakage", [zeroed, dropped])
@pytest.mark.parametrize("injective", [False, True], ids=["precover", "preenvelope"])
@pytest.mark.parametrize("case", BROKEN, ids=[case_id(c) for c in BROKEN])
def test_broken_results_fail_as_the_generator_path_does(case, injective, breakage):
    n, y = case
    build = preenvelope_bounded if injective else precover_bounded
    broken = breakage(build(y, ALL, u=universe(n)), injective)
    for x in CLASSES:
        new = outcome(lambda: verify(broken, y, x, universe(n), injective))
        assert new == outcome(lambda: oracle(broken, y, x, universe(n), injective)), x.key()
        if x is ALL:
            assert new[0] == "BuildError"


# ---------------------------------------------------------------------------
# validate_complex and ChainMap.commutes against composition
# ---------------------------------------------------------------------------

def compose_validate(c: Complex) -> ComplexVerdict:
    """validate_complex as it was: compose each pair of differentials."""
    for k in sorted(c._components):
        d0 = c.differential(k)
        d1 = c.differential(k + 1)
        if d1.source.is_zero() or d0.source.is_zero():
            continue
        if not d1.compose(d0).is_zero():
            return ComplexVerdict(False, k + 1, f"d o d is nonzero through degree {k + 1}")
    return ComplexVerdict(True, None, "valid complex")


def compose_commutes(f: ChainMap) -> bool:
    """ChainMap.commutes as it was: compose both ways round each square."""
    for k in set(f.source.degrees()) | set(f.target.degrees()):
        left = f.target.differential(k).compose(f.component(k))
        right = f.component(k + 1).compose(f.source.differential(k))
        if left.matrix.entries != right.matrix.entries:
            return False
    return True


def perturbed(f: ChainMap) -> list:
    """f and, per degree, f with that component doubled, shifted by the
    first generator of its hom module and zeroed: degreewise maps that are
    chain maps or not."""
    out = [f]
    for k in f.source.degrees():
        comp = f.component(k)
        hm = hom_module(comp.source, comp.target)
        if hm.module.is_zero():
            continue
        first = hm.decode(tuple(int(i == 0) for i in range(hm.module.ngens)))
        for g in (comp + comp, comp + first, ModuleMap.zero(comp.source, comp.target)):
            comps = {j: f.component(j) for j in f.source.degrees()}
            comps[k] = g
            out.append(ChainMap(f.source, f.target, comps, check=False))
    return out


def assert_agree(f: ChainMap) -> None:
    for c in (f.source, f.target):
        assert validate_complex(c) == compose_validate(c)
    for g in perturbed(f):
        assert g.commutes() == compose_commutes(g)


@pytest.mark.parametrize("n,disk_bound", [(4, 4), (6, 6), (8, 8)])
def test_pool_maps_agree_with_composition(n, disk_bound):
    cu = fresh_universe(n, disk_bound)
    verdicts = set()
    for phi, quotient in list(cu.mono_pool()) + list(cu.epi_pool()):
        assert validate_complex(quotient) == compose_validate(quotient)
        assert_agree(phi)
        verdicts.update(g.commutes() for g in perturbed(phi))
    assert verdicts == {True, False}


@pytest.mark.parametrize("injective", [False, True], ids=["precover", "preenvelope"])
def test_built_results_agree_with_composition(injective):
    results = [built_result(index, injective, cls)
               for index in range(len(INPUTS)) for cls in range(len(CLASSES))]
    for result in filter(None, results):
        assert result.map.commutes() and compose_commutes(result.map)
        assert validate_complex(result.map.source).ok and validate_complex(result.map.target).ok
        assert_agree(result.map)
        for breakage in (zeroed, dropped):
            assert_agree(breakage(result, injective).map)


Z = FpModule(ZZ, (0,))
Z2 = FpModule(ZZ, (2,))
Z4 = FpModule(Zmod(4), (4,))


def _map(src, tgt, rows) -> ModuleMap:
    return ModuleMap(src, tgt, IntMatrix.from_rows(rows, cols=src.ngens))


def _scaled(src: FpModule, tgt: FpModule, scale: int) -> ModuleMap:
    """scale times the generator, between cyclic modules over Z (zero from
    Z/2 into Z, where nothing else is well defined)."""
    (ds,), (dt,) = src.factors, tgt.factors
    return _map(src, tgt, [[scale % dt if dt else (0 if ds else scale)]])


def integer_complexes() -> list:
    """Complexes over Z on degrees 0..2, some of them not complexes."""
    out = []
    for a in (0, 1, 2, 3):
        for b in (0, 1, 2):
            out.append(Complex(ZZ, {0: Z, 1: Z, 2: Z},
                               {0: _map(Z, Z, [[a]]), 1: _map(Z, Z, [[b]])}, check=False))
            out.append(Complex(ZZ, {0: Z, 1: Z, 2: Z2},
                               {0: _map(Z, Z, [[a]]), 1: _map(Z, Z2, [[b % 2]])}, check=False))
    return out


def test_integer_complexes_and_maps_agree_with_composition():
    cxs = integer_complexes()
    assert {validate_complex(c).ok for c in cxs} == {True, False}
    for c in cxs:
        assert validate_complex(c) == compose_validate(c)
    valid = [c for c in cxs if validate_complex(c).ok]
    seen = set()
    for s in valid:
        for t in valid:
            for scale in (0, 1, 2, -3):
                comps = {k: _scaled(s.component(k), t.component(k), scale) for k in (0, 1, 2)}
                f = ChainMap(s, t, comps, check=False)
                assert f.commutes() == compose_commutes(f)
                seen.add(f.commutes())
    assert seen == {True, False}


def test_planted_square_failure_reports_the_first_degree():
    # d o d vanishes through degree 1 and is nonzero through degrees 2 and 3
    ring = Zmod(4)
    m = Z4
    double, one = _map(m, m, [[2]]), _map(m, m, [[1]])
    c = Complex(ring, {0: m, 1: m, 2: m, 3: m, 4: m},
                {0: double, 1: double, 2: one, 3: one}, check=False)
    verdict = validate_complex(c)
    assert verdict == compose_validate(c)
    assert (verdict.ok, verdict.degree) == (False, 2)


def test_planted_noncommuting_map_where_one_side_is_zero():
    # the only failing square has its source (target) side running through
    # a zero component, so one of its composites is absent
    ident = ModuleMap.identity(Z4)
    into_disk = ChainMap(sphere(0, Z4), disk(0, Z4), {0: ident}, check=False)
    from_disk = ChainMap(disk(-1, Z4), sphere(0, Z4), {0: ident}, check=False)
    for f in (into_disk, from_disk):
        assert f.commutes() is False
        assert compose_commutes(f) is False
    ok = ChainMap(disk(0, Z4), sphere(0, Z4), {0: ident}, check=False)
    assert ok.commutes() and compose_commutes(ok)
