"""The factorization verifiers against the element-by-element check they
replaced.

``verify_precover_factorization`` and ``verify_preenvelope_factorization``
certify each disk competitor on the generators its disk adjunction gives.
``old_verify_factorization`` below is the previous implementation, which
enumerated every chain map of each competitor's group and solved one map
system per map; it is kept here as the oracle.  Both must report the same
number of maps on built results and raise the same exception, with the same
message, on broken ones.
"""
from __future__ import annotations

import pytest

from homkit.complexes import ChainMap, Complex, chain_map_group, disk, sphere
from homkit.construct import (
    BuildError,
    PrecoverResult,
    PreenvelopeResult,
    _side_words,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
)
from homkit.exactalg import Zmod
from homkit.modules import FpModule, MapSystem, hom_module, span_elements
from homkit.xclass import ALL, module_universe

from .helpers import competitors, disk_maps, small_modules


def old_verify_factorization(built, cmap, y, x, u, injective):
    """The enumerate-every-element verifier, as it was before generators."""
    if y.is_zero():
        return 0
    name = _side_words(injective)[1]
    lo, hi = y.support
    tested = 0
    for comp in competitors(x, u, range(lo - 1, hi + 1), injective):
        src, tgt = (built, comp) if injective else (comp, built)
        for h in (chain_map_group(y, comp) if injective else chain_map_group(comp, y)).elements():
            tested += 1
            ms = MapSystem(y.ring)
            names = {k: ms.unknown(f"g{k}", src.component(k), tgt.component(k))
                     for k in comp.degrees() if not built.component(k).is_zero()}
            for k in comp.degrees():
                if k in names:
                    left, right = (None, cmap.component(k)) if injective \
                        else (cmap.component(k), None)
                    ms.equation([(left, names[k], right, 1)], h.component(k),
                                (h.source.component(k), h.target.component(k)))
                elif not h.component(k).is_zero():
                    raise BuildError(
                        f"factorization impossible: {name} vanishes where the map does not")
                if k in names and (k + 1) in names:
                    ms.equation([(None, names[k + 1], src.differential(k), 1),
                                 (tgt.differential(k), names[k], None, -1)],
                                None, (src.component(k), tgt.component(k + 1)))
            if ms.solve() is None:
                raise BuildError(
                    f"map into {comp.describe()} does not factor through the envelope"
                    if injective else
                    f"competitor map from {comp.describe()} does not factor through the cover")
    return tested


def complexes(n: int) -> list:
    """Spheres and disks in degrees 0 and 1 on the nonzero modules of at most
    four elements, and every complex on degrees 0 and 1 with such components
    (the two-degree core of bound 4)."""
    ring = Zmod(n)
    members = [m for m in small_modules(ring, 4) if not m.is_zero()]
    out = [f(k, m) for m in members for k in (0, 1) for f in (sphere, disk)]
    for m0 in members:
        for m1 in members:
            out.extend(Complex(ring, {0: m0, 1: m1}, {0: d})
                       for d in hom_module(m0, m1).elements())
    return out


def universe(n: int):
    # the smallest universe holding the free module of rank one
    return module_universe(Zmod(n), max(8, n))


CASES = [(n, y) for n in (4, 6, 9) for y in complexes(n)]


def case_id(case) -> str:
    n, y = case
    return f"Z{n}-{y.describe()}"


def built_result(n: int, y: Complex, injective: bool):
    build = preenvelope_bounded if injective else precover_bounded
    return build(y, ALL, u=universe(n))


def verify(result, y, n, injective) -> int:
    if injective:
        return verify_preenvelope_factorization(result, y, ALL, universe(n))
    return verify_precover_factorization(result, y, ALL, universe(n))


def old_verify(result, y, n, injective) -> int:
    built = result.env if injective else result.cover
    return old_verify_factorization(built, result.map, y, ALL, universe(n), injective)


def outcome(run) -> tuple:
    try:
        return ("ok", run())
    except Exception as exc:      # the type and message are what is compared
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("injective", [False, True], ids=["precover", "preenvelope"])
@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_maps_tested_match(case, injective):
    n, y = case
    result = built_result(n, y, injective)
    assert verify(result, y, n, injective) == old_verify(result, y, n, injective)


def zeroed(result, injective):
    """The result with its chain map replaced by zero."""
    built = result.env if injective else result.cover
    ends = (result.map.source, built) if injective else (built, result.map.target)
    return replaced(result, built, ChainMap.zero(*ends), injective)


def dropped(result, injective):
    """The result with the built complex's lowest (highest, for an envelope)
    component cut off and the chain map restricted to what is left."""
    built = result.env if injective else result.cover
    end = built.support[1] if injective else built.support[0]
    keep = [k for k in built.degrees() if k != end]
    cut = Complex(built.ring, {k: built.component(k) for k in keep},
                  {k: built.differential(k) for k in keep if (k + 1) in keep}, check=False)
    comps = {k: result.map.component(k) for k in keep}
    cmap = ChainMap(result.map.source, cut, comps, check=False) if injective \
        else ChainMap(cut, result.map.target, comps, check=False)
    return replaced(result, cut, cmap, injective)


def replaced(result, built, cmap, injective):
    if injective:
        return PreenvelopeResult(built, cmap, result.per_degree_oracle,
                                 result.cokernel_membership, result.build_log)
    return PrecoverResult(built, cmap, result.per_degree_oracle,
                          result.kernel_membership, result.build_log)


BROKEN_CASES = [(n, y) for n in (4, 6, 9)
                for y in (sphere(0, FpModule(Zmod(n), (n,))),
                          disk(0, FpModule(Zmod(n), (n,))),
                          Complex(Zmod(n), {0: FpModule(Zmod(n), (n,)),
                                            1: FpModule(Zmod(n), (n,))}, {}))]


@pytest.mark.parametrize("breakage", [zeroed, dropped])
@pytest.mark.parametrize("injective", [False, True], ids=["precover", "preenvelope"])
@pytest.mark.parametrize("case", BROKEN_CASES, ids=[case_id(c) for c in BROKEN_CASES])
def test_broken_results_fail_alike(case, injective, breakage):
    n, y = case
    broken = breakage(built_result(n, y, injective), injective)
    new = outcome(lambda: verify(broken, y, n, injective))
    assert new[0] == "BuildError"
    assert new == outcome(lambda: old_verify(broken, y, n, injective))


def test_both_failure_messages_are_reached():
    n, y = BROKEN_CASES[0]
    messages = {outcome(lambda: verify(breakage(built_result(n, y, inj), inj), y, n, inj))[1]
                for breakage in (zeroed, dropped) for inj in (False, True)}
    assert any(m.startswith("factorization impossible") for m in messages)
    assert any("does not factor through" in m for m in messages)


@pytest.mark.parametrize("into", [False, True], ids=["from-disk", "into-disk"])
@pytest.mark.parametrize("case", CASES[::3], ids=[case_id(c) for c in CASES[::3]])
def test_disk_adjunction_generates_the_chain_map_group(case, into):
    n, y = case
    lo, hi = y.support
    for m in small_modules(Zmod(n), 9):
        if m.is_zero():
            continue
        for k in range(lo - 1, hi + 1):
            gens, order = disk_maps(k, m, y, into=into)
            grp = chain_map_group(y, disk(k, m)) if into else chain_map_group(disk(k, m), y)
            assert order == grp.module.size()
            coords = []
            for g in gens:
                assert g.commutes()
                c = grp.encode(g)
                assert c is not None
                coords.append(c)
            assert len(span_elements(grp.module, coords)) == order
