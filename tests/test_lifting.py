"""Universe-bounded relative-injectivity and projectivity checkers."""
from __future__ import annotations

import random
import time

import pytest

from homkit.exactalg import ZZ, IntMatrix, Zmod
from homkit.modules import FpModule, MapSystem, ModuleMap, hom_module, kernel
from homkit.complexes import (
    ChainMap,
    ComplexError,
    chain_map_group,
    direct_sum_complexes,
    disk,
    hom_complex,
    is_exact,
    null_homotopy,
    sphere,
    zero_complex,
)
from homkit.xclass import (
    ALL,
    FREE,
    ZERO_ONLY,
    UniverseCapError,
    ann,
    default_complex_universe,
    eps1_universe,
    module_universe,
)
from homkit.lifting import (
    HypothesisError,
    _first_non_nullhomotopic,
    dg_x_injective,
    dg_x_projective,
    eps1_perp_homotopy,
    hom_exactness,
    null_map_property,
    summand_retraction,
    x_injective_complex,
    x_injective_module,
    x_projective_complex,
    x_projective_module,
)
from .helpers import random_complex, small_modules

R4 = Zmod(4)
Z2 = FpModule(R4, (2,))
Z4 = FpModule(R4, (4,))
U8 = module_universe(R4, 8)


def mm(src, tgt, rows):
    return ModuleMap(src, tgt, IntMatrix.from_rows(rows, cols=src.ngens))


class TestInjectiveModule:
    def test_ring_on_itself_is_injective(self):
        v = x_injective_module(Z4, ALL, U8)
        assert v.holds
        assert v.extra["criteria_agree"]

    def test_z2_fails_with_recorded_counterexample(self):
        v = x_injective_module(Z2, ALL, U8)
        assert not v.holds
        assert v.counterexample["mono"].matrix.entries == ((2,),)
        assert v.counterexample["mono"].source.factors == (2,)
        assert v.counterexample["mono"].target.factors == (4,)
        assert v.counterexample["map"].matrix.entries == ((1,),)
        assert v.extra["criteria_agree"]

    def test_zero_class_trivial(self):
        assert x_injective_module(Z2, ZERO_ONLY, U8).holds

    def test_witnesses_revalidate(self):
        v = x_injective_module(Z4, ALL, U8)
        for w in v.witnesses:
            i = w["mono"]
            hom_b = hom_module(i.target, Z4)
            hom_a = hom_module(i.source, Z4)
            for g, col in enumerate(w["section"]):
                # the recorded preimage really restricts to the generator
                assert col is not None
                preimage = hom_b.decode(tuple(col))
                gen = hom_a.decode(tuple(1 if t == g else 0
                                         for t in range(hom_a.module.ngens)))
                assert preimage.compose(i).matrix.entries == gen.matrix.entries

    def test_counterexample_is_enumeration_first(self):
        v1 = x_injective_module(Z2, ALL, U8)
        v2 = x_injective_module(Z2, ALL, U8)
        assert v1.counterexample["mono"] == v2.counterexample["mono"]
        assert v1.counterexample["map"] == v2.counterexample["map"]


def test_a_changed_result_does_not_change_the_next_one():
    # the witness-free verdicts are stored; each call hands out a copy
    u = module_universe(R4, 8)
    cu = default_complex_universe(R4, (0, 1), full_bound=2, disk_bound=4)
    for check, obj, universe in [(x_injective_module, Z2, u), (x_projective_module, Z2, u),
                                 (x_injective_complex, sphere(0, Z2), cu),
                                 (x_projective_complex, sphere(0, Z2), cu)]:
        first = check(obj, ALL, universe, keep_witnesses=False)
        want = (first.holds, first.checked, dict(first.extra), dict(first.counterexample))
        assert not first.holds
        first.holds = True
        first.extra["x"] = 1
        first.witnesses.append("w")
        first.counterexample["map"] = None
        again = check(obj, ALL, universe, keep_witnesses=False)
        assert again is not first
        assert (again.holds, again.checked, again.extra, again.counterexample) == want
        assert again.witnesses == []


class TestProjectiveModule:
    def test_free_always_lifts(self):
        for cls in (ALL, FREE, ann(2), ZERO_ONLY):
            assert x_projective_module(FpModule.free(R4, 1), cls, U8).holds

    def test_z2_fails(self):
        v = x_projective_module(Z2, ALL, U8)
        assert not v.holds
        assert v.counterexample["epi"].source.factors == (4,)
        assert v.counterexample["epi"].target.factors == (2,)
        assert v.counterexample["map"].matrix.entries == ((1,),)

    def test_zero_class_trivial(self):
        assert x_projective_module(Z2, ZERO_ONLY, U8).holds


class TestDoubleCriterion:
    def test_agreement_all_combinations(self):
        # modules up to 16 elements, every built-in class, bound-8 universes
        for n, classes in ((4, [ALL, ZERO_ONLY, FREE, ann(2)]),
                           (9, [ALL, ZERO_ONLY, FREE, ann(3)])):
            ring = Zmod(n)
            u = module_universe(ring, 8)
            from homkit.xclass import ModuleUniverse
            for e in ModuleUniverse(ring, 16).members:
                for cls in classes:
                    v = x_injective_module(e, cls, u, keep_witnesses=False)
                    assert v.extra["criteria_agree"], (n, e.factors, cls.key())


CU = default_complex_universe(R4, (0, 1), full_bound=4, disk_bound=8)


class TestInjectiveComplex:
    def test_disk_on_ring(self):
        assert x_injective_complex(disk(0, Z4), ALL, CU, keep_witnesses=False).holds

    def test_sphere_z2_fails(self):
        v = x_injective_complex(sphere(0, Z2), ALL, CU, keep_witnesses=False)
        assert not v.holds

    def test_zero_class(self):
        assert x_injective_complex(sphere(0, Z2), ZERO_ONLY, CU,
                                   keep_witnesses=False).holds

    def test_componentwise_consequence(self):
        # complex-level pass forces the module-level pass degree by degree
        rng = random.Random(21)
        members = small_modules(R4, 8)
        classes = [ALL, FREE, ann(2)]
        passing = 0
        for _ in range(25):
            c = random_complex(rng, R4, members, max_degrees=2, lo_range=(0, 0))
            for cls in classes:
                v = x_injective_complex(c, cls, CU, keep_witnesses=False)
                if v.holds:
                    passing += 1
                    for k in c.degrees():
                        assert x_injective_module(c.component(k), cls, U8,
                                                  keep_witnesses=False).holds
        assert passing > 0


class TestProjectiveComplex:
    def test_disk_on_free(self):
        assert x_projective_complex(disk(0, FpModule.free(R4, 1)), ALL, CU,
                                    keep_witnesses=False).holds

    def test_sphere_z2_fails(self):
        assert not x_projective_complex(sphere(0, Z2), ALL, CU,
                                        keep_witnesses=False).holds

    def test_zero_complex(self):
        assert x_projective_complex(zero_complex(R4), ALL, CU,
                                    keep_witnesses=False).holds

    def test_componentwise_consequence(self):
        rng = random.Random(22)
        members = small_modules(R4, 8)
        passing = 0
        for _ in range(20):
            c = random_complex(rng, R4, members, max_degrees=2, lo_range=(0, 0))
            v = x_projective_complex(c, ALL, CU, keep_witnesses=False)
            if v.holds:
                passing += 1
                for k in c.degrees():
                    assert x_projective_module(c.component(k), ALL, U8,
                                               keep_witnesses=False).holds
        assert passing > 0


EU_ALL = eps1_universe(R4, ALL, base_bound=4, window=(-1, 1))


class TestEps1Perp:
    def test_sphere_on_ring(self):
        assert eps1_perp_homotopy(sphere(0, Z4), EU_ALL, keep_witnesses=False).holds

    def test_zero_complex(self):
        assert eps1_perp_homotopy(zero_complex(R4), EU_ALL, keep_witnesses=False).holds

    def test_sphere_z2_fails_with_witness(self):
        v = eps1_perp_homotopy(sphere(0, Z2), EU_ALL, keep_witnesses=False)
        assert not v.holds
        g = v.counterexample["map"]
        assert null_homotopy(g) is None

    def test_search_finding_nothing_raises(self, monkeypatch):
        # a failing position guarantees a map that is not null-homotopic; a
        # search that finds none must raise, not pass silently
        import homkit.lifting as lifting
        monkeypatch.setattr(lifting, "_first_non_nullhomotopic", lambda src, tgt: None)
        with pytest.raises(AssertionError, match="every chain map .* is null-homotopic"):
            eps1_perp_homotopy(sphere(0, Z2), EU_ALL, keep_witnesses=True)

    def test_search_above_the_old_cap(self):
        # Hom(Z/2, (Z/2)^15): 2^15 chain maps between degree-0 spheres, none
        # of them null-homotopic but zero; the first in enumeration order is
        # the last generator, named without walking the group
        big = FpModule(R4, (2,) * 15)
        assert chain_map_group(sphere(0, Z2), sphere(0, big)).module.size() == 1 << 15
        g = _first_non_nullhomotopic(sphere(0, Z2), sphere(0, big))
        assert g is not None and null_homotopy(g) is None
        assert g.component(0).matrix.entries == tuple((int(r == 14),) for r in range(15))

    def test_perp_implies_components_injective_on_projective_suite(self):
        # on the suite whose components pass the projective test, membership
        # in the homotopy-level orthogonal forces injective components
        frees = [FpModule.zero(R4), FpModule.free(R4, 1)]
        rng = random.Random(31)
        checked = 0
        for _ in range(10):
            c = random_complex(rng, R4, frees, max_degrees=3, lo_range=(-1, 0))
            v = eps1_perp_homotopy(c, EU_ALL, keep_witnesses=False)
            if v.holds:
                checked += 1
                for k in c.degrees():
                    assert x_injective_module(c.component(k), ALL, U8,
                                              keep_witnesses=False).holds
        assert checked > 0

    def test_contractible_gap_documented(self):
        # a contractible complex on a non-injective module passes the
        # homotopy-level orthogonality test (every map into it is
        # null-homotopic) even though its components fail the module test:
        # the homotopy-level class is strictly coarser than one cut out by
        # all extensions, which is exactly the degreewise-split reading
        # implemented here
        c = disk(0, Z2)
        assert eps1_perp_homotopy(c, EU_ALL, keep_witnesses=False).holds
        assert not x_injective_module(Z2, ALL, U8, keep_witnesses=False).holds

    def test_perp_implies_hom_exact(self):
        # orthogonality forces exactness of the internal hom from members
        for c in (sphere(0, Z4), disk(0, Z4), zero_complex(R4)):
            if eps1_perp_homotopy(c, EU_ALL, keep_witnesses=False).holds:
                for e_cx in EU_ALL.members:
                    assert is_exact(hom_complex(e_cx, c)).exact

    def test_bounded_projective_components_in_perp(self):
        # every bounded complex of projective components lies in the orthogonal
        frees = [FpModule.zero(R4), FpModule.free(R4, 1)]
        rng = random.Random(41)
        for _ in range(10):
            c = random_complex(rng, R4, frees, max_degrees=3, lo_range=(-1, 0))
            assert eps1_perp_homotopy(c, EU_ALL, keep_witnesses=False).holds


class TestDg:
    def test_sphere_on_ring_dg_injective(self):
        assert dg_x_injective(sphere(0, Z4), ALL, EU_ALL, keep_witnesses=False).holds

    def test_component_failure_short_circuits(self):
        v = dg_x_injective(sphere(0, Z2), ALL, EU_ALL, keep_witnesses=False)
        assert not v.holds and v.counterexample["kind"] == "component"

    def test_zero_complex(self):
        assert dg_x_injective(zero_complex(R4), ALL, EU_ALL, keep_witnesses=False).holds

    def test_dual(self):
        assert dg_x_projective(sphere(0, FpModule.free(R4, 1)), ALL, EU_ALL,
                               keep_witnesses=False).holds
        assert not dg_x_projective(sphere(0, Z2), ALL, EU_ALL,
                                   keep_witnesses=False).holds
        assert dg_x_projective(zero_complex(R4), ALL, EU_ALL,
                               keep_witnesses=False).holds


class TestHomExactness:
    def test_mono_second_map_left(self):
        beta = ModuleMap.zero(FpModule.zero(R4), Z4)
        theta = mm(Z4, Z4, [[1]])
        v = hom_exactness(beta, theta, disk(0, FpModule.free(R4, 1)), "left", ALL)
        assert v.holds

    def test_disk_probe_any_admissible_row(self):
        b2 = mm(Z4, Z4, [[2]])
        for side in ("left", "right"):
            v = hom_exactness(b2, b2, disk(0, FpModule.free(R4, 1)), side, ALL)
            assert v.holds

    def test_zero_row(self):
        z = ModuleMap.zero(FpModule.zero(R4), FpModule.zero(R4))
        v = hom_exactness(z, z, disk(0, Z4), "left", ALL)
        assert v.holds

    def test_hypothesis_violation_reported(self):
        b2 = mm(Z4, Z4, [[2]])
        with pytest.raises(HypothesisError):
            hom_exactness(b2, b2, disk(0, Z4), "left", FREE)  # kernel Z/2 not free
        with pytest.raises(HypothesisError):
            # not exact at the middle: zero then doubling
            hom_exactness(ModuleMap.zero(Z4, Z4), b2, disk(0, Z4), "left", ALL)


    def test_row_over_z_with_isomorphic_kernel_and_image(self):
        # Z --x4--> Z --mod 2--> Z/2 composes to zero, and kernel 2Z and
        # image 4Z are both Z, but the row is not exact at its middle
        z = FpModule.free(ZZ, 1)
        times4, mod2 = mm(z, z, [[4]]), mm(z, FpModule(ZZ, (2,)), [[1]])
        with pytest.raises(HypothesisError, match="row is not exact at its middle module"):
            hom_exactness(times4, mod2, sphere(0, z), "left", ALL)

    def test_middle_maps_above_the_search_cap_are_refused(self):
        # 4^9 = 262,144 chain maps sphere(0, (Z/4)^3) -> sphere(0, (Z/4)^3), all
        # of them middle maps: theta is zero on the left and beta on the right
        b = FpModule(R4, (4, 4, 4))
        one, zero = ModuleMap.identity(b), FpModule.zero(R4)
        rows = {"left": (one, ModuleMap.zero(b, zero)), "right": (ModuleMap.zero(zero, b), one)}
        for side, (beta, theta) in rows.items():
            start = time.perf_counter()
            with pytest.raises(UniverseCapError, match=r"262144 chain maps .*\(search cap 16384\)"):
                hom_exactness(beta, theta, sphere(0, b), side, ALL)
            assert time.perf_counter() - start < 1.0

    def test_one_middle_map_in_a_group_above_the_search_cap(self):
        # the same 262,144 chain maps, of which only zero is a middle map:
        # theta is injective on the left and beta surjective on the right
        b = FpModule(R4, (4, 4, 4))
        one, zero = ModuleMap.identity(b), FpModule.zero(R4)
        rows = {"left": (ModuleMap.zero(zero, b), one), "right": (one, ModuleMap.zero(b, zero))}
        for side, (beta, theta) in rows.items():
            v = hom_exactness(beta, theta, sphere(0, b), side, ALL)
            assert (v.holds, v.checked, v.counterexample) == (True, 1, None)
            (w,) = v.witnesses
            assert w["middle"] == ModuleMap.zero(b, b)

    def test_infinite_middle_group_is_still_a_complex_error(self):
        # Z -> Z -> Z by the identity, then zero: every chain map of
        # spheres on Z is a middle map, infinitely many
        z = FpModule.free(ZZ, 1)
        beta, theta = ModuleMap.identity(z), ModuleMap.zero(z, z)
        with pytest.raises(ComplexError, match="infinite chain map group"):
            hom_exactness(beta, theta, sphere(0, z), "left", ALL)

    def test_finite_middle_maps_in_an_infinite_group_are_listed(self):
        # 0 -> Z -> Z by zero, then the identity: the chain maps of spheres
        # on Z are Z, but only zero is a middle map, and it lifts
        z = FpModule.free(ZZ, 1)
        beta, theta = ModuleMap.zero(FpModule.zero(ZZ), z), ModuleMap.identity(z)
        v = hom_exactness(beta, theta, sphere(0, z), "left", ALL)
        assert (v.holds, v.checked, v.counterexample) == (True, 1, None)
        (w,) = v.witnesses
        assert w["middle"] == ModuleMap.zero(z, z)


def old_hom_exactness_loop(beta, theta, probe, side) -> tuple:
    """``checked``, witnesses and counterexample of ``hom_exactness`` as its
    one-solve-per-middle-map loop computed them (the oracle)."""
    left = side == "left"
    ends = (probe, sphere(0, beta.target)) if left else (sphere(0, beta.target), probe)
    key, name = ("lift", "u") if left else ("factor", "h")
    checked, witnesses, counterexample = 0, [], None
    for g in (f.component(0) for f in chain_map_group(*ends).elements()):
        if not (theta.compose(g) if left else g.compose(beta)).is_zero():
            continue
        checked += 1
        ms = MapSystem(probe.ring)
        if left:
            ms.unknown(name, probe.component(0), beta.source)
            ms.equation([(beta, name, None, 1)], g, (probe.component(0), beta.target))
            if not probe.component(-1).is_zero():
                ms.equation([(None, name, probe.differential(-1), 1)], None,
                            (probe.component(-1), beta.source))
        else:
            ms.unknown(name, theta.target, probe.component(0))
            ms.equation([(None, name, theta, 1)], g, (theta.source, probe.component(0)))
            if not probe.component(1).is_zero():
                ms.equation([(probe.differential(0), name, None, 1)], None,
                            (theta.target, probe.component(1)))
        sol = ms.solve()
        if sol is None:
            counterexample = {"kind": "hom-row", "map": g}
            break
        witnesses.append({"kind": "hom-row", "middle": g, key: sol[name]})
    return checked, witnesses, counterexample


def exact_rows(ring, rng, count):
    """Rows A -> B -> C exact at B: a random theta and its kernel inclusion."""
    members = [m for m in small_modules(ring, 8) if not m.is_zero()]
    out = []
    while len(out) < count:
        b, c = rng.choice(members), rng.choice(members)
        elems = list(hom_module(b, c).module.elements())
        theta = hom_module(b, c).decode(rng.choice(elems))
        out.append((kernel(theta).inclusion, theta))
    return out


@pytest.mark.parametrize("n", [4, 6])
def test_hom_exactness_matches_one_solve_per_middle_map(n):
    ring = Zmod(n)
    rng = random.Random(n)
    probes = [f(k, m) for m in small_modules(ring, 4) if not m.is_zero()
              for k in (-1, 0) for f in (sphere, disk)]
    failures = 0
    for beta, theta in exact_rows(ring, rng, 12):
        for probe in probes:
            for side in ("left", "right"):
                v = hom_exactness(beta, theta, probe, side, ALL)
                checked, witnesses, counterexample = \
                    old_hom_exactness_loop(beta, theta, probe, side)
                assert (v.holds, v.checked, v.witnesses, v.counterexample) == \
                    (counterexample is None, checked, witnesses, counterexample)
                failures += not v.holds
    # over Z/6 every module is projective and injective, so every hom row is
    # exact; over Z/4 some rows fail and the counterexample is compared too
    assert (failures > 0) == (n == 4)


class TestNullMapProperty:
    def test_disk_to_sphere_over_free_class(self):
        src = disk(0, FpModule.free(R4, 1))
        tgt = sphere(0, FpModule.free(R4, 1))
        for f in chain_map_group(src, tgt).elements():
            v = null_map_property(f, "fromProjective", FREE, CU)
            assert v.holds
            assert v.witnesses[0]["homotopy"].verifies()

    def test_zero_map(self):
        src = disk(0, FpModule.free(R4, 1))
        v = null_map_property(ChainMap.zero(src, src), "fromProjective", FREE, CU)
        assert v.holds

    def test_into_injective(self):
        src = sphere(0, FpModule.free(R4, 1))
        tgt = disk(0, Z4)
        for f in chain_map_group(src, tgt).elements():
            v = null_map_property(f, "toInjective", FREE, CU)
            assert v.holds

    def test_refuses_without_hypotheses(self):
        with pytest.raises(HypothesisError):
            null_map_property(ChainMap.identity(sphere(0, Z2)), "fromProjective",
                              ALL, CU)


class TestSummandRetraction:
    def test_identity_inclusion(self):
        c = disk(0, Z4)
        r = summand_retraction(c, c, ChainMap.identity(c), ALL, CU)
        assert r is not None and r == ChainMap.identity(c)

    def test_direct_summand(self):
        y, injs, _ = direct_sum_complexes([disk(0, Z4), sphere(1, Z2)])
        r = summand_retraction(disk(0, Z4), y, injs[0], ALL, CU)
        assert r is not None
        assert r.compose(injs[0]) == ChainMap.identity(disk(0, Z4))

    def test_zero_complex(self):
        zc = zero_complex(R4)
        r = summand_retraction(zc, disk(0, Z4), ChainMap.zero(zc, disk(0, Z4)),
                               ALL, CU)
        assert r is not None

    def test_hypotheses_checked(self):
        # the zero map is not a degreewise injection, so the checker refuses
        with pytest.raises(HypothesisError):
            summand_retraction(sphere(0, Z2), disk(0, Z2),
                               ChainMap.zero(sphere(0, Z2), disk(0, Z2)), ALL, CU)
