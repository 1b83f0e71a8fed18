"""Constructive builders: module covers/envelopes, bounded precovers and
preenvelopes, the envelope search, and the counterexample fixture."""
from __future__ import annotations

import random

import pytest

from homkit import caches
from homkit.exactalg import IntMatrix, Zmod
from homkit.modules import FpModule, ModuleMap, cokernel, kernel
from homkit.complexes import (
    ChainMap,
    Complex,
    disk,
    is_exact,
    sphere,
    validate_complex,
    zero_complex,
)
from homkit.xclass import (
    ALL,
    FREE,
    ZERO_ONLY,
    ann,
    contains_module,
    default_complex_universe,
    module_universe,
)
from homkit.lifting import x_injective_complex, x_injective_module, x_projective_module
from homkit.construct import (
    BuildError,
    OracleHypothesisError,
    PrecoverResult,
    PreenvelopeResult,
    fixture_injective_components_not_injective_complex,
    module_epi_precover,
    module_mono_preenvelope,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
    x_injective_envelope,
)
from .helpers import random_complex, small_modules

R4 = Zmod(4)
Z2 = FpModule(R4, (2,))
Z4 = FpModule(R4, (4,))
U8 = module_universe(R4, 8)


class TestModuleOracles:
    def test_free_module_covers_itself(self):
        m = FpModule.free(R4, 1)
        p, q = module_epi_precover(m, ALL)
        assert p.factors == m.factors
        assert q.matrix.entries == IntMatrix.identity(1).entries

    def test_cover_of_z2(self):
        p, q = module_epi_precover(Z2, ALL)
        assert p.factors == (4,)
        assert kernel(q).sub.factors == (2,)

    def test_cover_of_zero(self):
        p, q = module_epi_precover(FpModule.zero(R4), ALL)
        assert p.is_zero()

    def test_search_strategy_for_free_class(self):
        # class of frees over Z/4: frees are their own covers
        p, q = module_epi_precover(Z4, FREE, u=U8)
        assert contains_module(FREE, p) and q.is_epi()
        assert contains_module(FREE, kernel(q).sub)

    def test_search_failure_reported(self):
        # no free cover of Z/2 can have a free kernel over Z/4
        with pytest.raises(OracleHypothesisError):
            module_epi_precover(Z2, FREE, u=U8)

    def test_envelope_of_z2(self):
        e, f = module_mono_preenvelope(Z2, ALL)
        assert e.factors == (4,)
        assert f.matrix.entries == ((2,),)
        assert cokernel(f)[0].factors == (2,)


class TestPrecoverBounded:
    def test_zero_complex(self):
        r = precover_bounded(zero_complex(R4), ALL)
        assert r.cover.is_zero()

    def test_sphere_base_case(self):
        y = sphere(0, Z2)
        r = precover_bounded(y, ALL)
        assert r.cover.component(0).factors == (4,)
        assert r.cover.component(1).factors == (4,)
        assert is_exact(r.cover).exact
        assert r.map.component(0).is_epi()
        assert all(ok for _, ok in r.kernel_membership.values())
        assert verify_precover_factorization(r, y, ALL, U8) > 0

    def test_two_step_constraints_recomputed(self):
        y = Complex(R4, {0: Z2, 1: Z2}, {0: ModuleMap.identity(Z2)})
        r = precover_bounded(y, ALL)
        step = r.build_log[1].data
        lhs = step["map"].compose(step["s1"])
        rhs = step["a_prev"].compose(step["vertical_prev"])
        assert lhs.matrix.entries == rhs.matrix.entries
        assert step["s2"].compose(step["lambda_top"]).matrix.entries == \
            step["s1"].matrix.entries
        assert verify_precover_factorization(r, y, ALL, U8) > 0

    def test_three_step_with_gap(self):
        y = Complex(R4, {0: Z2, 2: Z4}, {})
        r = precover_bounded(y, ALL)
        assert is_exact(r.cover).exact
        for k in y.degrees():
            assert r.map.component(k).is_epi()

    def test_components_are_class_projective(self):
        y = Complex(R4, {0: Z4, 1: Z4, 2: Z4},
                    {0: ModuleMap(Z4, Z4, IntMatrix.from_rows([[2]])),
                     1: ModuleMap(Z4, Z4, IntMatrix.from_rows([[2]]))})
        r = precover_bounded(y, ALL)
        for k in r.cover.degrees():
            assert x_projective_module(r.cover.component(k), ALL, U8,
                                       keep_witnesses=False).holds

    def test_deterministic_rebuild(self):
        y = Complex(R4, {0: Z2, 1: Z4}, {0: ModuleMap(Z2, Z4, IntMatrix.from_rows([[2]]))})
        r1 = precover_bounded(y, ALL)
        r2 = precover_bounded(y, ALL)
        assert r1.cover == r2.cover
        assert r1.map == r2.map

    def test_random_suite_invariants(self):
        rng = random.Random(17)
        members = small_modules(R4, 8)
        for _ in range(15):
            y = random_complex(rng, R4, members, max_degrees=3, lo_range=(0, 0))
            r = precover_bounded(y, ALL)
            assert validate_complex(r.cover).ok
            assert is_exact(r.cover).exact
            assert r.map.commutes()
            for k in y.degrees():
                assert r.map.component(k).is_epi()
            assert all(ok for _, ok in r.kernel_membership.values())
            # kernel complex really is a complex of class members
            kc = r.kernel()
            assert validate_complex(kc).ok
            for step in r.build_log[1:]:
                d = step.data
                assert d["map"].compose(d["s1"]).matrix.entries == \
                    d["a_prev"].compose(d["vertical_prev"]).matrix.entries
                assert d["s2"].compose(d["lambda_top"]).matrix.entries == \
                    d["s1"].matrix.entries
                if d["lambda_prev"] is not None:
                    assert d["s1"].compose(d["lambda_prev"]).is_zero()


class TestPreenvelopeBounded:
    def test_zero_complex(self):
        r = preenvelope_bounded(zero_complex(R4), ALL)
        assert r.env.is_zero()

    def test_sphere_base_case(self):
        y = sphere(0, Z2)
        r = preenvelope_bounded(y, ALL)
        assert r.env.component(-1).factors == (4,)
        assert r.env.component(0).factors == (4,)
        assert is_exact(r.env).exact
        assert r.map.component(0).is_mono()
        assert all(ok for _, ok in r.cokernel_membership.values())
        cok = r.cokernel_membership[0][0]
        assert cok == (2,)

    def test_two_step_squares(self):
        y = disk(0, Z2)
        r = preenvelope_bounded(y, ALL)
        assert is_exact(r.env).exact
        step = r.build_log[1].data
        lhs = step["s"].compose(step["map"])
        rhs = step["vertical_prev"].compose(step["a"])
        assert lhs.matrix.entries == rhs.matrix.entries
        assert step["lambda_low"].compose(step["t"]).matrix.entries == \
            step["s"].matrix.entries
        assert verify_preenvelope_factorization(r, y, ALL, U8) > 0

    def test_components_are_class_injective(self):
        y = disk(0, Z2)
        r = preenvelope_bounded(y, ALL)
        for k in r.env.degrees():
            assert x_injective_module(r.env.component(k), ALL, U8,
                                      keep_witnesses=False).holds

    def test_random_suite_invariants(self):
        rng = random.Random(19)
        members = small_modules(R4, 8)
        for _ in range(15):
            y = random_complex(rng, R4, members, max_degrees=3, lo_range=(0, 0))
            r = preenvelope_bounded(y, ALL)
            assert validate_complex(r.env).ok
            assert is_exact(r.env).exact
            assert r.map.commutes()
            for k in y.degrees():
                assert r.map.component(k).is_mono()
            assert all(ok for _, ok in r.cokernel_membership.values())
            for step in r.build_log[1:]:
                d = step.data
                assert d["s"].compose(d["map"]).matrix.entries == \
                    d["vertical_prev"].compose(d["a"]).matrix.entries
                assert d["lambda_low"].compose(d["t"]).matrix.entries == \
                    d["s"].matrix.entries

    def test_deterministic_rebuild(self):
        y = disk(0, Z2)
        assert preenvelope_bounded(y, ALL).env == preenvelope_bounded(y, ALL).env


class TestFactorizationHypotheses:
    """The factorization verifiers certify a result only when its built
    object is a complex and its map a chain map between it and the input."""

    SIDES = [(precover_bounded, verify_precover_factorization),
             (preenvelope_bounded, verify_preenvelope_factorization)]

    @pytest.mark.parametrize("build,verify", SIDES, ids=["precover", "preenvelope"])
    def test_result_for_another_input_is_refused(self, build, verify):
        r = build(sphere(0, Z4), ALL, u=U8)
        assert verify(r, sphere(0, Z4), ALL, U8) > 0
        with pytest.raises(BuildError, match="map does not run between the input"):
            verify(r, sphere(0, Z2), ALL, U8)

    @pytest.mark.parametrize("build,verify", SIDES, ids=["precover", "preenvelope"])
    def test_non_commuting_map_is_refused(self, build, verify):
        # the map keeps only its degree-0 (degree-1) component, so the square
        # through the disk's identity differential no longer commutes
        y = disk(0, Z4)
        r = build(y, ALL, u=U8)
        if build is precover_bounded:
            cmap = ChainMap(r.cover, y, {0: r.map.component(0)}, check=False)
            broken = PrecoverResult(r.cover, cmap, r.per_degree_oracle,
                                    r.kernel_membership, r.build_log)
        else:
            cmap = ChainMap(y, r.env, {1: r.map.component(1)}, check=False)
            broken = PreenvelopeResult(r.env, cmap, r.per_degree_oracle,
                                       r.cokernel_membership, r.build_log)
        assert not cmap.commutes()
        with pytest.raises(BuildError, match="map is not a chain map"):
            verify(broken, y, ALL, U8)


class TestEnvelopeSearch:
    def test_sphere_z2(self):
        res = x_injective_envelope(sphere(0, Z2), ALL)
        assert res.envelope.component(-1).factors == (4,)
        assert res.envelope.component(0).factors == (4,)
        assert res.injective_verdict.holds
        assert res.essential
        assert res.inclusion.is_mono()

    def test_zero_complex(self):
        res = x_injective_envelope(zero_complex(R4), ALL)
        assert res.envelope.is_zero()

    def test_already_injective_zero_class(self):
        res = x_injective_envelope(disk(0, Z4), ZERO_ONLY)
        # with the zero-only class the input is maximal on its own
        for k in disk(0, Z4).degrees():
            assert res.envelope.component(k).factors == (4,)
        assert res.injective_verdict.holds and res.essential

    def test_closure_hypotheses_reported(self):
        with pytest.raises(OracleHypothesisError):
            x_injective_envelope(sphere(0, Z2), FREE)  # free class not quotient closed
        with pytest.raises(OracleHypothesisError):
            x_injective_envelope(sphere(0, Z2), ann(2))  # not extension closed

    def test_closure_checks_are_remembered(self):
        def hits():
            stats = caches.stats()
            return [stats[f"construct.{name}_closure"]["hits"] for name in ("extension", "quotient")]

        zc = zero_complex(Zmod(6))
        first = x_injective_envelope(zc, ann(2), module_bound=4)
        before = hits()
        second = x_injective_envelope(zc, ann(2), module_bound=4)
        assert hits() == [h + 1 for h in before]
        assert second.closure_report == first.closure_report == \
            {"extension_closed": True, "quotient_closed": True}

    def test_maximality(self):
        res = x_injective_envelope(sphere(0, Z2), ALL)
        # with the class of everything, the maximal admissible subcomplex is
        # the whole ambient: both components already have size 4
        assert res.envelope.total_size() == 16


class TestFixture:
    def test_components_pass_module_check(self):
        fx = fixture_injective_components_not_injective_complex()
        for k in fx.degrees():
            assert x_injective_module(fx.component(k), ALL, U8,
                                      keep_witnesses=False).holds

    def test_not_exact_with_expected_homology(self):
        fx = fixture_injective_components_not_injective_complex()
        rep = is_exact(fx)
        assert not rep.exact
        assert rep.homology[0] == (2,)
        assert rep.homology[1] == (2,)

    def test_complex_check_fails_deterministically(self):
        fx = fixture_injective_components_not_injective_complex()
        cu = default_complex_universe(R4, fx.support, full_bound=4, disk_bound=8)
        v1 = x_injective_complex(fx, ALL, cu, keep_witnesses=False)
        v2 = x_injective_complex(fx, ALL, cu, keep_witnesses=False)
        assert not v1.holds and not v2.holds
        assert v1.counterexample["mono"] == v2.counterexample["mono"]
        assert v1.counterexample["map"] == v2.counterexample["map"]
