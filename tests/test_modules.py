"""Finitely presented modules: canonical forms, exactness data, Hom and Ext."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from homkit import modules
from homkit.exactalg import IntMatrix, ZZ, Zmod
from homkit.modules import (
    FpModule,
    MapSystem,
    ModuleError,
    ModuleMap,
    all_submodules,
    cokernel,
    direct_sum,
    ext1_module,
    hom_module,
    image,
    injective_hull,
    kernel,
    normalize_presentation,
    pushout,
    span_elements,
    submodule_from_elements,
)

from .helpers import small_modules

R4 = Zmod(4)
Z2 = FpModule(R4, (2,))
Z4 = FpModule(R4, (4,))


def mm(src, tgt, rows):
    return ModuleMap(src, tgt, IntMatrix.from_rows(rows, cols=src.ngens))


class TestNormalize:
    def test_cyclic_two(self):
        pres = normalize_presentation(ZZ, 1, IntMatrix.from_rows([[2]]))
        assert pres.module.factors == (2,)

    def test_diag_2_3_is_z6(self):
        pres = normalize_presentation(ZZ, 2, IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert pres.module.factors == (6,)

    def test_free_mod4(self):
        pres = normalize_presentation(R4, 2, IntMatrix.from_columns([], rows=2))
        assert pres.module.factors == (4, 4)

    def test_round_trip_maps(self):
        pres = normalize_presentation(ZZ, 2, IntMatrix.from_rows([[2, 0], [0, 3]]))
        # to_canonical o from_canonical is the identity on the canonical side
        comp = pres.to_canonical @ pres.from_canonical
        assert comp.entries == IntMatrix.identity(pres.module.ngens).entries


class TestFpModule:
    def test_divisibility_enforced(self):
        with pytest.raises(ModuleError):
            FpModule(ZZ, (3, 2))
        with pytest.raises(ModuleError):
            FpModule(R4, (3,))

    def test_sizes(self):
        assert FpModule(R4, (2, 4)).size() == 8
        assert FpModule(ZZ, (0,)).size() is None
        assert FpModule.zero(R4).size() == 1


class TestMapAlgebra:
    def test_identity_matrix_is_identity(self):
        m = FpModule(R4, (2, 4))
        ident = ModuleMap.identity(m)
        for x in m.elements():
            assert ident.apply(x) == x

    def test_composition_associative(self):
        rng = random.Random(2)
        mods = [Z2, Z4, FpModule(R4, (2, 2)), FpModule(R4, (2, 4))]
        from homkit.xclass import enumerate_homs
        for _ in range(20):
            a, b, c, d = (rng.choice(mods) for _ in range(4))
            f = rng.choice(enumerate_homs(a, b))
            g = rng.choice(enumerate_homs(b, c))
            h = rng.choice(enumerate_homs(c, d))
            assert h.compose(g).compose(f).matrix.entries == \
                h.compose(g.compose(f)).matrix.entries


class TestKernelImageCokernel:
    def test_kernel_of_doubling(self):
        f = mm(Z4, Z4, [[2]])
        # oracle: elements x of Z/4 with 2x = 0 are {0, 2}
        members = {x for x in range(4) if (2 * x) % 4 == 0}
        assert members == {0, 2}
        wit = kernel(f)
        assert wit.sub.factors == (2,)
        assert {wit.inclusion.apply(e)[0] for e in wit.sub.elements()} == members
        assert wit.quotient_map.compose(wit.inclusion).is_zero()

    def test_kernel_of_identity(self):
        assert kernel(ModuleMap.identity(Z4)).sub.is_zero()

    def test_cokernel_of_doubling(self):
        c, q = cokernel(mm(Z4, Z4, [[2]]))
        assert c.factors == (2,)
        assert q.is_epi()

    def test_image(self):
        wit = image(mm(Z4, Z4, [[2]]))
        assert wit.sub.factors == (2,)
        assert wit.quotient.factors == (2,)

    def test_exactness_certificates(self):
        f = mm(FpModule(R4, (2, 4)), Z4, [[2, 1]])
        wit = kernel(f)
        assert wit.inclusion.is_mono()
        assert f.compose(wit.inclusion).is_zero()
        # every source element killed by f comes from the kernel module
        killed = {x for x in f.source.elements() if f.apply(x) == (0,)}
        assert killed == {wit.inclusion.apply(e) for e in wit.sub.elements()}


class TestDirectSum:
    def test_empty_is_zero(self):
        assert direct_sum([FpModule.zero(R4)]).module.is_zero()

    def test_mixed(self):
        ds = direct_sum([Z2, Z4])
        assert ds.module.factors == (2, 4)

    def test_same(self):
        assert direct_sum([Z2, Z2]).module.factors == (2, 2)

    def test_renormalizes_over_z(self):
        ds = direct_sum([FpModule(ZZ, (2,)), FpModule(ZZ, (3,))])
        assert ds.module.factors == (6,)

    def test_injection_projection_identities(self):
        ds = direct_sum([Z2, Z4, Z2])
        for i, pi in enumerate(ds.projections):
            for j, inj in enumerate(ds.injections):
                comp = pi.compose(inj)
                if i == j:
                    assert comp.matrix.entries == IntMatrix.identity(comp.source.ngens).entries
                else:
                    assert comp.is_zero()
        total = None
        for inj, pi in zip(ds.injections, ds.projections):
            term = inj.compose(pi)
            total = term if total is None else total + term
        assert total.matrix.entries == IntMatrix.identity(ds.module.ngens).entries


class TestPushout:
    def test_along_zero(self):
        iota = mm(Z2, Z4, [[2]])
        po = pushout(ModuleMap.zero(Z2, Z4), iota)
        expected = direct_sum([Z4, cokernel(iota)[0]]).module
        assert po.module.factors == expected.factors

    def test_along_identity(self):
        po = pushout(ModuleMap.identity(Z2), ModuleMap.identity(Z2))
        assert po.module.factors == (2,)

    def test_glue_z2_into_z4(self):
        # oracle: (Z/2 + Z/4) has 8 elements, the glued relation set has 2,
        # so the corner has 4 elements; it is cyclic since (0,1) has order 4
        iota = mm(Z2, Z4, [[2]])
        po = pushout(ModuleMap.identity(Z2), iota)
        assert po.module.factors == (4,)
        lhs = po.leg_from_alpha_target.compose(ModuleMap.identity(Z2))
        rhs = po.leg_from_iota_target.compose(iota)
        assert lhs.matrix.entries == rhs.matrix.entries

    def test_mono_leg(self):
        iota = mm(Z2, Z4, [[2]])
        po = pushout(ModuleMap.identity(Z2), iota)
        assert po.leg_from_alpha_target.is_mono()

    def test_rejects_non_mono(self):
        with pytest.raises(ModuleError):
            pushout(ModuleMap.identity(Z2), ModuleMap.zero(Z2, Z4))

    def test_universal_property_brute_force(self):
        # every competing cocone factors uniquely through the corner
        rng = random.Random(7)
        mods = [Z2, Z4, FpModule(R4, (2, 2)), FpModule(R4, (2, 4))]
        cases = 0
        for _ in range(12):
            s, xm, mm_ = (rng.choice(mods) for _ in range(3))
            from homkit.xclass import enumerate_monos, enumerate_homs
            monos = enumerate_monos(s, mm_)
            if not monos:
                continue
            iota = monos[rng.randrange(len(monos))]
            homs = enumerate_homs(s, xm)
            alpha = homs[rng.randrange(len(homs))]
            po = pushout(alpha, iota)
            if po.module.size() > 64:
                continue
            q = rng.choice(mods)
            for u in enumerate_homs(xm, q)[:3]:
                for v in enumerate_homs(mm_, q)[:3]:
                    if u.compose(alpha).matrix.entries != v.compose(iota).matrix.entries:
                        continue
                    ms = MapSystem(R4)
                    ms.unknown("w", po.module, q)
                    ms.equation([(None, "w", po.leg_from_alpha_target, 1)], u, (xm, q))
                    ms.equation([(None, "w", po.leg_from_iota_target, 1)], v, (mm_, q))
                    sol = ms.solve()
                    assert sol is not None, "cocone failed to factor"
                    # uniqueness: the difference of two factorizations kills both legs
                    w = sol["w"]
                    count = sum(
                        1 for cand in hom_module(po.module, q).elements()
                        if cand.compose(po.leg_from_alpha_target).matrix.entries
                        == u.matrix.entries
                        and cand.compose(po.leg_from_iota_target).matrix.entries
                        == v.matrix.entries)
                    assert count == 1
                    cases += 1
        assert cases >= 5


class TestMapSystemEquation:
    """An equation is checked when it is added: every term names a declared
    unknown and composes to a map S -> T, and so does the right-hand side."""

    def system(self):
        ms = MapSystem(R4)
        ms.unknown("x", Z4, Z4)
        return ms

    def test_undeclared_unknown_is_rejected(self):
        # it used to raise a bare KeyError at solve time
        with pytest.raises(ModuleError, match="undeclared unknown 'y'"):
            self.system().equation([(None, "y", None, 1)], None, (Z4, Z4))

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_a_term_that_does_not_compose_is_rejected(self, side):
        # L = id on (Z/4)^2 used to be read as a sub-block and "solve" x = 3
        wide = ModuleMap.identity(FpModule(R4, (4, 4)))
        term = (wide, "x", None, 1) if side == "L" else (None, "x", wide, 1)
        rhs = ModuleMap(Z4, Z4, IntMatrix.from_rows([[3]]))
        with pytest.raises(ModuleError, match="does not compose"):
            self.system().equation([term], rhs, (Z4, Z4))

    def test_a_right_hand_side_outside_the_space_is_rejected(self):
        ms = self.system()
        wide = ModuleMap.identity(FpModule(R4, (4, 4)))
        with pytest.raises(ModuleError, match="right-hand side"):
            ms.equation([(None, "x", None, 1)], wide, (Z4, Z4))
        ms.equation([(None, "x", None, 1)], None, (Z4, Z4))
        with pytest.raises(ModuleError, match="right-hand side"):
            ms.solve_each([[wide]])

    @pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=str)
    def test_an_unknown_over_another_ring_is_rejected(self, ring):
        # over Z a Z/8 -> Z/8 unknown used to be solved as a map over Z, and
        # over Z/4 it failed at solve time with a row-modulus error
        z8 = FpModule(Zmod(8), (8,))
        ms = MapSystem(ring)
        with pytest.raises(ModuleError, match="system's ring"):
            ms.unknown("x", z8, z8)
        with pytest.raises(ModuleError, match="system's ring"):
            ms.unknown("y", FpModule.zero(ring), z8)


class TestHom:
    def test_hom_z2_z4(self):
        assert hom_module(Z2, Z4).module.factors == (2,)

    def test_hom_from_zero(self):
        assert hom_module(FpModule.zero(R4), Z4).module.is_zero()

    def test_hom_ring_on_itself(self):
        assert hom_module(Z4, Z4).module.factors == (4,)

    def test_codec_round_trip(self):
        mods = [Z2, Z4, FpModule(R4, (2, 2)), FpModule(R4, (2, 4)),
                FpModule(R4, (4, 4)), FpModule(ZZ, (2,)), FpModule(ZZ, (0,))]
        for src in mods:
            for tgt in mods:
                if src.ring != tgt.ring:
                    continue
                hm = hom_module(src, tgt)
                if hm.module.size() is None or hm.module.size() > 32:
                    continue
                for f in hm.elements():
                    assert hm.decode(hm.encode(f)).matrix.entries == f.matrix.entries

    def test_addition_matches_pointwise(self):
        hm = hom_module(FpModule(R4, (2, 4)), FpModule(R4, (2, 4)))
        els = list(hm.module.elements())
        for a in els[:8]:
            for b in els[:8]:
                s = hm.module.reduce_element([x + y for x, y in zip(a, b)])
                assert hm.decode(s).matrix.entries == \
                    (hm.decode(a) + hm.decode(b)).matrix.entries


class TestExt:
    def test_ext_z2_z2_mod4(self):
        assert ext1_module(Z2, Z2).factors == (2,)

    def test_ext_from_free_vanishes(self):
        assert ext1_module(FpModule.free(R4, 2), FpModule(R4, (2, 4))).is_zero()

    def test_ext_coprime_over_z(self):
        assert ext1_module(FpModule(ZZ, (2,)), FpModule(ZZ, (3,))).is_zero()

    def test_ext_z2_z2_over_z(self):
        assert ext1_module(FpModule(ZZ, (2,)), FpModule(ZZ, (2,))).factors == (2,)

    def test_presentation_independence(self):
        # adding redundant generators to the presentation must not change Ext
        rng = random.Random(3)
        from homkit.modules import hom_precompose
        mods = [Z2, Z4, FpModule(R4, (2, 2)), FpModule(R4, (2, 4))]
        for m in mods:
            for n in mods:
                direct = ext1_module(m, n)
                # padded presentation: free module with an extra killed generator
                g = m.ngens + 1
                rel_cols = [[m.factors[i] if r == i else 0 for r in range(g)]
                            for i in range(m.ngens)]
                rel_cols.append([1 if r == g - 1 else 0 for r in range(g)])
                from homkit.modules import normalize_presentation
                pres = normalize_presentation(R4, g, IntMatrix.from_columns(rel_cols, rows=g))
                assert pres.module.factors == m.factors
                f0 = FpModule.free(R4, g)
                proj = ModuleMap(f0, pres.module, pres.to_canonical)
                kw = kernel(proj)
                restr = hom_precompose(hom_module(f0, n), hom_module(kw.sub, n), kw.inclusion)
                padded = cokernel(restr)[0]
                assert padded.factors == direct.factors


class TestInjectiveHull:
    def test_z2_in_z4(self):
        hull, emb = injective_hull(Z2)
        assert hull.factors == (4,)
        assert emb.matrix.entries == ((2,),)

    def test_free_is_its_own_hull(self):
        hull, emb = injective_hull(FpModule.free(R4, 2))
        assert hull.factors == (4, 4)
        assert emb.is_mono() and emb.is_epi()

    def test_z2_over_z12(self):
        hull, _ = injective_hull(FpModule(Zmod(12), (2,)))
        assert hull.factors == (4,)

    def test_rejects_integers(self):
        with pytest.raises(ModuleError):
            injective_hull(FpModule(ZZ, (2,)))

    def test_essential_by_enumeration(self):
        for m in [Z2, FpModule(R4, (2, 4)), FpModule(Zmod(12), (6,)),
                  FpModule(Zmod(9), (3,))]:
            hull, emb = injective_hull(m)
            img = {emb.apply(x) for x in m.elements()}
            zero = tuple([0] * hull.ngens)
            for x in hull.elements():
                if x == zero:
                    continue
                cyclic = span_elements(hull, [x])
                assert any(v in img and v != zero for v in cyclic)


class TestSubmodules:
    def test_z4_has_three(self):
        assert [len(s) for s in all_submodules(Z4)] == [1, 2, 4]

    def test_klein(self):
        assert [len(s) for s in all_submodules(FpModule(R4, (2, 2)))] == [1, 2, 2, 2, 4]

    def test_witness_round_trip(self):
        m = FpModule(R4, (2, 4))
        for s in all_submodules(m):
            wit = submodule_from_elements(m, sorted(s))
            assert {wit.inclusion.apply(e) for e in wit.sub.elements()} == set(s)


def draw_map(data, src: FpModule, tgt: FpModule, free_range: int = 5) -> ModuleMap:
    """A random homomorphism, from random coordinates in its hom module."""
    hm = hom_module(src, tgt)
    elem = tuple(data.draw(st.integers(0, d - 1) if d else st.integers(-free_range, free_range))
                 for d in hm.module.factors)
    return hm.decode(elem)


def brute_force(f: ModuleMap) -> tuple:
    """(injective, surjective) by counting the kernel and the image."""
    zero = f.target.reduce_element([0] * f.target.ngens)
    kernel_size = sum(1 for x in f.source.elements() if f.apply(x) == zero)
    image_size = len({f.apply(x) for x in f.source.elements()})
    return kernel_size == 1, image_size == f.target.size()


class TestRankTests:
    """Over Z/n, is_mono and is_epi compare one image count with the source
    and target orders; over Z they keep the kernel and cokernel
    computations."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8, 9, 12, 18, 30, 36]), st.data())
    def test_agree_with_brute_force(self, n, data):
        members = small_modules(Zmod(n), 72)
        src = data.draw(st.sampled_from(members))
        tgt = data.draw(st.sampled_from(members))
        f = draw_map(data, src, tgt)
        assert (f.is_mono(), f.is_epi()) == brute_force(f)

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_every_map_between_small_modules(self, n):
        members = small_modules(Zmod(n), 8)
        seen = set()
        for src in members:
            for tgt in members:
                for f in hom_module(src, tgt).elements():
                    want = brute_force(f)
                    assert (f.is_mono(), f.is_epi()) == want
                    seen.add(want)
        assert seen == {(False, False), (True, False), (False, True), (True, True)}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_integer_maps_keep_the_kernel_path(self, data):
        factors = st.sampled_from([(), (0,), (2,), (3,), (2, 4), (6, 0), (0, 0), (2, 0)])
        src = FpModule(ZZ, data.draw(factors))
        tgt = FpModule(ZZ, data.draw(factors))
        f = draw_map(data, src, tgt)

        def refused(*args):
            raise AssertionError("image count used over Z")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modules, "image_order", refused)
            assert f.is_mono() == kernel(f).sub.is_zero()
            assert f.is_epi() == cokernel(f)[0].is_zero()
