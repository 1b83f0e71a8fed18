"""Exactness by counting image orders against the homology computation.

``old_is_exact`` is the homology-only ``is_exact`` that counting replaced
on its success path, kept as the oracle: the whole ``ExactnessReport`` must
match it on any family of maps, complexes or not, over Z/n and over Z.  On
complexes, ``exact_at`` must agree with ``homology_at(c, k).is_zero()`` at
every degree, and ``eps1_perp_homotopy`` must return the verdict it returned
when its H^0 test computed the homology.
"""
from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from homkit import clear_caches, complexes, lifting
from homkit.complexes import (
    Complex,
    ExactnessReport,
    direct_sum_complexes,
    disk,
    exact_at,
    homology_at,
    is_exact,
    validate_complex,
)
from homkit.exactalg import ZZ, IntMatrix, Zmod
from homkit.lifting import eps1_perp_homotopy
from homkit.modules import FpModule, ModuleMap, hom_module, image_order
from homkit.xclass import ALL, _window_complexes, ann, eps1_universe

from .helpers import homology_oracle, random_complex, small_modules

RINGS = [2, 4, 6, 8, 9, 12, 36, 0]      # 0 stands for Z
Z_COMPONENTS = [(), (0,), (2,), (3,), (0, 0), (2, 0), (2, 4), (6,)]


def old_is_exact(c: Complex) -> ExactnessReport:
    """The homology at every degree of the support."""
    if c.is_zero():
        return ExactnessReport(True, {})
    lo, hi = c.support
    hom = {}
    exact = True
    for k in range(lo, hi + 1):
        h = homology_at(c, k)
        hom[k] = h.factors
        if not h.is_zero():
            exact = False
    return ExactnessReport(exact, hom)


def homology_exact_at(c: Complex, degrees) -> bool:
    return all(homology_at(c, k).is_zero() for k in degrees)


def pool(n: int) -> list:
    if n == 0:
        return [FpModule(ZZ, f) for f in Z_COMPONENTS]
    return small_modules(Zmod(n), 16)


@st.composite
def families(draw):
    """A family of maps on consecutive degrees: a random one (d o d != 0
    allowed), one with d o d = 0, or a direct sum of disks (exact)."""
    n = draw(st.sampled_from(RINGS))
    ring = Zmod(n) if n else ZZ
    members = pool(n)
    lo = draw(st.integers(-1, 1))
    kind = draw(st.sampled_from(["any", "complex", "disks"]))
    if kind == "disks":
        parts = [disk(lo + draw(st.integers(0, 2)), draw(st.sampled_from(members[1:])))
                 for _ in range(draw(st.integers(1, 3)))]
        return direct_sum_complexes(parts)[0]
    comps = {lo + i: draw(st.sampled_from(members)) for i in range(draw(st.integers(1, 4)))}
    diffs = {}
    prev = None
    for k in sorted(comps)[:-1]:
        hm = hom_module(comps[k], comps[k + 1])
        elem = tuple(draw(st.integers(0, d - 1)) if d else draw(st.integers(-3, 3))
                     for d in hm.module.factors)
        d = hm.decode(elem)
        if kind == "complex" and prev is not None and not d.compose(prev).is_zero():
            if n:
                kills = [e for e in hm.module.elements() if hm.decode(e).compose(prev).is_zero()]
                d = hm.decode(draw(st.sampled_from(kills)))
            else:
                d = ModuleMap.zero(comps[k], comps[k + 1])
        diffs[k] = prev = d
    return Complex(ring, comps, diffs, check=False)


@settings(max_examples=400, deadline=None)
@given(families())
def test_report_and_degreewise_verdicts_match_the_homology(c):
    assert is_exact(c) == old_is_exact(c)
    if validate_complex(c).ok and not c.is_zero():
        lo, hi = c.support
        for k in range(lo - 1, hi + 2):
            assert exact_at(c, (k,)) == homology_at(c, k).is_zero(), k


def test_identity_squared_keeps_its_homology_answer():
    """d o d = id: counting would say "not exact" in the middle; the
    homology path, which answers for such families, says exact."""
    r2 = Zmod(2)
    m = FpModule(r2, (2,))
    one = ModuleMap.identity(m)
    c = Complex(r2, {0: m, 1: m, 2: m}, {0: one, 1: one}, check=False)
    assert not validate_complex(c).ok
    assert not exact_at(c, (1,))
    assert is_exact(c) == old_is_exact(c) == ExactnessReport(True, {0: (), 1: (), 2: ()})


def test_image_orders_need_the_scaling_and_the_closure():
    """Z/2 inside Z/4 counts 2 elements, not 4; the column (1, 1) into
    Z/2 + Z/4 embeds as (2, 1), whose span has 4 elements only with the
    Howell closure row (0, 2)."""
    r4 = Zmod(4)
    z2, z4, z2z4 = (FpModule(r4, f) for f in ((2,), (4,), (2, 4)))
    assert image_order(z2, ModuleMap.identity(z2).matrix) == 2
    assert image_order(z2z4, ModuleMap(z4, z2z4, IntMatrix.from_rows([[1], [1]])).matrix) == 4
    assert image_order(z2z4, ModuleMap.zero(z4, z2z4).matrix) == 1


def test_every_small_window_complex_matches():
    for n in (2, 4, 6):
        for c in _window_complexes(Zmod(n), 4, (-1, 1)):
            assert is_exact(c) == old_is_exact(c), c


def test_eps1_verdicts_match_the_homology_h0_test(monkeypatch):
    holds = []
    for n in (4, 6):
        ring = Zmod(n)
        inputs = list(_window_complexes(ring, 4, (0, 1)))
        for x in (ALL, ann(2)):
            eu = eps1_universe(ring, x)
            new = [eps1_perp_homotopy(c, eu) for c in inputs]
            with monkeypatch.context() as patch:
                patch.setattr(lifting, "exact_at", homology_exact_at)
                clear_caches()      # so that the homology test answers again
                old = [eps1_perp_homotopy(c, eu) for c in inputs]
            for c, a, b in zip(inputs, new, old):
                assert (a.holds, a.checked, a.witnesses, a.counterexample) == \
                    (b.holds, b.checked, b.witnesses, b.counterexample), c
            holds += [v.holds for v in new]
    assert any(holds) and not all(holds)


def test_gaps_and_shifted_supports_match_the_homology_oracle():
    """Random complexes over Z/n whose components may be zero between
    nonzero ones (absent differentials on both sides of the gap), on
    supports starting anywhere in [-3, 3]."""
    gaps = 0
    for n in (4, 6, 9, 12):
        ring = Zmod(n)
        rng = random.Random(34 + n)
        members = small_modules(ring, 8)        # the zero module first
        for _ in range(100):
            c = random_complex(rng, ring, members, max_degrees=4, lo_range=(-3, 3))
            if c.is_zero():
                continue
            lo, hi = c.support
            gaps += len(c.degrees()) < hi - lo + 1
            degrees = range(lo - 1, hi + 2)
            oracle = [homology_oracle(c, k).is_zero() for k in degrees]
            assert [exact_at(c, (k,)) for k in degrees] == oracle, c.describe()
            assert exact_at(c, degrees) == is_exact(c).exact == all(oracle), c.describe()
    assert gaps > 20


def test_absent_differentials_count_no_image_order(monkeypatch):
    """An exact complex with every component in [lo, hi] nonzero has the
    differentials d^lo .. d^{hi-1}: exact_at reads hi - lo image orders,
    none for the absent d^{lo-1} and d^hi."""
    calls = []

    def counted(target, mat):
        calls.append(mat)
        return image_order(target, mat)

    monkeypatch.setattr(complexes, "image_order", counted)
    for n in (2, 4, 6, 9, 12):
        members = small_modules(Zmod(n), 8)[1:]
        for lo in (-2, 0, 3):
            for length in (1, 2, 4):
                parts = [disk(lo + i, members[i % len(members)]) for i in range(length)]
                c = direct_sum_complexes(parts)[0]
                assert c.support == (lo, lo + length)
                assert len(c.degrees()) == length + 1
                calls.clear()
                assert exact_at(c, range(lo - 1, lo + length + 2))
                assert len(calls) == length
