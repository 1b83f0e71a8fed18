"""One exactness test for eps1-perp, short exact sequences and hom rows,
against the implementations it replaced.

``old_eps1_perp_homotopy`` is the previous checker, kept as the oracle: it
slides shift(E, -1) into every position (``old_slid_sources``) and builds a
separate hom complex for each, in degrees -1, 0 and 1.  The checker now reads
one Hom(E, C) per member at degree s + 1, and must return the same
``holds``, ``checked``, witnesses and counterexample.

``old_validate`` and ``old_row_hypotheses`` are the previous short-exact and
hom-row tests, which compared kernel and image invariant factors with a
containment.  Over Z/n, where that comparison is right, ``exact_at`` on the
row must give the same ``validate()`` booleans and the same
``HypothesisError`` messages on every composable pair A -> B -> C with B in
``module_universe(Z/n, 8)`` and A, C in ``module_universe(Z/n, 4)``.  (With
A and C also up to eight elements there are 460,000 pairs over Z/4, most of
them through (Z/2)^3, which takes minutes.)
"""
from __future__ import annotations

from functools import cache
from itertools import product
from typing import Optional

import pytest

from homkit.complexes import (
    ChainMap,
    ShortExactOfComplexes,
    chain_map_group,
    exact_at,
    hom_complex_data,
    shift,
    sphere,
    zero_complex,
)
from homkit.exactalg import Zmod
from homkit.lifting import HypothesisError, Verdict, eps1_perp_homotopy, hom_exactness
from homkit.modules import cokernel, hom_module, image, kernel
from homkit.xclass import (
    ALL,
    UniverseCapError,
    _window_complexes,
    ann,
    contains_module,
    eps1_universe,
    module_universe,
)

from .helpers import first_non_nullhomotopic


def old_slid_sources(e_cx, i) -> list:
    if e_cx.is_zero() or i.is_zero():
        return [shift(e_cx, -1)] if not e_cx.is_zero() else [e_cx]
    base = shift(e_cx, -1)
    blo, bhi = base.support
    ilo, ihi = i.support
    return [shift(base, -s) for s in range(ilo - bhi, ihi - blo + 2)]


def old_eps1_perp_homotopy(i, eu, keep_witnesses: bool) -> Verdict:
    verdict = Verdict(True, eu.describe() + ", closed under shifts")
    for e_cx in eu.members:
        for src in old_slid_sources(e_cx, i):
            data = hom_complex_data(src, i, degrees=(-1, 0, 1))
            verdict.checked += 1
            if exact_at(data.complex, (0,)):
                if keep_witnesses:
                    verdict.witnesses.append({
                        "kind": "perp", "member": e_cx,
                        "position": src.support, "h0_trivial": True,
                    })
                continue
            g = first_non_nullhomotopic(src, i)
            if g is None:
                size = chain_map_group(src, i).module.size()
                raise UniverseCapError(f"{size} chain maps from {src.describe()}")
            verdict.holds = False
            verdict.counterexample = {"kind": "perp", "member": e_cx, "map": g}
            return verdict
    return verdict


def shown(v: Verdict) -> tuple:
    return v.holds, v.checked, v.universe, v.witnesses, v.counterexample


@pytest.mark.parametrize("n", [4, 6, 8, 9])
def test_eps1_reads_one_hom_complex_per_member(n):
    ring = Zmod(n)
    inputs = list(_window_complexes(ring, 4, (0, 1)))
    verdicts = []
    for x in (ALL, ann(2)):
        eu = eps1_universe(ring, x)
        for c in inputs:
            for keep in (True, False):
                v = eps1_perp_homotopy(c, eu, keep_witnesses=keep)
                assert shown(v) == shown(old_eps1_perp_homotopy(c, eu, keep)), (c, x.key())
                verdicts.append(v.holds)
    # over Z/6 and Z/9 every check holds
    assert all(verdicts) == (n in (6, 9))


# each map's kernel, image and cokernel are taken once for all its pairs
old_kernel, old_image, old_cokernel = cache(kernel), cache(image), cache(cokernel)


def old_validate(seq: ShortExactOfComplexes) -> bool:
    degs = set(seq.middle.degrees()) | set(seq.left.degrees()) | set(seq.right.degrees())
    for k in degs:
        if not seq.inj.component(k).is_mono() or not seq.surj.component(k).is_epi():
            return False
        if not seq.surj.component(k).compose(seq.inj.component(k)).is_zero():
            return False
        kw, im = old_kernel(seq.surj.component(k)), seq.inj.component(k)
        if kw.sub.factors != old_image(im).sub.factors or \
                not kw.quotient_map.compose(im).is_zero():
            return False
    return True


def old_row_hypotheses(beta, theta, side: str, x) -> Optional[str]:
    """The message of the first hypothesis of ``hom_exactness`` that fails."""
    if not theta.compose(beta).is_zero():
        return "image of the first map is not inside the kernel of the second"
    kw, iw = old_kernel(theta), old_image(beta)
    if kw.sub.factors != iw.sub.factors or not kw.quotient_map.compose(iw.inclusion).is_zero():
        return "row is not exact at its middle module"
    if side == "left" and not contains_module(x, kw.sub):
        return "kernel of the second map is outside the class"
    if side == "right" and not contains_module(x, old_cokernel(theta)[0]):
        return "cokernel of the second map is outside the class"
    return None


def row_hypotheses(beta, theta, side: str, x) -> Optional[str]:
    # a zero probe keeps the verdict after the hypotheses cheap
    try:
        hom_exactness(beta, theta, zero_complex(beta.source.ring), side, x)
    except HypothesisError as exc:
        return str(exc)
    return None


def short_exact(beta, theta) -> ShortExactOfComplexes:
    a, b, c = sphere(0, beta.source), sphere(0, beta.target), sphere(0, theta.target)
    return ShortExactOfComplexes(a, b, c, ChainMap(a, b, {0: beta}, check=False),
                                 ChainMap(b, c, {0: theta}, check=False))


@pytest.mark.parametrize("n", [4, 6])
def test_rows_are_checked_by_exact_at(n):
    ends, middles = (module_universe(Zmod(n), bound).members for bound in (4, 8))
    seen = {}
    for a, b, c in product(ends, middles, ends):
        for beta, theta in product(hom_module(a, b).elements(), hom_module(b, c).elements()):
            seq = short_exact(beta, theta)
            assert seq.validate() == old_validate(seq), (beta, theta)
            for side, x in (("left", ann(2)), ("right", ann(2)), ("left", ALL)):
                got = row_hypotheses(beta, theta, side, x)
                assert got == old_row_hypotheses(beta, theta, side, x), \
                    (beta, theta, side, x.key())
                seen[got] = seen.get(got, 0) + 1
    # every outcome of the hypotheses is reached
    assert len(seen) == 5, seen
