"""Lifting verdicts against the theory of Z/n.

Z/n is quasi-Frobenius: its injective and its projective modules are the
same, the modules whose p-primary part is free over Z/p^{v_p(n)} for every
prime p dividing n.  With the class of all modules, ``x_injective_module``
and ``x_projective_module`` on a universe large enough to hold Z/n itself
must both hold exactly on those members.  A direct sum of disks on free
modules is contractible with injective components, so it passes every
complex-level check, and a sphere on a non-injective module fails the
component test of ``dg_x_injective``.  A bounded complex of injective modules
is DG-injective, so every complex on two degrees with injective components
passes ``eps1_perp_homotopy`` and ``dg_x_injective``: many checks against one
exactness universe, most of them read once per isomorphism class of members.
"""
from __future__ import annotations

import pytest

from homkit.complexes import direct_sum_complexes, disk, is_exact, sphere
from homkit.exactalg import Zmod, _factorize, _val
from homkit.lifting import (
    dg_x_injective,
    eps1_perp_homotopy,
    x_injective_complex,
    x_injective_module,
    x_projective_module,
)
from homkit.modules import FpModule
from homkit.xclass import (
    ALL,
    _window_complexes,
    default_complex_universe,
    eps1_universe,
    module_universe,
)


def is_quasi_frobenius_free(n: int, factors: tuple) -> bool:
    """Whether every p-primary part of the sum of Z/d (d in ``factors``) is
    free over Z/p^{v_p(n)}: each d has p-valuation 0 or v_p(n)."""
    return all(_val(d, p) in (0, v) for p, v in _factorize(n) for d in factors)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_injective_and_projective_members_are_the_free_primary_ones(n):
    u = module_universe(Zmod(n), max(n, 8))
    members = [e for e in u.members if not e.is_zero()]
    for e in members:
        expected = is_quasi_frobenius_free(n, e.factors)
        assert x_injective_module(e, ALL, u, keep_witnesses=False).holds == expected, e.factors
        assert x_projective_module(e, ALL, u, keep_witnesses=False).holds == expected, e.factors
    assert any(is_quasi_frobenius_free(n, e.factors) for e in members)
    # for squarefree n every module qualifies; otherwise some Z/p does not
    squarefree = all(v == 1 for _, v in _factorize(n))
    assert squarefree == all(is_quasi_frobenius_free(n, e.factors) for e in members)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9])
def test_sums_of_free_disks_pass_every_complex_check(n):
    ring = Zmod(n)
    free = FpModule.free(ring, 1)
    c = direct_sum_complexes([disk(0, free), disk(1, free)])[0]
    eu = eps1_universe(ring, ALL)
    assert is_exact(c).exact
    assert x_injective_complex(c, ALL, default_complex_universe(ring, c.support),
                               keep_witnesses=False).holds
    assert eps1_perp_homotopy(c, eu, keep_witnesses=False).holds
    assert dg_x_injective(c, ALL, eu, keep_witnesses=False).holds


@pytest.mark.parametrize("n", [4, 8, 9])      # over squarefree n every module is injective
def test_spheres_on_non_injective_modules_fail_at_the_component(n):
    ring = Zmod(n)
    eu = eps1_universe(ring, ALL)
    mu = module_universe(ring, max(n, 8))      # holds Z/n, as Baer's criterion needs
    for m in mu.members:
        if m.is_zero() or is_quasi_frobenius_free(n, m.factors):
            continue
        verdict = dg_x_injective(sphere(2, m), ALL, eu, mu, keep_witnesses=False)
        assert not verdict.holds, m.factors
        assert (verdict.counterexample["kind"], verdict.counterexample["degree"]) == \
            ("component", 2), m.factors


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 10, 12])
def test_complexes_of_injectives_on_two_degrees_pass_eps1_perp_and_dg(n):
    # the window complexes with components of at most n elements, so that
    # Z/n itself is among them
    ring = Zmod(n)
    eu, mu = eps1_universe(ring, ALL), module_universe(ring, max(n, 8))
    complexes = [c for c in _window_complexes(ring, n, (0, 1))
                 if all(is_quasi_frobenius_free(n, c.component(k).factors) for k in c.degrees())]
    assert complexes
    for c in complexes:
        assert eps1_perp_homotopy(c, eu, keep_witnesses=False).holds, c.describe()
        assert dg_x_injective(c, ALL, eu, mu, keep_witnesses=False).holds, c.describe()
