"""Module-level lifting verdicts against the theory of Z/n.

Z/n is quasi-Frobenius: its injective and its projective modules are the
same, the modules whose p-primary part is free over Z/p^{v_p(n)} for every
prime p dividing n.  With the class of all modules, ``x_injective_module``
and ``x_projective_module`` on a universe large enough to hold Z/n itself
must both hold exactly on those members.
"""
from __future__ import annotations

import pytest

from homkit.exactalg import Zmod, _factorize, _val
from homkit.lifting import x_injective_module, x_projective_module
from homkit.xclass import ALL, module_universe


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
