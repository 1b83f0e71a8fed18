"""One counterexample construction: the first group element outside an
image, the last generator with no section, read off one solve
(``lifting._first_outside_image``).

``lifting._first_non_nullhomotopic`` takes the null-homotopic chain maps as
the image of d^{-1}: s -> d o s + s o d of the hom complex, where the
previous search solved one ``null_homotopy`` per chain map;
``helpers.first_non_nullhomotopic`` is that search, kept as the oracle, and
both must name the same map (or both None) on a seeded sweep of shifted
window complexes over Z/4 and Z/6.  A found map is confirmed by one
homotopy solve, so a failing eps1-perp check solves exactly one.

The build verifiers name the first map that does not factor from the
sections of the chain-map restriction, so verifying a broken build solves
no ``MapSystem`` (the ``tests/test_factorization_differential.py`` cases
compare its messages with the per-element verifier).
"""
from __future__ import annotations

import random

import pytest

from homkit import lifting
from homkit.complexes import (
    ChainMap,
    direct_sum_complexes,
    disk,
    null_homotopy,
    shift,
    sphere,
)
from homkit.construct import (
    BuildError,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
)
from homkit.exactalg import Zmod
from homkit.lifting import _first_non_nullhomotopic, eps1_perp_homotopy
from homkit.modules import FpModule, MapSystem
from homkit.xclass import ALL, _window_complexes, eps1_universe

from .helpers import first_non_nullhomotopic
from .test_factorization_differential import BROKEN_CASES, dropped, universe, zeroed


def shifted_windows(n: int) -> list:
    """The window complexes on degrees 0..1 of ``module_universe(Z/n, 4)``,
    each shifted by -1, 0 and 1."""
    return [shift(c, k) for c in _window_complexes(Zmod(n), 4, (0, 1)) for k in (-1, 0, 1)]


@pytest.mark.parametrize("n", [4, 6])
def test_first_non_nullhomotopic_matches_the_per_element_search(n):
    cxs = shifted_windows(n)
    rng = random.Random(n)
    pairs = [(rng.choice(cxs), rng.choice(cxs)) for _ in range(150)]
    found = 0
    for src, tgt in pairs:
        g = _first_non_nullhomotopic(src, tgt)
        assert g == first_non_nullhomotopic(src, tgt), (src, tgt)
        found += g is not None
    # the sweep reaches both answers
    assert 0 < found < len(pairs)


@pytest.mark.parametrize("n", [4, 6])
def test_maps_into_a_sum_of_disks_are_null_homotopic(n):
    ring = Zmod(n)
    members = [FpModule(ring, (d,)) for d in range(2, n + 1) if n % d == 0]
    target = direct_sum_complexes([disk(0, m) for m in members] + [disk(-1, members[0])])[0]
    for src in shifted_windows(n):
        assert _first_non_nullhomotopic(src, target) is None
    for m in members:
        g = _first_non_nullhomotopic(sphere(0, m), sphere(0, m))
        assert g is not None and not g.is_zero()
        assert g == first_non_nullhomotopic(sphere(0, m), sphere(0, m))


def test_a_found_map_is_confirmed_by_one_homotopy_solve(monkeypatch):
    ring = Zmod(4)
    eu = eps1_universe(ring, ALL, base_bound=4, window=(-1, 1))
    calls = []

    def counting(f: ChainMap):
        calls.append(f)
        return null_homotopy(f)

    monkeypatch.setattr(lifting, "null_homotopy", counting)
    v = eps1_perp_homotopy(sphere(0, FpModule(ring, (2,))), eu, keep_witnesses=False)
    assert not v.holds
    assert calls == [v.counterexample["map"]]


def test_a_refuted_map_raises(monkeypatch):
    # a search that named a null-homotopic map must not return it
    z2 = FpModule(Zmod(4), (2,))
    monkeypatch.setattr(lifting, "null_homotopy", lambda f: object())
    with pytest.raises(AssertionError, match="refuted"):
        _first_non_nullhomotopic(sphere(0, z2), sphere(0, z2))


@pytest.mark.parametrize("injective", [False, True], ids=["precover", "preenvelope"])
def test_verifying_a_broken_build_solves_no_map_system(injective, monkeypatch):
    build = preenvelope_bounded if injective else precover_bounded
    verify = verify_preenvelope_factorization if injective else verify_precover_factorization
    broken = [(n, y, breakage(build(y, ALL, u=universe(n)), injective))
              for n, y in BROKEN_CASES for breakage in (zeroed, dropped)]

    def refuse(*args, **kwargs):
        raise AssertionError("a map system was solved")

    monkeypatch.setattr(MapSystem, "solve", refuse)
    monkeypatch.setattr(MapSystem, "solve_each", refuse)
    for n, y, result in broken:
        with pytest.raises(BuildError):
            verify(result, y, ALL, universe(n))

