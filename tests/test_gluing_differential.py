"""The builders' one-map gluing against the block-map gluing it replaced.

``precover_bounded`` and ``preenvelope_bounded`` build each new
differential as one ``ModuleMap`` of the summed products of the direct
sum's injection and projection matrices.  ``helpers.glued_precover_oracle``
and ``helpers.glued_preenvelope_oracle`` keep the old gluing, which
composed, added and negated the block maps one validated map at a time.
Both must give the same complex, chain map, oracle log, membership and
build-log document, or raise the same error, on random bounded complexes
over Z/4, Z/6, Z/9, Z/12 and Z and on the acceptance suites.
"""
from __future__ import annotations

import random

import pytest

from homkit.cli import _build_log_doc
from homkit.complexes import Complex
from homkit.construct import (
    BuildError,
    fixture_injective_components_not_injective_complex,
    precover_bounded,
    preenvelope_bounded,
)
from homkit.exactalg import ZZ, Zmod
from homkit.modules import FpModule, ModuleMap, hom_module
from homkit.xclass import ALL, module_universe

from .helpers import (
    glued_precover_oracle,
    glued_preenvelope_oracle,
    random_complex,
    small_modules,
)
from .test_acceptance import all_two_degree_complexes

BUILDERS = {"precover": (precover_bounded, glued_precover_oracle),
            "preenvelope": (preenvelope_bounded, glued_preenvelope_oracle)}
Z_COMPONENTS = [(0,), (2,), (3,), (0, 0), (2, 0), (6,)]


def outcome(build, y: Complex, u=None) -> tuple:
    """Everything a build hands out, or the error it raises."""
    try:
        r = build(y, ALL, u)
    except BuildError as exc:
        return type(exc).__name__, str(exc)
    built = r.cover if hasattr(r, "cover") else r.env
    return (built.canonical_key(), built._differentials, r.map.source, r.map.target,
            r.map._components, r.per_degree_oracle, getattr(r, "kernel_membership", None),
            getattr(r, "cokernel_membership", None), _build_log_doc(r.build_log))


def assert_same_builds(kind: str, inputs: list, u=None) -> None:
    new, old = BUILDERS[kind]
    for y in inputs:
        assert outcome(new, y, u) == outcome(old, y, u), y.describe()


def integer_complex(rng: random.Random) -> Complex:
    """A random bounded complex over Z on at most three degrees, each
    differential a random element of its Hom module with entries in
    [-3, 3] on the free part, zero when d o d would not vanish."""
    lo = rng.randint(-1, 1)
    comps = {lo + i: FpModule(ZZ, rng.choice(Z_COMPONENTS)) for i in range(rng.randint(1, 3))}
    diffs, prev = {}, None
    for k in sorted(comps)[:-1]:
        hm = hom_module(comps[k], comps[k + 1])
        d = hm.decode(tuple(rng.randrange(e) if e else rng.randint(-3, 3)
                            for e in hm.module.factors))
        if prev is not None and not d.compose(prev).is_zero():
            d = ModuleMap.zero(comps[k], comps[k + 1])
        diffs[k] = prev = d
    return Complex(ZZ, comps, diffs)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("n", [4, 6, 9, 12])
def test_random_complexes_over_zmod(kind, n):
    ring = Zmod(n)
    rng = random.Random(3400 + n)
    members = small_modules(ring, 8)
    inputs = [random_complex(rng, ring, members, max_degrees=3, lo_range=(-1, 1))
              for _ in range(60)]
    # the universe holds the free module of rank one (on Z/9 bound 8 does
    # not, and the cover hypothesis fails there)
    assert_same_builds(kind, inputs, module_universe(ring, max(8, n)))


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_random_complexes_over_z(kind):
    rng = random.Random(3434)
    inputs = [integer_complex(rng) for _ in range(40)]
    assert_same_builds(kind, inputs)
    if kind == "precover":
        # the free cover glues over Z; the builtin envelope needs Z/n
        assert any(len(precover_bounded(y, ALL).build_log) > 2 for y in inputs)


def test_acceptance_suites():
    """The inputs of acceptance criteria 06 (precover) and 07 (preenvelope)
    over Z/4 and the criterion 08 fixture."""
    r4 = Zmod(4)
    members = small_modules(r4, 8)
    core = all_two_degree_complexes(r4, 8)
    fixture = fixture_injective_components_not_injective_complex()
    for kind, seed in (("precover", 606), ("preenvelope", 707)):
        rng = random.Random(seed)
        extra = [random_complex(rng, r4, members, max_degrees=3, lo_range=(0, 0))
                 for _ in range(120)]
        assert_same_builds(kind, core + extra + [fixture])
