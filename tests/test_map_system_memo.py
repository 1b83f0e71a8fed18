"""The memo of map-system eliminations changes no answer.

``MapSystem.solve_each`` reads the elimination of its coefficient rows from
the ``modules.map_systems`` table, keyed by the system's structure.  Builds
over a spread of the benchmark's builder inputs must come out the same
whether every build starts from empty tables, the builds run one after
another on warm tables, or the table is forced to miss on every lookup:
equal complexes, maps, build logs and verification counts, and equal
``OracleHypothesisError`` messages and ``system`` payloads.  Systems that
differ in any part of the key's structure must get distinct entries.
"""
from __future__ import annotations

import random

import pytest

from homkit import caches
from homkit.complexes import Complex
from homkit.construct import (
    OracleHypothesisError,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
)
from homkit.exactalg import ZZ, IntMatrix, Zmod
from homkit.modules import _MAP_SYSTEMS, FpModule, MapSystem, ModuleMap, hom_module
from homkit.xclass import ALL, FREE, ann, module_universe

from .helpers import random_complex, small_modules

CLASSES = {"all": ALL, "free": FREE, "ann:2": ann(2)}
R4 = Zmod(4)


def two_degree(pairs: int, per_pair: int) -> list:
    """Complexes on degrees 0 and 1 over Z/4: ``pairs`` shapes spread over
    the ordered pairs of nonzero modules of at most eight elements, each with
    ``per_pair`` differentials spread over its Hom group.  A build's gluing
    systems depend on the shapes only, as in the builders' two-degree core."""
    members = [m for m in small_modules(R4, 8) if not m.is_zero()]
    shapes = [(m0, m1) for m0 in members for m1 in members]
    out = []
    for i in range(pairs):
        m0, m1 = shapes[i * len(shapes) // pairs]
        ds = list(hom_module(m0, m1).elements())
        out += [Complex(R4, {0: m0, 1: m1}, {0: ds[j * len(ds) // per_pair]})
                for j in range(per_pair)]
    return out


def hypothesis_input(rng, cls: str) -> Complex:
    """A complex over Z/4 with a component the class cannot cover or
    envelope: a non-free one for ``free``, one of exponent 4 for ``ann:2``."""
    members = [m for m in small_modules(R4, 8) if not m.is_zero()]
    bad = [m for m in members
           if (m != FpModule.free(R4, m.ngens) if cls == "free" else 4 in m.factors)]
    while True:
        y = random_complex(rng, R4, members, 3)
        if any(y.component(k) in bad for k in y.degrees()):
            return y


def slice_inputs() -> list:
    """(complex, class name) pairs: the two-degree inputs above, two
    three-degree inputs over Z/4, one input each over Z/6 and Z/9, and one
    input each on which the free and the ann(2) oracle fails."""
    out = [(y, "all") for y in two_degree(6, 8)]
    rng = random.Random(3)
    members4 = [m for m in small_modules(R4, 8) if not m.is_zero()]
    out += [(random_complex(rng, R4, members4, 3, lo_range=(0, 0)), "all") for _ in range(2)]
    for n in (6, 9):
        members = [m for m in small_modules(Zmod(n), 9) if not m.is_zero()]
        out.append((random_complex(rng, Zmod(n), members, 3), "all"))
    out += [(hypothesis_input(rng, cls), cls) for cls in ("free", "ann:2")]
    return out


def build(y: Complex, cls: str, injective: bool) -> tuple:
    """A preenvelope (precover) of y with its verification count, or the
    hypothesis failure the build raised as (message, system)."""
    x = CLASSES[cls]
    u = module_universe(y.ring, max(8, y.ring.modulus))
    make, verify = (preenvelope_bounded, verify_preenvelope_factorization) if injective \
        else (precover_bounded, verify_precover_factorization)
    try:
        built = make(y, x, u=u)
    except OracleHypothesisError as exc:
        return str(exc), exc.system
    return built, verify(built, y, x, u)


INPUTS = slice_inputs()


def build_all() -> list:
    return [build(y, cls, injective) for y, cls in INPUTS for injective in (False, True)]


def count_solves(monkeypatch) -> list:
    """A one-item list counting MapSystem solves from now on."""
    solves = [0]
    solve_each = MapSystem.solve_each

    def counted(self, rhs_sets):
        solves[0] += 1
        return solve_each(self, rhs_sets)

    monkeypatch.setattr(MapSystem, "solve_each", counted)
    return solves


def test_cold_warm_and_forced_miss_builds_agree(monkeypatch):
    cold = []
    for y, cls in INPUTS:
        for injective in (False, True):
            caches.clear_caches()
            cold.append(build(y, cls, injective))
    # exactly the builds on the two hypothesis inputs fail
    assert [isinstance(out[0], str) for out in cold] == \
        [cls != "all" for _, cls in INPUTS for _ in (False, True)]
    caches.clear_caches()
    solves = count_solves(monkeypatch)
    assert build_all() == cold
    eliminations = _MAP_SYSTEMS.misses
    # the slice solves 124 systems with 32 eliminations; while the first
    # gluing step solved s2 o id = s1 for s2 it solved 176 with 40
    assert (solves[0], eliminations) == (124, 32)
    assert len(_MAP_SYSTEMS) == eliminations
    # a table that never hits eliminates every system afresh
    caches.clear_caches()
    monkeypatch.setattr(_MAP_SYSTEMS, "lookup", lambda key, compute: compute())
    assert build_all() == cold
    assert len(_MAP_SYSTEMS) == 0


# ---------------------------------------------------------------------------
# key completeness
# ---------------------------------------------------------------------------

A = FpModule(R4, (2, 4))
B = FpModule(R4, (4, 4))
F = ModuleMap(B, B, IntMatrix.from_rows([[2, 0], [1, 1]]))


def system(ring=R4, source=A, target=B, sign=1, space=None, order=("u", "v"),
           left=F, right=None) -> MapSystem:
    """u, v: source -> target with sign * left o u o right = rhs and
    v - u = 0, and when ``space`` is given a termless equation 0 = 0 in it
    (the terms of any other equation fix its space)."""
    ms = MapSystem(ring)
    for name in order:
        ms.unknown(name, source, target)
    ms.equation([(left, "u", right, sign)], None, (source, target))
    ms.equation([(None, "v", None, 1), (None, "u", None, -1)], None, (source, target))
    if space is not None:
        ms.equation([], None, space)
    return ms


def variants() -> dict:
    """Systems that each differ from another in a single part of the key:
    a term's sign, an equation's space (``space`` against ``termless``),
    the order of the unknowns, L against R (``right`` against ``square``),
    or the ring."""
    z_a, z_b = FpModule(ZZ, (2, 0)), FpModule(ZZ, (0, 0))
    z_f = ModuleMap(z_b, z_b, IntMatrix.from_rows([[2, 0], [1, 1]]))
    return {
        "base": system(),
        "sign": system(sign=-1),
        "termless": system(space=(A, B)),
        "space": system(space=(A, FpModule(R4, (2, 4)))),
        "order": system(order=("v", "u")),
        "square": system(source=B),
        "right": system(source=B, left=None, right=F),
        "ring": system(ZZ, z_a, z_b, left=z_f),
    }


def right_hand_sides(ms: MapSystem) -> list:
    """Right-hand sides for every equation: a few maps of the first
    equation's space, and zero for the others."""
    space = ms._equations[0][2]
    if not ms.ring.is_modular:
        maps = [ModuleMap(*space, IntMatrix.from_rows(rows))
                for rows in ([[0, 0], [0, 0]], [[0, 1], [0, 2]], [[0, 4], [0, -3]])]
    else:
        maps = list(hom_module(*space).elements())[::5]
    return [[rhs] + [None] * (len(ms._equations) - 1) for rhs in maps]


def test_systems_differing_in_one_part_get_distinct_entries():
    caches.clear_caches()
    systems = variants()
    for ms in systems.values():
        ms.solve()
    assert (len(_MAP_SYSTEMS), _MAP_SYSTEMS.misses, _MAP_SYSTEMS.hits) == \
        (len(systems), len(systems), 0)
    for ms in variants().values():
        ms.solve()
    assert (len(_MAP_SYSTEMS), _MAP_SYSTEMS.hits) == (len(systems), len(systems))


@pytest.mark.parametrize("name", sorted(variants()))
def test_a_hit_solves_as_a_fresh_elimination(name, monkeypatch):
    caches.clear_caches()
    for other in variants().values():
        other.solve()
    warm = variants()[name]
    rhss = right_hand_sides(warm)
    got = warm.solve_each(rhss), warm.solve()
    assert _MAP_SYSTEMS.hits == 2 and any(got[0]) and None in got[0]
    monkeypatch.setattr(_MAP_SYSTEMS, "lookup", lambda key, compute: compute())
    fresh = variants()[name]
    assert got == (fresh.solve_each(rhss), fresh.solve())
