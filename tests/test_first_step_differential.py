"""The builders' first gluing step, taken directly, against the solve it replaced.

At the first step of ``precover_bounded`` the top differential is the base
disk's identity, so the unique solution of s2 o id = s1 is s1 and the
builder takes it without a ``MapSystem``; ``preenvelope_bounded`` likewise
takes s = t instead of composing t with the identity.  The oracles in
``tests/helpers.py`` keep the builders as they were, solving and composing
at every step.  Both must give equal results (complex, chain map,
per-degree oracle answers, membership and every map of every ``BuildStep``)
and equal verification counts, and a failing build must raise the same
message and ``system``.
"""
from __future__ import annotations

import random

import pytest

from homkit.complexes import Complex
from homkit.construct import (
    OracleHypothesisError,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
)
from homkit.exactalg import Zmod
from homkit.modules import hom_module
from homkit.xclass import ALL, FREE, ann, module_universe

from .helpers import (
    first_step_composed_preenvelope_oracle,
    first_step_solved_precover_oracle,
    random_complex,
    small_modules,
)
from .test_builder_memos import INPUTS as MEMO_INPUTS
from .test_map_system_memo import hypothesis_input

R4 = Zmod(4)
CLASSES = {"all": ALL, "free": FREE, "ann:2": ann(2)}
SIDES = {"precover": (precover_bounded, first_step_solved_precover_oracle,
                      verify_precover_factorization),
         "preenvelope": (preenvelope_bounded, first_step_composed_preenvelope_oracle,
                         verify_preenvelope_factorization)}


def two_degree_complexes() -> list:
    """Every complex over Z/4 on degrees 0 and 1 whose components are
    nonzero modules of at most eight elements: 930 complexes."""
    members = [m for m in small_modules(R4, 8) if not m.is_zero()]
    return [Complex(R4, {0: a, 1: b}, {0: d})
            for a in members for b in members for d in hom_module(a, b).elements()]


def three_degree_complexes() -> list:
    """Seeded complexes of up to three degrees over Z/4, Z/6 and Z/9."""
    rng = random.Random(37)
    out = []
    for n in (4, 6, 9):
        members = [m for m in small_modules(Zmod(n), 9) if not m.is_zero()]
        out += [random_complex(rng, Zmod(n), members, 3) for _ in range(12)]
    return out


def outcome(make, verify, y: Complex, cls: str) -> tuple:
    """(result, verification count), or the hypothesis failure's (message,
    system)."""
    x = CLASSES[cls]
    u = module_universe(y.ring, max(8, y.ring.modulus))
    try:
        built = make(y, x, u=u)
    except OracleHypothesisError as exc:
        return str(exc), exc.system
    return built, verify(built, y, x, u)


def assert_paths_agree(kind: str, inputs: list) -> None:
    make, oracle, verify = SIDES[kind]
    for y, cls in inputs:
        # results compare field by field, build logs step by step
        got, want = outcome(make, verify, y, cls), outcome(oracle, verify, y, cls)
        assert got == want, (kind, cls, y.describe())


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_memo_inputs_and_three_degree_complexes(kind):
    inputs = [(y, "all") for y in MEMO_INPUTS + three_degree_complexes()]
    assert any(len(y.degrees()) == 3 for y, _ in inputs)
    assert_paths_agree(kind, inputs)


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_every_two_degree_complex_over_z4(kind):
    inputs = two_degree_complexes()
    assert len(inputs) == 930
    assert_paths_agree(kind, [(y, "all") for y in inputs])


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_hypothesis_failures_agree(kind):
    rng = random.Random(3)
    inputs = [(hypothesis_input(rng, cls), cls) for cls in ("free", "ann:2") for _ in range(3)]
    make, oracle, verify = SIDES[kind]
    failures = [outcome(make, verify, y, cls) for y, cls in inputs]
    assert any(isinstance(out[0], str) for out in failures)
    assert_paths_agree(kind, inputs)
