"""A builder's result is certified once; any other result is re-checked.

``precover_bounded`` and ``preenvelope_bounded`` certify the complex and
chain map they glue (``construct._check_chain_data``, through
``_verified_membership``) and record that very pair on the result.  The
public verifiers then skip the check, and only then: a result whose ``map``
was reassigned, or one the caller built from the certified fields, is
checked again, and answers or is refused as ``_verify_factorization`` with
the check does.  So is a result whose complex was reassigned to an equal
but other object: trust is by identity.
"""
from __future__ import annotations

import pytest

from homkit import clear_caches, construct
from homkit.complexes import ChainMap, Complex
from homkit.construct import BuildError, PrecoverResult, PreenvelopeResult, _verify_factorization
from homkit.modules import ModuleMap
from homkit.xclass import ALL, module_universe

from .test_builder_memos import INPUTS, R4, SIDES, doubled, refusal

U = module_universe(R4, 8)


@pytest.fixture
def checks(monkeypatch) -> list:
    """A one-item list counting ``_check_chain_data`` calls from now on."""
    count = [0]
    check = construct._check_chain_data

    def counted(*args):
        count[0] += 1
        return check(*args)

    monkeypatch.setattr(construct, "_check_chain_data", counted)
    return count


def built_field(result):
    return result.cover if isinstance(result, PrecoverResult) else result.env


def unchecked_answer(result, y) -> object:
    """What ``_verify_factorization`` answers with the chain-data check, as
    a count or a refusal message."""
    injective = isinstance(result, PreenvelopeResult)
    try:
        return _verify_factorization(built_field(result), result.map, y, ALL, U, injective)
    except BuildError as exc:
        return f"{type(exc).__name__}: {exc}"


def rebuilt(result):
    """The result from the caller's own constructor call on its fields."""
    cls = type(result)
    return cls(*(getattr(result, name) for name in cls._fields))


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_build_then_verify_checks_once(kind, checks):
    build, verify, _ = SIDES[kind]
    clear_caches()
    for y in INPUTS:
        before = checks[0]
        result = build(y, ALL, U)
        count = verify(result, y, ALL, U)
        assert checks[0] - before == 1, y.describe()
        assert count == unchecked_answer(result, y) > 0


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_a_reassigned_map_is_checked_again(kind, checks):
    build, verify, _ = SIDES[kind]
    clear_caches()
    for y in INPUTS:
        result = build(y, ALL, U)
        result.map = doubled(result).map
        before = checks[0]
        got = refusal(lambda: verify(result, y, ALL, U))
        assert checks[0] - before == 1
        assert got == refusal(lambda: verify(doubled(build(y, ALL, U)), y, ALL, U))
        assert got == unchecked_answer(result, y) and "factor" in got


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_a_result_built_by_the_caller_is_checked_again(kind, checks):
    build, verify, _ = SIDES[kind]
    clear_caches()
    for y in INPUTS:
        result = rebuilt(build(y, ALL, U))
        before = checks[0]
        count = verify(result, y, ALL, U)
        assert checks[0] - before == 1
        assert count == unchecked_answer(result, y) > 0


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_a_reassigned_equal_complex_is_checked_again(kind, checks):
    build, verify, _ = SIDES[kind]
    name = "cover" if kind == "precover" else "env"
    for y in INPUTS:
        result = build(y, ALL, U)
        built = getattr(result, name)
        setattr(result, name, Complex(built.ring, dict(built._components),
                                      dict(built._differentials)))
        before = checks[0]
        count = verify(result, y, ALL, U)
        assert checks[0] - before == 1
        assert count == unchecked_answer(result, y) > 0


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_a_reassigned_map_that_does_not_commute_is_refused(kind):
    build, verify, _ = SIDES[kind]
    y = INPUTS[-1]
    result = build(y, ALL, U)
    cmap = result.map
    # a nonzero component in one degree only, with the others dropped
    k, f = next((k, f) for k, f in cmap._components.items() if not f.is_zero())
    broken = ChainMap(cmap.source, cmap.target, {k: ModuleMap(f.source, f.target, f.matrix)},
                      check=False)
    assert not broken.commutes()
    result.map = broken
    message = refusal(lambda: verify(result, y, ALL, U))
    assert message == unchecked_answer(result, y) and "not a chain map" in message
