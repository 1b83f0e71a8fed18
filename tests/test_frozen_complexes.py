"""Complexes, chain maps and homotopies as frozen values, against the
mutable classes they were.

``mutable_complex_oracles`` in ``tests/helpers.py`` keeps the old classes.
Built from the same data, each frozen value and its oracle must agree on
``canonical_key``, ``==`` (against equal values, other values and other
types), the hash and the repr, on the members of a few window universes and
on the chain maps between some of them.  A homotopy compares by identity,
as before.  Assigning or deleting a field, adding an attribute, and writing
into a component mapping all raise, and leave the value as it was.
"""
from __future__ import annotations

import re

import pytest

from homkit.complexes import ChainMap, Complex, chain_maps, disk, null_homotopy, sphere
from homkit.exactalg import Zmod
from homkit.modules import FpModule, ModuleMap
from homkit.xclass import complex_universe

from .helpers import mutable_complex_oracles

ORACLES = mutable_complex_oracles()
UNIVERSES = [(2, 4), (4, 4), (6, 6)]


def as_oracle(c: Complex):
    return ORACLES["Complex"](c.ring, dict(c._components), dict(c._differentials))


def as_oracle_map(f: ChainMap, source, target):
    return ORACLES["ChainMap"](source, target, dict(f._components))


def shape(value) -> str:
    """A repr with its address and defining module taken out."""
    text = re.sub(r" at 0x[0-9a-f]+>", ">", repr(value))
    return text.replace("homkit.complexes.", "").replace("tests.helpers.", "")


def assert_same_values(new: list, old: list) -> None:
    """Keys, hashes and reprs agree one by one; ``==`` agrees on every pair
    and against a foreign value."""
    for a, b in zip(new, old):
        assert a.canonical_key() == b.canonical_key()
        assert hash(a) == hash(b) and shape(a) == shape(b)
        assert (a == 0, a != None) == (b == 0, b != None) == (False, True)  # noqa: E711
    for i, (a, b) in enumerate(zip(new, old)):
        for c, d in zip(new[i:], old[i:]):
            assert (a == c, a != c) == (b == d, b != d)


@pytest.mark.parametrize("n, bound", UNIVERSES)
def test_universe_members_are_the_same_values(n, bound):
    members = complex_universe(Zmod(n), full_bound=bound, disk_bound=4).members
    assert len(members) > 30
    # rebuilt members are equal values but other objects
    rebuilt = [Complex(c.ring, dict(c._components), dict(c._differentials)) for c in members]
    assert all(a == b and a is not b for a, b in zip(members, rebuilt))
    # a complex builds its key once
    assert all(c.canonical_key() is c.canonical_key() for c in members)
    assert_same_values(members + rebuilt, [as_oracle(c) for c in members + rebuilt])


@pytest.mark.parametrize("n, bound", UNIVERSES)
def test_chain_maps_between_members_are_the_same_values(n, bound):
    members = complex_universe(Zmod(n), full_bound=bound, disk_bound=4).members[:12]
    new, old = [], []
    for a in members:
        for b in members:
            oa, ob = as_oracle(a), as_oracle(b)
            for f in chain_maps(a, b, cap=64):
                new.append(f)
                old.append(as_oracle_map(f, oa, ob))
    assert len(new) > 100 and all(g.commutes() for g in old)
    assert_same_values(new, old)
    first = new[-1]
    assert shape(first) == "<ChainMap object>"
    assert first + first - first == first


def test_homotopies_compare_by_identity():
    z4 = FpModule(Zmod(4), (4,))
    f = ChainMap.identity(disk(0, z4))
    h = null_homotopy(f)
    again = type(h)(f, dict(h._components))
    old_f = as_oracle_map(f, as_oracle(f.source), as_oracle(f.target))
    old = ORACLES["Homotopy"](old_f, dict(h._components))
    old_again = ORACLES["Homotopy"](old_f, dict(h._components))
    assert (h == h, h == again, h == 0) == (old == old, old == old_again, old == 0) \
        == (True, False, False)
    assert (hash(h) == hash(again)) == (hash(old) == hash(old_again))
    assert shape(h) == shape(old) == "<Homotopy object>"


def frozen_values() -> list:
    """(value, its fields) for one complex, chain map and homotopy."""
    z4 = FpModule(Zmod(4), (4,))
    c = disk(0, z4)
    f = ChainMap.identity(c)
    return [(c, ("ring", "_components", "_differentials", "_key")),
            (f, ("source", "target", "_components")),
            (null_homotopy(f), ("chain_map", "_components"))]


@pytest.mark.parametrize("index", range(3))
def test_fields_and_component_mappings_are_read_only(index):
    value, fields = frozen_values()[index]
    before = {name: getattr(value, name) for name in fields}
    other = sphere(3, FpModule(Zmod(4), (2,)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.note = "added"
    assert not hasattr(value, "__dict__")
    mappings = [value._components] + ([value._differentials] if index == 0 else [])
    for mapping in mappings:
        k = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[k] = ModuleMap.identity(FpModule(Zmod(4), (2,)))
        with pytest.raises(TypeError):
            del mapping[k]
        with pytest.raises(AttributeError):
            mapping.pop(k)
    assert {name: getattr(value, name) for name in fields} == before
