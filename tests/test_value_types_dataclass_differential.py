"""The 21 hand-written value types against their old ``@dataclass`` declarations.

``dataclass_oracles`` in ``tests/helpers.py`` keeps the declarations.  Built
from the same random field values, each class and its oracle must show the
same behaviour: field names and ``__init__`` parameters, positional and
keyword construction with defaults, the errors of invalid fields, ``repr``,
``==`` against equal values, other values and other classes, the hash or
unhashability, assignment and deletion (refused with the same message on a
frozen class), slots or an instance ``__dict__``, and ``Verdict``'s fresh
default containers.  A mutant of the ``RingSpec`` oracle that hashes a
scalar must be told apart by the same comparison.

Four differences are by design.  A dataclass keeps each field default as a
class attribute, which a field deleted from a mutable instance falls back
to; the plain classes keep none.  ``Verdict`` reads an explicit None for
``witnesses`` or ``extra`` as its default, a fresh list or dict, where the
dataclass stored None.  A frozen slotted dataclass of Python 3.11 raises a
TypeError from its own ``super()`` call when an attribute that is not a
field is assigned or deleted; the plain classes raise the AttributeError
they raise for a field.  ``ExactnessReport`` holds its homology as a
read-only mapping in increasing degree and hashes, where the dataclass held
the dict it was given and was unhashable: its oracle is given that mapping,
and the hash is compared with the report's equality instead
(``tests/test_frozen_copies.py`` checks it too).
"""
from __future__ import annotations

import dataclasses
import inspect
import math
import random
from types import MappingProxyType

import pytest

from homkit import complexes, construct, exactalg, lifting, modules, xclass
from homkit.complexes import sphere
from homkit.exactalg import ZZ, IntMatrix, Zmod
from homkit.modules import FpModule

from .helpers import dataclass_oracles, scalar_hash_ring_spec, small_modules

ORACLES = dataclass_oracles()
HOMES = {exactalg: ["RingSpec", "IntMatrix"],
         modules: ["FpModule", "ModuleMap", "Presentation", "SubquotientWitness", "DirectSum",
                   "Pushout", "HomModule"],
         complexes: ["ComplexVerdict", "ShortExactOfComplexes", "HomDegree", "HomComplexData",
                     "ExactnessReport", "ChainMapGroup"],
         xclass: ["XClassSpec"],
         lifting: ["Verdict"],
         construct: ["BuildStep", "PrecoverResult", "PreenvelopeResult", "EnvelopeResult"]}
CLASSES = {name: getattr(module, name) for module, names in HOMES.items() for name in names}

MODULES = [m for n in (2, 3, 4, 6, 8, 12) for m in small_modules(Zmod(n), 16)] + \
    [FpModule(ZZ, f) for f in [(), (0,), (2,), (2, 0), (3, 6, 0)]]
POOL = [None, True, 0, -3, 7, "", "u", (1, 2), frozenset({1}), IntMatrix.zero(1, 2),
        FpModule(Zmod(4), (2,)), sphere(0, FpModule(Zmod(2), (2,)))]
UNHASHABLE = [[], [1, 2], {}, {"k": 1}]


def module_map_fields(rng: random.Random) -> tuple:
    """A well-defined map between modules over one Z/n, with entries left
    unreduced: entry (i, j) is a multiple of t_i / gcd(t_i, s_j)."""
    src = rng.choice([m for m in MODULES if m.ring.modulus])
    tgt = rng.choice([m for m in MODULES if m.ring == src.ring])
    entries = tuple(tuple(rng.randint(-3, 5) * (t // math.gcd(t, s)) for s in src.factors)
                    for t in tgt.factors)
    return src, tgt, IntMatrix(tgt.ngens, src.ngens, entries)


def class_spec_fields(rng: random.Random) -> tuple:
    kind = rng.choice(["all", "zero", "free", "ann", "pred"])
    param = rng.randint(1, 12) if kind == "ann" else rng.choice([None, 3])
    pattern = rng.choice(["2?", "(4,)*4", ""]) if kind == "pred" else rng.choice([None, "x"])
    return kind, param, pattern, rng.random() < 0.5


def random_fields(name: str, rng: random.Random) -> tuple:
    """Field values for one instance: valid for the classes that check
    their fields, otherwise drawn from a pool that is sometimes unhashable."""
    if name == "RingSpec":
        return (rng.choice([0, 2, 3, 4, 12, 36]),)
    if name == "IntMatrix":
        r, c = rng.randrange(4), rng.randrange(4)
        return r, c, tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(r))
    if name == "FpModule":
        m = rng.choice(MODULES)
        return m.ring, m.factors
    if name == "ModuleMap":
        return module_map_fields(rng)
    if name == "XClassSpec":
        return class_spec_fields(rng)
    if name == "ExactnessReport":
        return rng.random() < 0.5, {k: rng.choice([(), (2,), (2, 4)])
                                    for k in rng.sample(range(3), rng.randrange(4))}
    pool = POOL + UNHASHABLE if rng.random() < 0.2 else POOL
    return tuple(rng.choice(pool) for _ in ORACLES[name].__dataclass_fields__)


INVALID = {
    "RingSpec": [(1,), (-4,)],
    "IntMatrix": [(2, 2, ((1,), (2,))), (1, 0, ())],
    "FpModule": [(Zmod(4), (3,)), (Zmod(12), (4, 2)), (ZZ, (0, 2)), (ZZ, (1,))],
    "ModuleMap": [(FpModule(Zmod(4), (4,)), FpModule(Zmod(4), (2,)), IntMatrix.zero(1, 2)),
                  (FpModule(Zmod(4), (2,)), FpModule(Zmod(4), (4,)), IntMatrix(1, 1, ((1,),))),
                  (FpModule(Zmod(4), ()), FpModule(Zmod(2), ()), IntMatrix.zero(0, 0))],
    "XClassSpec": [("bogus",), ("ann",), ("ann", 0), ("pred",), ("pred", None, "(")],
}


def outcome(call):
    """What a call returns, or the kind and message of what it raises (an
    AttributeError subclass counts as AttributeError)."""
    try:
        return "ok", call()
    except Exception as exc:   # every exception is part of the behaviour compared
        kind = AttributeError if isinstance(exc, AttributeError) else type(exc)
        return "raise", kind, str(exc)


def field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) \
        else cls._fields


def behaviour(cls, fields: tuple, other: tuple, hashes: bool = True) -> list:
    """Everything compared about ``cls`` built from ``fields``, with a
    second instance built from the ``other`` field values; the hashes are
    left out unless ``hashes``."""
    names = field_names(cls)
    x, twin, z = cls(*fields), cls(*fields), cls(*other)
    keyword = cls(**dict(zip(names, fields)))
    hashed = [outcome(lambda: hash(x)), outcome(lambda: hash(x) == hash(twin)),
              outcome(lambda: len({x, twin, z}))] if hashes else []
    seen = [repr(x), repr(z), repr(keyword), x == twin, x != twin, x == keyword, x == z,
            x != z, *hashed, x.__eq__(object()) is NotImplemented,
            x == 5, hasattr(x, "__dict__"), vars(cls).get("__slots__")]
    for name in names:
        v = cls(*fields)
        seen += [outcome(lambda: setattr(v, name, 7)), outcome(lambda: repr(v))]
        v = cls(*fields)
        deleted = outcome(lambda: delattr(v, name))
        seen += [deleted, repr(v) if deleted[0] == "raise" else None]
    v = cls(*fields)
    seen += [outcome(lambda: setattr(v, "not_a_field", 7))[0],
             outcome(lambda: delattr(v, "not_a_field"))[0], repr(v)]
    return seen


def as_declared(name: str, fields: tuple) -> tuple:
    """The field values the dataclass needs to build what the plain class
    builds from ``fields``: a fresh list or dict for a ``Verdict``'s None
    ``witnesses`` or ``extra``, and an ``ExactnessReport``'s homology as a
    read-only mapping in increasing degree."""
    if name == "ExactnessReport":
        exact, homology = fields
        return exact, MappingProxyType(dict(sorted(homology.items())))
    if name != "Verdict":
        return fields
    fresh = {3: list, 5: dict}
    return tuple(fresh[i]() if i in fresh and value is None else value
                 for i, value in enumerate(fields))


def required(cls) -> int:
    """How many leading ``__init__`` parameters have no default."""
    params = list(inspect.signature(cls).parameters.values())
    return sum(p.default is inspect.Parameter.empty for p in params)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_fields_and_parameters_are_the_declarations(name):
    new, old = CLASSES[name], ORACLES[name]
    assert field_names(new) == field_names(old)
    new_params = inspect.signature(new).parameters.values()
    old_params = inspect.signature(old).parameters.values()
    assert [(p.name, p.kind) for p in new_params] == [(p.name, p.kind) for p in old_params]
    # a default factory is None in the plain class: both give a fresh container
    assert [p.default for p in new_params] == \
        [None if repr(p.default) == "<factory>" else p.default for p in old_params]


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_random_instances_behave_as_the_dataclass(name):
    rng = random.Random(name)
    new, old = CLASSES[name], ORACLES[name]
    hashes = name != "ExactnessReport"
    for _ in range(40):
        fields, other = random_fields(name, rng), random_fields(name, rng)
        if rng.random() < 0.25:
            other = fields
        assert behaviour(new, fields, other, hashes) == \
            behaviour(old, as_declared(name, fields), as_declared(name, other), hashes)
        if not hashes:
            x, twin, z = new(*fields), new(*fields), new(*other)
            assert hash(x) == hash(twin) and len({x, twin, z}) == 1 + (x != z)
        # an instance of the plain class never equals its oracle's
        assert new(*fields) != old(*fields)
        # omitted defaults
        k = required(new)
        assert outcome(lambda: repr(new(*fields[:k]))) == \
            outcome(lambda: repr(old(*as_declared(name, fields)[:k])))


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_fields_raise_the_same_error(name):
    for fields in INVALID[name]:
        assert outcome(lambda: repr(CLASSES[name](*fields))) == \
            outcome(lambda: repr(ORACLES[name](*fields)))
        assert outcome(lambda: CLASSES[name](*fields))[0] == "raise"


def test_equality_across_classes_is_not_implemented():
    rng = random.Random(3)
    instances = {name: CLASSES[name](*random_fields(name, rng)) for name in ORACLES}
    for a in instances.values():
        for b in instances.values():
            if a is not b:
                assert a.__eq__(b) is NotImplemented and a != b


def test_verdicts_get_fresh_default_containers():
    for cls in (CLASSES["Verdict"], ORACLES["Verdict"]):
        a, b = cls(True, "u"), cls(True, "u")
        a.witnesses.append(1)
        a.extra["k"] = 2
        assert (b.witnesses, b.extra) == ([], {})
        assert a.witnesses is not b.witnesses and a.extra is not b.extra
        assert repr(cls(False, "v")) == "Verdict(holds=False, universe='v', checked=0, " \
            "witnesses=[], counterexample=None, extra={})"
    plain = CLASSES["Verdict"](True, "u", 0, None, None, None)
    assert (plain.witnesses, plain.extra) == ([], {})


def test_ring_spec_hash_is_the_hash_of_its_field_tuple():
    # every set and dict of cache keys keeps its order only if this holds
    for n in (0, 2, 4, 12):
        assert hash(Zmod(n)) == hash((n,)) == hash(ORACLES["RingSpec"](n))


def test_the_comparison_sees_a_scalar_hash():
    mutant, oracle = scalar_hash_ring_spec(), ORACLES["RingSpec"]
    assert behaviour(mutant, (4,), (2,)) != behaviour(oracle, (4,), (2,))
    assert behaviour(CLASSES["RingSpec"], (4,), (2,)) == behaviour(oracle, (4,), (2,))
