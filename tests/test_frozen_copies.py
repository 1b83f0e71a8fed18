"""Copies and pickles of every frozen value type.

A copy, shallow or deep, of a frozen value is the value itself, also inside
a copied container.  A pickle round trip rebuilds the value through its
constructor from its field values: the result is ``==`` to the original and
hashes the same.  A homotopy compares
by identity, so its round trip is checked to verify, over an equal chain
map.
"""
from __future__ import annotations

import copy
import pickle

import pytest

import homkit  # noqa: F401
from homkit.complexes import (
    ChainMap,
    Complex,
    ExactnessReport,
    Homotopy,
    is_exact,
    mapping_cone,
    null_homotopy,
    validate_complex,
)
from homkit.exactalg import IntMatrix, Zmod
from homkit.modules import (
    FpModule,
    ModuleMap,
    direct_sum,
    hom_module,
    kernel,
    normalize_presentation,
    pushout,
)
from homkit.values import Frozen
from homkit.xclass import parse_class_spec

R4 = Zmod(4)
Z2, Z4 = FpModule(R4, (2,)), FpModule(R4, (4,))
Z2_Z4 = FpModule(R4, (2, 4))


def samples() -> dict:
    """One instance of each frozen value type, by class name."""
    times2 = ModuleMap(Z4, Z4, IntMatrix(1, 1, ((2,),)))
    c = Complex(R4, {0: Z4, 1: Z4, 2: Z4}, {0: times2, 1: times2})
    f = ChainMap(c, c, {k: times2 for k in range(3)})
    # the multiplication by 2 on Z/4 in degrees 0 and 1 of a disk is null-homotopic
    disk = Complex(R4, {0: Z4, 1: Z4}, {0: ModuleMap.identity(Z4)})
    h = null_homotopy(ChainMap(disk, disk, {0: times2, 1: times2}))
    cone, seq = mapping_cone(f)
    values = [R4, IntMatrix.identity(2), Z2_Z4, ModuleMap.identity(Z2_Z4),
              normalize_presentation(R4, 2, IntMatrix(2, 1, ((2,), (2,)))),
              kernel(times2), direct_sum([Z2, Z4]),
              pushout(ModuleMap(Z2, Z4, IntMatrix(1, 1, ((2,),))),
                      ModuleMap(Z2, Z2_Z4, IntMatrix(2, 1, ((1,), (0,))))),
              hom_module(Z2, Z2_Z4), c, validate_complex(cone), f, h, seq, is_exact(c),
              parse_class_spec("pred:(2|4)!0")]
    return {type(v).__name__: v for v in values}


SAMPLES = samples()


def frozen_types(cls=Frozen) -> set:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | frozen_types(sub)
    return found


def test_every_frozen_type_has_a_sample():
    # importing homkit loads every layer, so every frozen type is defined
    assert {cls.__name__ for cls in frozen_types()} == set(SAMPLES)
    assert all(isinstance(v, Frozen) for v in SAMPLES.values())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_copy_is_the_value_itself(name):
    value = SAMPLES[name]
    assert copy.copy(value) is value and copy.deepcopy(value) is value
    assert copy.deepcopy({"v": [value]})["v"][0] is value


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_pickle_round_trip_rebuilds_an_equal_value(name):
    value = SAMPLES[name]
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back is not value
    if isinstance(value, Homotopy):
        assert back != value and back.verifies() and back.chain_map == value.chain_map
        assert back.chain_map.source._differentials == value.chain_map.source._differentials
    else:
        assert back == value and hash(back) == hash(value)
        assert back._values() == value._values()


def test_an_exactness_report_is_a_read_only_hashable_value():
    rep = SAMPLES["ExactnessReport"]
    assert not rep.exact and rep.homology[0] == (2,) and rep.homology.get(5) is None
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep and hash(back) == hash(rep)
    with pytest.raises(TypeError):
        back.homology[1] = (2,)


def test_reports_built_in_either_degree_order_are_one_value():
    a, b = ExactnessReport(True, {0: (), 1: (2,)}), ExactnessReport(True, {1: (2,), 0: ()})
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert list(b.homology) == [0, 1] and len({a, b}) == 1


def test_a_round_trip_keeps_component_mappings_read_only():
    c = pickle.loads(pickle.dumps(SAMPLES["Complex"]))
    with pytest.raises(TypeError):
        c._components[5] = Z2
