"""Complexes: validation, shifts, cones, internal hom, homotopy solvers."""
from __future__ import annotations

import itertools
import math
import random

import pytest

from homkit.exactalg import ZZ, IntMatrix, Zmod
from homkit.modules import FpModule, ModuleMap, hom_module
from homkit.complexes import (
    ChainMap,
    Complex,
    chain_map_group,
    chain_maps,
    complex_isomorphic,
    direct_sum_complexes,
    disk,
    hom_complex,
    hom_complex_data,
    is_exact,
    mapping_cone,
    null_homotopy,
    shift,
    sphere,
    splits,
    validate_complex,
    zero_complex,
    ShortExactOfComplexes,
)
from .helpers import random_chain_map, random_complex, small_modules

R4 = Zmod(4)
Z2 = FpModule(R4, (2,))
Z4 = FpModule(R4, (4,))


def mm(src, tgt, rows):
    return ModuleMap(src, tgt, IntMatrix.from_rows(rows, cols=src.ngens))


class TestValidate:
    def test_zero_complex(self):
        assert validate_complex(zero_complex(R4)).ok

    def test_disk(self):
        assert validate_complex(disk(0, Z2)).ok

    def test_identity_squared_fails_at_middle(self):
        bad = Complex(R4, {0: Z4, 1: Z4, 2: Z4},
                      {0: ModuleMap.identity(Z4), 1: ModuleMap.identity(Z4)},
                      check=False)
        verdict = validate_complex(bad)
        assert not verdict.ok
        assert verdict.degree == 1

    def test_constructor_enforces(self):
        with pytest.raises(Exception):
            Complex(R4, {0: Z4, 1: Z4, 2: Z4},
                    {0: ModuleMap.identity(Z4), 1: ModuleMap.identity(Z4)})


class TestShift:
    def test_shift_zero(self):
        c = disk(0, Z2)
        assert shift(c, 0) == c

    def test_sphere_shift(self):
        assert shift(sphere(0, Z4), 1) == sphere(-1, Z4)

    def test_involution(self):
        c = disk(0, Z4)
        assert shift(shift(c, 1), -1) == c
        assert shift(shift(c, 3), -3) == c

    def test_sign_mod_two(self):
        # -1 = 1 over Z/2, so the shifted disk differential is still 1
        sh = shift(disk(0, Z2), 1)
        assert sh.differential(-1).matrix.entries == ((1,),)

    def test_sign_mod_four(self):
        sh = shift(disk(0, Z4), 1)
        assert sh.differential(-1).matrix.entries == ((3,),)


class TestDiskSphere:
    def test_disk_on_zero(self):
        assert disk(0, FpModule.zero(R4)).is_zero()

    def test_disk_exact(self):
        assert is_exact(disk(0, Z2)).exact

    def test_sphere_homology(self):
        rep = is_exact(sphere(0, Z2))
        assert not rep.exact
        assert rep.homology[0] == (2,)


class TestMappingCone:
    def test_zero_map_cone_is_sum(self):
        f = ChainMap.zero(sphere(0, Z2), sphere(0, Z4))
        cone, seq = mapping_cone(f)
        assert cone.component(-1).factors == (2,)
        assert cone.component(0).factors == (4,)
        assert seq.validate()

    def test_identity_cone_exact(self):
        # oracle: enumerate kernels and images degreewise
        f = ChainMap.identity(sphere(0, Z2))
        cone, seq = mapping_cone(f)
        assert validate_complex(cone).ok
        assert cone.total_size() == 4
        d = cone.differential(-1)
        ker = {x for x in cone.component(-1).elements() if d.apply(x) == (0,)}
        img = {d.apply(x) for x in cone.component(-1).elements()}
        assert len(ker) == 1 and len(img) == 2
        assert is_exact(cone).exact

    def test_cone_of_zero_complex(self):
        cone, _ = mapping_cone(ChainMap.identity(zero_complex(R4)))
        assert cone.is_zero()

    def test_cone_naturality_under_isomorphisms(self):
        rng = random.Random(5)
        members = small_modules(R4, 8)
        for _ in range(10):
            x = random_complex(rng, R4, members, max_degrees=2)
            y = random_complex(rng, R4, members, max_degrees=2)
            f = random_chain_map(rng, x, y)
            cone1, _ = mapping_cone(f)
            # conjugating by identity automorphisms keeps the cone isomorphic
            cone2, _ = mapping_cone(ChainMap.identity(y).compose(f))
            assert complex_isomorphic(cone1, cone2)


class TestHomComplex:
    def test_sphere_source_blocks(self):
        y = Complex(R4, {0: Z4, 1: Z2}, {0: mm(Z4, Z2, [[1]])})
        hd = hom_complex_data(sphere(0, Z2), y)
        assert hd.complex.component(0).factors == hom_module(Z2, Z4).module.factors
        assert hd.complex.component(1).factors == hom_module(Z2, Z2).module.factors

    def test_hom_into_zero(self):
        assert hom_complex(sphere(0, Z2), zero_complex(R4)).is_zero()

    def test_differential_squares_to_zero(self):
        rng = random.Random(11)
        members = small_modules(R4, 8)
        for _ in range(15):
            x = random_complex(rng, R4, members)
            y = random_complex(rng, R4, members)
            hc = hom_complex(x, y)
            assert validate_complex(hc).ok

    def test_sphere_disk_h0_vanishes(self):
        # oracle: enumerate the chain maps (and homotopies) directly
        maps = chain_maps(sphere(0, Z2), disk(0, Z2))
        assert all(f.is_zero() for f in maps)
        hd = hom_complex_data(sphere(0, Z2), disk(0, Z2))
        from homkit.complexes import homology_at
        assert homology_at(hd.complex, 0).is_zero()

    def test_degree_zero_cycles_are_chain_maps(self):
        rng = random.Random(4)
        members = small_modules(R4, 8)
        for _ in range(8):
            x = random_complex(rng, R4, members, max_degrees=2)
            y = random_complex(rng, R4, members, max_degrees=2)
            if (x.total_size() or 1) > 8 or (y.total_size() or 1) > 8:
                continue
            got = {f.canonical_key() for f in chain_map_group(x, y).elements()}
            degs = sorted(set(x.degrees()) | set(y.degrees()))
            per = []
            for k in degs:
                hm = hom_module(x.component(k), y.component(k))
                per.append([hm.decode(e) for e in hm.module.elements()])
            want = set()
            for combo in itertools.product(*per):
                cm = ChainMap(x, y, dict(zip(degs, combo)), check=False)
                if cm.commutes():
                    want.add(cm.canonical_key())
            assert got == want


class TestNullHomotopy:
    def test_zero_map(self):
        h = null_homotopy(ChainMap.zero(disk(0, Z2), disk(0, Z2)))
        assert h is not None
        assert all(h.component(k).is_zero() for k in (0, 1))

    def test_disk_identity_contracts(self):
        h = null_homotopy(ChainMap.identity(disk(0, Z2)))
        assert h is not None and h.verifies()
        assert h.component(1).matrix.entries == ((1,),)

    def test_sphere_identity_does_not(self):
        assert null_homotopy(ChainMap.identity(sphere(0, Z2))) is None

    def test_returned_homotopies_verify(self):
        rng = random.Random(13)
        members = small_modules(R4, 8)
        for _ in range(40):
            x = random_complex(rng, R4, members)
            y = random_complex(rng, R4, members)
            f = random_chain_map(rng, x, y)
            h = null_homotopy(f)
            if h is not None:
                assert h.verifies()


class TestSplits:
    def test_direct_sum_splits(self):
        ds, injs, projs = direct_sum_complexes([disk(0, Z2), sphere(0, Z4)])
        seq = ShortExactOfComplexes(disk(0, Z2), ds, sphere(0, Z4), injs[0], projs[1])
        r = splits(seq)
        assert r is not None
        assert r.compose(injs[0]) == ChainMap.identity(disk(0, Z2))

    def test_identity_cone_sequence_not_split(self):
        _, seq = mapping_cone(ChainMap.identity(sphere(0, Z2)))
        assert splits(seq) is None
        assert null_homotopy(ChainMap.identity(sphere(0, Z2))) is None

    def test_zero_sequence_splits(self):
        zc = zero_complex(R4)
        seq = ShortExactOfComplexes(zc, zc, zc, ChainMap.zero(zc, zc),
                                    ChainMap.zero(zc, zc))
        assert splits(seq) is not None

    def test_short_exact_over_z_needs_the_image_to_be_the_kernel(self):
        # 0 -> Z --x4--> Z -> Z/2 -> 0 has kernel 2Z and image 4Z in the
        # middle: isomorphic submodules, but H^1 of the row is Z/2
        z, z2 = FpModule.free(ZZ, 1), FpModule(ZZ, (2,))
        left, middle, right = sphere(0, z), sphere(0, z), sphere(0, z2)
        seq = ShortExactOfComplexes(left, middle, right,
                                    ChainMap(left, middle, {0: mm(z, z, [[4]])}),
                                    ChainMap(middle, right, {0: mm(z, z2, [[1]])}))
        assert not seq.validate()

    def test_cone_splitting_matches_null_homotopy(self):
        # the flagship equivalence, on random chain maps over three rings
        rng = random.Random(99)
        for n in (2, 3, 4):
            ring = Zmod(n)
            members = small_modules(ring, 16)
            for _ in range(25):
                x = random_complex(rng, ring, members)
                y = random_complex(rng, ring, members)
                f = random_chain_map(rng, x, y)
                cone, seq = mapping_cone(f)
                s = splits(seq)
                h = null_homotopy(f)
                assert (s is None) == (h is None)
                if s is not None:
                    assert s.compose(seq.inj) == ChainMap.identity(y)


class TestIsExact:
    def test_disks_exact(self):
        for m in (Z2, Z4, FpModule(R4, (2, 4))):
            assert is_exact(disk(0, m)).exact

    def test_doubling_homology(self):
        c = Complex(R4, {0: Z4, 1: Z4}, {0: mm(Z4, Z4, [[2]])})
        rep = is_exact(c)
        assert not rep.exact
        assert rep.homology[0] == (2,) and rep.homology[1] == (2,)
        assert math.prod(rep.homology.get(0, ())) == 2
