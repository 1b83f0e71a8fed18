"""Class membership oracles and finite universes."""
from __future__ import annotations

import itertools
import math

import pytest

from homkit.exactalg import IntMatrix, Zmod
from homkit.modules import FpModule, ModuleMap, kernel
from homkit.complexes import disk, is_exact, sphere, zero_complex
from homkit.xclass import (
    ALL,
    FREE,
    ModuleUniverse,
    UniverseCapError,
    XClassSpec,
    ZERO_ONLY,
    _factor_chains,
    ann,
    contains_complex,
    contains_module,
    default_complex_universe,
    enumerate_eps1,
    enumerate_modules,
    enumerate_monos,
    eps1_universe,
    module_universe,
    parse_class_spec,
)

R4 = Zmod(4)
Z2 = FpModule(R4, (2,))
Z4 = FpModule(R4, (4,))


class TestMembership:
    def test_all_accepts_everything(self):
        assert contains_module(ALL, FpModule(R4, (2, 4)))
        assert contains_module(ALL, FpModule.zero(R4))

    def test_free_over_mod4(self):
        assert not contains_module(FREE, Z2)
        assert contains_module(FREE, FpModule(R4, (4, 4)))

    def test_annihilated(self):
        assert contains_module(ann(2), FpModule(R4, (2, 2)))
        assert not contains_module(ann(2), Z4)

    def test_pred_regex(self):
        cls = parse_class_spec("pred:2(,2)*")
        assert contains_module(cls, FpModule(R4, (2, 2)))
        assert not contains_module(cls, FpModule(R4, (2, 4)))
        assert contains_module(cls, FpModule.zero(R4))  # zero toggle defaults on
        strict = XClassSpec("pred", pattern="2(,2)*", zero_is_member=False)
        assert not contains_module(strict, FpModule.zero(R4))

    def test_parse_round_trip(self):
        for text in ("all", "zero", "free", "ann:2", "pred:2,4"):
            assert parse_class_spec(text).key() == text

    def test_complex_membership(self):
        assert contains_complex(ALL, zero_complex(R4))
        assert contains_complex(ZERO_ONLY, zero_complex(R4))
        assert not contains_complex(FREE, disk(0, Z2))
        assert contains_complex(FREE, sphere(0, FpModule.free(R4, 1)))


class TestModuleUniverse:
    def test_mod4_bound4(self):
        u = module_universe(R4, 4)
        assert [m.factors for m in enumerate_modules(u)] == [(), (2,), (4,), (2, 2)]

    def test_bound_one(self):
        assert [m.factors for m in module_universe(R4, 1).members] == [()]

    def test_mod2_bound8(self):
        u = module_universe(Zmod(2), 8)
        assert [m.factors for m in u.members] == [(), (2,), (2, 2), (2, 2, 2)]

    def test_completeness_partition_count(self):
        # independent count: multisets of exponents 1..k with total <= log_p bound
        def count(maxexp, budget):
            def rec(minexp, left):
                total = 1
                for e in range(minexp, maxexp + 1):
                    if e <= left:
                        total += rec(e, left - e)
                return total
            return rec(1, budget)
        u = ModuleUniverse(Zmod(8), 64)
        assert len(u.members) == count(3, 6)
        u2 = ModuleUniverse(Zmod(9), 27)
        assert len(u2.members) == count(2, 3)

    def test_cap_enforced(self):
        with pytest.raises(UniverseCapError):
            ModuleUniverse(R4, 100000)

    def test_no_duplicates(self):
        u = module_universe(R4, 8)
        keys = [m.factors for m in u.members]
        assert len(keys) == len(set(keys))

    def test_factor_chains_scan_divisors_up_to_the_bound(self):
        def old_factor_chains(n, bound):
            out = [()]
            divs = [d for d in range(2, n + 1) if n % d == 0]

            def extend(prefix, prod):
                for d in divs:
                    if (prefix and d % prefix[-1]) or prod * d > bound:
                        continue
                    out.append(prefix + (d,))
                    extend(prefix + (d,), prod * d)

            extend((), 1)
            return sorted(set(out), key=lambda f: (math.prod(f) if f else 1, len(f), f))

        for n in range(2, 201):
            for bound in range(1, 65):
                assert _factor_chains(n, bound) == old_factor_chains(n, bound), (n, bound)
        assert _factor_chains(2 ** 61 - 1, 8) == [()]


class TestEnumerateMonos:
    def test_zero_source(self):
        ms = enumerate_monos(FpModule.zero(R4), Z4)
        assert len(ms) == 1 and ms[0].source.is_zero()

    def test_z2_into_z4(self):
        ms = enumerate_monos(Z2, Z4)
        assert len(ms) == 1
        assert ms[0].matrix.entries == ((2,),)

    def test_too_big(self):
        assert enumerate_monos(Z4, Z2) == []

    def test_count_against_brute_force(self):
        mods = [Z2, Z4, FpModule(R4, (2, 2)), FpModule(R4, (2, 4))]
        for a in mods:
            for b in mods:
                ranges = [range(b.factors[i]) for i in range(b.ngens)
                          for _ in range(a.ngens)]
                count = 0
                for flat in itertools.product(*ranges):
                    mat = [[flat[i * a.ngens + j] for j in range(a.ngens)]
                           for i in range(b.ngens)]
                    ok = all((a.factors[j] * mat[i][j]) % b.factors[i] == 0
                             for i in range(b.ngens) for j in range(a.ngens))
                    if not ok:
                        continue
                    f = ModuleMap(a, b, IntMatrix.from_rows(mat, cols=a.ngens))
                    if f.is_mono():
                        count += 1
                assert len(enumerate_monos(a, b)) == count

    def test_all_emitted_are_mono(self):
        for a in [Z2, FpModule(R4, (2, 2))]:
            for b in [Z4, FpModule(R4, (2, 4))]:
                for f in enumerate_monos(a, b):
                    assert f.is_mono()


class TestEps1Universe:
    def test_zero_always_present(self):
        eu = eps1_universe(R4, ZERO_ONLY, base_bound=2, window=(0, 1))
        assert any(c.is_zero() for c in eu.members)

    def test_disk_included_for_all(self):
        eu = eps1_universe(R4, ALL, base_bound=4, window=(-1, 1))
        assert any(c == disk(0, Z2) for c in enumerate_eps1(eu))

    def test_disk_excluded_for_free(self):
        eu = eps1_universe(R4, FREE, base_bound=4, window=(-1, 1))
        assert not any(c == disk(0, Z2) for c in eu.members)
        assert any(c == disk(0, Z4) for c in eu.members)

    def test_members_revalidate(self):
        eu = eps1_universe(R4, ALL, base_bound=4, window=(-1, 1))
        for c in eu.members:
            assert is_exact(c).exact
            for k in c.degrees():
                if not c.component(k + 1).is_zero():
                    ker = kernel(c.differential(k)).sub
                else:
                    ker = c.component(k)
                assert contains_module(ALL, ker)

    def test_window_cap(self):
        with pytest.raises(UniverseCapError):
            eps1_universe(R4, ALL, base_bound=2, window=(0, 5))


class TestComplexUniverse:
    def test_members_deterministic(self):
        cu = default_complex_universe(R4, (0, 1), full_bound=2, disk_bound=4)
        keys = [c.canonical_key() for c in cu.members]
        cu2 = default_complex_universe(R4, (0, 1), full_bound=2, disk_bound=4)
        assert keys == [c.canonical_key() for c in cu2.members]
        assert len(keys) == len(set(keys))

    def test_contains_disks_and_spheres(self):
        cu = default_complex_universe(R4, (0, 1), full_bound=4, disk_bound=8)
        assert any(c == disk(0, FpModule(R4, (2, 4))) for c in cu.members)
        assert any(c == sphere(1, Z4) for c in cu.members)

    def test_pools_certified(self):
        cu = default_complex_universe(R4, (0, 1), full_bound=2, disk_bound=2)
        for phi, cok in cu.mono_pool():
            assert phi.is_mono()
            from homkit.complexes import validate_complex
            assert validate_complex(cok).ok
        for psi, ker in cu.epi_pool():
            assert psi.is_epi()
