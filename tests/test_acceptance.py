"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is exact (zero violations); the timed
criteria assert their wall-clock targets.
"""
from __future__ import annotations

import itertools
import random
import time

import pytest

from homkit.exactalg import IntMatrix, Zmod, det, howell_form, smith_normal_form, solve_linear
from homkit.modules import FpModule, hom_module
from homkit.complexes import (
    Complex,
    chain_map_group,
    direct_sum_complexes,
    disk,
    is_exact,
    mapping_cone,
    null_homotopy,
    sphere,
    splits,
    zero_complex,
)
from homkit.xclass import (
    ALL,
    FREE,
    ann,
    default_complex_universe,
    eps1_universe,
    module_universe,
)
from homkit.lifting import (
    dg_x_injective,
    eps1_perp_homotopy,
    null_map_property,
    x_injective_complex,
    x_injective_module,
    x_projective_complex,
    x_projective_module,
)
from homkit.construct import (
    fixture_injective_components_not_injective_complex,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
    x_injective_envelope,
)
from .helpers import competitors, random_chain_map, random_complex, small_modules

R4 = Zmod(4)
Z2 = FpModule(R4, (2,))
Z4 = FpModule(R4, (4,))


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number:02d} ({name}): {status}{suffix}")


def all_two_degree_complexes(ring, bound):
    """Every complex supported on at most two consecutive degrees (at 0, 1)
    with components from the given universe."""
    members = module_universe(ring, bound).members
    out = [zero_complex(ring)]
    for m in members:
        if not m.is_zero():
            out.append(sphere(0, m))
            out.append(sphere(1, m))
    for m0 in members:
        for m1 in members:
            if m0.is_zero() or m1.is_zero():
                continue
            hm = hom_module(m0, m1)
            for e in hm.module.elements():
                out.append(Complex(ring, {0: m0, 1: m1}, {0: hm.decode(e)},
                                   check=False))
    return out


class TestAcceptance:
    def test_criterion_01_cone_splitting_matches_null_homotopy(self):
        started = time.time()
        rng = random.Random(2024)
        cases = 0
        disagreements = 0
        for n in (2, 3, 4):
            ring = Zmod(n)
            members = small_modules(ring, 16)
            for _ in range(170):
                x = random_complex(rng, ring, members, max_degrees=3)
                y = random_complex(rng, ring, members, max_degrees=3)
                f = random_chain_map(rng, x, y)
                cone, seq = mapping_cone(f)
                s = splits(seq)
                h = null_homotopy(f)
                if (s is None) != (h is None):
                    disagreements += 1
                cases += 1
        elapsed = time.time() - started
        ok = cases >= 500 and disagreements == 0 and elapsed < 60
        report(1, "cone splits iff null-homotopic", ok,
               f"{cases} maps, {disagreements} disagreements, {elapsed:.1f}s")
        assert cases >= 500
        assert disagreements == 0
        assert elapsed < 60

    def test_criterion_02_componentwise_consequence(self):
        rng = random.Random(77)
        members = small_modules(R4, 8)
        u8 = module_universe(R4, 8)
        classes = [ALL, FREE, ann(2)]
        cu = default_complex_universe(R4, (0, 1), full_bound=4, disk_bound=8)
        instances = 0
        inj_passes = proj_passes = 0
        violations = []
        frees = [FpModule.zero(R4), FpModule.free(R4, 1)]
        while instances < 200:
            # bias toward instances likely to pass so the implication is
            # genuinely exercised in both directions
            if instances % 3 == 0:
                c = random_complex(rng, R4, frees, max_degrees=2, lo_range=(0, 0))
            else:
                c = random_complex(rng, R4, members, max_degrees=2, lo_range=(0, 0))
            cls = classes[instances % len(classes)]
            vi = x_injective_complex(c, cls, cu, keep_witnesses=False)
            if vi.holds:
                inj_passes += 1
                for k in c.degrees():
                    if not x_injective_module(c.component(k), cls, u8,
                                              keep_witnesses=False).holds:
                        violations.append(("inj", cls.key(), c.describe(), k))
            vp = x_projective_complex(c, cls, cu, keep_witnesses=False)
            if vp.holds:
                proj_passes += 1
                for k in c.degrees():
                    if not x_projective_module(c.component(k), cls, u8,
                                               keep_witnesses=False).holds:
                        violations.append(("proj", cls.key(), c.describe(), k))
            instances += 1
        ok = not violations and inj_passes > 0 and proj_passes > 0
        report(2, "complex-level pass forces component pass", ok,
               f"{instances} instances, {inj_passes} inj/{proj_passes} proj passes, "
               f"{len(violations)} violations")
        assert inj_passes > 0 and proj_passes > 0
        assert violations == []

    def test_criterion_03_double_criterion_agreement(self):
        from homkit.xclass import ZERO_ONLY
        disagreements = []
        combos = 0
        for n, classes in ((4, [ALL, FREE, ann(2), ZERO_ONLY]),
                           (9, [ALL, FREE, ann(3), ZERO_ONLY])):
            ring = Zmod(n)
            u = module_universe(ring, 8)
            from homkit.xclass import ModuleUniverse
            sixteen = ModuleUniverse(ring, 16).members
            for e in sixteen:
                for cls in classes:
                    v = x_injective_module(e, cls, u, keep_witnesses=False)
                    combos += 1
                    if not v.extra["criteria_agree"]:
                        disagreements.append((n, e.factors, cls.key()))
        ok = not disagreements
        report(3, "lifting and vanishing criteria agree", ok,
               f"{combos} combinations, {len(disagreements)} disagreements")
        assert disagreements == []

    def test_criterion_04_bounded_complexes_in_perp(self):
        started = time.time()
        u8 = module_universe(R4, 8)
        eu = eps1_universe(R4, ALL, base_bound=4, window=(-1, 1))
        projective_members = [m for m in u8.members
                              if x_projective_module(m, ALL, u8,
                                                     keep_witnesses=False).holds]
        suite = []
        degs = [0, 1, 2]
        for combo in itertools.product(projective_members, repeat=3):
            arrows = []
            for k in range(2):
                hm = hom_module(combo[k], combo[k + 1])
                arrows.append([hm.decode(e) for e in hm.module.elements()])
            for d0 in arrows[0]:
                for d1 in arrows[1]:
                    if d1.compose(d0).is_zero():
                        suite.append(Complex(R4, dict(zip(degs, combo)),
                                             {0: d0, 1: d1}, check=False))
        violations = []
        for c in suite:
            v = eps1_perp_homotopy(c, eu, keep_witnesses=False)
            if not v.holds:
                violations.append(("perp", c.describe()))
                continue
            # converse-direction consequence on the same suite
            for k in c.degrees():
                if not x_injective_module(c.component(k), ALL, u8,
                                          keep_witnesses=False).holds:
                    violations.append(("component", c.describe(), k))
        elapsed = time.time() - started
        ok = not violations and elapsed < 300
        report(4, "projective-component complexes are orthogonal", ok,
               f"{len(suite)} complexes, {len(violations)} violations, {elapsed:.1f}s")
        assert suite
        assert violations == []
        assert elapsed < 300

    def test_criterion_05_null_homotopy_lemmas(self):
        rng = random.Random(505)
        cu = default_complex_universe(R4, (0, 1), full_bound=4, disk_bound=8)
        members = small_modules(R4, 8)
        free = FpModule.free(R4, 1)
        # certified projective sources: sums of disks on frees
        src_pool = [disk(0, free), disk(1, free),
                    direct_sum_complexes([disk(0, free), disk(1, free)])[0],
                    direct_sum_complexes([disk(0, free), disk(0, free)])[0]]
        failures = []
        from_count = 0
        while from_count < 100:
            src = src_pool[rng.randrange(len(src_pool))]
            tgt = random_complex(rng, R4, members, max_degrees=2, lo_range=(0, 0))
            f = random_chain_map(rng, src, tgt)
            v = null_map_property(f, "fromProjective", ALL, cu)
            if not v.holds:
                failures.append(("from", f))
            from_count += 1
        tgt_pool = [disk(0, Z4), disk(1, Z4),
                    direct_sum_complexes([disk(0, Z4), disk(1, Z4)])[0],
                    direct_sum_complexes([disk(0, Z4), disk(0, Z4)])[0]]
        to_count = 0
        while to_count < 100:
            tgt = tgt_pool[rng.randrange(len(tgt_pool))]
            src = random_complex(rng, R4, members, max_degrees=2, lo_range=(0, 0))
            f = random_chain_map(rng, src, tgt)
            v = null_map_property(f, "toInjective", ALL, cu)
            if not v.holds:
                failures.append(("to", f))
            to_count += 1
        ok = not failures
        report(5, "guarded maps are null-homotopic", ok,
               f"{from_count}+{to_count} instances, {len(failures)} failures")
        assert failures == []

    # -- criterion 6: the builder suite -------------------------------------

    def _precover_suite(self):
        rng = random.Random(606)
        members = small_modules(R4, 8)
        suite = all_two_degree_complexes(R4, 8)
        for _ in range(120):
            suite.append(random_complex(rng, R4, members, max_degrees=3,
                                        lo_range=(0, 0)))
        return suite

    def test_criterion_06_precover_builder(self):
        started = time.time()
        u8 = module_universe(R4, 8)
        suite = self._precover_suite()
        violations = []
        for y in suite:
            r = precover_bounded(y, ALL)
            if not is_exact(r.cover).exact:
                violations.append(("exact", y.describe()))
            for k in y.degrees():
                if not r.map.component(k).is_epi():
                    violations.append(("epi", y.describe(), k))
            if not all(ok for _, ok in r.kernel_membership.values()):
                violations.append(("kernel", y.describe()))
            for k in r.cover.degrees():
                if not x_projective_module(r.cover.component(k), ALL, u8,
                                           keep_witnesses=False).holds:
                    violations.append(("component", y.describe(), k))
            try:
                verify_precover_factorization(r, y, ALL, u8)
            except Exception as exc:
                violations.append(("factorization", y.describe(), str(exc)))
            for step in r.build_log[1:]:
                d = step.data
                if d["map"].compose(d["s1"]).matrix.entries != \
                        d["a_prev"].compose(d["vertical_prev"]).matrix.entries:
                    violations.append(("square", y.describe(), step.degree))
                if d["s2"].compose(d["lambda_top"]).matrix.entries != \
                        d["s1"].matrix.entries:
                    violations.append(("glue", y.describe(), step.degree))
                if d["lambda_prev"] is not None and \
                        not d["s1"].compose(d["lambda_prev"]).is_zero():
                    violations.append(("chain", y.describe(), step.degree))
        elapsed = time.time() - started
        ok = not violations and elapsed < 300
        report(6, "precover builder (structure, three step identities)", ok,
               f"{len(suite)} inputs, {len(violations)} violations, {elapsed:.1f}s")
        assert violations == []
        assert elapsed < 300

    def test_criterion_06_fourth_step_identity_as_stated(self):
        """The literal fourth step identity: composing the top extension map
        with the new cover map must vanish.

        Together with the other three identities this forces the composite of
        the input differential with the previous vertical to vanish (the top
        differential is onto, so the extension map is determined), which
        fails on any input whose second-or-later differential is nonzero.
        The check is run as stated; see the decisions ledger for the full
        analysis.  An honest failure here is expected.
        """
        suite = [y for y in self._precover_suite()
                 if y.support and y.support[1] - y.support[0] >= 2]
        violations = []
        checked = 0
        for y in suite:
            r = precover_bounded(y, ALL)
            for step in r.build_log[1:]:
                d = step.data
                if d["lambda_prev"] is None:
                    continue  # the first gluing step defines no second lift
                checked += 1
                if not d["map"].compose(d["s2"]).is_zero():
                    violations.append((y.describe(), step.degree))
        ok = not violations
        report(6, "precover fourth step identity, literal form", ok,
               f"{checked} steps checked, {len(violations)} violations "
               "(incompatible with the other identities; see decisions ledger)")
        assert violations == [], (
            "the fourth step identity contradicts the other three whenever the "
            "input differential into the glued degree is nonzero; kept red on "
            "purpose — see the decisions ledger")

    def test_criterion_07_preenvelope_builder(self):
        started = time.time()
        u8 = module_universe(R4, 8)
        rng = random.Random(707)
        members = small_modules(R4, 8)
        suite = all_two_degree_complexes(R4, 8)
        for _ in range(120):
            suite.append(random_complex(rng, R4, members, max_degrees=3,
                                        lo_range=(0, 0)))
        violations = []
        for y in suite:
            r = preenvelope_bounded(y, ALL)
            if not is_exact(r.env).exact:
                violations.append(("exact", y.describe()))
            for k in y.degrees():
                if not r.map.component(k).is_mono():
                    violations.append(("mono", y.describe(), k))
            if not all(ok for _, ok in r.cokernel_membership.values()):
                violations.append(("cokernel", y.describe()))
            for k in r.env.degrees():
                if not x_injective_module(r.env.component(k), ALL, u8,
                                          keep_witnesses=False).holds:
                    violations.append(("component", y.describe(), k))
            try:
                verify_preenvelope_factorization(r, y, ALL, u8)
            except Exception as exc:
                violations.append(("factorization", y.describe(), str(exc)))
            for step in r.build_log[1:]:
                d = step.data
                if d["s"].compose(d["map"]).matrix.entries != \
                        d["vertical_prev"].compose(d["a"]).matrix.entries:
                    violations.append(("square", y.describe(), step.degree))
                if d["lambda_low"].compose(d["t"]).matrix.entries != \
                        d["s"].matrix.entries:
                    violations.append(("glue", y.describe(), step.degree))
        elapsed = time.time() - started
        ok = not violations
        report(7, "preenvelope builder", ok,
               f"{len(suite)} inputs, {len(violations)} violations, {elapsed:.1f}s")
        assert violations == []

    def test_criterion_08_fixture_regression(self):
        fx = fixture_injective_components_not_injective_complex()
        u8 = module_universe(R4, 8)
        comp_ok = all(x_injective_module(fx.component(k), ALL, u8,
                                         keep_witnesses=False).holds
                      for k in fx.degrees())
        cu = default_complex_universe(R4, fx.support, full_bound=4, disk_bound=8)
        v1 = x_injective_complex(fx, ALL, cu, keep_witnesses=True)
        v2 = x_injective_complex(fx, ALL, cu, keep_witnesses=True)
        deterministic = (not v1.holds and not v2.holds and
                         v1.counterexample["mono"] == v2.counterexample["mono"] and
                         v1.counterexample["map"] == v2.counterexample["map"])
        ok = comp_ok and deterministic
        report(8, "fixture separates component and complex injectivity", ok,
               f"components pass: {comp_ok}, complex fails deterministically: "
               f"{deterministic}")
        assert comp_ok and deterministic

    def test_criterion_09_spheres_on_injectives_are_dg(self):
        u8 = module_universe(R4, 8)
        failures = []
        checked = 0
        for cls in (ALL, FREE, ann(2)):
            eu = eps1_universe(R4, cls, base_bound=4, window=(-1, 1))
            for e in u8.members:
                if not x_injective_module(e, cls, u8, keep_witnesses=False).holds:
                    continue
                checked += 1
                v = dg_x_injective(sphere(0, e), cls, eu, mu=u8,
                                   keep_witnesses=False)
                if not v.holds:
                    failures.append((cls.key(), e.factors))
        ok = not failures
        report(9, "spheres on injective members are dg-injective", ok,
               f"{checked} spheres over three classes, {len(failures)} failures")
        assert checked > 0
        assert failures == []

    def test_criterion_10_envelope_search(self):
        started = time.time()
        res = x_injective_envelope(sphere(0, Z2), ALL)
        u8 = module_universe(R4, 8)
        # preenvelope factorization: maps into injective competitors factor
        from homkit.modules import MapSystem
        factor_ok = True
        lo, hi = res.envelope.support
        for comp in competitors(ALL, u8, range(lo - 1, hi + 1), injective=True):
            for h in chain_map_group(sphere(0, Z2), comp).elements():
                ms = MapSystem(R4)
                names = {}
                for k in comp.degrees():
                    if not res.envelope.component(k).is_zero():
                        names[k] = ms.unknown(f"g{k}", res.envelope.component(k),
                                              comp.component(k))
                solvable = True
                for k in comp.degrees():
                    if k in names:
                        ms.equation([(None, names[k], res.inclusion.component(k), 1)],
                                    h.component(k),
                                    (sphere(0, Z2).component(k), comp.component(k)))
                    elif not h.component(k).is_zero():
                        solvable = False
                for k in comp.degrees():
                    if k in names and (k + 1) in names:
                        ms.equation([(comp.differential(k), names[k], None, 1),
                                     (None, names[k + 1],
                                      res.envelope.differential(k), -1)],
                                    None, (res.envelope.component(k),
                                           comp.component(k + 1)))
                if not solvable or ms.solve() is None:
                    factor_ok = False
        elapsed = time.time() - started
        ok = (res.injective_verdict.holds and res.essential and factor_ok
              and elapsed < 120)
        report(10, "injective envelope at desk scale", ok,
               f"injective={res.injective_verdict.holds}, essential={res.essential}, "
               f"factorization={factor_ok}, {elapsed:.1f}s")
        assert res.injective_verdict.holds
        assert res.essential
        assert factor_ok
        assert elapsed < 120

    def test_criterion_11_kernel_algebra(self):
        rng = random.Random(1111)
        failures = 0
        # normal form identities
        for _ in range(150):
            r, c = rng.randint(0, 5), rng.randint(1, 5)
            a = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(c)]
                                     for _ in range(r)], cols=c)
            u, d, v = smith_normal_form(a)
            if (u @ a @ v).entries != d.entries or det(u) not in (1, -1) \
                    or det(v) not in (1, -1):
                failures += 1
            diag = [d.entries[i][i] for i in range(min(r, c))]
            for i in range(len(diag) - 1):
                if diag[i] and diag[i + 1] % diag[i]:
                    failures += 1
                if diag[i] == 0 and diag[i + 1] != 0:
                    failures += 1
        # howell span preservation and idempotence
        def span(rows, n, cols):
            vecs = {tuple([0] * cols)}
            frontier = [tuple([0] * cols)]
            gens = [r for r in rows if any(r)]
            while frontier:
                v0 = frontier.pop()
                for r0 in gens:
                    w = tuple((a0 + b0) % n for a0, b0 in zip(v0, r0))
                    if w not in vecs:
                        vecs.add(w)
                        frontier.append(w)
            return vecs
        for _ in range(150):
            n = rng.choice([2, 3, 4, 6, 8, 9, 12])
            r, c = rng.randint(0, 4), rng.randint(1, 3)
            a = IntMatrix.from_rows([[rng.randint(0, n - 1) for _ in range(c)]
                                     for _ in range(r)], cols=c)
            h = howell_form(a, Zmod(n))
            if span(a.to_lists(), n, c) != span(h.to_lists(), n, c):
                failures += 1
            if howell_form(h, Zmod(n)).entries != h.entries:
                failures += 1
        # solving versus exhaustive enumeration, n^cols within the cap
        for _ in range(250):
            n = rng.choice([2, 3, 4, 6, 8, 9])
            c = rng.randint(1, 3)
            if n ** c > 10 ** 6:
                continue
            r = rng.randint(1, 3)
            rows = [[rng.randint(0, n - 1) for _ in range(c)] for _ in range(r)]
            rhs = [[rng.randint(0, n - 1)] for _ in range(r)]
            part, kern = solve_linear(IntMatrix.from_rows(rows, cols=c),
                                      IntMatrix.from_rows(rhs, cols=1), Zmod(n))
            sols = [x for x in itertools.product(range(n), repeat=c)
                    if all(sum(rows[i][j] * x[j] for j in range(c)) % n
                           == rhs[i][0] for i in range(r))]
            if part is None:
                if sols:
                    failures += 1
            else:
                xs = tuple(part.entries[i][0] for i in range(c))
                if xs not in sols or xs != min(sols):
                    failures += 1
                if len(span([list(kern.col(j)) for j in range(kern.cols)], n, c)) \
                        != len(sols):
                    failures += 1
        ok = failures == 0
        report(11, "kernel algebra property suites", ok, f"{failures} failures")
        assert failures == 0
