"""The envelope search against the generate-and-filter search it replaced.

``x_injective_envelope`` judges each candidate subcomplex S on element sets:
S^k / I^k, for I the embedded image, is read as the submodule q(S^k) of the
cokernel q of I^k, and only the chosen candidate is materialized.
``old_envelope`` below is the previous search, kept as the oracle: it
materialized every candidate from ``old_subcomplex_candidates`` and solved
for the coordinates of each image element inside it.  Both must give the
same envelope and inclusion documents, essentiality and witness, closure
report and number of candidates examined.

The injectivity verdict is stubbed on both sides: it is a function of the
envelope, which is compared, and computing it dominates the run time.  The
class closure checks are pure functions of the class and the universe, so
both sides read them from one memo.  ``all_submodules``, which now spans a
submodule and an element as s + <x>, is compared on its own with the
enumeration it replaced, and serves both sides here.
"""
from __future__ import annotations

from functools import cache
from itertools import product as iproduct

import pytest

import homkit.construct as construct
from homkit.cli import chain_map_to_doc, complex_to_doc
from homkit.complexes import ChainMap, Complex, disk, sphere, zero_complex
from homkit.construct import (
    BuildError,
    OracleHypothesisError,
    _ambient_injective,
    x_injective_envelope,
)
from homkit.exactalg import IntMatrix, Zmod
from homkit.lifting import Verdict
from homkit.modules import (
    ModuleMap,
    _solve_in_module,
    all_submodules,
    hom_module,
    span_elements,
    submodule_from_elements,
)
from homkit.xclass import ALL, ZERO_ONLY, ann, contains_module, module_universe

from .helpers import small_modules


def stub_verdict(*args, **kwargs) -> Verdict:
    return Verdict(True, "stub", 0)


@pytest.fixture(autouse=True)
def fast_envelopes(monkeypatch):
    monkeypatch.setattr(construct, "x_injective_complex", stub_verdict)
    for name in ("_check_extension_closure", "_check_quotient_closure"):
        monkeypatch.setattr(construct, name, cache(getattr(construct, name)))


def old_all_submodules(m) -> list:
    """Submodule enumeration spanning s and x from all their elements."""
    zero = m.reduce_element([0] * m.ngens)
    seen = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        s = frontier.pop()
        for x in sorted(m.elements()):
            if x not in s:
                bigger = span_elements(m, list(s) + [x])
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def old_closed_under_differential(cx, chosen) -> bool:
    for k, elems in chosen.items():
        d = cx.differential(k)
        nxt = chosen.get(k + 1)
        for v in elems:
            w = d.apply(v)
            if (w not in nxt) if nxt is not None else any(w):
                return False
    return True


def old_subcomplex_candidates(amb, incl_sets) -> list:
    degs = amb.degrees()
    per_degree = [[s for s in all_submodules(amb.component(k)) if incl_sets[k] <= s]
                  for k in degs]
    chosen_sets = (dict(zip(degs, combo)) for combo in iproduct(*per_degree))
    return [chosen for chosen in chosen_sets if old_closed_under_differential(amb, chosen)]


def old_subcomplex_to_complex(amb, chosen) -> tuple:
    comps, incls = {}, {}
    for k, elems in chosen.items():
        wit = submodule_from_elements(amb.component(k), sorted(elems))
        comps[k] = wit.sub
        incls[k] = wit.inclusion
    diffs = {}
    for k in comps:
        if (k + 1) not in comps or comps[k].is_zero() or comps[k + 1].is_zero():
            continue
        target_mat = amb.differential(k).matrix @ incls[k].matrix
        sol = _solve_in_module(amb.component(k + 1), incls[k + 1].matrix, target_mat)
        if sol is None:
            raise BuildError("subcomplex not closed under the differential")
        diffs[k] = ModuleMap(comps[k], comps[k + 1], sol)
    sub = Complex(amb.ring, comps, diffs)
    incl = ChainMap(sub, amb, {k: incls[k] for k in comps if not comps[k].is_zero()},
                    check=False)
    return sub, incl


def old_essential_check(incl) -> tuple:
    t_cx = incl.target
    img_sets = {}
    for k in t_cx.degrees():
        src = incl.source.component(k)
        img = {incl.component(k).apply(v) for v in src.elements()} if not src.is_zero() \
            else set()
        img.discard(t_cx.component(k).reduce_element([0] * t_cx.component(k).ngens))
        img_sets[k] = img
    degs = t_cx.degrees()
    per_degree = [all_submodules(t_cx.component(k)) for k in degs]
    for combo in iproduct(*per_degree):
        chosen = dict(zip(degs, combo))
        if all(len(s) == 1 for s in combo) or not old_closed_under_differential(t_cx, chosen):
            continue
        if not any(bool(set(chosen[k]) & img_sets[k]) for k in degs):
            return False, {"subcomplex": {k: sorted(chosen[k]) for k in degs}}
    return True, None


def old_envelope(b, x, module_bound: int = 8) -> construct.EnvelopeResult:
    """The materialize-and-solve search, with the verdict stubbed."""
    u = module_universe(b.ring, module_bound)
    closure = {"extension_closed": construct._check_extension_closure(x, u),
               "quotient_closed": construct._check_quotient_closure(x, u)}
    if not all(closure.values()):
        raise OracleHypothesisError(
            f"class closure hypotheses failed on {u.describe()}: {closure}")
    if b.is_zero():
        zc = zero_complex(b.ring)
        return construct.EnvelopeResult(zc, ChainMap.zero(zc, zc), Verdict(True, "zero complex", 0),
                                        True, None, closure, 0)
    amb, incl = _ambient_injective(b)
    incl_sets = {}
    for k in amb.degrees():
        img = {incl.component(k).apply(v) for v in b.component(k).elements()} \
            if not b.component(k).is_zero() else \
            {amb.component(k).reduce_element([0] * amb.component(k).ngens)}
        incl_sets[k] = span_elements(amb.component(k), sorted(img))
    candidates = old_subcomplex_candidates(amb, incl_sets)
    admissible = []
    for chosen in candidates:
        sub, sub_incl = old_subcomplex_to_complex(amb, chosen)
        ok = True
        for k in sub.degrees():
            cols = []
            for v in sorted(incl_sets[k]):
                rhs = IntMatrix.from_columns([list(v)], rows=amb.component(k).ngens)
                sol = _solve_in_module(amb.component(k), sub_incl.component(k).matrix, rhs)
                cols.append([sol.entries[i][0] for i in range(sub.component(k).ngens)])
            wit = submodule_from_elements(
                sub.component(k), [sub.component(k).reduce_element(c) for c in cols])
            if not contains_module(x, wit.quotient):
                ok = False
                break
        if ok:
            admissible.append(chosen)
    if not admissible:
        raise BuildError("no admissible intermediate subcomplex (unexpected)")
    maximal = [c for c in admissible
               if not any(all(c[k] <= o[k] for k in c) and o != c for o in admissible)]
    t_cx, t_incl = old_subcomplex_to_complex(amb, maximal[0])
    b_comps = {}
    for k in b.degrees():
        sol = _solve_in_module(amb.component(k), t_incl.component(k).matrix,
                               incl.component(k).matrix)
        b_comps[k] = ModuleMap(b.component(k), t_cx.component(k), sol)
    b_incl = ChainMap(b, t_cx, b_comps)
    essential, witness = old_essential_check(b_incl)
    return construct.EnvelopeResult(t_cx, b_incl, stub_verdict(), essential, witness, closure,
                                    len(candidates))


def inputs(n: int) -> list:
    """Spheres and disks on the nonzero modules of at most four elements,
    and two-degree complexes on the first three of them with up to three
    differentials each; only those whose ambient components have at most
    16 elements."""
    ring = Zmod(n)
    members = [m for m in small_modules(ring, 4) if not m.is_zero()]
    out = [f(0, m) for m in members for f in (sphere, disk)]
    for m0 in members[:3]:
        for m1 in members[:3]:
            diffs = list(hom_module(m0, m1).elements())[:3]
            out.extend(Complex(ring, {0: m0, 1: m1}, {0: d}) for d in diffs)
    return [b for b in out
            if all(_ambient_injective(b)[0].component(k).size() <= 16
                   for k in _ambient_injective(b)[0].degrees())]


CASES = [(n, x) for n, classes in ((2, (ALL, ZERO_ONLY)), (4, (ALL, ZERO_ONLY)),
                                   (6, (ann(2), ann(3), ALL, ZERO_ONLY)))
         for x in classes]


def outcome(search, b, x) -> tuple:
    """Everything an envelope result shows but the stubbed verdict, with the
    envelope's size; the exception's type and message when the search fails."""
    try:
        r = search(b, x)
    except (BuildError, OracleHypothesisError) as exc:
        return (type(exc).__name__, str(exc)), None
    return (complex_to_doc(r.envelope), chain_map_to_doc(r.inclusion), r.essential,
            r.essential_witness, r.closure_report, r.candidates_examined), r.envelope.total_size()


@pytest.mark.parametrize("n,x", CASES, ids=[f"Z{n}-{x.key()}" for n, x in CASES])
def test_envelope_matches_materialize_and_solve(n, x):
    proper = 0
    for b in inputs(n):
        got, size = outcome(x_injective_envelope, b, x)
        assert got == outcome(old_envelope, b, x)[0], b.describe()
        proper += size is not None and size < _ambient_injective(b)[0].total_size()
    # the admissibility test matters only where it rejects a candidate: the
    # ann classes on Z/6 choose a subcomplex short of the ambient
    assert proper > 0 or x.kind != "ann"


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 12])
def test_submodules_match_spanning_every_element(n):
    # all_submodules spans s and x as s + <x>
    for m in small_modules(Zmod(n), 16):
        assert all_submodules(m) == old_all_submodules(m)
