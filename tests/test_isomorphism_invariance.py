"""Verdicts are invariant under isomorphism of the checked complex.

Each two-degree complex over Z/4 and Z/6 (components of at most four
elements, the first three differentials of each pair of components in
enumeration order) gets four twisted copies, d^k -> a_{k+1} d^k a_k^-1 for
random automorphisms a_k.  The witness-free verdicts of the five complex
checkers, under the class of all modules and under a ``pred:`` class over
Z/4, must agree on ``holds`` and ``checked`` across the copies, and a
counterexample must name the same universe map, exactness member or
component degree.  This guards every memo keyed by a canonical key: an
isomorphic copy has a different key, so it is computed afresh.  The same
holds at the command line: ``homkit check`` on a document and on two
twisted copies of it exits alike and reports the same ``checked`` and the
same counterexample kind and degree.
"""
from __future__ import annotations

import json
import random

import pytest

from homkit import clear_caches
from homkit.cli import complex_to_doc, main
from homkit.complexes import Complex
from homkit.construct import fixture_injective_components_not_injective_complex
from homkit.exactalg import IntMatrix, Zmod
from homkit.modules import FpModule, ModuleMap
from homkit.lifting import (
    dg_x_injective,
    dg_x_projective,
    eps1_perp_homotopy,
    x_injective_complex,
    x_projective_complex,
)
from homkit.modules import hom_module
from homkit.xclass import (
    ALL,
    default_complex_universe,
    eps1_universe,
    module_universe,
    parse_class_spec,
)

from .helpers import small_modules, twisted_copy

COPIES = 4


def two_degree_complexes(ring) -> list:
    members = [m for m in small_modules(ring, 4) if not m.is_zero()]
    out = []
    for m0 in members:
        for m1 in members:
            hm = hom_module(m0, m1)
            for elem in list(hm.module.elements())[:3]:
                out.append(Complex(ring, {0: m0, 1: m1}, {0: hm.decode(elem)}))
    return out


def named(counterexample):
    """What a counterexample names that does not depend on the copy."""
    if counterexample is None:
        return None
    return tuple((key, value) for key, value in sorted(counterexample.items())
                 if key in ("kind", "mono", "epi", "member", "degree"))


@pytest.mark.parametrize("n", [4, 6])
def test_verdicts_are_invariant_under_twisted_copies(n):
    invariant_under_twisted_copies(n, ALL)


def test_verdicts_under_a_pred_class_are_invariant_under_twisted_copies():
    # the cyclic modules (and zero), as the class of the checks and of the
    # exactness universe
    invariant_under_twisted_copies(4, parse_class_spec("pred:[0-9]+"))


def invariant_under_twisted_copies(n: int, x) -> None:
    ring = Zmod(n)
    cu = default_complex_universe(ring, (0, 1), full_bound=2, disk_bound=4)
    eu, mu = eps1_universe(ring, x), module_universe(ring, 8)
    checkers = {
        "x-injective": lambda c: x_injective_complex(c, x, cu, keep_witnesses=False),
        "x-projective": lambda c: x_projective_complex(c, x, cu, keep_witnesses=False),
        "eps1-perp": lambda c: eps1_perp_homotopy(c, eu, keep_witnesses=False),
        "dg-injective": lambda c: dg_x_injective(c, x, eu, mu, keep_witnesses=False),
        "dg-projective": lambda c: dg_x_projective(c, x, eu, mu, keep_witnesses=False),
    }
    rng = random.Random(n)
    clear_caches()
    outcomes, twisted = set(), 0
    for c in two_degree_complexes(ring):
        copies = [twisted_copy(rng, c) for _ in range(COPIES)]
        twisted += sum(copy.canonical_key() != c.canonical_key() for copy in copies)
        for name, check in checkers.items():
            first = check(c)
            outcomes.add((name, first.holds))
            for copy in copies:
                v = check(copy)
                assert (v.holds, v.checked, named(v.counterexample)) == \
                    (first.holds, first.checked, named(first.counterexample)), (name, c, copy)
    # some copies differ from their complex, and the checks both pass and
    # fail on these inputs
    assert twisted
    assert ("x-injective", True) in outcomes and ("x-injective", False) in outcomes


CLI_KINDS = ("x-injective", "x-projective", "eps1-perp", "dg-injective", "dg-projective")


def two_degree(n: int, m0: tuple, m1: tuple, rows: list) -> Complex:
    ring = Zmod(n)
    a, b = FpModule(ring, m0), FpModule(ring, m1)
    return Complex(ring, {0: a, 1: b}, {0: ModuleMap(a, b, IntMatrix.from_rows(rows))})


def cli_outcome(kind: str, c: Complex, path, capsys) -> tuple:
    """(exit code, checked, counterexample kind, counterexample degree) of
    ``homkit check kind`` on the document of c."""
    path.write_text(json.dumps(complex_to_doc(c)))
    capsys.readouterr()
    code = main(["check", kind, str(path)])
    report = json.loads(capsys.readouterr().out)
    counterexample = report.get("counterexample") or {}
    return code, report["checked"], counterexample.get("kind"), counterexample.get("degree")


def test_cli_checks_are_invariant_under_twisted_copies(tmp_path, capsys):
    complexes = [
        two_degree(4, (2,), (2, 2), [[0], [1]]),
        two_degree(4, (2, 2), (4,), [[0, 2]]),
        fixture_injective_components_not_injective_complex(),
        two_degree(6, (2,), (2, 2), [[0], [1]]),
        two_degree(6, (2, 2), (2,), [[0, 1]]),
        two_degree(6, (3,), (3,), [[2]]),
    ]
    rng = random.Random(0)
    codes, twisted = set(), 0
    for c in complexes:
        copies = [twisted_copy(rng, c) for _ in range(2)]
        twisted += sum(copy.canonical_key() != c.canonical_key() for copy in copies)
        for kind in CLI_KINDS:
            first = cli_outcome(kind, c, tmp_path / "input.json", capsys)
            codes.add(first[0])
            for copy in copies:
                assert cli_outcome(kind, copy, tmp_path / "copy.json", capsys) == first, \
                    (kind, c, copy)
    # some copies differ from their complex, and checks both pass and fail
    assert twisted and codes == {0, 1}
