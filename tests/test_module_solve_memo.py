"""Section solves answered from one table, ``modules.module_solutions``.

``modules._solve_in_module_columns`` solves mat @ x = b, row i a congruence
mod the target's factor i, for a list of right-hand sides.  Its answers are
stored under the ring, the target's factors, the matrix's column count and
entries, and the right-hand sides, so a lifting check that poses a system
again is answered without a new elimination.  The oracle is the unmemoised
body, ``helpers.solve_in_module_columns_oracle``.  Witness-keeping complex
checks must give the same verdicts, sections included, from cold tables,
from warm tables and with the table bypassed; a returned answer must not
alias the stored one; systems that differ in any part of the key must get
entries of their own; and every miss, and nothing else, runs an elimination.
"""
from __future__ import annotations

from itertools import islice

import pytest

from homkit import caches, lifting, modules
from homkit.exactalg import ZZ, CongruenceSystem, IntMatrix, Zmod
from homkit.modules import FpModule, _solve_in_module_columns
from homkit.xclass import ALL, _window_complexes, default_complex_universe

from .helpers import solve_in_module_columns_oracle
from .test_pool_repeat_differential import plain

CHECKS = (lifting.x_injective_complex, lifting.x_projective_complex)
TABLE = "modules.module_solutions"


def universe(n: int):
    return default_complex_universe(Zmod(n), (0, 1), full_bound=4, disk_bound=4)


def probes() -> list:
    """Ten window complexes each over Z/4 and Z/6, with their universes."""
    out = []
    for n in (4, 6):
        cu = universe(n)
        out.extend((c, cu) for c in islice(_window_complexes(Zmod(n), 4, (0, 1)), 10))
    return out


def record(check, c, cu) -> tuple:
    v = check(c, ALL, cu, keep_witnesses=True)
    return v.holds, v.checked, plain(v.witnesses), plain(v.counterexample)


def run_slice(cold: bool) -> list:
    """Every witness-keeping check of the slice, from empty caches before
    each check (``cold``) or once before the whole slice."""
    caches.clear_caches()
    inputs = probes()
    out = []
    for c, cu in inputs:
        for check in CHECKS:
            if cold:
                caches.clear_caches()
            out.append(record(check, c, cu))
    return out


class CountingSystem(CongruenceSystem):
    """A ``CongruenceSystem`` that counts its section-solve eliminations."""

    eliminations = 0

    def solve_columns(self, columns):
        CountingSystem.eliminations += 1
        return super().solve_columns(columns)


@pytest.fixture(scope="module")
def warm():
    return run_slice(cold=False)


def test_cold_warm_and_bypassed_tables_give_the_same_verdicts(warm, monkeypatch):
    assert any(holds for holds, *_ in warm) and not all(holds for holds, *_ in warm)
    assert any(witnesses for _, _, witnesses, _ in warm)
    assert run_slice(cold=True) == warm
    monkeypatch.setattr(modules._MODULE_SOLUTIONS, "lookup", lambda key, compute: compute())
    assert run_slice(cold=False) == warm
    assert len(modules._MODULE_SOLUTIONS) == 0


def test_every_miss_and_only_a_miss_eliminates(monkeypatch):
    monkeypatch.setattr(modules, "CongruenceSystem", CountingSystem)
    CountingSystem.eliminations = 0
    run_slice(cold=False)
    stats = caches.stats()[TABLE]
    assert CountingSystem.eliminations == stats["misses"] == stats["entries"]
    # the slice poses most systems more than once
    assert stats["hits"] > stats["misses"] > 0


def test_a_returned_answer_is_not_the_stored_one():
    caches.clear_caches()
    target = FpModule(Zmod(4), (2, 4))
    mat = IntMatrix.from_rows([[1, 0], [2, 1]])
    columns = [[1, 0], [0, 1], [1, 1]]
    first = _solve_in_module_columns(target, mat, columns)
    assert first == solve_in_module_columns_oracle(target, mat, columns)
    expected = [list(part) for part in first]
    first[0][0] = 99
    first[1].append(7)
    first[2] = None
    again = _solve_in_module_columns(target, mat, columns)
    assert again == expected
    assert caches.stats()[TABLE] == {"entries": 1, "hits": 1, "misses": 1}
    assert all(a is not b for a, b in zip(again, _solve_in_module_columns(target, mat, columns)))


def zero_rows(cols: int):
    return FpModule(Zmod(4), ()), IntMatrix.from_rows([], cols=cols), [[]]


PAIRS = {
    # the zero module: no rows, and only the unknowns' count differs
    "zero-rows-column-count": (zero_rows(2), zero_rows(3)),
    # the same factors, entries and right-hand sides over Z and over Z/4
    "ring": ((FpModule(ZZ, (2, 4)), IntMatrix.from_rows([[1, 1], [2, 3]]), [[1, 2], [0, 3]]),
             (FpModule(Zmod(4), (2, 4)), IntMatrix.from_rows([[1, 1], [2, 3]]),
              [[1, 2], [0, 3]])),
    # the same matrix and right-hand side modulo different factors
    "target-factors": ((FpModule(Zmod(4), (4,)), IntMatrix.from_rows([[2]]), [[2]]),
                       (FpModule(Zmod(4), (2,)), IntMatrix.from_rows([[2]]), [[2]])),
    # the same system with other right-hand sides
    "columns": ((FpModule(Zmod(6), (6,)), IntMatrix.from_rows([[2, 3]]), [[1]]),
                (FpModule(Zmod(6), (6,)), IntMatrix.from_rows([[2, 3]]), [[4], [5]])),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_systems_that_differ_in_one_key_part_get_entries_of_their_own(name):
    caches.clear_caches()
    first, second = PAIRS[name]
    answers = [_solve_in_module_columns(*args) for args in (first, second)]
    assert caches.stats()[TABLE] == {"entries": 2, "hits": 0, "misses": 2}
    # read back in the other order, each from its own entry
    for args, answer in reversed(list(zip((first, second), answers))):
        assert _solve_in_module_columns(*args) == answer == solve_in_module_columns_oracle(*args)
    assert caches.stats()[TABLE] == {"entries": 2, "hits": 2, "misses": 2}
    # congruences modulo divisors of n have the same canonical solutions over
    # Z and over Z/n, so only the entry count tells the two rings apart
    assert (answers[0] == answers[1]) == (name == "ring")
