"""Trial division stops at a fixed divisor, and a modulus it cannot factor exits 2.

``exactalg._factorize`` tries no divisor above ``_TRIAL_DIVISION_CAP``.  A
number it still factors gets the primes of the unbounded loop it replaced
(``factorize_oracle``).  A modulus such as 10^38 + 7, which is 751 times a
cofactor with no factor up to the cap, raises FactorizationCapError, and
``check dg-injective`` and ``build precover`` on it exit 2 with a message
after a bounded number of trial divisions, where they ran without end.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys

import pytest

from homkit import exactalg
from homkit.cli import main
from homkit.exactalg import _TRIAL_DIVISION_CAP, FactorizationCapError, _factorize

from .helpers import factorize_oracle

BIG = 10 ** 38 + 7


def test_numbers_below_twenty_thousand_factor_as_before():
    assert all(_factorize(n) == factorize_oracle(n) for n in range(1, 20000))


@pytest.mark.parametrize("n", [
    65521,                    # the largest prime below the cap
    65537,                    # a prime above the cap, below its square
    65521 * 65537,
    2 ** 32 - 5,              # the largest prime below 2^32
    2 ** 32, 2 ** 64, 3 ** 40 * 65537,
    (2 ** 16 + 1) ** 2 - 2,   # just below the square of the first divisor not tried
])
def test_numbers_within_the_cap_factor_as_before(n):
    assert _factorize(n) == factorize_oracle(n)


@pytest.mark.parametrize("n", [65537 ** 2, 3 * 65537 ** 2, 2 ** 61 - 1, BIG])
def test_a_cofactor_past_the_cap_is_refused(n):
    with pytest.raises(FactorizationCapError, match=f"cannot factor {n}"):
        _factorize(n)


class TooManyDivisions(Exception):
    pass


def run_counting_divisions(argv: list, limit: int) -> tuple:
    """(exit code, stderr, trial divisions) of one command.  A trial
    division is one test of ``_factorize``'s loop condition, counted by a
    line tracer on that function's frames alone; past ``limit`` the tracer
    raises TooManyDivisions, so a command that would not stop fails."""
    code = exactalg._factorize.__code__
    lines, first = inspect.getsourcelines(code)
    loop_line = first + next(i for i, text in enumerate(lines) if "while d * d" in text)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == loop_line:
            count += 1
            if count > limit:
                raise TooManyDivisions(f"more than {limit} trial divisions")
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    err = io.StringIO()
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            exit_code = main(argv)
    finally:
        sys.settrace(previous)
    return exit_code, err.getvalue(), count


@pytest.mark.parametrize("verb", [["check", "dg-injective"], ["build", "precover"]],
                         ids=" ".join)
def test_an_unfactorable_modulus_exits_two_after_bounded_work(tmp_path, verb):
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"ring": {"mod": BIG}, "modules": {"0": [BIG]}}))
    argv = verb + [str(doc)] + (["--output", str(tmp_path / "out")] if verb[0] == "build" else [])
    code, err, divisions = run_counting_divisions(argv, limit=4 * _TRIAL_DIVISION_CAP)
    assert code == 2
    assert f"cannot factor {BIG}" in err and "Traceback" not in err
    assert divisions <= _TRIAL_DIVISION_CAP + 1
