"""Exact linear algebra kernels: normal forms and solvers."""
from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from homkit.exactalg import (
    _SNF_ENTRY_BITS,
    CongruenceSystem,
    EntrySizeCapError,
    ExactAlgError,
    IntMatrix,
    ZZ,
    Zmod,
    det,
    howell_form,
    smith_normal_form,
    solve_linear,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


small_matrix = st.integers(0, 5).flatmap(
    lambda r: st.integers(0 if r else 1, 5).flatmap(
        lambda c: st.lists(st.lists(st.integers(-20, 20), min_size=c, max_size=c),
                           min_size=r, max_size=r).map(
            lambda rows: IntMatrix.from_rows(rows, cols=c))))


class TestSmithNormalForm:
    def test_an_entry_past_the_cap_is_refused(self):
        top = (1 << _SNF_ENTRY_BITS) - 1          # the largest entry the cap lets through
        u, d, v = smith_normal_form(mat([[top, 0], [0, 1]]))
        assert d.to_lists() == [[1, 0], [0, top]]
        # the pivot is 2, and its row holds the entry past the cap
        with pytest.raises(EntrySizeCapError, match="pivot stage 0") as err:
            smith_normal_form(mat([[2, top + 1], [0, 3]]))
        assert isinstance(err.value, ExactAlgError)

    def test_diag_2_3(self):
        # oracle: d1 = gcd of entries, d1*d2 = |det|
        a = mat([[2, 0], [0, 3]])
        assert math.gcd(2, 3) == 1 and abs(det(a)) == 6
        u, d, v = smith_normal_form(a)
        assert d.to_lists() == [[1, 0], [0, 6]]
        assert (u @ a @ v).entries == d.entries

    def test_identity(self):
        a = IntMatrix.identity(2)
        _, d, _ = smith_normal_form(a)
        assert d.entries == a.entries

    def test_2468(self):
        # oracle: gcd of entries = 2, |det| = |16 - 24| = 8, so diag(2, 4)
        a = mat([[2, 4], [6, 8]])
        assert abs(det(a)) == 8
        _, d, _ = smith_normal_form(a)
        assert d.to_lists() == [[2, 0], [0, 4]]

    @settings(max_examples=200, deadline=None)
    @given(small_matrix)
    def test_snf_properties(self, a):
        u, d, v = smith_normal_form(a)
        assert (u @ a @ v).entries == d.entries
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        diag = [d.entries[i][i] for i in range(min(a.rows, a.cols))]
        for i in range(a.rows):
            for j in range(a.cols):
                if i != j:
                    assert d.entries[i][j] == 0
        for i, x in enumerate(diag):
            assert x >= 0
            if i + 1 < len(diag):
                if x == 0:
                    assert diag[i + 1] == 0
                else:
                    assert diag[i + 1] % x == 0


def row_span(rows, n, cols):
    vecs = {tuple([0] * cols)}
    frontier = [tuple([0] * cols)]
    gens = [r for r in rows if any(r)]
    while frontier:
        v = frontier.pop()
        for r in gens:
            w = tuple((a + b) % n for a, b in zip(v, r))
            if w not in vecs:
                vecs.add(w)
                frontier.append(w)
    return vecs


class TestHowellForm:
    def test_two_mod_four(self):
        h = howell_form(mat([[2]]), Zmod(4))
        assert h.to_lists() == [[2]]

    def test_zero_matrix(self):
        h = howell_form(IntMatrix.zero(2, 3), Zmod(4))
        assert h.is_zero()

    def test_already_howell(self):
        a = mat([[1, 1], [0, 2]])
        h = howell_form(a, Zmod(4))
        assert h.entries == a.entries
        assert len(row_span(a.to_lists(), 4, 2)) == 8

    def test_rejects_integers(self):
        with pytest.raises(ExactAlgError):
            howell_form(mat([[2]]), ZZ)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
           st.integers(0, 4), st.integers(1, 3), st.data())
    def test_span_preserved_idempotent_canonical(self, n, r, c, data):
        rows = [[data.draw(st.integers(0, n - 1)) for _ in range(c)] for _ in range(r)]
        a = IntMatrix.from_rows(rows, cols=c)
        ring = Zmod(n)
        h = howell_form(a, ring)
        assert row_span(a.to_lists(), n, c) == row_span(h.to_lists(), n, c)
        assert howell_form(h, ring).entries == h.entries
        # canonical: feeding the whole span back gives the same basis rows
        full = sorted(row_span(a.to_lists(), n, c))
        h2 = howell_form(IntMatrix.from_rows(full, cols=c), ring)
        nz = [list(row) for row in h.entries if any(row)]
        nz2 = [list(row) for row in h2.entries if any(row)]
        assert nz == nz2


class TestSolveLinear:
    def test_two_x_two_mod_four(self):
        # oracle: enumerate x in {0..3}: 2x = 2 holds for x in {1, 3}
        part, kern = solve_linear(mat([[2]]), mat([[2]]), Zmod(4))
        assert part.to_lists() == [[1]]
        assert kern.to_lists() == [[2]]

    def test_zero_equation(self):
        part, kern = solve_linear(mat([[0]]), mat([[0]]), Zmod(4))
        assert part.to_lists() == [[0]]
        assert kern.to_lists() == [[1]]

    def test_unsolvable(self):
        # oracle: 2x mod 4 ranges over {0, 2} only
        assert all((2 * x) % 4 != 1 for x in range(4))
        part, _ = solve_linear(mat([[2]]), mat([[1]]), Zmod(4))
        assert part is None

    def test_dimension_mismatch(self):
        with pytest.raises(ExactAlgError):
            solve_linear(mat([[1, 2]]), mat([[1], [2]]), Zmod(4))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
           st.integers(1, 3), st.integers(1, 3), st.data())
    def test_against_exhaustive_enumeration(self, n, r, c, data):
        rows = [[data.draw(st.integers(0, n - 1)) for _ in range(c)] for _ in range(r)]
        rhs = [[data.draw(st.integers(0, n - 1))] for _ in range(r)]
        a = IntMatrix.from_rows(rows, cols=c)
        b = IntMatrix.from_rows(rhs, cols=1)
        part, kern = solve_linear(a, b, Zmod(n))
        sols = [x for x in itertools.product(range(n), repeat=c)
                if all(sum(rows[i][j] * x[j] for j in range(c)) % n == rhs[i][0]
                       for i in range(r))]
        if part is None:
            assert not sols
        else:
            xs = tuple(part.entries[i][0] for i in range(c))
            assert xs in sols
            assert xs == min(sols)  # canonical solution is the least one
            kern_rows = [list(kern.col(j)) for j in range(kern.cols)]
            assert len(row_span(kern_rows, n, c)) == len(sols)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_integer_solutions(self, r, c, data):
        rows = [[data.draw(st.integers(-5, 5)) for _ in range(c)] for _ in range(r)]
        x0 = [data.draw(st.integers(-4, 4)) for _ in range(c)]
        a = IntMatrix.from_rows(rows, cols=c)
        b = IntMatrix.from_columns(
            [[sum(rows[i][j] * x0[j] for j in range(c)) for i in range(r)]])
        part, kern = solve_linear(a, b, ZZ)
        assert part is not None
        assert (a @ part).entries == b.entries
        for j in range(kern.cols):
            col = IntMatrix.from_columns([list(kern.col(j))])
            assert (a @ col).is_zero()

    @pytest.mark.parametrize("ring", [Zmod(4), ZZ], ids=str)
    def test_no_equations_keep_their_unknowns(self, ring):
        part, kern = solve_linear(IntMatrix.zero(0, 3), IntMatrix.zero(0, 2), ring)
        assert part == IntMatrix.zero(3, 2)
        assert kern == IntMatrix.identity(3)

    def test_determinism(self):
        a = mat([[2, 1, 3], [0, 2, 2]])
        b = mat([[3], [2]])
        results = {solve_linear(a, b, Zmod(4))[0].entries for _ in range(5)}
        assert len(results) == 1


class TestCongruenceSystem:
    def test_mixed_moduli_mod4(self):
        sys_ = CongruenceSystem(Zmod(4), 2)
        sys_.add({0: 1, 1: 1}, 1, 2)
        sys_.add({0: 2}, 2, 4)
        part, kern = sys_.solve()
        assert (part[0] + part[1]) % 2 == 1
        assert (2 * part[0]) % 4 == 2

    def test_modulus_must_divide(self):
        sys_ = CongruenceSystem(Zmod(4), 1)
        sys_.add({0: 1}, 0, 3)
        with pytest.raises(ExactAlgError):
            sys_.solve()

    @pytest.mark.parametrize("ring", [Zmod(6), ZZ], ids=str)
    def test_no_rows_solve_everything(self, ring):
        sys_ = CongruenceSystem(ring, 2)
        assert sys_.solve_columns([(), ()]) == ([[0, 0], [0, 0]], [[1, 0], [0, 1]])
        assert sys_.solve() == ([0, 0], [[1, 0], [0, 1]])

    def test_integer_rows(self):
        sys_ = CongruenceSystem(ZZ, 2)
        sys_.add({0: 1}, 1, 2)
        sys_.add({1: 3}, 0, 0)
        part, _ = sys_.solve()
        assert part[0] % 2 == 1 and part[1] == 0

    def test_negative_index_is_rejected(self):
        # it used to constrain the last unknown: x1 = 3 mod 4
        sys_ = CongruenceSystem(Zmod(4), 2)
        with pytest.raises(ExactAlgError, match="not in range"):
            sys_.add({-1: 1}, 3, 4)

    def test_index_past_the_unknowns_is_rejected_when_added(self):
        # it used to raise a bare IndexError at solve time
        sys_ = CongruenceSystem(ZZ, 2)
        with pytest.raises(ExactAlgError, match="not in range"):
            sys_.add({2: 1}, 0, 0)

    @pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=str)
    def test_negative_modulus_is_rejected(self, ring):
        # over Z it used to mean exact equality, over Z/4 the modulus 2
        sys_ = CongruenceSystem(ring, 1)
        with pytest.raises(ExactAlgError, match="modulus"):
            sys_.add({0: 1}, 1, -2)

    def test_non_integer_coefficient_is_rejected(self):
        # it used to "solve" 1.5 x0 = 3 with x0 = 3
        sys_ = CongruenceSystem(ZZ, 1)
        with pytest.raises(ExactAlgError, match="not an integer"):
            sys_.add({0: 1.5}, 3, 0)

    @pytest.mark.parametrize("factored", [False, True], ids=["system", "record"])
    def test_non_integer_right_hand_side_is_rejected(self, factored):
        # 2 x0 = b over Z used to "solve" the column [4.0] with x0 = 2.0
        sys_ = CongruenceSystem(ZZ, 1)
        sys_.add({0: 2}, 0, 0)
        solver = sys_.factor() if factored else sys_
        with pytest.raises(ExactAlgError, match="1 integer values"):
            solver.solve_columns([[4], [4.0]])
        assert solver.solve_columns([[4]])[0] == [[2]]
