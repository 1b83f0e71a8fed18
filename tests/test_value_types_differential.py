"""``IntMatrix`` and ``ModuleMap`` against the bodies they had before.

``IntMatrix`` builds rows and reads columns through ``zip`` and computes a
product entry as ``sum(map(mul, row, col))``; ``ModuleMap`` reduces and
checks each row in one pass.  The oracles in ``tests/helpers.py`` are the
old element-by-element bodies: on random shapes, 0 x k, k x 0 and empty
column lists included, every constructor and product must give the same
matrix, every mis-shaped input must still raise ``ExactAlgError``, and every
map must store the same reduced entries or raise the same message, which
names the least column j whose factor times column j survives.
"""
from __future__ import annotations

import json
import random

import pytest

from homkit.cli import main
from homkit.exactalg import ZZ, ExactAlgError, IntMatrix, Zmod
from homkit.modules import FpModule, ModuleError, ModuleMap

from .helpers import (
    col_oracle,
    from_columns_oracle,
    from_rows_oracle,
    int_matrix_oracle,
    matmul_oracle,
    module_map_check_oracle,
    small_modules,
    transpose_oracle,
)


def random_grid(rng: random.Random, rows: int, cols: int) -> list:
    return [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("seed", range(4))
def test_int_matrix_constructors_and_products_match_old_bodies(seed):
    rng = random.Random(seed)
    for _ in range(300):
        r, c, k = rng.randrange(5), rng.randrange(5), rng.randrange(5)
        grid = random_grid(rng, r, c)
        a = IntMatrix.from_rows(grid, cols=c)
        assert a == from_rows_oracle(grid, cols=c)
        # the columns of the same grid, as lists, tuples or an empty list
        columns = [[row[j] for row in grid] for j in range(c)]
        assert IntMatrix.from_columns(columns, rows=r) == from_columns_oracle(columns, rows=r) == a
        assert IntMatrix.from_columns([tuple(x) for x in columns], rows=r) == a
        assert a.transpose() == transpose_oracle(a)
        assert a.columns() == [col_oracle(a, j) for j in range(c)]
        assert all(a.col(j) == col_oracle(a, j) for j in range(c))
        b = IntMatrix.from_rows(random_grid(rng, c, k), cols=k)
        assert a @ b == matmul_oracle(a, b)
        assert (a @ b).entries == matmul_oracle(a, b).entries
        assert IntMatrix.zero(r, c) == int_matrix_oracle(r, c, tuple((0,) * c for _ in range(r)))


@pytest.mark.parametrize("k", range(4))
def test_empty_shapes(k):
    # k x 0 from no columns (solve_linear's empty particular solutions) and
    # 0 x k from no rows, and products through an inner dimension of 0
    empty_cols = IntMatrix.from_columns([], rows=k)
    assert (empty_cols.rows, empty_cols.cols, empty_cols.entries) == (k, 0, ((),) * k)
    assert empty_cols == from_columns_oracle([], rows=k)
    empty_rows = IntMatrix.from_rows([], cols=k)
    assert (empty_rows.rows, empty_rows.cols, empty_rows.entries) == (0, k, ())
    assert empty_rows == from_rows_oracle([], cols=k)
    assert empty_cols.transpose() == transpose_oracle(empty_cols) == IntMatrix.zero(0, k)
    assert empty_rows.transpose() == transpose_oracle(empty_rows) == IntMatrix.zero(k, 0)
    assert empty_cols.columns() == [] and empty_rows.columns() == [()] * k
    assert empty_cols @ empty_rows == matmul_oracle(empty_cols, empty_rows) == IntMatrix.zero(k, k)
    assert empty_rows @ empty_cols == IntMatrix.zero(0, 0)
    # k empty columns are 0 x k whatever row count is passed (5 x 0 for none)
    assert IntMatrix.from_columns([()] * k, rows=5) == from_columns_oracle([()] * k, rows=5) \
        == (IntMatrix.zero(0, k) if k else IntMatrix.zero(5, 0))


@pytest.mark.parametrize("build", [
    lambda: IntMatrix(2, 2, ((1, 2),)),
    lambda: IntMatrix(1, 2, ((1, 2), (3, 4))),
    lambda: IntMatrix(2, 2, ((1, 2), (3,))),
    lambda: IntMatrix(2, 2, ((1, 2), (3, 4, 5))),
    lambda: IntMatrix(0, 2, ((1, 2),)),
    lambda: IntMatrix(1, 0, ()),
    lambda: IntMatrix.from_rows([[1, 2], [3]]),
    lambda: IntMatrix.from_rows([[1], [2, 3]]),
    lambda: IntMatrix.from_rows([]),
    lambda: IntMatrix.from_columns([]),
    lambda: IntMatrix.from_columns([[1, 2], [3]]),
    lambda: IntMatrix.identity(2) @ IntMatrix.zero(3, 1),
    lambda: IntMatrix.zero(0, 1) @ IntMatrix.zero(0, 1),
], ids=["too-few-rows", "too-many-rows", "short-row", "long-row", "rows-for-0", "no-rows-for-1",
        "from-rows-short", "from-rows-long", "from-rows-no-count", "from-columns-no-count",
        "from-columns-short", "product-shapes", "empty-product-shapes"])
def test_mis_shaped_inputs_raise(build):
    with pytest.raises(ExactAlgError):
        build()


@pytest.mark.parametrize("build", [
    lambda: int_matrix_oracle(2, 2, ((1, 2),)),
    lambda: int_matrix_oracle(2, 2, ((1, 2), (3,))),
    lambda: from_rows_oracle([[1, 2], [3]]),
    lambda: from_rows_oracle([]),
    lambda: from_columns_oracle([]),
    lambda: matmul_oracle(IntMatrix.identity(2), IntMatrix.zero(3, 1)),
])
def test_old_bodies_refused_the_same_inputs(build):
    with pytest.raises(ExactAlgError):
        build()


def test_columns_of_different_lengths_are_refused():
    # the old from_columns read the first column's length: a longer later
    # column was cut short without a word, a shorter one raised IndexError
    assert from_columns_oracle([[1], [2, 3]]) == IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ExactAlgError, match="different lengths"):
        IntMatrix.from_columns([[1], [2, 3]])
    with pytest.raises(ExactAlgError, match="different lengths"):
        IntMatrix.from_columns([[1, 2], [3]], rows=2)


Z_MODULES = [FpModule(ZZ, f) for f in [(), (0,), (2,), (6,), (2, 0), (0, 0), (3, 6), (2, 2, 0)]]


@pytest.mark.parametrize("n", [0, 4, 6, 12])
def test_module_map_check_matches_old_loop(n):
    mods = Z_MODULES if n == 0 else small_modules(Zmod(n), 16)
    rng = random.Random(n)
    built = refused = 0
    for _ in range(1500):
        s, t = rng.choice(mods), rng.choice(mods)
        # small entries, many of them well defined
        grid = IntMatrix.from_rows([[rng.choice((0, 0, 1, 2, 3, -4, 6, 13)) for _ in s.factors]
                                    for _ in t.factors], cols=s.ngens)
        try:
            want = module_map_check_oracle(s, t, grid)
        except ModuleError as exc:
            with pytest.raises(ModuleError) as got:
                ModuleMap(s, t, grid)
            assert str(got.value) == str(exc)
            refused += 1
            continue
        f = ModuleMap(s, t, grid)
        assert f.matrix.entries == want
        assert f.matrix == IntMatrix(t.ngens, s.ngens, want)
        built += 1
    assert built > 100 and refused > 100


def test_a_reduced_matrix_is_kept():
    r4 = Zmod(4)
    s, t = FpModule(r4, (2, 4)), FpModule(r4, (4, 4))
    reduced = IntMatrix.from_rows([[2, 3], [0, 1]])
    assert ModuleMap(s, t, reduced).matrix is reduced
    f = ModuleMap(s, t, IntMatrix.from_rows([[6, -1], [4, 1]]))
    assert f.matrix == reduced and f.matrix.entries == ((2, 3), (0, 1))


# over Z/4, Z/2 + Z/2 -> Z/4 + Z/4: an entry is well defined iff it is
# even; the first row fails at column 1 and the second at column 0
BAD_ROWS = [[0, 1], [1, 0]]


def test_least_failing_column_is_named():
    r4 = Zmod(4)
    s, t = FpModule(r4, (2, 2)), FpModule(r4, (4, 4))
    message = "not well defined: factor 2 times column 0 survives in the target"
    with pytest.raises(ModuleError) as exc:
        module_map_check_oracle(s, t, IntMatrix.from_rows(BAD_ROWS))
    assert str(exc.value) == message
    with pytest.raises(ModuleError) as exc:
        ModuleMap(s, t, IntMatrix.from_rows(BAD_ROWS))
    assert str(exc.value) == message


def test_least_failing_column_reaches_the_command_line(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"ring": {"mod": 4}, "modules": {"0": [2, 2], "1": [4, 4]},
                                "diff": {"0": BAD_ROWS}}))
    assert main(["check", "exact", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not well defined: factor 2 times column 0 survives in the target" in err
