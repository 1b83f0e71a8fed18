"""The hom complex's differential against the loop it replaces.

``hom_complex_data`` builds each block of the differential from
``hom_postcompose`` by d_y and ``hom_precompose`` by d_x.  The oracle is the
old construction, kept only as a test: it decodes every generator of each
hom block, composes it with the differential, negates it where the sign
needs it and encodes it again.  Both must give the same complex.
"""
from __future__ import annotations

import random

import pytest

from homkit.complexes import Complex, hom_complex_data
from homkit.exactalg import IntMatrix, Zmod
from homkit.modules import ModuleMap
from homkit.xclass import ComplexUniverse


def oracle_hom_complex(x: Complex, y: Complex, degrees) -> Complex:
    """The hom complex with the old generator-by-generator differential on
    the components of ``hom_complex_data``."""
    data = hom_complex_data(x, y, degrees)
    deg_data = data.degrees
    diffs = {}
    for n, d in deg_data.items():
        if (n + 1) not in deg_data:
            continue
        tgt = deg_data[n + 1]
        sign = -1 if n % 2 else 1
        total = None
        for idx, (i, hm) in enumerate(d.blocks):
            for tidx, (ti, thm) in enumerate(tgt.blocks):
                if ti not in (i, i - 1):
                    continue
                cols = []
                for g in range(hm.module.ngens):
                    f = hm.decode(tuple(1 if t == g else 0 for t in range(hm.module.ngens)))
                    if ti == i:
                        piece = y.differential(i + n).compose(f)
                    else:
                        piece = f.compose(x.differential(i - 1))
                        piece = -piece if sign == 1 else piece
                    cols.append(thm.encode(piece))
                mat = IntMatrix.from_columns(cols, rows=thm.module.ngens)
                term = tgt.sum.injections[tidx].compose(
                    ModuleMap(hm.module, thm.module, mat)).compose(d.sum.projections[idx])
                total = term if total is None else total + term
        if total is not None:
            diffs[n] = total
    comps = {n: d.sum.module for n, d in deg_data.items()}
    return Complex(x.ring, comps, diffs, check=False)


def pairs(n: int, count: int) -> list:
    members = ComplexUniverse(Zmod(n), full_bound=4, full_window=(0, 1),
                              disk_bound=n, disk_degrees=(-1, 0)).members
    every = [(a, b) for a in members for b in members]
    if len(every) <= count:
        return every
    return random.Random(n).sample(every, count)


@pytest.mark.parametrize("degrees", [None, (0, 1), (-1, 0, 1)], ids=["all", "01", "-101"])
@pytest.mark.parametrize("n,count", [(4, 400), (6, 400), (9, 400)])
def test_differential_matches_oracle(n, count, degrees):
    nonzero = 0
    for x, y in pairs(n, count):
        built = hom_complex_data(x, y, degrees).complex
        assert built.canonical_key() == oracle_hom_complex(x, y, degrees).canonical_key()
        nonzero += any(not built.differential(k).is_zero() for k in built.degrees())
    assert nonzero
