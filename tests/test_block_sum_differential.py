"""Block assembly and the lifting driver against the paths they replace.

``complexes._block_map`` computes a hom-complex differential, or from a
group's cycle inclusion in block coordinates the image of a chain-group
restriction in Hom^0, one product per block, and
``lifting._lifting_verdict`` decides whether the induced map is onto by the
section solve (with witnesses) or the rank or order test, taking a cokernel
only for a counterexample.  The oracles are the old paths, kept only as
tests: the sum of injection @ block @ projection over the blocks, composed
with the cycle inclusion as a second map (put in place of
``helpers.block_sum_oracle``, the one-product assembly that preceded
``_block_map``, inside ``helpers.hom_complex_data_oracle``), and the lifting
loop that builds the restriction matrix of every tested map
(``tests/helpers.induced_restriction``) and takes its cokernel first.
Matrices must agree bit for bit, and verdicts in ``holds``, ``checked``,
witnesses (sections included) and counterexample.
"""
from __future__ import annotations

import pytest

from homkit import complexes, lifting
from homkit.complexes import chain_map_group, disk, hom_complex_data, sphere
from homkit.exactalg import ZZ, IntMatrix, Zmod
from homkit.modules import FpModule, ModuleMap, cokernel, kernel
from homkit.xclass import ALL, ann, default_complex_universe, module_universe

from . import helpers
from .helpers import CONFIRM_CAPS, chain_group_compose, confirm_no_preimage, \
    first_outside_image, hom_complex_data_oracle, induced_restriction, \
    section_certificate, solve_in_module_columns_oracle
from .test_pool_differential import UNIVERSES, fresh_universe


def old_block_sum(src, tgt, blocks):
    total = IntMatrix.zero(tgt.module.ngens, src.module.ngens)
    for s, t, block in blocks:
        total = total + tgt.injections[t].matrix @ block @ src.projections[s].matrix
    return ModuleMap(src.module, tgt.module, total)


def old_chain_group_compose(g_from, g_to, phi, pre):
    if g_from._inclusion is None or g_to._inclusion is None:
        return ModuleMap.zero(g_from.module, g_to.module)
    src, tgt = g_from._hom0, g_to._hom0
    compose = complexes.hom_precompose if pre else complexes.hom_postcompose
    slots = {i: t for t, (i, _) in enumerate(tgt.blocks)}
    blocks = [(s, slots[i], compose(hm, tgt.blocks[slots[i]][1], phi.component(i)).matrix)
              for s, (i, hm) in enumerate(src.blocks) if i in slots]
    image = old_block_sum(src.sum, tgt.sum, blocks).compose(g_from._inclusion)
    parts = solve_in_module_columns_oracle(tgt.sum.module, g_to._inclusion.matrix,
                                           image.matrix.columns())
    assert all(part is not None for part in parts)
    return ModuleMap(g_from.module, g_to.module,
                     IntMatrix.from_columns(parts, rows=g_to.module.ngens))


def old_lifting_verdict(obj, x, u, pool, injective, keep_witnesses, *, level, hom,
                        member, finish=None):
    """The driver loop as it was: the cokernel of every tested map first."""
    side, role, part = ("extension", "mono", "cokernel") if injective \
        else ("lift", "epi", "kernel")
    kind = f"{level}-{side}"
    verdict = lifting.Verdict(True, u.describe() + f", class={x.key()}")
    # every entry of every block, a repeat block's too
    for phi, quotient in (entry for _, block in pool() for entry in block):
        if not member(x, quotient):
            continue
        restr, grp_from, grp_to, fn = induced_restriction(phi, obj, injective, hom)
        verdict.checked += 1
        cok, proj = cokernel(restr)
        if cok.is_zero():
            if keep_witnesses:
                verdict.witnesses.append({"kind": kind, role: phi, part: quotient,
                                          "section": section_certificate(restr)})
            continue
        f = grp_to.decode(first_outside_image(proj))
        confirm_no_preimage(grp_from, fn, f, CONFIRM_CAPS[level])
        verdict.holds = False
        verdict.counterexample = {"kind": kind, role: phi, "map": f}
        break
    if finish is not None:
        finish(verdict)
    return verdict


def pool_pairs(n: int, disk_bound: int) -> list:
    cu = fresh_universe(n, disk_bound)
    return [(phi, True) for phi, _ in cu.mono_pool()] + \
        [(psi, False) for psi, _ in cu.epi_pool()]


@pytest.mark.parametrize("n,disk_bound", UNIVERSES)
def test_hom_complex_differentials_match_block_by_block(n, disk_bound, monkeypatch):
    pairs = pool_pairs(n, disk_bound)
    data = [hom_complex_data(f.source, f.target) for f, _ in pairs]
    monkeypatch.setattr(helpers, "block_sum_oracle", old_block_sum)
    old = [hom_complex_data_oracle(f.source, f.target).complex.canonical_key()
           for f, _ in pairs]
    assert [d.complex.canonical_key() for d in data] == old
    # the pairs reach differentials between sums of several blocks
    assert any(len(deg.blocks) > 1 and k + 1 in d.degrees
               for d in data for k, deg in d.degrees.items())


@pytest.mark.parametrize("n,disk_bound", UNIVERSES)
def test_chain_group_compose_matches_block_by_block(n, disk_bound):
    nonzero = 0
    for phi, injective in pool_pairs(n, disk_bound):
        for obj in (phi.source, phi.target):
            grps = (chain_map_group(phi.target, obj), chain_map_group(phi.source, obj)) \
                if injective else (chain_map_group(obj, phi.source), chain_map_group(obj, phi.target))
            got = chain_group_compose(*grps, phi, pre=injective)
            want = old_chain_group_compose(*grps, phi, pre=injective)
            assert (got.source, got.target, got.matrix) == \
                (want.source, want.target, want.matrix)
            nonzero += not got.is_zero()
    assert nonzero


def verdict_record(v) -> tuple:
    return (v.holds, v.checked, v.universe, v.witnesses, v.counterexample, v.extra)


def both_verdicts(monkeypatch, check, *args, keep_witnesses):
    lifting._VERDICT_CACHE.clear()      # so that the new driver runs
    new = check(*args, keep_witnesses=keep_witnesses)
    with monkeypatch.context() as m:
        m.setattr(lifting, "_lifting_verdict", old_lifting_verdict)
        old = check(*args, keep_witnesses=keep_witnesses)
    return new, old


R4, R6 = Zmod(4), Zmod(6)
MODULE_CASES = [
    (FpModule(R4, f), x, module_universe(R4, 8))
    for f in [(2,), (4,), (2, 2), (2, 4)] for x in (ALL, ann(2))
] + [(FpModule(R6, f), ALL, module_universe(R6, 6)) for f in [(2,), (3,), (6,)]]

COMPLEX_CASES = [
    (sphere(0, FpModule(R4, (2,))), ALL),
    (sphere(0, FpModule(R4, (4,))), ALL),
    (disk(0, FpModule(R4, (4,))), ALL),
    (disk(0, FpModule(R4, (2,))), ann(2)),
    (sphere(1, FpModule(R6, (6,))), ALL),
    (disk(-1, FpModule(R6, (3,))), ALL),
]


@pytest.mark.parametrize("keep", [True, False], ids=["witnesses", "verdict-only"])
@pytest.mark.parametrize("check", [lifting.x_injective_module, lifting.x_projective_module],
                         ids=["injective", "projective"])
def test_module_verdicts_match_cokernel_first_loop(check, keep, monkeypatch):
    holds = set()
    for m, x, u in MODULE_CASES:
        new, old = both_verdicts(monkeypatch, check, m, x, u, keep_witnesses=keep)
        assert verdict_record(new) == verdict_record(old)
        holds.add(new.holds)
    assert holds == {True, False}


@pytest.mark.parametrize("keep", [True, False], ids=["witnesses", "verdict-only"])
@pytest.mark.parametrize("check", [lifting.x_injective_complex, lifting.x_projective_complex],
                         ids=["injective", "projective"])
def test_complex_verdicts_match_cokernel_first_loop(check, keep, monkeypatch):
    holds = set()
    for c, x in COMPLEX_CASES:
        cu = default_complex_universe(c.ring, c.support, full_bound=4, disk_bound=4)
        new, old = both_verdicts(monkeypatch, check, c, x, cu, keep_witnesses=keep)
        assert verdict_record(new) == verdict_record(old)
        holds.add(new.holds)
    assert holds == {True, False}


class HandMadeUniverse:
    """A universe given by its pools, for pools no module universe has."""

    def __init__(self, name: str, monos: list, epis: list):
        self.name, self._monos, self._epis = name, monos, epis
        self.ring = monos[0].source.ring

    def describe(self) -> str:
        return self.name

    def mono_pool(self) -> list:
        return [(f, cokernel(f)[0]) for f in self._monos]

    def epi_pool(self) -> list:
        return [(f, kernel(f).sub) for f in self._epis]


def hand_made(ring, maps: list) -> list:
    """The maps given as (source factors, target factors, rows)."""
    return [ModuleMap(FpModule(ring, s), FpModule(ring, t), IntMatrix.from_rows(rows))
            for s, t, rows in maps]


Z, Z2, Z6 = (0,), (2,), (6,)
# over Z, where module universes do not exist: Z/2 -> Z/6, multiplication
# by 2 on Z and the quotient maps onto Z/2
INTEGER_POOLS = HandMadeUniverse(
    "hand-made over Z",
    hand_made(ZZ, [(Z2, Z6, [[3]]), (Z, Z, [[2]])]),
    hand_made(ZZ, [(Z, Z2, [[1]]), (Z6, Z2, [[1]])]))
# over Z/4: the induced maps to Hom(-, Z/2) hit the first generator of the
# target group and miss the second
SPLIT_POOLS = HandMadeUniverse(
    "hand-made over Z/4",
    hand_made(R4, [((2, 2), (2, 4), [[1, 0], [0, 2]])]),
    hand_made(R4, [((2, 4), (2, 2), [[1, 0], [0, 1]])]))


@pytest.mark.parametrize("keep", [True, False], ids=["witnesses", "verdict-only"])
def test_hand_made_pools_match_cokernel_first_loop(keep, monkeypatch):
    outcomes = []
    for check, m, u in [(lifting.x_injective_module, FpModule(ZZ, (2,)), INTEGER_POOLS),
                        (lifting.x_injective_module, FpModule(ZZ, (3,)), INTEGER_POOLS),
                        (lifting.x_projective_module, FpModule(ZZ, (0,)), INTEGER_POOLS),
                        (lifting.x_projective_module, FpModule(ZZ, (4,)), INTEGER_POOLS),
                        (lifting.x_injective_module, FpModule(R4, (2,)), SPLIT_POOLS),
                        (lifting.x_projective_module, FpModule(R4, (2,)), SPLIT_POOLS)]:
        new, old = both_verdicts(monkeypatch, check, m, ALL, u, keep_witnesses=keep)
        assert verdict_record(new) == verdict_record(old)
        outcomes.append(new.holds)
    assert outcomes == [False, True, True, False, False, False]
