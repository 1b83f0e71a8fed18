"""Complex pools that skip a member isomorphic to an earlier one, against
the pool that scans every pair.

``xclass._pool`` scans no pair whose member (the source of the injections,
the target of the surjections) is isomorphic to an earlier member: every
key of such a pair is already seen.  The oracle is the pool without that
skip (``helpers.blocks_without_repeat_skip``).  On the complex universes of
``test_pool_differential.py``, the default universes of the command line's
pool-bound checks and the universe of the envelope search of sphere(0, Z/2),
both pools give the same entries in the same order, read whole, in part and
replayed, and the lifting checks over them give the same verdicts.  A
brute-force isomorphism test, which does not call ``complex_isomorphic``,
confirms that the skipped members are exactly the repeats.
"""
from __future__ import annotations

from functools import partial
from itertools import islice, product
from types import SimpleNamespace

import pytest

from homkit import caches, xclass
from homkit.complexes import disk, sphere
from homkit.construct import _ambient_injective
from homkit.exactalg import Zmod
from homkit.lifting import x_injective_complex, x_projective_complex
from homkit.modules import FpModule, hom_module
from homkit.xclass import (
    ALL,
    ComplexUniverse,
    UniverseCapError,
    _complex_parts,
    _fits,
    _shape,
    default_complex_universe,
)

from .helpers import blocks_without_repeat_skip


def envelope_universe() -> ComplexUniverse:
    """The universe ``x_injective_envelope`` checks sphere(0, Z/2) against
    at the command line's default bound of 8."""
    lo, hi = _ambient_injective(sphere(0, FpModule(Zmod(2), (2,))))[0].support
    return ComplexUniverse(Zmod(2), 4, (lo, lo + 1), 8, tuple(range(lo - 1, hi + 1)))


# name -> (modulus, a maker of a fresh universe)
UNIVERSES = {
    # the universes of test_pool_differential.py
    **{f"Z/{n}": (n, partial(ComplexUniverse, Zmod(n), 4, (0, 1), n, (-1, 0)))
       for n in (4, 6, 8, 9)},
    # default_complex_universe(Z/n, (0, 1), full_bound=4, disk_bound=4): the
    # command line's "check x-injective/x-projective --bound 4" on a disk
    "default Z/8": (8, partial(ComplexUniverse, Zmod(8), 4, (0, 1), 4, (-1, 0, 1))),
    "default Z/6": (6, partial(ComplexUniverse, Zmod(6), 4, (0, 1), 4, (-1, 0, 1))),
    "envelope Z/2": (2, envelope_universe),
}
SIDES = pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])


def holder(cu: ComplexUniverse, epi: bool):
    return cu.epis if epi else cu.monos


def keys(entries) -> list:
    return [(f.canonical_key(), close.canonical_key()) for f, close in entries]


def unskipped(monkeypatch, make, read):
    """``read`` of a fresh universe whose pools scan every pair, from empty
    caches; the caches are emptied again afterwards."""
    caches.clear_caches()
    with monkeypatch.context() as patched:
        patched.setattr(xclass, "_pool", blocks_without_repeat_skip)
        out = read(make())
    caches.clear_caches()
    return out


def plain(x):
    """A verdict's witnesses or counterexample with maps and complexes
    replaced by their canonical keys."""
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x.canonical_key() if hasattr(x, "canonical_key") else x


def verdicts(n: int, cu: ComplexUniverse) -> list:
    ring = Zmod(n)
    p = min(d for d in range(2, n + 1) if n % d == 0)
    out = []
    for c in (disk(0, FpModule(ring, (n,))), sphere(0, FpModule(ring, (n,))),
              sphere(0, FpModule(ring, (p,))), cu.members[-1]):
        for check in (x_injective_complex, x_projective_complex):
            v = check(c, ALL, cu, keep_witnesses=True)
            out.append((v.holds, v.checked, plain(v.witnesses), plain(v.counterexample)))
    return out


def signature(c) -> tuple:
    return tuple((k, c.component(k).factors) for k in c.degrees())


def isomorphic_by_brute_force(a, b) -> bool:
    """Whether some family of bijections a^k -> b^k, found by counting
    images, commutes with the differentials on every element."""
    if signature(a) != signature(b):
        return False
    degs = a.degrees()

    def bijections(k: int) -> list:
        src, tgt = a.component(k), b.component(k)
        hm = hom_module(src, tgt)
        maps = (hm.decode(e) for e in hm.module.elements())
        return [f for f in maps if len({f.apply(x) for x in src.elements()}) == tgt.size()]

    for fs in product(*(bijections(k) for k in degs)):
        f = dict(zip(degs, fs))
        if all(b.differential(k).apply(f[k].apply(x)) == f[k + 1].apply(a.differential(k).apply(x))
               for k in degs if k + 1 in f for x in a.component(k).elements()):
            return True
    return False


def recorded_pairs(monkeypatch, cu: ComplexUniverse, epi: bool) -> list:
    """Drain a pool of ``cu``, recording each pair it scans as (fixed
    member, scanned member) indices; a UniverseCapError is re-raised with
    the pairs attached."""
    index = {c.canonical_key(): i for i, c in enumerate(cu.members)}
    name = "chain_epis" if epi else "chain_monos"
    scan = getattr(xclass, name)
    pairs = []

    def recording(a, b, first=False):
        fixed, other = (a, b) if epi else (b, a)
        pairs.append((index[fixed.canonical_key()], index[other.canonical_key()]))
        return scan(a, b, first=first)

    with monkeypatch.context() as patched:
        patched.setattr(xclass, name, recording)
        try:
            holder(cu, epi).drained()
        except UniverseCapError as exc:
            exc.pairs = pairs
            raise
    return pairs


def fitting_pairs(cu: ComplexUniverse, epi: bool) -> list:
    """The (fixed, member) pairs the pool would scan without the skip."""
    shapes = [_shape(_complex_parts(c, epi)) for c in cu.members]
    return [(j, i) for j in range(len(cu.members)) for i, c in enumerate(cu.members)
            if not c.is_zero() and _fits(shapes[i], shapes[j])]


def skipped_members(pairs: list, cu: ComplexUniverse, epi: bool) -> set:
    fits = fitting_pairs(cu, epi)
    scanned = set(pairs)
    assert [p for p in fits if p in scanned] == pairs
    skipped = {i for j, i in fits if (j, i) not in scanned}
    # a skipped member is skipped in every pair
    assert not any(i in skipped for _, i in pairs)
    return skipped


# -- the gate ---------------------------------------------------------------

def pools_and_verdicts(n: int, cu: ComplexUniverse) -> tuple:
    checks = verdicts(n, cu)
    return keys(cu.mono_pool()), keys(cu.epi_pool()), checks


@pytest.mark.parametrize("name", list(UNIVERSES))
def test_pools_and_verdicts_match_the_unskipped_pool(name, monkeypatch):
    n, make = UNIVERSES[name]
    want = unskipped(monkeypatch, make, partial(pools_and_verdicts, n))
    assert want[0] and want[1]
    assert {holds for holds, *_ in want[2]} == {True, False}
    caches.clear_caches()
    assert pools_and_verdicts(n, make()) == want
    # each pool read in part by one reader, then replayed and drained by another
    caches.clear_caches()
    cu = make()
    for epi, entries in ((False, want[0]), (True, want[1])):
        first = max(1, len(entries) // 3)
        assert keys(islice(holder(cu, epi), first)) == entries[:first]
        assert keys(holder(cu, epi)) == entries


def test_default_universes_are_the_command_line_ones():
    for n in (8, 6):
        assert UNIVERSES[f"default Z/{n}"][1]().describe() == \
            default_complex_universe(Zmod(n), (0, 1), full_bound=4, disk_bound=4).describe()


@SIDES
@pytest.mark.parametrize("name", ["Z/4", "Z/9", "default Z/8", "default Z/6", "envelope Z/2"])
def test_skipped_members_are_exactly_the_repeats(name, epi, monkeypatch):
    caches.clear_caches()
    cu = UNIVERSES[name][1]()
    skipped = skipped_members(recorded_pairs(monkeypatch, cu, epi), cu, epi)
    members = cu.members
    repeats = {i for i, c in enumerate(members) if not c.is_zero() and
               any(isomorphic_by_brute_force(members[r], c) for r in range(i))}
    assert skipped == repeats
    assert skipped


def test_the_z8_mono_pool_builds_fewer_chain_map_groups(monkeypatch):
    make = UNIVERSES["default Z/8"][1]
    misses = lambda: caches.stats()["complexes.chain_map_group"]["misses"]
    before = unskipped(monkeypatch, make, lambda cu: (cu.mono_pool(), misses())[1])
    caches.clear_caches()
    make().mono_pool()
    assert misses() <= 340 < before


@SIDES
def test_a_group_over_the_cap_raises_at_the_unskipped_pair(epi, monkeypatch):
    """Groups between complexes of disk(0, Z/4)'s components report a size
    over the scan cap, as an isomorphism-invariant size would: the repeat
    test does not scan them, and the pool raises at the pair where the pool
    without the skip raises, after the same entries."""
    make = UNIVERSES["default Z/8"][1]
    big = signature(disk(0, FpModule(Zmod(8), (4,))))
    caches.clear_caches()
    cu = make()
    skipped = skipped_members(recorded_pairs(monkeypatch, cu, epi), cu, epi)
    assert any(signature(cu.members[i]) == big for i in skipped)
    group = xclass.chain_map_group

    def inflated(a, b):
        if signature(a) == signature(b) == big:
            return SimpleNamespace(module=SimpleNamespace(size=lambda: xclass._SCAN_CAP + 1))
        return group(a, b)

    def raising_pair(cu):
        with pytest.raises(UniverseCapError) as err:
            recorded_pairs(monkeypatch, cu, epi)
        return err.value.pairs[-1], keys(holder(cu, epi).entries)

    with monkeypatch.context() as patched:
        patched.setattr(xclass, "chain_map_group", inflated)
        want = unskipped(monkeypatch, make, raising_pair)
        caches.clear_caches()
        got = raising_pair(make())
    assert got == want
    assert want[1]
