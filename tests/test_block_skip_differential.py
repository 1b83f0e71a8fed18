"""Witness-free complex lifting checks that skip a repeat block, against the
driver that reads every block.

A complex pool hands out its entries as one block per fixed member (the
target of the injections, the source of the surjections), each tagged with
the earlier member it is isomorphic to, or None.  Composing with that
isomorphism pairs the block's entries one to one with the earlier block's,
each with one of the same scanned member, an isomorphic cokernel (kernel)
and the same lifting answers, so ``lifting._lifting_verdict`` does not read a repeat block when
it keeps no witnesses: it adds the earlier block's ``checked`` count.

The oracle is the pool without any repeat skip
(``helpers.blocks_without_repeat_skip``, no block tagged), read by the same
checkers.  On five universes both must give the same verdicts, with
witnesses and without, and on one of them also for a ``pred:`` class; the
tags, read alone from a fresh pool or after the pool is built, must be the
repeats found by a brute-force isomorphism test; a reader that skips the
repeat blocks builds none of them, and the pool read afterwards is the
oracle's, entry for entry.
"""
from __future__ import annotations

import json
from itertools import islice

import pytest

from homkit import caches, lifting, xclass
from homkit.cli import complex_to_doc, main
from homkit.complexes import complex_isomorphic, disk, sphere
from homkit.exactalg import Zmod
from homkit.modules import FpModule
from homkit.xclass import ALL, ComplexUniverse, _window_complexes, ann, parse_class_spec

from .helpers import blocks_without_repeat_skip, pool_without_repeat_skip
from .test_pool_repeat_differential import isomorphic_by_brute_force, keys, plain

# (modulus, disk bound) of the universes: default_complex_universe(Z/n,
# (0, 1), full_bound=4, disk_bound=bound)
UNIVERSES = [(4, 4), (6, 4), (8, 4), (4, 8), (2, 8)]
IDS = [f"Z/{n}-disks<={b}" for n, b in UNIVERSES]
CHECKS = (lifting.x_injective_complex, lifting.x_projective_complex)


def fresh_universe(n: int, bound: int) -> ComplexUniverse:
    return ComplexUniverse(Zmod(n), 4, (0, 1), bound, (-1, 0, 1))


def probes(n: int) -> list:
    """The first 60 complexes of the window enumeration, then the free disks
    and spheres at degrees 0 and 1."""
    free = FpModule(Zmod(n), (n,))
    return list(islice(_window_complexes(Zmod(n), 4, (0, 1)), 60)) + \
        [disk(0, free), disk(1, free), sphere(0, free), sphere(1, free)]


def verdicts(n: int, cu: ComplexUniverse, keep: bool, classes: tuple = (ALL, ann(2))) -> list:
    out = []
    for c in probes(n):
        for x in classes:
            for check in CHECKS:
                lifting._VERDICT_CACHE.clear()      # so that every check runs
                v = check(c, x, cu, keep_witnesses=keep)
                out.append((v.holds, v.checked, v.universe, plain(v.witnesses),
                            plain(v.counterexample)))
    return out


def holder(cu: ComplexUniverse, epi: bool):
    return cu.epis if epi else cu.monos


def brute_force_tags(cu: ComplexUniverse) -> list:
    members = cu.members
    return [next((r for r in range(j) if not c.is_zero() and
                  isomorphic_by_brute_force(members[r], c)), None)
            for j, c in enumerate(members)]


# -- the gate ---------------------------------------------------------------

@pytest.mark.parametrize("n,bound", UNIVERSES, ids=IDS)
def test_verdicts_match_the_driver_that_reads_every_block(n, bound, monkeypatch):
    caches.clear_caches()
    with monkeypatch.context() as patched:
        patched.setattr(xclass, "_pool", blocks_without_repeat_skip)
        oracle = fresh_universe(n, bound)
        want = {keep: verdicts(n, oracle, keep) for keep in (False, True)}
    cu = fresh_universe(n, bound)
    for keep in (False, True):
        assert verdicts(n, cu, keep) == want[keep]
    assert {v[0] for v in want[False]} == {True, False}


def test_a_pred_class_matches_the_driver_that_reads_every_block(monkeypatch):
    """The skip needs class membership of a cokernel (kernel) to be invariant
    under isomorphism, as it is for a ``pred:`` class, a pattern on the
    invariant factors: here the cyclic modules (and zero)."""
    cyclic = (parse_class_spec("pred:[0-9]+"),)
    caches.clear_caches()
    with monkeypatch.context() as patched:
        patched.setattr(xclass, "_pool", blocks_without_repeat_skip)
        oracle = fresh_universe(4, 4)
        want = {keep: verdicts(4, oracle, keep, cyclic) for keep in (False, True)}
    cu = fresh_universe(4, 4)
    for keep in (False, True):
        assert verdicts(4, cu, keep, cyclic) == want[keep]
    assert {v[0] for v in want[False]} == {True, False}


@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("n,bound", UNIVERSES, ids=IDS)
def test_tags_are_the_repeats_however_the_pool_is_read(n, bound, epi, monkeypatch):
    want = brute_force_tags(fresh_universe(n, bound))
    assert any(t is not None for t in want)
    caches.clear_caches()
    cu = fresh_universe(n, bound)
    scans = []
    with monkeypatch.context() as patched:
        for name in ("chain_monos", "chain_epis"):
            scan = getattr(xclass, name)
            patched.setattr(xclass, name, lambda a, b, scan=scan: scans.append(1) or scan(a, b))
        alone = [repeat for repeat, _ in holder(cu, epi).blocks()]
    assert alone == want and not scans        # tags are taken without a scan
    caches.clear_caches()
    cu = fresh_universe(n, bound)
    holder(cu, epi).drained()
    assert [repeat for repeat, _ in holder(cu, epi).blocks()] == want


@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("n,bound", UNIVERSES, ids=IDS)
def test_skipped_blocks_are_built_by_a_later_reader(n, bound, epi):
    cu = fresh_universe(n, bound)
    want = keys(pool_without_repeat_skip(
        cu.members, epi, xclass.chain_epis if epi else xclass.chain_monos,
        xclass.kernel_complex if epi else xclass.cokernel_complex,
        lambda c: xclass._complex_parts(c, epi)))
    caches.clear_caches()
    cu = fresh_universe(n, bound)
    pool = holder(cu, epi)
    read = {}
    for j, (repeat, block) in enumerate(pool.blocks()):
        if repeat is None:
            read[j] = list(block)
    skipped = [b for repeat, b in pool.blocks() if repeat is not None]
    assert skipped and not any(b.entries for b in skipped)
    # a repeat block pairs with the block it repeats: the same scanned member
    # for each entry and, among the entries of one scanned member, isomorphic
    # cokernels (kernels) one to one
    scanned = (lambda f: f.target) if epi else (lambda f: f.source)
    for repeat, block in pool.blocks():
        if repeat is not None:
            entries = list(block)
            assert [scanned(f) for f, _ in entries] == [scanned(f) for f, _ in read[repeat]]
            unmatched = [(scanned(f), close) for f, close in read[repeat]]
            for f, close in entries:
                match = next(k for k, (m, other) in enumerate(unmatched)
                             if m == scanned(f) and complex_isomorphic(close, other))
                del unmatched[match]
    drained = cu.epi_pool() if epi else cu.mono_pool()
    assert keys(drained) == want
    assert drained is (cu.epi_pool() if epi else cu.mono_pool())
    assert keys(pool) == want


# -- the work a witness-free check does ---------------------------------------

def counting(monkeypatch) -> dict:
    counts = {"onto": 0, "cokernel_complex": 0}
    onto, close = lifting._onto, xclass.cokernel_complex

    def counted_onto(*args):
        counts["onto"] += 1
        return onto(*args)

    def counted_close(phi):
        counts["cokernel_complex"] += 1
        return close(phi)

    monkeypatch.setattr(lifting, "_onto", counted_onto)
    monkeypatch.setattr(xclass, "cokernel_complex", counted_close)
    caches.clear_caches()
    return counts


# the request "check x-injective --bound 4" of the benchmark's command-line
# mix at seed 1: the disk on the free module over Z/8 at degree 0
DISK_Z8 = disk(0, FpModule(Zmod(8), (8,)))


def test_a_passing_request_reads_about_half_the_pool(monkeypatch, tmp_path, capsys):
    counts = counting(monkeypatch)
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(complex_to_doc(DISK_Z8)))
    assert main(["check", "x-injective", "--bound", "4", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 456
    # the driver that reads every block: 456 tests over 477 entries
    assert counts["onto"] <= 220
    assert counts["cokernel_complex"] <= 240


def test_witnesses_turn_the_skip_off(monkeypatch):
    counts = counting(monkeypatch)
    cu = xclass.default_complex_universe(Zmod(8), DISK_Z8.support, full_bound=4, disk_bound=4)
    v = lifting.x_injective_complex(DISK_Z8, ALL, cu, keep_witnesses=True)
    assert v.holds and v.checked == len(v.witnesses) == counts["onto"] == 456
