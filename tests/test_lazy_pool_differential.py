"""Lazy, prefix-memoised pools against the eager pool builder they replace.

``xclass._pool`` generates a pool's blocks, one per fixed member, behind a
replay holder (``xclass._Pool``), and it skips pairs by the
kernel/image/cokernel partition test as well as by components.  The oracle
is the old driver, kept only as a test: it builds the whole pool as a list,
skips pairs by the component test alone, and takes kernels through
``kernel(...)`` with its cokernel.  Pools must agree entry for entry however
they are read, and the four lifting checkers must give equal verdicts on
either pool.
"""
from __future__ import annotations

from functools import cached_property, partial

import pytest

from homkit import lifting
from homkit.complexes import _subcomplex, disk, sphere
from homkit.exactalg import Zmod, _val
from homkit.modules import FpModule, ModuleMap, _primes, cokernel, kernel
from homkit.xclass import (
    ALL,
    ComplexUniverse,
    ModuleUniverse,
    UniverseCapError,
    _Pool,
    _complex_parts,
    _fits,
    _hom_scan,
    _image,
    _kernel_elements,
    _pool,
    _shape,
    ann,
    chain_epis,
    chain_monos,
    cokernel_complex,
    kernel_complex,
)

from .test_pool_differential import UNIVERSES, fresh_universe


def old_support_embeds(a, b) -> bool:
    pairs = [(a, b)] if isinstance(a, FpModule) else \
        [(a.component(k), b.component(k)) for k in a.degrees()]
    for ma, mb in pairs:
        for p in _primes(a.ring.modulus):
            ea = sorted((_val(d, p) for d in ma.factors if d % p == 0), reverse=True)
            eb = sorted((_val(d, p) for d in mb.factors if d % p == 0), reverse=True)
            if len(ea) > len(eb) or any(x > y for x, y in zip(ea, eb)):
                return False
    return True


def old_pool(members: list, epi: bool, scan, close) -> list:
    pool = []
    for fixed in members:
        seen = set()
        for other in members:
            if other.is_zero() or not old_support_embeds(other, fixed):
                continue
            for key, decode in scan(*((fixed, other) if epi else (other, fixed))):
                if key not in seen:
                    seen.add(key)
                    f = decode()
                    pool.append((f, close(f)))
    return pool


def old_kernel_complex(psi):
    a = psi.source
    return _subcomplex(a, {k: kernel(psi.component(k)).inclusion for k in a.degrees()},
                       check=False)


def eager_pool(u, epi: bool) -> list:
    if isinstance(u, ModuleUniverse):
        return old_pool(u.members, epi, _hom_scan(_kernel_elements if epi else _image),
                        (lambda f: kernel(f).sub) if epi else (lambda f: cokernel(f)[0]))
    return old_pool(u.members, epi, chain_epis if epi else chain_monos,
                    old_kernel_complex if epi else cokernel_complex)


def entries(pool) -> list:
    return [((f.source, f.target, f.matrix) if isinstance(f, ModuleMap)
             else f.canonical_key(), q) for f, q in pool]


# the complex universes of the pool differential and their module universes
UNIVERSE_MAKERS = [pytest.param(lambda n=n, b=b: fresh_universe(n, b), id=f"complexes-{n}-{b}")
                   for n, b in UNIVERSES] + \
    [pytest.param(lambda n=n, b=b: ModuleUniverse(Zmod(n), b), id=f"modules-{n}-{b}")
     for n, b in UNIVERSES + [(n, 4) for n, _ in UNIVERSES] + [(2, 8), (12, 12)]]


@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("n,disk_bound", UNIVERSES)
def test_prefilter_cuts_only_empty_pairs(n, disk_bound, epi, record_property):
    cu = fresh_universe(n, disk_bound)
    shapes = [_shape(_complex_parts(c, epi)) for c in cu.members]
    scan = chain_epis if epi else chain_monos
    empty = cut = 0
    for j, fixed in enumerate(cu.members):
        for i, other in enumerate(cu.members):
            if other.is_zero() or not old_support_embeds(other, fixed):
                continue
            found = scan(*((fixed, other) if epi else (other, fixed)))
            empty += not found
            if not _fits(shapes[i], shapes[j]):
                assert not found, (other.describe(), fixed.describe())
                cut += 1
    assert cut
    # shown with `pytest -s` and in the junit report
    record_property("empty_pairs_cut", f"{cut} of {empty}")
    print(f"{'epi' if epi else 'mono'} prefilter on complexes({n}, {disk_bound}): "
          f"cuts {cut} of {empty} empty pairs")


def holder(u, epi: bool) -> _Pool:
    return u.epis if epi else u.monos


@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("make", UNIVERSE_MAKERS)
def test_fully_iterated_pools_match_eager(make, epi):
    u = make()
    want = entries(eager_pool(u, epi))
    assert want
    assert entries(holder(u, epi)) == want
    assert entries(u.epi_pool() if epi else u.mono_pool()) == want


@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("make", UNIVERSE_MAKERS)
def test_partial_reads_replay_and_drain(make, epi):
    u = make()
    want = entries(eager_pool(u, epi))
    pool = holder(u, epi)
    first = max(1, len(want) // 3)
    read = []
    for entry in pool:          # a reader that stops early
        read.append(entry)
        if len(read) == first:
            break
    assert entries(read) == want[:first]
    assert len(pool.entries) == first
    second = []
    for entry in pool:          # replays the prefix, then resumes
        second.append(entry)
        if len(second) == 2 * first + 1:
            break
    assert entries(second) == want[:2 * first + 1]
    assert second[:first] == read and all(x is y for x, y in zip(second, read))
    drained = u.epi_pool() if epi else u.mono_pool()
    assert entries(drained) == want
    assert drained is (u.epi_pool() if epi else u.mono_pool())
    assert drained is pool.entries
    assert entries(pool) == want


def test_a_raising_pool_raises_for_every_reader():
    cu = fresh_universe(4, 4)
    want = entries(eager_pool(cu, False))
    stop = want[len(want) // 2][0][1]       # the target of the entry the error cuts
    calls = {"failed": 0}

    def capped(a, b, first=False):
        if b.canonical_key() == stop:
            calls["failed"] += 1
            raise UniverseCapError("planted cap")
        return chain_monos(a, b, first=first)

    cu.monos = _Pool(lambda: pool_with_scan(cu, capped, epi=False))
    for _ in range(2):
        with pytest.raises(UniverseCapError, match="planted"):
            for _ in cu.monos:
                pass
        with pytest.raises(UniverseCapError, match="planted"):
            cu.mono_pool()
    assert calls["failed"] == 4
    produced = entries(cu.monos.entries)
    assert produced and produced == want[:len(produced)]


def test_a_transient_error_leaves_the_pool_whole():
    cu = fresh_universe(4, 4)
    want = entries(eager_pool(cu, True))
    left = {"errors": 1}

    def flaky(a, b, first=False):
        if left["errors"] and a.canonical_key() == want[len(want) // 2][0][0]:
            left["errors"] -= 1
            raise RuntimeError("transient")
        return chain_epis(a, b, first=first)

    cu.epis = _Pool(lambda: pool_with_scan(cu, flaky, epi=True))
    with pytest.raises(RuntimeError, match="transient"):
        cu.epi_pool()
    assert 0 < len(cu.epis.entries) < len(want)
    # the next reader restarts past the kept prefix and reads to the end
    assert entries(cu.epi_pool()) == want


def pool_with_scan(cu: ComplexUniverse, scan, epi: bool):
    """``ComplexUniverse``'s pool generator with another scan."""
    return _pool(cu.members, epi, scan, kernel_complex if epi else cokernel_complex,
                 partial(_complex_parts, epi=epi))


class EagerPool(list):
    """An oracle's pool list, handed to the checkers as one block that
    repeats nothing, so they read every entry."""

    def blocks(self):
        yield None, self


class EagerPools:
    """A universe whose pools are the oracle's lists."""

    def __init__(self, u):
        self.u, self.ring = u, u.ring

    @cached_property
    def monos(self) -> list:
        return EagerPool(eager_pool(self.u, False))

    @cached_property
    def epis(self) -> list:
        return EagerPool(eager_pool(self.u, True))

    def describe(self) -> str:
        return self.u.describe()

    def mono_pool(self) -> list:
        return self.monos

    def epi_pool(self) -> list:
        return self.epis


R4, R6 = Zmod(4), Zmod(6)
MODULE_CASES = [(FpModule(R4, f), x, 4, 8) for f in [(2,), (4,), (2, 2)] for x in (ALL, ann(2))] \
    + [(FpModule(R6, f), ALL, 6, 6) for f in [(2,), (6,)]]
COMPLEX_CASES = [
    (sphere(0, FpModule(R4, (2,))), ALL, 4, 4),
    (sphere(0, FpModule(R4, (4,))), ann(2), 4, 4),
    (disk(0, FpModule(R4, (4,))), ALL, 4, 4),
    (disk(-1, FpModule(R4, (2,))), ann(2), 4, 4),
    (sphere(0, FpModule(R6, (6,))), ALL, 6, 6),
    (disk(0, FpModule(R6, (3,))), ALL, 6, 6),
]


def verdict_record(v) -> tuple:
    return (v.holds, v.checked, v.universe, v.witnesses, v.counterexample, v.extra)


@pytest.mark.parametrize("keep", [True, False], ids=["witnesses", "verdict-only"])
@pytest.mark.parametrize("check", [
    lifting.x_injective_module, lifting.x_projective_module,
    lifting.x_injective_complex, lifting.x_projective_complex,
], ids=["injective-module", "projective-module", "injective-complex", "projective-complex"])
def test_checkers_match_on_eager_pools(check, keep):
    complexes = check in (lifting.x_injective_complex, lifting.x_projective_complex)
    lazy, eager = {}, {}
    holds = set()
    for obj, x, n, bound in COMPLEX_CASES if complexes else MODULE_CASES:
        if (n, bound) not in lazy:
            make = (lambda: fresh_universe(n, bound)) if complexes \
                else (lambda: ModuleUniverse(Zmod(n), bound))
            lazy[(n, bound)], eager[(n, bound)] = make(), EagerPools(make())
        lifting._VERDICT_CACHE.clear()      # so that both sides run
        new = check(obj, x, lazy[(n, bound)], keep_witnesses=keep)
        lifting._VERDICT_CACHE.clear()
        old = check(obj, x, eager[(n, bound)], keep_witnesses=keep)
        assert verdict_record(new) == verdict_record(old)
        holds.add(new.holds)
    assert holds == {True, False}
