"""Pool scans against the per-pair, per-element path they replace.

The oracle is the scan as it stood before component keys and quotients
were shared, kept only as a test:

- a recursive walk over the group elements, one running sum per level;
- generators decoded into validated ``ModuleMap``s (``HomModule.decode``
  per Hom block) and flattened back into rows;
- component keys memoised per scanned pair only;
- cokernel and kernel complexes closed without a memo;
- every Smith normal form tracking all of u, u^-1 and v;
- the pool loop that scans every fitting pair, a repeated member's too
  (``helpers.pool_without_repeat_skip``).

Pools, raw scans and ``complex_isomorphic`` must agree with it exactly:
same entries in the same order, same representative maps and same closes,
whether a pool is read to the end or read in part and then replayed.

The oracle scans every pair to its end.  The pools stop a pair whose
members have the same order in every degree at its first passing map, and
read the parts of a zero differential off its ends; universes rich in such
pairs and such differentials are compared as well, together with the
repeat tags, and a guard bounds the group elements the scans walk.
"""
from __future__ import annotations

from functools import partial
from itertools import islice

import pytest

from homkit import caches, complexes, exactalg, modules
from homkit.complexes import (
    ChainMap,
    Complex,
    _subcomplex,
    chain_map_group,
    complex_isomorphic,
)
from homkit.exactalg import IntMatrix, Zmod
from homkit.modules import (
    ModuleMap,
    _kernel_inclusion,
    _sublattice_module,
    cokernel,
    cokernel_with_section,
    hom_module,
)
from homkit.xclass import (
    ComplexUniverse,
    ModuleUniverse,
    _complex_parts,
    _hom_scan,
    _image,
    _kernel_elements,
    _module_parts,
    chain_epis,
    chain_monos,
    default_complex_universe,
)

from .helpers import pool_without_repeat_skip
from .test_block_skip_differential import brute_force_tags
from .test_pool_repeat_differential import envelope_universe

# (modulus, disk bound) of the twelve complex pools, each read for monos and epis
POOLS = [(2, 8), (4, 4), (4, 8), (6, 4), (8, 4), (9, 4)]
MODULE_RINGS = [2, 4, 6, 8, 9, 12]
FULL_TRACKING = exactalg._snf_core


# -- the oracle -----------------------------------------------------------

def old_scan_maps(module, family, shapes: list) -> list:
    """The recursive walk over ``module.elements()``, with every generator
    decoded by ``family`` into ``ModuleMap``s and flattened."""
    mods = [e for _, ncols, fac in shapes for e in fac for _ in range(ncols)]
    ngens = module.ngens
    gens = []
    for g in range(ngens):
        maps = family(tuple(1 if t == g else 0 for t in range(ngens)))
        gens.append([x for k, ncols, fac in shapes
                     for row in (maps[k].matrix.entries if k in maps else [[0] * ncols] * len(fac))
                     for x in row])

    def walk(i: int, elem: tuple, vec: list):
        if i < ngens:
            for c in range(module.factors[i]):
                yield from walk(i + 1, elem + (c,), vec)
                vec = [x + y for x, y in zip(vec, gens[i])]
            return
        vec = [x % m if m else x for x, m in zip(vec, mods)]
        blocks, pos = {}, 0
        for k, ncols, fac in shapes:
            blocks[k] = tuple(tuple(vec[pos + r * ncols: pos + (r + 1) * ncols])
                              for r in range(len(fac)))
            pos += ncols * len(fac)
        yield elem, blocks

    return list(walk(0, (), [0] * len(mods)))


def old_family(grp, elem) -> dict:
    """The nonzero maps of a chain-map group element, each Hom block
    decoded by ``HomModule.decode``."""
    if grp._inclusion is None:
        return {}
    data = grp._hom0
    coords = grp._inclusion.apply(elem)
    maps = {i: hm.decode(data.sum.projections[idx].apply(coords))
            for idx, (i, hm) in enumerate(data.blocks)}
    return {i: f for i, f in maps.items() if not f.is_zero()}


def old_decode(grp, elem):
    if hasattr(grp, "pairs"):        # a HomModule
        return grp.decode(elem)
    return ChainMap(grp.source, grp.target, old_family(grp, elem), check=False)


def old_group_scan(grp) -> list:
    if hasattr(grp, "pairs"):        # a HomModule
        return old_scan_maps(grp.module, lambda elem: {0: grp.decode(elem)},
                             [(0, grp.source.ngens, grp.target.factors)])
    shapes = [(k, grp.source.component(k).ngens, grp.target.component(k).factors)
              for k in grp.source.degrees() if not grp.target.component(k).is_zero()]
    return old_scan_maps(grp.module, partial(old_family, grp), shapes)


def old_pool_scan(grp, components: list, component_key) -> list:
    parts = {}
    out = []
    for elem, blocks in old_group_scan(grp):
        key = []
        for k, src, tgt in components:
            rows = blocks.get(k)
            if (k, rows) not in parts:
                parts[(k, rows)] = component_key(src, tgt, rows)
            part = parts[(k, rows)]
            if part is None:
                break
            key.append((k, part))
        else:
            out.append((tuple(key), partial(old_decode, grp, elem)))
    return out


def old_chain_monos(a, b) -> list:
    return old_pool_scan(chain_map_group(a, b),
                         [(k, a.component(k), b.component(k)) for k in a.degrees()], _image)


def old_chain_epis(a, b) -> list:
    degrees = sorted(set(a.degrees()) | set(b.degrees()))
    return old_pool_scan(chain_map_group(a, b),
                         [(k, a.component(k), b.component(k)) for k in degrees],
                         _kernel_elements)


def old_hom_scan(component_key):
    return lambda a, b: old_pool_scan(hom_module(a, b), [(0, a, b)], component_key)


def old_cokernel_complex(phi) -> Complex:
    b = phi.target
    data = {k: cokernel_with_section(phi.component(k)) for k in b.degrees()}
    comps = {k: d[0] for k, d in data.items()}
    diffs = {}
    for k in b.degrees():
        if (k + 1) not in data or data[k][0].is_zero() or data[k + 1][0].is_zero():
            continue
        cok, proj, section = data[k]
        cok2, proj2, _ = data[k + 1]
        diffs[k] = ModuleMap(cok, cok2, proj2.matrix @ b.differential(k).matrix @ section)
    return Complex(b.ring, comps, diffs, check=False)


def old_kernel_complex(psi) -> Complex:
    a = psi.source
    return _subcomplex(a, {k: _kernel_inclusion(psi.component(k))[1] for k in a.degrees()},
                       check=False)


def old_isomorphic(a, b) -> bool:
    if a.degrees() != b.degrees():
        return False
    if any(a.component(k).factors != b.component(k).factors for k in a.degrees()):
        return False

    def iso(k: int, rows: tuple) -> bool:
        src, tgt = a.component(k), b.component(k)
        f = ModuleMap(src, tgt, IntMatrix(tgt.ngens, src.ngens, rows))
        return f.is_mono() and f.is_epi()

    return any(all(iso(k, blocks[k]) for k in a.degrees())
               for _, blocks in old_group_scan(chain_map_group(a, b)))


@pytest.fixture
def oracle(monkeypatch):
    """Run a callable on the old path: empty caches and full Smith tracking;
    the caches are emptied again afterwards, so the path under test builds
    its own."""
    def run(fn):
        caches.clear_caches()
        full = lambda m, cols, left=True, right=True: FULL_TRACKING(m, cols)
        with monkeypatch.context() as patched:
            patched.setattr(exactalg, "_snf_core", full)
            patched.setattr(modules, "_snf_core", full)
            out = fn()
        caches.clear_caches()
        return out
    return run


def old_complex_pool(cu: ComplexUniverse, epi: bool) -> list:
    return list(pool_without_repeat_skip(cu.members, epi,
                                         old_chain_epis if epi else old_chain_monos,
                                         old_kernel_complex if epi else old_cokernel_complex,
                                         partial(_complex_parts, epi=epi)))


def old_module_pool(u: ModuleUniverse, epi: bool) -> list:
    return list(pool_without_repeat_skip(
        u.members, epi, old_hom_scan(_kernel_elements if epi else _image),
        (lambda f: _kernel_inclusion(f)[0]) if epi else (lambda f: cokernel(f)[0]),
        _module_parts))


def fresh_universe(n: int, disk_bound: int) -> ComplexUniverse:
    return ComplexUniverse(Zmod(n), full_bound=4, full_window=(0, 1),
                           disk_bound=disk_bound, disk_degrees=(-1, 0, 1))


def keys(pool) -> list:
    return [(f.canonical_key(), c.canonical_key()) for f, c in pool]


# -- the gate ---------------------------------------------------------------

@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("n,disk_bound", POOLS)
def test_complex_pools_match_the_old_scan(n, disk_bound, epi, oracle):
    want = keys(oracle(lambda: old_complex_pool(fresh_universe(n, disk_bound), epi)))
    assert want
    cu = fresh_universe(n, disk_bound)
    assert keys(cu.epi_pool() if epi else cu.mono_pool()) == want
    # read in part by one reader, then replayed and drained by another
    caches.clear_caches()
    cu = fresh_universe(n, disk_bound)
    holder = cu.epis if epi else cu.monos
    first = max(1, len(want) // 3)
    assert keys(islice(holder, first)) == want[:first]
    assert keys(holder) == want


@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("n", MODULE_RINGS)
def test_module_pools_match_the_old_scan(n, epi, oracle):
    want = oracle(lambda: old_module_pool(ModuleUniverse(Zmod(n), 8), epi))
    assert want
    u = ModuleUniverse(Zmod(n), 8)
    assert (u.epi_pool() if epi else u.mono_pool()) == want


def test_module_pools_leave_the_component_table_alone():
    caches.clear_caches()
    ModuleUniverse(Zmod(12), 8).mono_pool()
    ModuleUniverse(Zmod(12), 8).epi_pool()
    assert caches.stats()["xclass.component_keys"]["entries"] == 0


@pytest.mark.parametrize("n", MODULE_RINGS)
def test_raw_hom_scans_match_the_old_walk(n):
    members = ModuleUniverse(Zmod(n), 8).members
    for a in members:
        for b in members:
            hm = hom_module(a, b)
            assert list(hm._scan()) == old_group_scan(hm), (a.describe(), b.describe())


def test_raw_chain_group_scans_match_the_old_walk():
    members = fresh_universe(4, 4).members
    scanned = 0
    for a in members:
        for b in members:
            grp = chain_map_group(a, b)
            if grp.module.size() > 1 << 10:
                continue
            assert list(grp._scan()) == old_group_scan(grp), (a.describe(), b.describe())
            scanned += 1
    assert scanned > 1000


def test_complex_isomorphic_matches_the_old_scan_on_pool_pairs():
    cu = fresh_universe(4, 4)
    complexes = {c.canonical_key(): c for c in cu.members}
    for _, close in cu.mono_pool() + cu.epi_pool():
        complexes.setdefault(close.canonical_key(), close)
    shape = lambda c: [(k, c.component(k).factors) for k in c.degrees()]
    seen = {True: 0, False: 0}
    for a in complexes.values():
        for b in complexes.values():
            if shape(a) == shape(b):
                got = complex_isomorphic(a, b)
                assert got == old_isomorphic(a, b), (a.describe(), b.describe())
                seen[got] += 1
    assert seen[True] and seen[False]


# -- pairs of equal order and zero differentials ------------------------------

# complex universes rich in pairs whose members have the same order in every
# degree: the envelope search's over Z/2 at disk bound 8, and the command
# line's default ones over Z/8 and Z/12
EQUAL_ORDER_UNIVERSES = {
    "envelope Z/2": envelope_universe,
    "default Z/8": partial(ComplexUniverse, Zmod(8), 4, (0, 1), 8, (-1, 0, 1)),
    "default Z/12": partial(ComplexUniverse, Zmod(12), 4, (0, 1), 8, (-1, 0, 1)),
}
EQUAL_ORDER_MODULES = [(4, 16), (8, 16), (12, 12)]


def old_complex_parts(c: Complex, epi: bool) -> dict:
    """``_complex_parts`` by the presentation route alone, zero
    differentials included."""
    out = {}
    for k in set(c.degrees()) | {k - 1 for k in c.degrees()}:
        d = c.differential(k)
        out[(k, "component")] = c.component(k)
        out[(k, "image")] = _sublattice_module(d.target, d.matrix)[0]
        out[(k, "cokernel" if epi else "kernel")] = \
            cokernel(d)[0] if epi else _kernel_inclusion(d)[0]
    return out


def test_the_default_universes_are_the_command_line_ones():
    for n in (8, 12):
        assert EQUAL_ORDER_UNIVERSES[f"default Z/{n}"]().describe() == \
            default_complex_universe(Zmod(n), (0, 1)).describe()


@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("name", list(EQUAL_ORDER_UNIVERSES))
def test_equal_order_complex_pools_match_the_old_scan(name, epi, oracle):
    make = EQUAL_ORDER_UNIVERSES[name]
    want = keys(oracle(lambda: old_complex_pool(make(), epi)))
    assert want
    cu = make()
    holder = cu.epis if epi else cu.monos
    assert keys(holder.drained()) == want
    tags = [repeat for repeat, _ in holder.blocks()]
    assert tags == brute_force_tags(cu) and any(t is not None for t in tags)


@pytest.mark.parametrize("epi", [False, True], ids=["mono", "epi"])
@pytest.mark.parametrize("n,bound", EQUAL_ORDER_MODULES)
def test_equal_order_module_pools_match_the_old_scan(n, bound, epi, oracle):
    want = oracle(lambda: old_module_pool(ModuleUniverse(Zmod(n), bound), epi))
    assert want
    u = ModuleUniverse(Zmod(n), bound)
    assert (u.epi_pool() if epi else u.mono_pool()) == want
    assert all(repeat is None for repeat, _ in (u.epis if epi else u.monos).blocks())


@pytest.mark.parametrize("make", [*EQUAL_ORDER_UNIVERSES.values(),
                                  *(partial(fresh_universe, n, b) for n, b in POOLS)])
def test_complex_parts_match_the_presentation_route(make):
    zeros = 0
    for c in make().members:
        zeros += sum(c.differential(k).is_zero() for k in c.degrees())
        for epi in (False, True):
            assert _complex_parts(c, epi) == old_complex_parts(c, epi), c.describe()
    assert zeros


@pytest.mark.parametrize("n", [4, 9])
def test_a_first_entry_scan_is_the_full_scan_cut_to_one(n):
    scans = {"complex": (chain_monos, chain_epis),
             "module": (_hom_scan(_image), _hom_scan(_kernel_elements))}
    universes = {"complex": fresh_universe(n, 4).members,
                 "module": ModuleUniverse(Zmod(n), 16).members}
    found = 0
    for kind, members in universes.items():
        for a in members:
            for b in members:
                group = chain_map_group(a, b) if kind == "complex" else hom_module(a, b)
                if group.module.size() > 1 << 10:
                    continue
                for scan in scans[kind]:
                    full, first = scan(a, b), scan(a, b, first=True)
                    assert [(key, decode()) for key, decode in first] == \
                        [(key, decode()) for key, decode in full[:1]]
                    found += len(full) > 1
    assert found


def walked(monkeypatch, drain) -> int:
    """The group elements ``_scan_maps`` yields while ``drain()`` runs, from
    empty caches."""
    count = [0]
    scan = modules._scan_maps

    def counted(*args):
        for item in scan(*args):
            count[0] += 1
            yield item

    caches.clear_caches()
    with monkeypatch.context() as patched:
        patched.setattr(modules, "_scan_maps", counted)
        patched.setattr(complexes, "_scan_maps", counted)
        drain()
    caches.clear_caches()
    return count[0]


def test_equal_order_pairs_are_not_scanned_to_their_end(monkeypatch):
    # the pools walk 440 and 5,077 elements; scanning every pair to its end
    # walks 1,344 and 8,471 (repeat tests included)
    u = ModuleUniverse(Zmod(4), 8)
    assert walked(monkeypatch, lambda: (u.mono_pool(), u.epi_pool())) <= 500
    assert walked(monkeypatch, lambda: envelope_universe().mono_pool()) <= 5800
