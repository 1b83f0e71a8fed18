"""Membership oracles for the distinguished class of modules, plus the finite
universes that make universally quantified properties checkable.

Every "for all modules/complexes" statement downstream is evaluated over a
declared universe, and each verdict records which universe was used, so the
results are reproducible claims rather than absolute ones.
"""
from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial
from itertools import islice, product as iproduct
from typing import Callable, Iterator, Optional, Sequence, Tuple

from . import caches
from .exactalg import IntMatrix, RingSpec, _val
from .modules import (
    FpModule,
    ModuleError,
    ModuleMap,
    _kernel_inclusion,
    _primes,
    _sublattice_module,
    cokernel,
    cokernel_with_section,
    hom_module,
    image_order,
)
from .complexes import (
    ChainMap,
    Complex,
    Homotopy,
    _composite,
    _subcomplex,
    chain_map_group,
    complex_isomorphic,
    disk,
    exact_at,
    null_homotopy,
    sphere,
    zero_complex,
)
from .values import Frozen


DEFAULT_MODULE_SIZE_CAP = 64
DEFAULT_WINDOW_CAP = 5


_RAISED_CAP: ContextVar = ContextVar("homkit_raised_cap", default=None)


def hard_module_cap() -> int:
    """The cap of an enclosing ``raised_module_cap``, else ``HOMKIT_CAP``
    when it is set and not empty, else the default.  ``HOMKIT_CAP`` must be
    an ASCII decimal integer of at least 1; any other value is a
    UniverseCapError."""
    raised = _RAISED_CAP.get()
    if raised is not None:
        return raised
    env = os.environ.get("HOMKIT_CAP")
    if not env:
        return DEFAULT_MODULE_SIZE_CAP
    if not re.fullmatch("[0-9]+", env) or int(env) < 1:
        raise UniverseCapError(f"HOMKIT_CAP={env!r} is not a decimal integer of at least 1")
    return int(env)


@contextmanager
def raised_module_cap(cap: int):
    """Within the block, and only there, ``hard_module_cap()`` is ``cap``."""
    token = _RAISED_CAP.set(cap)
    try:
        yield
    finally:
        _RAISED_CAP.reset(token)


class UniverseCapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Class specifications
# ---------------------------------------------------------------------------

class XClassSpec(Frozen):
    """Decidable membership predicate on invariant-factor lists.

    Kinds: ``all``, ``zero``, ``free``, ``ann`` (annihilated by the given
    integer) and ``pred`` (a full-match regex on the comma-joined factor
    list).  Built-in kinds always contain the zero module; for ``pred``
    classes that choice is an explicit toggle.
    """

    _fields = ("kind", "param", "pattern", "zero_is_member")

    def __init__(self, kind: str, param: Optional[int] = None, pattern: Optional[str] = None,
                 zero_is_member: bool = True) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "zero_is_member", zero_is_member)
        if kind not in ("all", "zero", "free", "ann", "pred"):
            raise ModuleError(f"unknown class kind {kind!r}")
        if kind == "ann" and (param is None or param < 1):
            raise ModuleError("ann class needs a positive annihilator")
        if kind == "pred":
            if pattern is None:
                raise ModuleError("pred class needs a pattern")
            try:
                re.compile(pattern)
            except re.error as exc:
                raise ModuleError(f"invalid pred pattern {pattern!r}: {exc}") from None

    def key(self) -> str:
        if self.kind == "ann":
            return f"ann:{self.param}"
        if self.kind == "pred":
            suffix = "" if self.zero_is_member else "!0"
            return f"pred:{self.pattern}{suffix}"
        return self.kind


ALL = XClassSpec("all")
ZERO_ONLY = XClassSpec("zero")
FREE = XClassSpec("free")


def ann(p: int) -> XClassSpec:
    return XClassSpec("ann", param=p)


def parse_class_spec(text: str) -> XClassSpec:
    text = text.strip()
    if text == "all":
        return ALL
    if text == "zero":
        return ZERO_ONLY
    if text == "free":
        return FREE
    if text.startswith("ann:"):
        try:
            param = int(text[4:])
        except ValueError:
            raise ModuleError(f"cannot parse class spec {text!r}") from None
        return ann(param)
    if text.startswith("pred:"):
        return XClassSpec("pred", pattern=text[5:])
    raise ModuleError(f"cannot parse class spec {text!r}")


def contains_module(x: XClassSpec, m: FpModule) -> bool:
    if m.is_zero():
        return True if x.kind != "pred" else x.zero_is_member
    if x.kind == "all":
        return True
    if x.kind == "zero":
        return False
    if x.kind == "free":
        unit = m.ring.modulus if m.ring.is_modular else 0
        return all(d == unit for d in m.factors)
    if x.kind == "ann":
        return all(d != 0 and x.param % d == 0 for d in m.factors)
    rendered = ",".join(str(d) for d in m.factors)
    return re.fullmatch(x.pattern, rendered) is not None


def contains_complex(x: XClassSpec, c: Complex) -> bool:
    """True when every component (including the zero ones) belongs to the
    class; for ``all`` without visiting them."""
    if x.kind == "all":
        return True
    if not contains_module(x, FpModule.zero(c.ring)):
        return False
    return all(contains_module(x, c.component(k)) for k in c.degrees())


# ---------------------------------------------------------------------------
# Module universes
# ---------------------------------------------------------------------------

def _factor_chains(n: int, bound: int) -> list:
    """All divisibility chains of divisors of n with product <= bound."""
    out = [()]
    # a chain's factors are at most its product, so larger divisors never fit
    divs = [d for d in range(2, min(n, bound) + 1) if n % d == 0]

    def extend(prefix: tuple, prod: int):
        for d in divs:
            if prefix and d % prefix[-1] != 0:
                continue
            if prod * d > bound:
                continue
            chain = prefix + (d,)
            out.append(chain)
            extend(chain, prod * d)

    extend((), 1)
    return sorted(set(out), key=lambda f: (math.prod(f) if f else 1, len(f), f))


class ModuleUniverse:
    """Every isomorphism class of module over Z/n with at most ``size_bound``
    elements, enumerated exactly once in a deterministic order."""

    def __init__(self, ring: RingSpec, size_bound: int):
        if not ring.is_modular:
            raise ModuleError("module universes require a modular ring")
        if size_bound < 1:
            raise UniverseCapError("size bound must be at least 1")
        if size_bound > hard_module_cap():
            raise UniverseCapError(
                f"size bound {size_bound} exceeds the hard cap {hard_module_cap()} "
                "(set HOMKIT_CAP to override)")
        self.ring = ring
        self.size_bound = size_bound
        self._members: Optional[list] = None
        self.monos = _Pool(lambda: _pool(self.members, False, _hom_scan(_image),
                                         lambda f: cokernel(f)[0], _module_parts))
        self.epis = _Pool(lambda: _pool(self.members, True, _hom_scan(_kernel_elements),
                                        lambda f: _kernel_inclusion(f)[0], _module_parts))

    @property
    def members(self) -> list:
        if self._members is None:
            chains = _factor_chains(self.ring.modulus, self.size_bound)
            self._members = [FpModule(self.ring, f) for f in chains]
        return self._members

    def describe(self) -> str:
        return f"modules({self.ring}, size<={self.size_bound})"

    def mono_pool(self) -> list:
        """Injections between members, one per image, with their cokernels."""
        return self.monos.drained()

    def epi_pool(self) -> list:
        """Surjections between members, one per kernel, with their kernels."""
        return self.epis.drained()


_MODULE_UNIVERSES = caches.table("xclass.module_universes")


def module_universe(ring: RingSpec, size_bound: int) -> ModuleUniverse:
    # a universe built under a raised cap must not be served at a lower one
    return _MODULE_UNIVERSES.lookup((ring, size_bound, hard_module_cap()),
                                    lambda: ModuleUniverse(ring, size_bound))


def enumerate_modules(u: ModuleUniverse) -> Iterator[FpModule]:
    yield from u.members


def enumerate_homs(a: FpModule, b: FpModule) -> list:
    hm = hom_module(a, b)
    size = hm.module.size()
    if size is None or size > _HOM_SET_CAP:
        raise UniverseCapError("hom set too large to enumerate")
    return list(hm.elements())


def enumerate_monos(a: FpModule, b: FpModule) -> list:
    """All injective homomorphisms a -> b, in deterministic order."""
    sa, sb = a.size(), b.size()
    if sa is None or sb is None:
        raise UniverseCapError("mono enumeration needs finite modules")
    if sa > sb:
        return []
    return [f for f in enumerate_homs(a, b) if f.is_mono()]


def enumerate_epis(a: FpModule, b: FpModule) -> list:
    sa, sb = a.size(), b.size()
    if sa is None or sb is None:
        raise UniverseCapError("epi enumeration needs finite modules")
    if sa < sb:
        return []
    return [f for f in enumerate_homs(a, b) if f.is_epi()]


# ---------------------------------------------------------------------------
# Complex universes
# ---------------------------------------------------------------------------

def _window_complexes(ring: RingSpec, bound: int, window: Tuple[int, int],
                      exact: bool = False) -> Iterator[Complex]:
    """Every nonzero complex on the degrees of ``window`` with components in
    ``module_universe(ring, bound)``: component tuples in product order and,
    for each, the differential tuples with d o d = 0 in product order (each
    Hom set in element order), found depth first so a nonzero d o d, read
    off reduced raw rows (``_composite``), prunes every tuple that extends
    it.

    With ``exact``, only the complexes exact at every degree of the window,
    in the same order, walked exact.  Over Z/n a complex with d o d = 0 is
    exact at k iff |im d^(k-1)| * |im d^k| = |C^k| (``exact_at``), so d^k is
    taken only when its image order, counted once per Hom set of the walk,
    is |C^k| / |im d^(k-1)|, with |im d^(lo-1)| = 1, and d^(hi-1) only when
    that order is also |C^hi|; only the maps taken are decoded."""
    lo, hi = window
    degs = range(lo, hi + 1)
    hom_sets = {}     # (source, target) -> its _Arrows, shared by the tuples of the walk

    def arrows(a: FpModule, b: FpModule) -> _Arrows:
        if (a, b) not in hom_sets:
            hom_sets[(a, b)] = _Arrows(hom_module(a, b))
        return hom_sets[(a, b)]

    def tuples(homs: list, sizes: list, diffs: list, below: int) -> Iterator[list]:
        k = len(diffs)
        if k == len(homs):
            yield diffs
            return
        order = None
        if exact:
            order = sizes[k] // below
            if k == len(homs) - 1 and order != sizes[k + 1]:
                return
        for d in homs[k].maps(order):
            if not diffs or not any(map(any, _composite(d, diffs[-1]))):
                yield from tuples(homs, sizes, diffs + [d], order)

    for comps in iproduct(module_universe(ring, bound).members, repeat=len(degs)):
        if all(m.is_zero() for m in comps):
            continue
        homs = [arrows(a, b) for a, b in zip(comps, comps[1:])]
        for diffs in tuples(homs, [m.size() for m in comps], [], 1):
            yield Complex(ring, dict(zip(degs, comps)), dict(zip(degs, diffs)), check=False)


class _Arrows:
    """The maps of one Hom set in element order, each decoded at its first
    use.  ``maps(None)`` yields them all; ``maps(order)`` those whose image
    has that order, from image orders counted at the first such call."""

    __slots__ = ("_hm", "_maps", "_by_order")

    def __init__(self, hm):
        self._hm = hm
        self._maps = dict.fromkeys(hm.module.elements())
        self._by_order: Optional[dict] = None

    def maps(self, order: Optional[int]) -> Iterator[ModuleMap]:
        if order is None:
            picked = self._maps
        else:
            if self._by_order is None:
                hm, self._by_order = self._hm, {}
                for elem, blocks in hm._scan():
                    mat = IntMatrix.from_rows(blocks[0], cols=hm.source.ngens)
                    self._by_order.setdefault(image_order(hm.target, mat), []).append(elem)
            picked = self._by_order.get(order, ())
        for elem in picked:
            f = self._maps[elem]
            if f is None:
                f = self._maps[elem] = self._hm.decode(elem)
            yield f


class ComplexUniverse:
    """A finite universe of bounded complexes.

    Contains the full enumeration of complexes supported on a short window of
    consecutive degrees (components drawn from a module universe) together
    with all disks and spheres on the members of a second, usually larger,
    module universe.  The disk family is what ties complex-level lifting back
    to module-level lifting degree by degree.
    """

    def __init__(self, ring: RingSpec, full_bound: int = 4,
                 full_window: Tuple[int, int] = (0, 1),
                 disk_bound: int = 8,
                 disk_degrees: Optional[Sequence[int]] = None):
        lo, hi = full_window
        if hi - lo + 1 > DEFAULT_WINDOW_CAP:
            raise UniverseCapError("full enumeration window exceeds the cap")
        self.ring = ring
        self.full_bound = full_bound
        self.full_window = full_window
        self.disk_bound = disk_bound
        if disk_degrees is None:
            disk_degrees = range(lo - 1, hi + 1)
        self.disk_degrees = tuple(disk_degrees)
        self._members: Optional[list] = None
        self.monos = _Pool(lambda: _pool(self.members, False, chain_monos, cokernel_complex,
                                         partial(_complex_parts, epi=False)))
        self.epis = _Pool(lambda: _pool(self.members, True, chain_epis, kernel_complex,
                                        partial(_complex_parts, epi=True)))

    def describe(self) -> str:
        return (f"complexes({self.ring}, full<= {self.full_bound} on "
                f"{list(range(self.full_window[0], self.full_window[1] + 1))}, "
                f"disks/spheres<={self.disk_bound} at {list(self.disk_degrees)})")

    @property
    def members(self) -> list:
        if self._members is not None:
            return self._members
        seen = []
        keys = set()

        def push(c: Complex):
            k = c.canonical_key()
            if k not in keys:
                keys.add(k)
                seen.append(c)

        push(zero_complex(self.ring))
        for c in _window_complexes(self.ring, self.full_bound, self.full_window):
            push(c)
        wide = module_universe(self.ring, self.disk_bound)
        for m in wide.members:
            if m.is_zero():
                continue
            for k in self.disk_degrees:
                push(disk(k, m))
                push(sphere(k, m))
            push(sphere(self.disk_degrees[-1] + 1, m))
        self._members = seen
        return self._members

    def mono_pool(self) -> list:
        """Degreewise injective chain maps between members, one per image
        subcomplex, with their degreewise cokernel complexes."""
        return self.monos.drained()

    def epi_pool(self) -> list:
        """Degreewise surjective chain maps between members, one per kernel
        subcomplex, with their kernel complexes."""
        return self.epis.drained()


class _Replay:
    """A generator produced on demand and memoised by prefix.

    ``make()`` returns a fresh generator.  Iterating replays the items
    produced so far and then resumes the one shared generator, so every
    reader sees the same items in the same order and each item is built
    once; a reader that stops early (a lifting test at its first
    counterexample) builds only the prefix it read.  A generator that raises
    is never taken for a complete one: the next reader that needs more items
    restarts it past the kept prefix and meets the same error again.
    """

    __slots__ = ("entries", "complete", "_make", "_source")

    def __init__(self, make: Callable[[], Iterator]):
        self.entries: list = []
        self.complete = False
        self._make = make
        self._source: Optional[Iterator] = None

    def __iter__(self) -> Iterator:
        i = 0
        while i < len(self.entries) or self._grow():
            yield self.entries[i]
            i += 1

    def _grow(self) -> bool:
        """Append the next item; False once the generator is exhausted."""
        if self.complete:
            return False
        if self._source is None:
            self._source = islice(self._make(), len(self.entries), None)
        try:
            self.entries.append(next(self._source))
        except StopIteration:
            self.complete = True
            return False
        except BaseException:
            self._source = None
            raise
        return True


class _Pool:
    """A universe pool, one block per fixed member.

    ``make()`` returns a fresh generator of ``(repeat, make_block)`` per
    fixed member (``_pool``).  ``blocks()`` replays them as ``(repeat,
    block)``, each block a ``_Replay`` of ``make_block()``, and takes a tag
    only when a reader first reaches its block; a reader that skips a block
    builds none of it, and a later reader builds it when it reads it.
    Iterating the pool reads the blocks in order, every entry in pool order.
    """

    __slots__ = ("_blocks", "_drained")

    def __init__(self, make: Callable[[], Iterator[tuple]]):
        self._blocks = _Replay(lambda: ((repeat, _Replay(block)) for repeat, block in make()))
        self._drained: Optional[list] = None

    def blocks(self) -> Iterator[tuple]:
        return iter(self._blocks)

    def __iter__(self) -> Iterator[tuple]:
        for _, block in self._blocks:
            yield from block

    @property
    def entries(self) -> list:
        """The entries built so far in pool order: those of the blocks up to
        the first one not built to its end, and that one's prefix."""
        if self._drained is not None:
            return self._drained
        out = []
        for _, block in self._blocks.entries:
            out += block.entries
            if not block.complete:
                break
        return out

    def drained(self) -> list:
        """The whole pool: one list of its entries, built to the end."""
        if self._drained is None:
            self._drained = list(self)
        return self._drained


def _pool(members: list, epi: bool, scan, close, parts) -> Iterator[tuple]:
    """The mono pool (epi pool when ``epi``) of a universe, as one
    ``(repeat, make_block)`` per member b (source a), in member order:
    ``make_block()`` generates, for each nonzero member a (target b) that
    can embed in it (be a quotient of it), the first map a -> b per image
    (kernel) key of ``scan(a, b, first=...)``, with ``close`` of it, its
    cokernel (kernel); ``repeat`` is the earliest member b (a) is isomorphic
    to, or None.

    Maps from (onto) zero impose no lifting constraint.  Two injections with
    the same image differ by an automorphism of the source (two surjections
    with the same kernel by one of the target), which changes no universal
    lifting test, so keeping one per key is lossless.  A pair is scanned
    only if each group of ``parts`` of the smaller member embeds in the
    matching group of the larger (``_fits``), which every injection
    (surjection) between them needs.  A pair whose members have the same
    order in every degree (a module counts as one degree) is scanned only
    up to its first passing map (``first=True``): every injection
    (surjection) between them is bijective in each degree, so an
    isomorphism, and each has the one key "everything" ("zero"); its first
    map is the pair's one entry, or none when that key is already seen.

    Nor is a pair scanned whose member m (the source of the injections,
    the target of the surjections) is isomorphic to an earlier member r:
    an isomorphism between them turns each injection m -> b into one
    r -> b with the same image, and each surjection a -> m into one a -> r
    with the same kernel, and r, of the same shape, was scanned against
    the same fixed member before m, so every key of the pair is already
    seen.  On the fixed side the same argument pairs the entries of the
    block of a member isomorphic to r one to one with r's, with the same
    scanned member (in the same order), isomorphic cokernels (kernels) and
    so the same lifting answers; a reader that needs only those may skip
    the block.  Which earlier member a member repeats is decided once per
    pool by ``_Repeats``, which serves this function alone, bucketed by
    shape (each component's factors among them), so the earliest member of
    each isomorphism class represents it however the pool is read; the
    members of a module universe have pairwise distinct shapes, so a module
    pool never tests one.
    """
    shapes = [_shape(parts(m)) for m in members]
    orders = [_orders(m) for m in members]
    first = _Repeats(shapes, lambda r, i: _isomorphic(members[r], members[i], epi))

    def block(j: int) -> Iterator[tuple]:
        seen = set()
        for i, other in enumerate(members):
            if other.is_zero() or not _fits(shapes[i], shapes[j]) or first(i) != i:
                continue
            pair = (members[j], other) if epi else (other, members[j])
            for key, decode in scan(*pair, first=orders[i] == orders[j]):
                if key not in seen:
                    seen.add(key)
                    f = decode()
                    yield f, close(f)

    for j in range(len(members)):
        r = first(j)
        yield (None if r == j else r), partial(block, j)


class _Repeats:
    """The repeat tags of one pool's blocks (``_pool``, its one user): the
    earliest member each member of a list is isomorphic to, decided lazily.
    Called with index i, it returns that member's index, or i when no
    earlier member is isomorphic to it.

    ``shapes[i]`` is the ``_shape`` of member i, an isomorphism invariant,
    and ``isomorphic(r, i)`` decides whether member i is isomorphic to the
    earlier member r.  Member i is tested only against the earlier members
    of its shape that repeat none, and only after every earlier member of
    its shape is decided, in index order; so the earliest member of each
    class represents it in whatever order the indices are asked.
    """

    def __init__(self, shapes: list, isomorphic: Callable[[int, int], bool]):
        self._keys = [frozenset(shape.items()) for shape in shapes]
        self._isomorphic = isomorphic
        self._same = {}       # shape -> its members, in index order
        for i, key in enumerate(self._keys):
            self._same.setdefault(key, []).append(i)
        self._firsts = {}     # shape -> its decided members that repeat none
        self._earliest = {}   # member index -> the earliest member isomorphic to it

    def __call__(self, i: int) -> int:
        if i not in self._earliest:
            firsts = self._firsts.setdefault(self._keys[i], [])
            for j in self._same[self._keys[i]]:
                if j > i:
                    break
                if j not in self._earliest:
                    self._earliest[j] = next((r for r in firsts if self._isomorphic(r, j)), j)
                    if self._earliest[j] == j:
                        firsts.append(j)
        return self._earliest[i]


def _orders(m) -> tuple:
    """The order of each nonzero component of a complex, in degree order, or
    the order of a module as one degree."""
    if isinstance(m, FpModule):
        return (m.size(),)
    return tuple((k, m.component(k).size()) for k in m.degrees())


def _isomorphic(earlier: Complex, member: Complex, epi: bool) -> bool:
    """Whether ``member`` is isomorphic to ``earlier``, read off the group
    of chain maps the pool scans for the two: ``earlier`` into ``member``,
    or ``member`` onto ``earlier`` when ``epi``.  A group beyond
    ``_pool_scan``'s cap counts as not isomorphic, so the pool raises at
    the pair where it raises without the skip."""
    a, b = (member, earlier) if epi else (earlier, member)
    size = chain_map_group(a, b).module.size()
    return size is not None and size <= _SCAN_CAP and complex_isomorphic(a, b)


def _exponents(m: FpModule, p: int) -> list:
    """Exponents of p in the invariant factors of m, largest first."""
    return tuple(sorted((_val(d, p) for d in m.factors if d % p == 0), reverse=True))


def _shape(parts: dict) -> dict:
    """The exponent partition at each prime of each module of ``parts``,
    keyed (part, prime), leaving out the empty ones."""
    out = {}
    for key, m in parts.items():
        for p in _primes(m.ring.modulus):
            exps = _exponents(m, p)
            if exps:
                out[(key, p)] = exps
    return out


def _fits(small: dict, big: dict) -> bool:
    """Whether every group of the shape ``small`` embeds in the group of the
    shape ``big`` under the same key.

    A finite abelian p-group embeds in another iff its exponent partition
    lies inside the other's, part by part, and it is a quotient of another
    iff it embeds in it (Macdonald, *Symmetric Functions and Hall
    Polynomials*, 1995, ch. II); so one test serves injections and
    surjections alike.
    """
    for key, ea in small.items():
        eb = big.get(key, ())
        if len(ea) > len(eb) or any(x > y for x, y in zip(ea, eb)):
            return False
    return True


def _module_parts(m: FpModule) -> dict:
    """The one group a module pool compares: the module itself."""
    return {0: m}


def _complex_parts(c: Complex, epi: bool) -> dict:
    """The groups of c that a degreewise injection into (surjection onto) a
    complex needs to embed in (be quotients of) the matching groups there:
    for each d^k with a nonzero end, the component C^k, the image of d^k
    and its kernel (its cokernel when ``epi``).

    A degreewise injection phi: a -> b carries ker d_a^k into ker d_b^k and
    im d_a^k into im d_b^k injectively; a degreewise surjection psi: a -> b
    carries im d_a^k onto im d_b^k and so induces coker d_a^k ->> coker d_b^k.

    A zero d^k has image 0, kernel its source and cokernel its target, read
    off without a lattice computation.
    """
    out = {}
    for k in set(c.degrees()) | {k - 1 for k in c.degrees()}:
        d = c.differential(k)
        out[(k, "component")] = c.component(k)
        if d.is_zero():
            out[(k, "image")] = FpModule.zero(c.ring)
            out[(k, "cokernel" if epi else "kernel")] = d.target if epi else d.source
            continue
        out[(k, "image")] = _sublattice_module(d.target, d.matrix)[0]
        out[(k, "cokernel" if epi else "kernel")] = \
            cokernel(d)[0] if epi else _kernel_inclusion(d)[0]
    return out


_SCAN_CAP = 1 << 16
# the most module maps one Hom set may hold for ``enumerate_homs`` and a module pool
_HOM_SET_CAP = 1 << 20


def _pool_scan(grp, components: list, component_key, cap: int = _SCAN_CAP, *,
               first: bool = False) -> list:
    """``(key, decoder)`` for each element of ``grp`` (a ``HomModule`` or
    ``ChainMapGroup``) whose components all pass, in group order; with
    ``first``, for the first such element only, and the walk stops there.

    For each ``(k, source, target)`` of ``components``,
    ``component_key(source, target, rows)`` gets the raw matrix in degree k
    (None where it is absent) and returns the key's part for k, or None to
    reject; it runs once per distinct matrix.  A decoder builds the map.
    """
    size = grp.module.size()
    if size is None or size > cap:
        raise UniverseCapError(f"group of maps too large to enumerate ({size})")
    parts = {}
    out = []
    for elem, blocks in grp._scan():
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
            out.append((tuple(key), partial(grp.decode, elem)))
            if first:
                break
    return out


def _apply_rows(rows: tuple, x: tuple, target: tuple) -> tuple:
    return tuple(sum(r * v for r, v in zip(row, x)) % e for row, e in zip(rows, target))


def _image(src: FpModule, tgt: FpModule, rows: Optional[tuple]) -> Optional[tuple]:
    """The image elements in sorted order, or None unless injective."""
    if rows is None or image_order(tgt, IntMatrix(len(rows), src.ngens, rows)) != src.size():
        return None
    return tuple(sorted(_apply_rows(rows, x, tgt.factors) for x in src.elements()))


def _kernel_elements(src: FpModule, tgt: FpModule, rows: Optional[tuple]) -> Optional[tuple]:
    """The kernel elements in order, or None unless surjective."""
    if rows is None:
        # onto zero the kernel is everything; from zero nothing is onto
        return None if tgt.factors else tuple(src.elements())
    if image_order(tgt, IntMatrix(len(rows), src.ngens, rows)) != tgt.size():
        return None
    return tuple(x for x in src.elements() if not any(_apply_rows(rows, x, tgt.factors)))


def _hom_scan(component_key):
    """The module case of ``chain_monos``/``chain_epis``, at ``enumerate_homs``' cap."""
    return lambda a, b, first=False: _pool_scan(hom_module(a, b), [(0, a, b)], component_key,
                                                _HOM_SET_CAP, first=first)


# a component key is a pure function of (key function, source, target,
# rows), and the pairs of one complex universe meet the same components over
# and over; module pools scan each (source, target) once, so they skip it
_COMPONENT_KEYS = caches.table("xclass.component_keys")


def _shared_key(component_key):
    """``component_key`` read through ``xclass.component_keys``."""
    def key(src: FpModule, tgt: FpModule, rows: Optional[tuple]) -> Optional[tuple]:
        return _COMPONENT_KEYS.lookup((component_key, src, tgt, rows),
                                      lambda: component_key(src, tgt, rows))
    return key


def chain_monos(a: Complex, b: Complex, first: bool = False) -> list:
    """The injective chain maps a -> b as ``(image, decoder)`` pairs, the
    image listing each degree's image elements in sorted order; with
    ``first``, the first of them only."""
    return _pool_scan(chain_map_group(a, b),
                      [(k, a.component(k), b.component(k)) for k in a.degrees()],
                      _shared_key(_image), first=first)


def chain_epis(a: Complex, b: Complex, first: bool = False) -> list:
    """The surjective chain maps a -> b as ``(kernel, decoder)`` pairs, the
    kernel listing each degree's kernel elements in sorted order; with
    ``first``, the first of them only."""
    degrees = sorted(set(a.degrees()) | set(b.degrees()))
    return _pool_scan(chain_map_group(a, b),
                      [(k, a.component(k), b.component(k)) for k in degrees],
                      _shared_key(_kernel_elements), first=first)


# the cokernel (with its section) of an injection and the kernel (with its
# inclusion) of a surjection are pure functions of the map; pool closes meet
# the same components across entries, and builds ask for the same quotients
_MAP_QUOTIENTS = caches.table("xclass.map_quotients")


def _map_quotient(f: ModuleMap, injective: bool) -> tuple:
    """``cokernel_with_section(f)`` when ``injective``, else
    ``_kernel_inclusion(f)``; memoised per (map, side)."""
    return _MAP_QUOTIENTS.lookup(
        (f, injective), lambda: cokernel_with_section(f) if injective else _kernel_inclusion(f))


def cokernel_complex(phi: ChainMap) -> Complex:
    """Degreewise cokernel of an injective chain map, with induced maps."""
    b = phi.target
    data = {k: _map_quotient(phi.component(k), True) for k in b.degrees()}
    comps = {k: d[0] for k, d in data.items()}
    diffs = {}
    for k in b.degrees():
        if (k + 1) not in data or data[k][0].is_zero() or data[k + 1][0].is_zero():
            continue
        cok, proj, section = data[k]
        cok2, proj2, _ = data[k + 1]
        mat = proj2.matrix @ b.differential(k).matrix @ section
        diffs[k] = ModuleMap(cok, cok2, mat)
    return Complex(b.ring, comps, diffs, check=False)


def kernel_complex(psi: ChainMap) -> Complex:
    """Degreewise kernel of a surjective chain map, with induced maps."""
    a = psi.source
    return _subcomplex(a, {k: _map_quotient(psi.component(k), False)[1] for k in a.degrees()},
                       check=False)


_COMPLEX_UNIVERSES = caches.table("xclass.complex_universes")


def complex_universe(ring: RingSpec, full_bound: int = 4,
                     full_window: Tuple[int, int] = (0, 1),
                     disk_bound: int = 8,
                     disk_degrees: Optional[Sequence[int]] = None) -> ComplexUniverse:
    # its members read module universes, so it is keyed on the cap as well
    key = (ring, full_bound, full_window, disk_bound,
           tuple(disk_degrees) if disk_degrees is not None else None, hard_module_cap())
    return _COMPLEX_UNIVERSES.lookup(key, lambda: ComplexUniverse(
        ring, full_bound, full_window, disk_bound, disk_degrees))


def default_complex_universe(ring: RingSpec, for_support: Optional[Tuple[int, int]],
                             full_bound: int = 4, disk_bound: int = 8) -> ComplexUniverse:
    """Universe adapted to a complex's support: fully enumerated pairs on the
    two lowest degrees, disks and spheres covering the whole window.  An
    empty window (hi < lo) raises UniverseCapError."""
    if for_support is None:
        lo, hi = 0, 1
    else:
        lo, hi = for_support
    if hi < lo:
        raise UniverseCapError(f"complex universe window [{lo}, {hi}] is empty")
    return complex_universe(ring, full_bound, (lo, lo + 1), disk_bound,
                            tuple(range(lo - 1, hi + 1)))


# ---------------------------------------------------------------------------
# The class of exact complexes with kernels in the distinguished class
# ---------------------------------------------------------------------------

class Eps1Universe:
    """Exact complexes on a bounded window whose differential kernels all lie
    in the distinguished class (the zero complex always qualifies).  The
    window must hold two to four degrees, else UniverseCapError: an exact
    complex concentrated in one degree is zero, so a narrower window holds
    only the zero complex and every verdict over it would be vacuous.

    Most members split: ``contraction`` decides, once per member and at the
    first check that reads it, whether a member is contractible, and a check
    answers hom-exactness for such a member without building a hom complex.
    A check builds the hom complex of each other member itself, once, with
    no partition of the members and no memo between checks."""

    def __init__(self, ring: RingSpec, xclass: XClassSpec,
                 base_bound: int = 4, window: Tuple[int, int] = (-1, 1)):
        lo, hi = window
        if hi < lo:
            raise UniverseCapError(f"exactness universe window {list(window)} is empty")
        if hi == lo:
            raise UniverseCapError(
                f"exactness universe window {list(window)} holds one degree, where the "
                "only exact complex is zero")
        if hi - lo + 1 > 4:
            raise UniverseCapError("exactness universe window is capped at 4 degrees")
        self.ring = ring
        self.xclass = xclass
        self.base_bound = base_bound
        self.window = window
        self._members: Optional[list] = None
        self._contractions: dict = {}    # member index -> contraction or None

    def describe(self) -> str:
        return (f"eps1({self.ring}, class={self.xclass.key()}, base<={self.base_bound}, "
                f"window={list(self.window)})")

    @property
    def members(self) -> list:
        if self._members is not None:
            return self._members
        self._members = [zero_complex(self.ring)] + [
            c for c in _window_complexes(self.ring, self.base_bound, self.window, exact=True)
            if self._qualifies(c)]
        return self._members

    def contraction(self, i: int) -> Optional[Homotopy]:
        """A contraction h of member i (h o d + d o h = id), the canonical
        null-homotopy of its identity, or None when it is not contractible:
        one solve per member, at the first read, kept as a certificate that
        can be checked again (``Homotopy.verifies``).  Then f -> f o h and
        f -> h o f, up to sign, contract Hom(E, C) and Hom(C, E) for every
        complex C (Weibel 1994, 1.4 and 2.7): both are exact everywhere."""
        if i not in self._contractions:
            self._contractions[i] = null_homotopy(ChainMap.identity(self.members[i]))
        return self._contractions[i]

    def _qualifies(self, c: Complex) -> bool:
        if not exact_at(c, c.degrees()):
            return False
        for k in c.degrees():
            ker = _kernel_inclusion(c.differential(k))[0] if not c.component(k + 1).is_zero() \
                else c.component(k)
            if not contains_module(self.xclass, ker):
                return False
        return True


_EPS1_UNIVERSES = caches.table("xclass.eps1_universes")


def eps1_universe(ring: RingSpec, xclass: XClassSpec, base_bound: int = 4,
                  window: Tuple[int, int] = (-1, 1)) -> Eps1Universe:
    # its members read module universes, so it is keyed on the cap as well
    return _EPS1_UNIVERSES.lookup((ring, xclass.key(), base_bound, window, hard_module_cap()),
                                  lambda: Eps1Universe(ring, xclass, base_bound, window))


def enumerate_eps1(u: Eps1Universe) -> Iterator[Complex]:
    yield from u.members
