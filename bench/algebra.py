"""Plain finite-module arithmetic over Z/n, independent of homkit.

The benchmark generates its inputs and checks homkit's outputs with this
module, so neither step warms homkit's caches or trusts homkit's own
verdicts.  A module is a tuple of invariant factors (each > 1, dividing n),
an element a tuple of residues, and a map a tuple of rows whose column j is
the image of source generator j.  Everything here is brute force and meant
for modules of at most a few thousand elements.
"""
from __future__ import annotations

import functools
import itertools
import math


def factor_chains(n: int, bound: int) -> list:
    """Every module over Z/n with at most ``bound`` elements, smallest first."""
    divs = [d for d in range(2, n + 1) if n % d == 0]
    out = [()]

    def extend(prefix: tuple, size: int) -> None:
        for d in divs:
            if prefix and d % prefix[-1]:
                continue
            if size * d > bound:
                continue
            out.append(prefix + (d,))
            extend(prefix + (d,), size * d)

    extend((), 1)
    return sorted(set(out), key=lambda f: (math.prod(f), len(f), f))


def size(mod: tuple) -> int:
    return math.prod(mod)


def zero_map(src: tuple, tgt: tuple) -> tuple:
    return tuple((0,) * len(src) for _ in tgt)


def identity(mod: tuple) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(len(mod))) for i in range(len(mod)))


def homs(src: tuple, tgt: tuple) -> list:
    """Every homomorphism src -> tgt as a matrix, in a fixed order."""
    choices = []
    for di in tgt:
        for dj in src:
            g = math.gcd(dj, di)
            choices.append([k * (di // g) for k in range(g)])
    out = []
    for flat in itertools.product(*choices):
        out.append(tuple(tuple(flat[i * len(src):(i + 1) * len(src)])
                         for i in range(len(tgt))))
    return out


def compose(f: tuple, g: tuple, src: tuple, mid: tuple, tgt: tuple) -> tuple:
    """f after g for g: src -> mid and f: mid -> tgt, reduced in ``tgt``."""
    return tuple(tuple(sum(f[i][k] * g[k][j] for k in range(len(mid))) % tgt[i]
                       for j in range(len(src))) for i in range(len(tgt)))


def reduce(mat: tuple, tgt: tuple) -> tuple:
    return tuple(tuple(x % d for x in row) for row, d in zip(mat, tgt))


def is_zero(mat: tuple) -> bool:
    return not any(any(row) for row in mat)


# ---------------------------------------------------------------------------
# Complexes as plain data: (n, {degree: factors}, {degree: matrix})
# ---------------------------------------------------------------------------

def make_complex(n: int, comps: dict, diffs: dict) -> tuple:
    comps = {k: f for k, f in comps.items() if f}
    diffs = {k: d for k, d in diffs.items() if k in comps and (k + 1) in comps}
    return (n, comps, diffs)


def differential(cx: tuple, k: int) -> tuple:
    _, comps, diffs = cx
    return diffs.get(k) or zero_map(comps.get(k, ()), comps.get(k + 1, ()))


def is_complex(cx: tuple) -> bool:
    _, comps, _ = cx
    for k in comps:
        if k + 2 in comps and (k + 1) in comps:
            dd = compose(differential(cx, k + 1), differential(cx, k),
                         comps[k], comps[k + 1], comps[k + 2])
            if not is_zero(dd):
                return False
    return True


def sphere(n: int, k: int, mod: tuple) -> tuple:
    return make_complex(n, {k: mod}, {})


def disk(n: int, k: int, mod: tuple) -> tuple:
    return make_complex(n, {k: mod, k + 1: mod}, {k: identity(mod)})


def direct_sum(parts: list) -> tuple:
    """Degreewise direct sum with the summands' generators concatenated in
    order and block-diagonal differentials."""
    n = parts[0][0]
    degs = sorted({k for _, comps, _ in parts for k in comps})
    comps = {k: sum((p[1].get(k, ()) for p in parts), ()) for k in degs}
    diffs = {}
    for k in degs:
        if (k + 1) not in comps:
            continue
        rows = []
        for p in parts:
            for row in differential(p, k):
                full = []
                for q in parts:
                    full.extend(row if q is p else (0,) * len(q[1].get(k, ())))
                rows.append(tuple(full))
        diffs[k] = tuple(rows)
    return make_complex(n, comps, diffs)


def random_complex(rng, n: int, members: list, degrees: int, lo: int = 0) -> tuple:
    """A random complex on ``degrees`` consecutive degrees from ``lo``, with
    components drawn from ``members``; falls back to zero differentials when
    no composable choice turns up."""
    comps = {k: rng.choice(members) for k in range(lo, lo + degrees)}
    for _ in range(60):
        diffs = {}
        prev = None
        ok = True
        for k in range(lo, lo + degrees - 1):
            d = rng.choice(homs(comps[k], comps[k + 1]))
            if prev is not None and not is_zero(compose(d, prev, comps[k - 1], comps[k],
                                                        comps[k + 1])):
                ok = False
                break
            diffs[k] = d
            prev = d
        if ok:
            return make_complex(n, comps, diffs)
    return make_complex(n, comps, {})


@functools.lru_cache(maxsize=None)
def automorphisms(mod: tuple) -> list:
    """Every automorphism of ``mod`` with its inverse, as (a, a^-1) pairs."""
    auts = [h for h in homs(mod, mod) if len(image(h, mod, mod)) == size(mod)]
    ident = identity(mod)
    return [(a, next(b for b in auts if compose(b, a, mod, mod, mod) == ident))
            for a in auts]


def twist(rng, cx: tuple) -> tuple:
    """An isomorphic copy of a complex: d^k becomes a_(k+1) d^k a_k^-1 for
    random automorphisms a_k of the components."""
    n, comps, diffs = cx
    auts = {k: rng.choice(automorphisms(m)) for k, m in comps.items()}
    out = {}
    for k, d in diffs.items():
        src, tgt = comps[k], comps[k + 1]
        inner = compose(d, auts[k][1], src, src, tgt)
        out[k] = compose(auts[k + 1][0], inner, src, tgt, tgt)
    return make_complex(n, comps, out)


def to_doc(cx: tuple) -> dict:
    """The homkit command-line document for a plain complex."""
    n, comps, _ = cx
    return {"ring": {"mod": n},
            "modules": {str(k): list(f) for k, f in sorted(comps.items())},
            "diff": {str(k): [list(r) for r in differential(cx, k)]
                     for k in sorted(comps) if (k + 1) in comps}}


def from_doc(doc: dict) -> tuple:
    comps = {int(k): tuple(v) for k, v in doc["modules"].items()}
    diffs = {int(k): tuple(tuple(r) for r in rows) for k, rows in doc.get("diff", {}).items()}
    return make_complex(doc["ring"]["mod"], comps, diffs)


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------

def _prime_powers(n: int) -> list:
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    return out


def is_free(n: int, mod: tuple) -> bool:
    return all(d == n for d in mod)


def is_injective(n: int, mod: tuple) -> bool:
    """Z/n is self-injective, so a module is injective iff each primary part
    is free over the matching local factor; for prime-power n this is
    "the module is free"."""
    for p, q in _prime_powers(n):
        for d in mod:
            part = math.gcd(d, q)
            if part not in (1, q):
                return False
    return True


def span(gens, mod: tuple) -> set:
    """The subgroup of ``mod`` generated by ``gens``, by closure."""
    zero = (0,) * len(mod)
    gens = [g for g in gens if any(g)]
    seen, frontier = {zero}, [zero]
    while frontier:
        grown = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % d for a, b, d in zip(v, g, mod))
                if w not in seen:
                    seen.add(w)
                    grown.append(w)
        frontier = grown
    return seen


def image(mat: tuple, src: tuple, tgt: tuple) -> set:
    """Image of a map: the span of the images of the source generators."""
    cols = [tuple(mat[i][j] % tgt[i] for i in range(len(tgt))) for j in range(len(src))]
    return span(cols, tgt)


def kernel_size(mat: tuple, src: tuple, tgt: tuple) -> int:
    return size(src) // len(image(mat, src, tgt))


def is_exact(cx: tuple) -> bool:
    """|ker d^k| == |im d^(k-1)| in every degree (im lies in ker as d o d = 0)."""
    _, comps, _ = cx
    for k, mod in comps.items():
        ker = kernel_size(differential(cx, k), mod, comps.get(k + 1, ()))
        im = len(image(differential(cx, k - 1), comps.get(k - 1, ()), mod))
        if ker != im:
            return False
    return True
