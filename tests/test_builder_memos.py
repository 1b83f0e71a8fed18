"""The builders' memos of module-level answers keep every certificate.

``construct`` remembers the builtin module covers and envelopes
(``construct.module_oracles``), the universe members passing a side's
module test (``construct.competitors``) and the onto answers of module maps
(``construct.onto``).  A tampered result must still be refused with the
message a cold process gives, a user oracle must be asked on every build,
and clearing the caches must not change what is certified.  A fixed builder
slice bounds the work the memos and the one-map gluing save.
"""
from __future__ import annotations

import pytest

from homkit import caches, clear_caches, complexes, construct, lifting
from homkit.complexes import ChainMap, Complex, disk, sphere
from homkit.construct import (
    BuildError,
    OracleHypothesisError,
    PrecoverResult,
    PreenvelopeResult,
    free_cover,
    module_epi_precover,
    module_mono_preenvelope,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
)
from homkit.exactalg import Zmod
from homkit.modules import FpModule, ModuleMap, hom_module, injective_hull
from homkit.xclass import ALL, module_universe

from .helpers import small_modules

R4 = Zmod(4)
Z2, Z4 = FpModule(R4, (2,)), FpModule(R4, (4,))
SIDES = {"precover": (precover_bounded, verify_precover_factorization, free_cover),
         "preenvelope": (preenvelope_bounded, verify_preenvelope_factorization, injective_hull)}


def two_degree_complexes() -> list:
    """Every complex over Z/4 on degrees 0 and 1 whose components are
    nonzero modules of at most four elements: 42 complexes."""
    members = [m for m in small_modules(R4, 4) if not m.is_zero()]
    return [Complex(R4, {0: a, 1: b}, {0: d})
            for a in members for b in members for d in hom_module(a, b).elements()]


INPUTS = [sphere(0, Z2), disk(0, Z2), sphere(1, Z4)] + two_degree_complexes()[::7]


def doubled(result):
    """The result with its chain map multiplied by 2: still a chain map
    between the same complexes, but no longer onto (mono) in any degree
    where the input is nonzero."""
    cmap = result.map
    comps = {k: ModuleMap(f.source, f.target, f.matrix.scale(2))
             for k, f in cmap._components.items()}
    doubled_map = ChainMap(cmap.source, cmap.target, comps)
    if isinstance(result, PrecoverResult):
        return PrecoverResult(result.cover, doubled_map, result.per_degree_oracle,
                              result.kernel_membership, result.build_log)
    return PreenvelopeResult(result.env, doubled_map, result.per_degree_oracle,
                             result.cokernel_membership, result.build_log)


def refusal(call) -> str:
    with pytest.raises(BuildError) as info:
        call()
    return f"{type(info.value).__name__}: {info.value}"


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_a_tampered_result_is_refused_as_from_cold_caches(kind):
    build, verify, _ = SIDES[kind]
    u = module_universe(R4, 8)
    for y in INPUTS:
        clear_caches()
        genuine = build(y, ALL, u)
        assert verify(genuine, y, ALL, u) > 0
        bad = doubled(genuine)
        warm = refusal(lambda: verify(bad, y, ALL, u))
        clear_caches()
        cold = refusal(lambda: verify(bad, y, ALL, u))
        assert warm == cold and "factor" in warm, y.describe()


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_a_tampered_module_oracle_is_refused_after_the_builtin_one(kind):
    """A user oracle returning a map that is not onto (not injective) is
    refused with the cold message after the builtin strategy's answer for
    the same module, class and universe was remembered."""
    u = module_universe(R4, 8)
    bad_cover = lambda m: (Z4, ModuleMap.zero(Z4, m))
    bad_envelope = lambda m: (Z4, ModuleMap.zero(m, Z4))
    module_level, bad = (module_epi_precover, bad_cover) if kind == "precover" \
        else (module_mono_preenvelope, bad_envelope)
    build = SIDES[kind][0]
    messages = []
    for warm in (True, False):
        clear_caches()
        if warm:
            module_level(Z2, ALL, u)
            build(sphere(0, Z2), ALL, u)
        messages.append((refusal(lambda: module_level(Z2, ALL, u, oracle=bad)),
                         refusal(lambda: build(sphere(0, Z2), ALL, u, oracle=bad))))
    assert messages[0] == messages[1]
    assert messages[0][0].startswith(f"{OracleHypothesisError.__name__}: ")
    assert "is not" in messages[0][0] and messages[0][0] == messages[0][1]


@pytest.mark.parametrize("kind", sorted(SIDES))
def test_a_user_oracle_is_called_on_every_build(kind):
    build, _, builtin = SIDES[kind]
    u = module_universe(R4, 8)
    calls = []

    def oracle(m):
        calls.append(m)
        return builtin(m)

    y = two_degree_complexes()[-1]
    results = [build(y, ALL, u, oracle=oracle) for _ in range(3)]
    assert len(calls) == 3 * len(y.degrees())
    plain = build(y, ALL, u)
    built = [r.cover if kind == "precover" else r.env for r in results + [plain]]
    assert all(b == built[0] for b in built)


def test_cleared_caches_certify_the_same_counts():
    u = module_universe(R4, 8)

    def certified() -> list:
        return [verify(build(y, ALL, u), y, ALL, u)
                for y in INPUTS for build, verify, _ in SIDES.values()]

    clear_caches()
    first = certified()
    warm = certified()
    clear_caches()
    assert first == warm == certified()
    assert min(first) > 0


def test_the_memos_answer_repeats():
    clear_caches()
    u = module_universe(R4, 8)
    for _ in range(2):
        for y in INPUTS:
            verify_precover_factorization(precover_bounded(y, ALL, u), y, ALL, u)
    stats = caches.stats()
    for name in ("construct.module_oracles", "construct.competitors", "construct.onto"):
        assert stats[name]["misses"] and stats[name]["hits"] > stats[name]["misses"], name


# Work of the builder slice below from cold caches: ModuleMap constructions,
# lifting._onto calls and image_order calls.  Before the one-map gluing, the
# module-level memos and exact_at's order 1 for absent differentials it read
# 1,796, 454 and 336.
WORK_BOUNDS = {"module_maps": 1211, "onto": 216, "image_order": 168}


def test_builder_slice_work_counts(monkeypatch):
    """Both builders and both verifiers on the 42 two-degree complexes, from
    cold caches: the counts are work, not time, so they do not vary."""
    counts = dict.fromkeys(WORK_BOUNDS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    post_init = ModuleMap.__post_init__
    monkeypatch.setattr(ModuleMap, "__post_init__", counting("module_maps", post_init))
    onto = counting("onto", lifting._onto)
    monkeypatch.setattr(lifting, "_onto", onto)
    monkeypatch.setattr(construct, "_onto", onto)
    image_order = counting("image_order", complexes.image_order)
    monkeypatch.setattr(complexes, "image_order", image_order)
    monkeypatch.setattr(lifting, "image_order", image_order)
    clear_caches()
    u = module_universe(R4, 8)
    inputs = two_degree_complexes()
    for y in inputs:
        for build, verify, _ in SIDES.values():
            verify(build(y, ALL, u), y, ALL, u)
    assert len(inputs) == 42
    assert all(counts[name] <= bound for name, bound in WORK_BOUNDS.items()), counts
