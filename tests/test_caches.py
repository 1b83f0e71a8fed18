"""``homkit.clear_caches`` empties every module-level cache, and a run after
it gives the same answers as the run before."""
from __future__ import annotations

import hashlib
import json

import homkit
from homkit.cli import _payload_to_doc
from homkit.complexes import _CHAIN_GROUP_CACHE, ChainMap, disk, null_homotopy, sphere
from homkit.construct import precover_bounded, verify_precover_factorization
from homkit.exactalg import Zmod
from homkit.lifting import (
    _VERDICT_CACHE,
    dg_x_injective,
    eps1_perp_homotopy,
    x_injective_complex,
    x_injective_module,
)
from homkit.modules import _MAP_SYSTEMS, FpModule, ext1_module, hom_module
from homkit.xclass import (
    ALL,
    _COMPLEX_UNIVERSES,
    _EPS1_UNIVERSES,
    _MODULE_UNIVERSES,
    default_complex_universe,
    eps1_universe,
    module_universe,
)

R4 = Zmod(4)
Z2, Z4 = FpModule(R4, (2,)), FpModule(R4, (4,))


def sizes() -> dict:
    return {"module universes": len(_MODULE_UNIVERSES),
            "complex universes": len(_COMPLEX_UNIVERSES),
            "eps1 universes": len(_EPS1_UNIVERSES),
            "chain-map groups": len(_CHAIN_GROUP_CACHE),
            "verdicts": len(_VERDICT_CACHE),
            "hom modules": hom_module.cache_info().currsize,
            "map systems": len(_MAP_SYSTEMS)}


def digest(value) -> str:
    doc = json.dumps(_payload_to_doc(value), sort_keys=True, default=str)
    return hashlib.sha256(doc.encode()).hexdigest()


def run() -> list:
    """Answers that read each of the caches."""
    u4 = module_universe(R4, 8)
    cu4 = default_complex_universe(R4, (0, 1), full_bound=2, disk_bound=4)
    eu4 = eps1_universe(R4, ALL, base_bound=4, window=(-1, 1))
    y = sphere(0, Z2)
    verdicts = [x_injective_module(Z2, ALL, u4, keep_witnesses=False),
                x_injective_complex(y, ALL, cu4),
                eps1_perp_homotopy(sphere(0, Z4), eu4),
                dg_x_injective(sphere(0, Z2), ALL, eu4, u4)]
    out = [(v.holds, v.checked, v.universe, digest(v.witnesses),
            digest(v.counterexample), digest(v.extra)) for v in verdicts]
    out.append(ext1_module(Z2, Z2).factors)
    out.append(null_homotopy(ChainMap.identity(disk(0, Z4))).component(1))
    out.append(verify_precover_factorization(precover_bounded(y, ALL, u=u4), y, ALL, u4))
    return out


def test_clear_caches_empties_every_cache_and_answers_stay():
    first = run()
    assert all(sizes().values()), sizes()
    homkit.clear_caches()
    assert not any(sizes().values()), sizes()
    assert run() == first


def test_ext1_module_is_not_memoised():
    # Ext^1 modules are almost never asked for twice, so they keep no table
    assert "modules.ext1_module" not in homkit.caches.stats()
    assert not hasattr(ext1_module, "cache_info")
