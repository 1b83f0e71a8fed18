"""The benchmark's outside tracer must keep finding what it wraps.

``bench/tracer.py`` replaces homkit functions by identity, so a renamed
target or a call path that captured a function before the replacement would
make a traced run report wrong counts without any error.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from homkit.complexes import sphere
from homkit.exactalg import Zmod
from homkit.modules import FpModule
from homkit.xclass import ALL, ComplexUniverse, eps1_universe, module_universe

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("homkit_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    tracer = load_tracer()
    return [(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTED]


@pytest.mark.parametrize("mod_name,attr", targets())
def test_target_resolves(mod_name, attr):
    module = importlib.import_module(f"homkit.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("mod_name,attr", [t for t in targets() if "." in t[1]])
def test_class_target_keeps_its_kind(mod_name, attr):
    # the tracer wraps a property's fget and a plain function otherwise; a
    # cached_property or partialmethod here would resolve but trace wrongly
    cls_name, meth = attr.split(".")
    original = vars(getattr(importlib.import_module(f"homkit.{mod_name}"), cls_name))[meth]
    if meth == "members":
        assert isinstance(original, property)
    else:
        assert inspect.isfunction(original)


def test_shared_driver_calls_reach_the_wrapped_checkers():
    # dg_x_injective runs its component test through the shared code; the
    # nested module checker must show up as its own span
    r4 = Zmod(4)
    eu = eps1_universe(r4, ALL, base_bound=4, window=(-1, 1))
    mu = module_universe(r4, 8)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        import homkit.lifting as lifting
        lifting.dg_x_injective(sphere(0, FpModule(r4, (4,))), ALL, eu, mu=mu)
    finally:
        tracer.uninstall()
    assert tracer.summary("setup")["lifting.checks.calls"] == 2


@pytest.mark.parametrize("pool", ["mono_pool", "epi_pool"])
def test_pools_decode_only_what_they_keep(pool):
    # the pool scan counts every group element it tests through chain_monos
    # or chain_epis, but builds a ChainMap only for the entries it keeps
    cu = ComplexUniverse(Zmod(4), full_bound=4, full_window=(0, 1),
                         disk_bound=4, disk_degrees=(-1, 0))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        kept = getattr(cu, pool)()
    finally:
        tracer.uninstall()
    summary = tracer.summary("setup")
    assert summary["xclass.pool.decoded"] > len(kept) > 0
    assert summary["complexes.decode.calls"] == len(kept)


def test_envelope_reports_its_candidate_count():
    # the tracer reads candidates_examined with getattr and a default, so a
    # renamed or retyped field would silently drop the counter.  The ambient
    # of sphere(0, Z/2) is disk(-1, Z/2); a subcomplex containing the image
    # is all of degree 0 and either submodule of degree -1: two candidates.
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        import homkit.construct as construct
        result = construct.x_injective_envelope(sphere(0, FpModule(Zmod(2), (2,))), ALL)
    finally:
        tracer.uninstall()
    assert type(result.candidates_examined) is int
    assert result.candidates_examined == 2
    assert tracer.summary("setup")["construct.envelope.candidates"] == 2
