"""What ``import homkit.cli`` loads in a fresh interpreter.

Every command-line start pays for what the import loads.  It must load all
seven layers, because the benchmark's tracer (``bench/tracer.py``) reads
``sys.modules["homkit.<layer>"]`` for each of its ``LAYERS`` right after
``import homkit.cli``; and it must not load ``dataclasses``, which would
bring in ``inspect`` and compile fresh source for every value type.  Building
one instance of each value type and taking its repr, ``==`` and hash must
not load ``inspect`` either: ``Record.__signature__`` imports it only when
read.
"""
from __future__ import annotations

import ast
import functools
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# run with -S, so that no site hook has loaded a module before the import
PROBE = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import homkit.cli
heavy = [name for name in ("dataclasses", "inspect") if name in sys.modules]
spec = importlib.util.spec_from_file_location("homkit_bench_tracer", sys.argv[2])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from homkit import ChainMap, FpModule, IntMatrix, ModuleMap, Verdict, XClassSpec, Zmod
from homkit.complexes import disk, is_exact, null_homotopy, sphere
from homkit.values import Record
z2 = FpModule(Zmod(4), (2,))
checked = {"RingSpec": Zmod(4), "IntMatrix": IntMatrix.identity(1), "FpModule": z2,
           "ModuleMap": ModuleMap.identity(z2), "XClassSpec": XClassSpec("all"),
           "Verdict": Verdict(True, "u"), "Complex": sphere(0, z2),
           "ChainMap": ChainMap.identity(sphere(0, z2)),
           "Homotopy": null_homotopy(ChainMap.identity(disk(0, z2))),
           "ExactnessReport": is_exact(sphere(0, z2))}
def walk(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from walk(sub)
used = {}
for cls in walk(Record):
    if not cls._fields:
        continue    # the base Frozen
    if cls.__init__ is Record.__init__:
        args = tuple(range(len(cls._fields)))
        value, twin = cls(*args), cls(**dict(zip(cls._fields, args)))
    else:
        value = twin = checked[cls.__name__]
    try:
        hashed = hash(value) == hash(twin)
    except TypeError:
        hashed = None
    used[cls.__name__] = [bool(repr(value)), value == twin, hashed]
print(json.dumps({"heavy": heavy, "layers": list(tracer.LAYERS),
                  "missing": [layer for layer in tracer.LAYERS
                              if "homkit." + layer not in sys.modules],
                  "used": used,
                  "heavy_after_use": [name for name in ("dataclasses", "inspect")
                                      if name in sys.modules]}))
"""


@functools.cache
def probe() -> dict:
    out = subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC),
                          str(ROOT / "bench" / "tracer.py")],
                         capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout)


def test_cli_import_loads_every_layer_and_no_dataclasses():
    report = probe()
    assert report["heavy"] == []
    assert len(report["layers"]) == 7 and report["missing"] == []


def test_value_types_in_use_load_neither():
    # one instance of each value type, its repr, == and hash (None: unhashable)
    report = probe()
    assert len(report["used"]) == 24
    assert all(shown and equal and hashed in (True, None)
               for shown, equal, hashed in report["used"].values())
    assert report["used"]["Verdict"][2] is None and report["used"]["Complex"][2] is True
    assert report["used"]["ExactnessReport"][2] is True
    assert report["heavy_after_use"] == []


def test_no_source_file_imports_dataclasses():
    found = []
    for path in sorted((SRC / "homkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module] if isinstance(node, ast.ImportFrom) else []
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name and name.split(".")[0] == "dataclasses"]
    assert found == []
