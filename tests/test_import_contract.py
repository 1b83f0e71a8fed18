"""What ``import homkit.cli`` loads in a fresh interpreter.

Every command-line start pays for what the import loads.  It must load all
seven layers, because the benchmark's tracer (``bench/tracer.py``) reads
``sys.modules["homkit.<layer>"]`` for each of its ``LAYERS`` right after
``import homkit.cli``; and it must not load ``dataclasses``, which would
bring in ``inspect`` and compile fresh source for every value type.
"""
from __future__ import annotations

import ast
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
print(json.dumps({"heavy": heavy, "layers": list(tracer.LAYERS),
                  "missing": [layer for layer in tracer.LAYERS
                              if "homkit." + layer not in sys.modules]}))
"""


def test_cli_import_loads_every_layer_and_no_dataclasses():
    out = subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC),
                          str(ROOT / "bench" / "tracer.py")],
                         capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(out.stdout)
    assert report["heavy"] == []
    assert len(report["layers"]) == 7 and report["missing"] == []


def test_no_source_file_imports_dataclasses():
    found = []
    for path in sorted((SRC / "homkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module] if isinstance(node, ast.ImportFrom) else []
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name and name.split(".")[0] == "dataclasses"]
    assert found == []
