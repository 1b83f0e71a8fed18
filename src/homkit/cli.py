"""Batch command-line interface.

One JSON document format covers complexes, chain maps and reports:

    {"ring": {"mod": 4},
     "modules": {"0": [2], "1": [2]},
     "diff": {"0": [[1]]}}

Degrees are decimal strings (possibly negative), a matrix's rows index the
target generators and its columns the source generators (column j is the
image of source generator j), and entries are reduced on write, so documents
are canonical and diffable.  Chain-map documents carry "source", "target"
and "map" keys; reports echo the command, name the universe, and serialize
witnesses and counterexamples in the same syntax so they can be fed back in.

Exit codes: 0 the property holds / the document is valid, 1 it fails (the
counterexample is serialized), 2 unusable input, 3 a hypothesis needed by the
requested construction or check could not be established.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Optional

from .exactalg import (EntrySizeCapError, ExactAlgError, FactorizationCapError, IntMatrix,
                       RingSpec, ZZ, Zmod)
from .modules import FpModule, ModuleError, ModuleMap
from .complexes import (
    ChainMap,
    Complex,
    ComplexError,
    Homotopy,
    is_exact,
    null_homotopy,
    validate_complex,
)
from .xclass import (
    default_complex_universe,
    enumerate_eps1,
    eps1_universe,
    module_universe,
    parse_class_spec,
    raised_module_cap,
    UniverseCapError,
)
from .lifting import (
    HypothesisError,
    Verdict,
    dg_x_injective,
    dg_x_projective,
    eps1_perp_homotopy,
    x_injective_complex,
    x_projective_complex,
)
from .construct import (
    BuildError,
    OracleHypothesisError,
    precover_bounded,
    preenvelope_bounded,
    x_injective_envelope,
)


class DocumentError(ValueError):
    pass


# checks and builders walk every degree between the lowest and the highest
# component, so a document's nonzero components may span at most this many
_SUPPORT_SPAN_CAP = 256


# ---------------------------------------------------------------------------
# Document codec
# ---------------------------------------------------------------------------

def ring_to_doc(ring: RingSpec) -> dict:
    return {"mod": ring.modulus} if ring.is_modular else {"integers": True}


def ring_from_doc(doc) -> RingSpec:
    if not isinstance(doc, dict):
        raise DocumentError("ring must be an object")
    integers = doc.get("integers", False)
    if type(integers) is not bool:
        raise DocumentError("ring's 'integers' must be true or false")
    if integers:
        return ZZ
    if "mod" in doc:
        n = doc["mod"]
        if type(n) is not int or n < 2:
            raise DocumentError("ring modulus must be an integer >= 2")
        return Zmod(n)
    raise DocumentError("ring needs either {'mod': n} or {'integers': true}")


def complex_to_doc(c: Complex) -> dict:
    doc = {"ring": ring_to_doc(c.ring), "modules": {}, "diff": {}}
    for k in c.degrees():
        doc["modules"][str(k)] = list(c.component(k).factors)
    for k in c.degrees():
        if not c.component(k + 1).is_zero():
            doc["diff"][str(k)] = c.differential(k).matrix.to_lists()
    return doc


def _parse_degree(key, seen: dict) -> int:
    """The degree a key names; a key that is not a decimal integer in ASCII
    digits with an optional sign ("1_0", " 11 " and other digits are not),
    or one naming a degree already in ``seen`` ("0" after "00"), is a
    DocumentError."""
    if not isinstance(key, str) or re.fullmatch(r"[+-]?[0-9]+", key) is None:
        raise DocumentError(f"degree key {key!r} is not a decimal integer")
    k = int(key)
    if k in seen:
        raise DocumentError(f"degree key {key!r} names degree {k} a second time")
    return k


def _matrix_from_doc(rows, cols: int, what: str) -> IntMatrix:
    """A matrix from its list of rows; ragged rows and entries that are not
    integers (booleans included) are a DocumentError."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise DocumentError(f"{what} must be a list of rows")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DocumentError(f"{what} has rows of different lengths")
    if not all(type(x) is int for r in rows for x in r):
        raise DocumentError(f"{what} has an entry that is not an integer")
    return IntMatrix.from_rows(rows, cols=cols)


def complex_from_doc(doc, check: bool = True) -> Complex:
    if not isinstance(doc, dict):
        raise DocumentError("complex document must be an object")
    ring = ring_from_doc(doc.get("ring"))
    modules_doc = doc.get("modules", {})
    if not isinstance(modules_doc, dict):
        raise DocumentError("'modules' must map degrees to factor lists")
    comps = {}
    for key, factors in modules_doc.items():
        k = _parse_degree(key, comps)
        if not isinstance(factors, list) or not all(type(d) is int for d in factors):
            raise DocumentError(f"factor list at degree {k} must be a list of integers")
        comps[k] = FpModule(ring, tuple(factors))
    support = [k for k, m in comps.items() if not m.is_zero()]
    if support and max(support) - min(support) >= _SUPPORT_SPAN_CAP:
        raise DocumentError(f"components span degrees {min(support)}..{max(support)}; "
                            f"at most {_SUPPORT_SPAN_CAP} degrees are accepted")
    diffs_doc = doc.get("diff", {})
    if not isinstance(diffs_doc, dict):
        raise DocumentError("'diff' must map degrees to matrices")
    diffs = {}
    for key, rows in diffs_doc.items():
        k = _parse_degree(key, diffs)
        src = comps.get(k, FpModule.zero(ring))
        tgt = comps.get(k + 1, FpModule.zero(ring))
        mat = _matrix_from_doc(rows, src.ngens, f"matrix at degree {k}")
        if mat.rows != tgt.ngens:
            raise DocumentError(f"matrix at degree {k} has {mat.rows} rows, "
                                f"target has {tgt.ngens} generators")
        diffs[k] = ModuleMap(src, tgt, mat)
    return Complex(ring, comps, diffs, check=check)


def chain_map_to_doc(f: ChainMap) -> dict:
    doc = {
        "ring": ring_to_doc(f.source.ring),
        "source": complex_to_doc(f.source),
        "target": complex_to_doc(f.target),
        "map": {},
    }
    for k in f.source.degrees():
        comp = f.component(k)
        if not comp.is_zero():
            doc["map"][str(k)] = comp.matrix.to_lists()
    return doc


def chain_map_from_doc(doc, check: bool = True) -> ChainMap:
    if not isinstance(doc, dict) or "source" not in doc or "target" not in doc:
        raise DocumentError("chain map document needs 'source' and 'target'")
    source = complex_from_doc(doc["source"], check=check)
    target = complex_from_doc(doc["target"], check=check)
    maps_doc = doc.get("map", {})
    if not isinstance(maps_doc, dict):
        raise DocumentError("'map' must map degrees to matrices")
    comps = {}
    for key, rows in maps_doc.items():
        k = _parse_degree(key, comps)
        src = source.component(k)
        tgt = target.component(k)
        mat = _matrix_from_doc(rows, src.ngens, f"chain map matrix at degree {k}")
        if mat.rows != tgt.ngens:
            raise DocumentError(f"chain map matrix at degree {k} has the wrong shape")
        comps[k] = ModuleMap(src, tgt, mat)
    return ChainMap(source, target, comps, check=check)


def module_map_to_doc(f: ModuleMap) -> dict:
    return {
        "source_factors": list(f.source.factors),
        "target_factors": list(f.target.factors),
        "matrix": f.matrix.to_lists(),
    }


def _payload_to_doc(value):
    if isinstance(value, ChainMap):
        return chain_map_to_doc(value)
    if isinstance(value, Complex):
        return complex_to_doc(value)
    if isinstance(value, ModuleMap):
        return module_map_to_doc(value)
    if isinstance(value, Homotopy):
        return {"map": chain_map_to_doc(value.chain_map),
                "components": {str(k): value.component(k).matrix.to_lists()
                               for k in value._components}}
    if isinstance(value, FpModule):
        return {"factors": list(value.factors)}
    if isinstance(value, dict):
        return {str(k): _payload_to_doc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_payload_to_doc(v) for v in value]
    return value


def verdict_report(command: list, verdict: Verdict, started: float) -> dict:
    report = {
        "command": command,
        "universe": verdict.universe,
        "verdict": verdict.holds,
        "checked": verdict.checked,
        "timing_seconds": round(time.time() - started, 6),
    }
    if verdict.counterexample is not None:
        report["counterexample"] = _payload_to_doc(verdict.counterexample)
    if verdict.extra:
        report["extra"] = _payload_to_doc(verdict.extra)
    return report


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key it repeats is a DocumentError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _load_json(path: str):
    """The parsed document; an unreadable file, bytes that are not UTF-8,
    malformed JSON, an object that repeats a key and arrays or objects
    nested deeper than the parser's recursion limit are a DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DocumentError(str(exc)) from None
    except RecursionError:
        raise DocumentError("arrays or objects nest too deeply to parse") from None


def cmd_validate(args) -> int:
    try:
        c = complex_from_doc(_load_json(args.input), check=False)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ModuleError, ComplexError) as exc:
        print(f"invalid: {exc}")
        return 1
    verdict = validate_complex(c)
    if verdict.ok:
        print("valid")
        return 0
    print(f"invalid at degree {verdict.degree}: {verdict.message}")
    return 1


def cmd_check(args) -> int:
    started = time.time()
    try:
        doc = _load_json(args.input)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        xclass = parse_class_spec(args.xclass)
        command = ["check", args.kind, args.input, "--class", xclass.key(),
                   "--bound", str(args.bound), "--window", str(args.window)]
        if args.kind == "homotopic-zero":
            f = chain_map_from_doc(doc)
            h = null_homotopy(f)
            verdict = Verdict(h is not None, "direct solve", 1)
            if h is not None:
                verdict.witnesses.append({"homotopy": h})
            else:
                verdict.counterexample = {"map": f}
            report = verdict_report(command, verdict, started)
            if h is not None:
                report["witness"] = _payload_to_doc({"homotopy": h})
            _emit(report)
            return 0 if verdict.holds else 1
        c = complex_from_doc(doc)
        ring = c.ring
        if args.kind == "exact":
            rep = is_exact(c)
            verdict = Verdict(rep.exact, "direct computation", 1)
            if not rep.exact:
                verdict.counterexample = {"homology": {str(k): list(v)
                                                       for k, v in rep.homology.items()}}
            _emit(verdict_report(command, verdict, started))
            return 0 if rep.exact else 1
        if args.kind in ("x-injective", "x-projective"):
            cu = default_complex_universe(ring, c.support or (0, 1),
                                          full_bound=4, disk_bound=args.bound)
            fn = x_injective_complex if args.kind == "x-injective" else x_projective_complex
            verdict = fn(c, xclass, cu, keep_witnesses=False)
        elif args.kind in ("dg-injective", "dg-projective"):
            eu = eps1_universe(ring, xclass, base_bound=4,
                               window=(-1, args.window - 2))
            mu = module_universe(ring, args.bound)
            fn = dg_x_injective if args.kind == "dg-injective" else dg_x_projective
            verdict = fn(c, xclass, eu, mu=mu, keep_witnesses=False)
        else:
            eu = eps1_universe(ring, xclass, base_bound=4,
                               window=(-1, args.window - 2))
            verdict = eps1_perp_homotopy(c, eu, keep_witnesses=False)
        _emit(verdict_report(command, verdict, started))
        return 0 if verdict.holds else 1
    except HypothesisError as exc:
        _emit({"command": command, "error": "hypothesis-not-established",
               "detail": str(exc), "timing_seconds": round(time.time() - started, 6)})
        return 3
    except (DocumentError, ModuleError, ComplexError, UniverseCapError,
            FactorizationCapError, EntrySizeCapError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


def _write_json(path: str, doc) -> None:
    """Write one result file; a failed write is a BuildError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise BuildError(f"cannot write {path}: {exc}") from None


def _build_log_doc(log: list) -> list:
    out = []
    for step in log:
        entry = {"degree": step.degree}
        for key, value in step.data.items():
            entry[key] = _payload_to_doc(value)
        out.append(entry)
    return out


def cmd_build(args) -> int:
    started = time.time()
    try:
        doc = _load_json(args.input)
        y = complex_from_doc(doc)
        xclass = parse_class_spec(args.xclass)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ModuleError, ComplexError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    if args.bound < 1:
        print("build failed: size bound must be at least 1", file=sys.stderr)
        return 2
    outdir = args.output
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"cannot create the output directory: {exc}", file=sys.stderr)
        return 2
    command = ["build", args.kind, args.input, "--class", xclass.key(),
               "--output", outdir]
    try:
        if args.kind in ("precover", "preenvelope"):
            u = module_universe(y.ring, args.bound) if y.ring.is_modular else None
            if args.kind == "preenvelope":
                result = preenvelope_bounded(y, xclass, u=u)
                built, name = result.env, "envelope"
                membership_key, membership = "cokernel_membership", result.cokernel_membership
            else:
                result = precover_bounded(y, xclass, u=u)
                built, name = result.cover, "cover"
                membership_key, membership = "kernel_membership", result.kernel_membership
            built_doc = complex_to_doc(built)
            # re-validate before writing anything
            if not validate_complex(complex_from_doc(built_doc, check=False)).ok:
                raise BuildError(f"re-validation of the built {name} failed")
            _write_json(os.path.join(outdir, "result.json"), built_doc)
            _write_json(os.path.join(outdir, "map.json"), chain_map_to_doc(result.map))
            _write_json(os.path.join(outdir, "build_log.json"),
                        _build_log_doc(result.build_log))
            _emit({"command": command, "verdict": True,
                   membership_key: {str(k): {"factors": list(f), "in_class": ok}
                                    for k, (f, ok) in membership.items()},
                   "timing_seconds": round(time.time() - started, 6)})
            return 0
        result = x_injective_envelope(y, xclass, module_bound=args.bound)
        _write_json(os.path.join(outdir, "result.json"), complex_to_doc(result.envelope))
        _write_json(os.path.join(outdir, "map.json"), chain_map_to_doc(result.inclusion))
        _emit({"command": command, "verdict": result.injective_verdict.holds,
               "essential": result.essential,
               "closure": result.closure_report,
               "universe": result.injective_verdict.universe,
               "timing_seconds": round(time.time() - started, 6)})
        return 0 if result.injective_verdict.holds and result.essential else 1
    except OracleHypothesisError as exc:
        _emit({"command": command, "error": "hypothesis-not-established",
               "detail": str(exc),
               "unsolvable_system": _payload_to_doc(exc.system),
               "timing_seconds": round(time.time() - started, 6)})
        return 3
    except (BuildError, UniverseCapError, FactorizationCapError, EntrySizeCapError) as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return 2


def cmd_universe(args) -> int:
    try:
        ring = Zmod(args.ring)
        xclass = parse_class_spec(args.xclass)
        if args.kind == "modules":
            u = module_universe(ring, args.bound)
            for m in u.members:
                print(json.dumps({"factors": list(m.factors)}))
            return 0
        if args.kind == "complexes":
            cu = default_complex_universe(ring, (0, args.window - 1),
                                          full_bound=min(args.bound, 4),
                                          disk_bound=args.bound)
            for c in cu.members:
                print(json.dumps(complex_to_doc(c), sort_keys=True))
            return 0
        eu = eps1_universe(ring, xclass, base_bound=min(args.bound, 4),
                           window=(-1, args.window - 2))
        for c in enumerate_eps1(eu):
            print(json.dumps(complex_to_doc(c), sort_keys=True))
        return 0
    except (ExactAlgError, ModuleError, UniverseCapError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homkit",
        description="Exact checkers and builders for class-relative homological algebra")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_val = sub.add_parser("validate", help="validate a complex document")
    p_val.add_argument("input")
    p_val.set_defaults(func=cmd_validate)

    p_chk = sub.add_parser("check", help="run a property checker")
    p_chk.add_argument("kind", choices=["exact", "homotopic-zero", "x-injective",
                                        "x-projective", "dg-injective", "dg-projective",
                                        "eps1-perp"])
    p_chk.add_argument("input")
    p_chk.add_argument("--class", dest="xclass", default="all")
    p_chk.add_argument("--bound", type=int, default=8)
    p_chk.add_argument("--window", type=int, default=3)
    p_chk.add_argument("--unsafe-bound", action="store_true")
    p_chk.set_defaults(func=cmd_check)

    p_bld = sub.add_parser("build", help="run a constructive builder")
    p_bld.add_argument("kind", choices=["precover", "preenvelope", "envelope"])
    p_bld.add_argument("input")
    p_bld.add_argument("--class", dest="xclass", default="all")
    p_bld.add_argument("--bound", type=int, default=8)
    p_bld.add_argument("--output", required=True)
    p_bld.add_argument("--unsafe-bound", action="store_true")
    p_bld.set_defaults(func=cmd_build)

    p_uni = sub.add_parser("universe", help="list a universe")
    p_uni.add_argument("kind", choices=["modules", "complexes", "eps1"])
    p_uni.add_argument("--ring", type=int, required=True)
    p_uni.add_argument("--bound", type=int, default=8)
    p_uni.add_argument("--window", type=int, default=3)
    p_uni.add_argument("--class", dest="xclass", default="all")
    p_uni.add_argument("--unsafe-bound", action="store_true")
    p_uni.set_defaults(func=cmd_universe)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if not getattr(args, "unsafe_bound", False):
        return args.func(args)
    print("warning: raising hard caps as requested; expect long enumerations",
          file=sys.stderr)
    with raised_module_cap(max(args.bound, 4096)):    # for this command only
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
