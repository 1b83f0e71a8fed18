"""The three workloads: seeded inputs, the operations they time, and the
checks applied to every answer.

Inputs are generated with ``algebra`` (not with homkit, so homkit's caches
stay cold until the workload itself touches them).  Each workload returns a
list of ``Op``; the worker times ``Op.run`` and, after the timed phase,
turns each result into a record (``Op.record``) and lists its disagreements
with known answers (``Op.known``).  Records of seed 1 are kept in
``expected/<workload>.json`` and compared by operation key on every seed.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import algebra as alg
import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    key: str                       # stable across seeds: what is computed on what
    run: Callable[[], Any]
    known: Callable[[Any, dict], list]     # (result, record) -> problems
    record: Callable[[Any], dict]          # result -> comparable record
    info: dict = field(default_factory=dict)


def sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def scaled(count: int, scale: float, least: int = 1) -> int:
    return max(least, round(count * scale))


def spread_pick(items: list, count: int) -> list:
    """``count`` items spread evenly over the list (all of them when count
    reaches its length), in list order."""
    if count >= len(items):
        return list(items)
    return [items[(i * len(items)) // count] for i in range(count)]


# ---------------------------------------------------------------------------
# homkit <-> plain data
# ---------------------------------------------------------------------------

def to_homkit(cx: tuple):
    from homkit import Complex, FpModule, IntMatrix, ModuleMap, Zmod
    n, comps, diffs = cx
    ring = Zmod(n)
    mods = {k: FpModule(ring, f) for k, f in comps.items()}
    maps = {k: ModuleMap(mods[k], mods[k + 1], IntMatrix.from_rows(d, cols=len(comps[k])))
            for k, d in diffs.items()}
    return Complex(ring, mods, maps, check=False)


def plain_complex(c) -> tuple:
    degs = c.degrees()
    return alg.make_complex(c.ring.modulus, {k: c.component(k).factors for k in degs},
                            {k: c.differential(k).matrix.entries for k in degs
                             if (k + 1) in degs})


def plain_map(f) -> tuple:
    return (f.source.factors, f.target.factors, f.matrix.entries)


def plain_map_doc(doc) -> Optional[tuple]:
    if doc is None:
        return None
    return (tuple(doc["source_factors"]), tuple(doc["target_factors"]),
            tuple(tuple(r) for r in doc["matrix"]))


def cx_key(cx: tuple) -> str:
    n, comps, diffs = cx
    return sha([n, sorted(comps.items()), sorted((k, [list(r) for r in d])
                                                for k, d in diffs.items())])


# ---------------------------------------------------------------------------
# Known-answer checks on built covers and envelopes (brute force)
# ---------------------------------------------------------------------------

def _compose(f: tuple, g: tuple) -> tuple:
    """(f after g) as plain map data."""
    return (g[0], f[1], alg.compose(f[2], g[2], g[0], g[1], f[1]))


def check_build(kind: str, y: tuple, built: tuple, maps: dict, steps: list) -> list:
    """Exactness, degreewise epi (mono) and the step identities of a
    precover (preenvelope) build of class ``all``, whose kernels (cokernels)
    lie in the class trivially.  ``maps`` holds the plain chain-map
    components, ``steps`` the build log as plain maps."""
    bad = []
    if not alg.is_complex(built) or not alg.is_exact(built):
        bad.append("built complex is not an exact complex")
    _, ycomps, _ = y
    for k, (src, tgt, mat) in maps.items():
        if kind == "precover":
            if k in ycomps and len(alg.image(mat, src, tgt)) != alg.size(tgt):
                bad.append(f"cover map not onto at degree {k}")
        elif alg.kernel_size(mat, src, tgt) != 1:
            bad.append(f"envelope map not injective at degree {k}")
    for k in ycomps:
        if k not in maps:
            bad.append(f"no map component at degree {k}")
    for step in steps[1:]:
        deg = step["degree"]
        if kind == "precover":
            if _compose(step["map"], step["s1"])[2] != _compose(step["a_prev"],
                                                               step["vertical_prev"])[2]:
                bad.append(f"square identity fails at degree {deg}")
            if _compose(step["s2"], step["lambda_top"])[2] != alg.reduce(step["s1"][2],
                                                                       step["s1"][1]):
                bad.append(f"glue identity fails at degree {deg}")
            if step["lambda_prev"] is not None and \
                    not alg.is_zero(_compose(step["s1"], step["lambda_prev"])[2]):
                bad.append(f"chain identity fails at degree {deg}")
        else:
            if _compose(step["s"], step["map"])[2] != _compose(step["vertical_prev"],
                                                              step["a"])[2]:
                bad.append(f"square identity fails at degree {deg}")
            if _compose(step["lambda_low"], step["t"])[2] != alg.reduce(step["s"][2],
                                                                      step["s"][1]):
                bad.append(f"glue identity fails at degree {deg}")
    return bad


STEP_MAPS = ("map", "s1", "s2", "lambda_top", "lambda_prev", "vertical_prev", "a_prev",
             "s", "t", "lambda_low", "a")


def plain_steps_lib(log: list) -> list:
    out = []
    for step in log:
        entry = {"degree": step.degree}
        for key in STEP_MAPS:
            if key in step.data:
                value = step.data[key]
                entry[key] = None if value is None else plain_map(value)
        out.append(entry)
    return out


def plain_steps_doc(log: list) -> list:
    out = []
    for step in log:
        entry = {"degree": step["degree"]}
        for key in STEP_MAPS:
            if key in step:
                entry[key] = plain_map_doc(step[key])
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# Records of in-process results
# ---------------------------------------------------------------------------

def verdict_record(verdict) -> dict:
    from homkit.cli import _payload_to_doc
    return {"holds": verdict.holds, "checked": verdict.checked, "universe": verdict.universe,
            "counterexample": sha(_payload_to_doc(verdict.counterexample)),
            "certificate": sha(_payload_to_doc(verdict.witnesses)),
            "extra": sha(_payload_to_doc(verdict.extra))}


def build_record(result) -> dict:
    from homkit.cli import _build_log_doc, chain_map_to_doc, complex_to_doc
    if isinstance(result, Exception):
        return {"error": type(result).__name__, "message": str(result)}
    built, cmap, tested = result
    return {"result": sha(complex_to_doc(built.cover if hasattr(built, "cover") else built.env)),
            "map": sha(chain_map_to_doc(cmap)),
            "build_log": sha(_build_log_doc(built.build_log)),
            "maps_tested": tested}


# ---------------------------------------------------------------------------
# builder-suite
# ---------------------------------------------------------------------------

def two_degree_complexes(n: int, bound: int) -> list:
    """Every complex on degrees 0 and 1 with components of at most ``bound``
    elements (the acceptance suite's shape), in a fixed order."""
    members = alg.factor_chains(n, bound)
    out = [alg.make_complex(n, {}, {})]
    for m in members[1:]:
        out.append(alg.sphere(n, 0, m))
        out.append(alg.sphere(n, 1, m))
    for m0 in members[1:]:
        for m1 in members[1:]:
            for d in alg.homs(m0, m1):
                out.append(alg.make_complex(n, {0: m0, 1: m1}, {0: d}))
    return out


def _hypothesis_input(rng, n: int, cls: str) -> tuple:
    """A complex with a component outside what the class can cover or
    envelope: a non-free component for ``free``, an element of order 4 for
    ``ann:2``.  Both builders must raise OracleHypothesisError."""
    members = alg.factor_chains(n, 8)[1:]
    bad = [m for m in members if (not alg.is_free(n, m) if cls == "free" else 4 in m)]
    while True:
        cx = alg.random_complex(rng, n, members, rng.randint(1, 3))
        if any(f in bad for f in cx[1].values()):
            return cx


BUILDER_RANDOM = 20      # seeded three-degree inputs on Z/4
BUILDER_CRT = 16         # seeded inputs on Z/6 and Z/9
BUILDER_HYPOTHESIS = 12  # seeded inputs expected to fail the oracle hypothesis


def builder_suite(seed: int, scale: float) -> list:
    from homkit import (ALL, FREE, ann, module_universe, precover_bounded,
                        preenvelope_bounded, verify_precover_factorization,
                        verify_preenvelope_factorization)
    from homkit.construct import OracleHypothesisError
    classes = {"all": ALL, "free": FREE, "ann:2": ann(2)}
    # The two-degree core is the same on every seed, so every run is also
    # compared with the recorded answers.  The other slices have shapes and
    # isomorphism types fixed here; the seed picks an isomorphic copy of each.
    core = two_degree_complexes(4, 8)
    inputs = [(cx, "all") for cx in spread_pick(core, scaled(len(core), scale))]
    fixed = random.Random(0)
    members4 = alg.factor_chains(4, 8)
    bases = [(alg.random_complex(fixed, 4, members4, 3), "all")
             for _ in range(scaled(BUILDER_RANDOM, scale, 4))]
    for i in range(scaled(BUILDER_CRT, scale, 4)):
        n = (6, 9)[i % 2]
        bases.append((alg.random_complex(fixed, n, alg.factor_chains(n, 8),
                                         fixed.randint(2, 3)), "all"))
    for i in range(scaled(BUILDER_HYPOTHESIS, scale, 4)):
        cls = ("free", "ann:2")[i % 2]
        bases.append((_hypothesis_input(fixed, 4, cls), cls))
    rng = random.Random(seed)
    inputs += [(alg.twist(rng, cx), cls) for cx, cls in bases]

    def make(index: int, cx: tuple, cls: str) -> Op:
        kind = ("precover", "preenvelope")[index % 2]
        y = to_homkit(cx)
        x = classes[cls]
        build = precover_bounded if kind == "precover" else preenvelope_bounded
        verify = verify_precover_factorization if kind == "precover" \
            else verify_preenvelope_factorization

        def run():
            # the smallest universe holding the free module of rank one
            # (bound 8 on Z/9 has none, and the cover hypothesis fails there)
            u = module_universe(y.ring, max(8, cx[0]))
            try:
                built = build(y, x, u=u)
            except OracleHypothesisError as exc:
                return exc
            return built, built.map, verify(built, y, x, u)

        def known(result, record):
            if cls != "all":
                if not isinstance(result, OracleHypothesisError):
                    return [f"{kind} on {cls}: expected OracleHypothesisError, got {record}"]
                return []
            if isinstance(result, Exception):
                return [f"{kind}: unexpected {type(result).__name__}: {result}"]
            built, cmap, _ = result
            comp = built.cover if kind == "precover" else built.env
            maps = {k: plain_map(cmap.component(k)) for k in cmap.source.degrees()}
            return check_build(kind, cx, plain_complex(comp), maps,
                               plain_steps_lib(built.build_log))

        return Op(f"{kind}|{cls}|{cx_key(cx)}", run, known, build_record)

    # the builders alternate, so each sees every shape of the two-degree core
    return [make(i, cx, cls) for i, (cx, cls) in enumerate(inputs)]


# ---------------------------------------------------------------------------
# warm-checks
# ---------------------------------------------------------------------------

WARM_RINGS = (4, 6)
WARM_CORE_PER_RING = 5   # passing disks and projective-component complexes
WARM_PAIR_BOUND = 8      # one slot per ordered pair of components this small


def _projective_complexes(n: int) -> list:
    """Complexes on degrees 0..2 with projective (= injective over Z/n)
    components of at most n elements: the shape of acceptance criterion 04."""
    members = [m for m in alg.factor_chains(n, n)[1:] if alg.is_injective(n, m)]
    out = []
    for combo in ((a, b, c) for a in members for b in members for c in members):
        for d0 in alg.homs(combo[0], combo[1]):
            for d1 in alg.homs(combo[1], combo[2]):
                if alg.is_zero(alg.compose(d1, d0, combo[0], combo[1], combo[2])) \
                        and not alg.is_zero(d0) and not alg.is_zero(d1):
                    out.append(alg.make_complex(n, dict(enumerate(combo)), {0: d0, 1: d1}))
    return out


def warm_core(n: int) -> list:
    free = (n,)
    disks = [alg.disk(n, 0, free), alg.disk(n, 1, free),
             alg.direct_sum([alg.disk(n, 0, free), alg.disk(n, 1, free)])]
    return disks + _projective_complexes(n)


def warm_setup() -> dict:
    """The universes every timed check reads: per ring, the complex
    universe of supports (0, 1) with its mono pool (disks and spheres up to
    4 elements), the exact-complex universe and the module mono pool."""
    from homkit import ALL, Zmod, default_complex_universe, eps1_universe, module_universe
    universes = {}
    for n in WARM_RINGS:
        ring = Zmod(n)
        cu = default_complex_universe(ring, (0, 1), full_bound=4, disk_bound=4)
        cu.mono_pool()
        eu = eps1_universe(ring, ALL, base_bound=4, window=(-1, 1))
        eu.members
        mu = module_universe(ring, 8)
        mu.mono_pool()
        universes[n] = (cu, eu, mu)
    return universes


def warm_checks(seed: int, scale: float) -> list:
    universes = warm_setup()
    rng = random.Random(seed)
    stream, seen = [], set()

    def push(cx) -> bool:
        c = to_homkit(cx)
        if c.canonical_key() in seen:
            return False
        seen.add(c.canonical_key())
        stream.append((cx, c))
        return True

    # Fixed shapes and isomorphism types, so every seed costs about the
    # same: the passing core (the same on every seed), then one complex per
    # ordered pair of small components with a differential fixed here, of
    # which the seed picks an isomorphic copy (random automorphisms of the
    # components; the first unseen of a few tries).
    for n in WARM_RINGS:
        core = warm_core(n)
        for cx in spread_pick(core[:3], scaled(3, scale)) + \
                spread_pick(core[3:], scaled(WARM_CORE_PER_RING - 3, scale)):
            push(cx)
    fixed = random.Random(0)
    slots = []
    for n in WARM_RINGS:
        small = alg.factor_chains(n, WARM_PAIR_BOUND)[1:]
        for m0 in small:
            for m1 in small:
                homs = alg.homs(m0, m1)
                start = fixed.randrange(len(homs))
                slots.append([alg.make_complex(n, {0: m0, 1: m1},
                                               {0: homs[(start + i) % len(homs)]})
                              for i in range(len(homs))])
    for candidates in spread_pick(slots, scaled(len(slots), scale)):
        any(push(alg.twist(rng, base)) for base in candidates for _ in range(8))
    rng.shuffle(stream)
    ops = []
    for cx, c in stream:
        ops.extend(warm_ops(cx, c, *universes[cx[0]]))
    return ops


def warm_ops(cx: tuple, c, cu, eu, mu) -> list:
    """The three certified checks of one complex, with their known answers."""
    from homkit import ALL, dg_x_injective, eps1_perp_homotopy, x_injective_complex
    n, comps, _ = cx
    injective = [alg.is_injective(n, m) for m in comps.values()]
    # bounded exact complexes of injectives split into disks on injectives
    split = bool(comps) and all(injective) and alg.is_exact(cx)
    first_bad = next((k for k, ok in zip(comps, injective) if not ok), None)

    def inj_known(v, record):
        if split and not v.holds:
            return ["x_injective_complex fails on a sum of disks on injectives"]
        if len(comps) == 1 and v.holds:
            return ["x_injective_complex holds on a sphere on a nonzero module"]
        return []

    def perp_known(v, record):
        if all(injective) and not v.holds:
            return ["eps1_perp_homotopy fails on a bounded complex of projectives"]
        return []

    def dg_known(v, record):
        ce = v.counterexample or {}
        if first_bad is not None:
            if v.holds or ce.get("kind") != "component" or ce.get("degree") != first_bad:
                return [f"dg_x_injective: component {first_bad} is not injective, "
                        f"verdict {v.holds} / {ce.get('kind')}"]
        elif ce.get("kind") == "component":
            return ["dg_x_injective rejects an injective component"]
        return []

    key = cx_key(cx)
    return [
        Op(f"x-injective|{key}", lambda: x_injective_complex(c, ALL, cu, keep_witnesses=True),
           inj_known, verdict_record),
        Op(f"eps1-perp|{key}", lambda: eps1_perp_homotopy(c, eu, keep_witnesses=True),
           perp_known, verdict_record),
        Op(f"dg-injective|{key}",
           lambda: dg_x_injective(c, ALL, eu, mu=mu, keep_witnesses=True),
           dg_known, verdict_record),
    ]


# ---------------------------------------------------------------------------
# cold-cli
# ---------------------------------------------------------------------------

MALFORMED = [
    '{"ring": {"mod": 4}, "modules": {"0": [4], "1": [4]}, "diff": {"0": [[1], [1]]}}',
    '{"ring": {"mod": 4}, "modules": {"0": [4], "1": [4], "2": [4]}, '
    '"diff": {"0": [[1]], "1": [[1]]}}',
    '{"ring": {"mod": 4}, "modules": {"0": [3]}}',
    '{"ring": {"mod": 4}, "modules": {"0": [2]',
]

TIMING_KEYS = ("timing_seconds",)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def cli_mix(seed: int) -> list:
    """One mix of command-line requests: (name, args, document, expected
    exit code or None, extra known-answer data).  Kinds, rings, modules and
    isomorphism types are fixed here, so every seed costs about the same;
    the seed picks the degrees, an isomorphic copy of each random complex
    and which malformed document is sent."""
    fixed = random.Random(0)
    rng = random.Random(seed)
    degree = functools.partial(rng.choice, [0, 1])
    mods4 = alg.factor_chains(4, 8)[1:]
    noninj = alg.random_complex(fixed, 4, mods4, 2)
    while all(alg.is_injective(4, m) for m in noninj[1].values()):
        noninj = alg.random_complex(fixed, 4, mods4, 2)
    bad = min(k for k, m in noninj[1].items() if not alg.is_injective(4, m))
    perp_free = alg.random_complex(fixed, 4, [(4,)], 2)
    perp_small = alg.random_complex(fixed, 4, alg.factor_chains(4, 4)[1:], 2)
    precover = alg.random_complex(fixed, 4, mods4, 3)
    preenvelope = alg.random_complex(fixed, 4, mods4, 3)
    return [
        ("x-injective sphere Z/4", ["check", "x-injective"],
         alg.sphere(4, degree(), (2, 4)), 1, {}),
        ("x-injective disk Z/8", ["check", "x-injective", "--bound", "4"],
         alg.disk(8, degree(), (8,)), 0, {}),
        ("x-projective sphere Z/2", ["check", "x-projective", "--bound", "4"],
         alg.sphere(2, degree(), (2, 2)), 1, {}),
        ("x-projective disk Z/6", ["check", "x-projective", "--bound", "4"],
         alg.disk(6, degree(), (6,)), 0, {}),
        ("envelope Z/2", ["build", "envelope"], alg.sphere(2, degree(), (2,)), 0,
         {"envelope": True}),
        ("eps1-perp projective", ["check", "eps1-perp"], alg.twist(rng, perp_free), 0, {}),
        ("eps1-perp random", ["check", "eps1-perp"], alg.twist(rng, perp_small), None, {}),
        ("dg-injective sphere", ["check", "dg-injective"], alg.sphere(4, degree(), (4, 4)),
         0, {}),
        ("dg-injective random", ["check", "dg-injective"], alg.twist(rng, noninj), 1,
         {"component_degree": bad}),
        ("precover", ["build", "precover"], alg.twist(rng, precover), 0,
         {"build": "precover"}),
        ("preenvelope", ["build", "preenvelope"], alg.twist(rng, preenvelope), 0,
         {"build": "preenvelope"}),
        ("malformed", ["check", "x-injective"], rng.choice(MALFORMED), 2, {}),
    ]


def cli_record(out: dict) -> dict:
    """Exit code, the report without timing fields, and the written files."""
    record = {"exit": out["exit"]}
    try:
        record["report"] = sha(strip_timing(json.loads(out["stdout"])))
    except ValueError:
        record["report"] = None
    for name in ("result.json", "map.json", "build_log.json"):
        if name in out["files"]:
            record[name] = sha(out["files"][name])
    return record


def cli_known(expected_exit, extra: dict, cx) -> Callable:
    def known(out, record):
        bad = []
        if "Traceback" in out["stderr"]:
            bad.append("traceback on stderr")
        if expected_exit is not None and out["exit"] != expected_exit:
            bad.append(f"exit {out['exit']}, expected {expected_exit}")
        elif expected_exit is None and out["exit"] not in (0, 1):
            bad.append(f"exit {out['exit']}, expected 0 or 1")
        if out["exit"] in (0, 1) and expected_exit != 2:
            try:
                report = json.loads(out["stdout"])
            except ValueError:
                return bad + ["report is not JSON"]
            if "component_degree" in extra:
                ce = report.get("counterexample", {})
                if ce.get("kind") != "component" or ce.get("degree") != extra["component_degree"]:
                    bad.append("dg-injective did not reject the first non-injective component")
            if "build" in extra and out["exit"] == 0:
                bad += _cli_build_known(extra["build"], cx, out["files"])
            if extra.get("envelope") and out["exit"] == 0:
                env = alg.from_doc(out["files"]["result.json"])
                if not alg.is_exact(env) or not all(alg.is_injective(env[0], m)
                                                    for m in env[1].values()):
                    bad.append("envelope is not a split exact complex of injectives")
        return bad
    return known


def _cli_build_known(kind: str, cx: tuple, files: dict) -> list:
    mdoc = files["map.json"]
    src = alg.from_doc(mdoc["source"])[1]
    tgt = alg.from_doc(mdoc["target"])[1]
    maps = {}
    for k, s in src.items():
        rows = mdoc["map"].get(str(k))
        t = tgt.get(k, ())
        maps[k] = (s, t, tuple(tuple(r) for r in rows) if rows else alg.zero_map(s, t))
    return check_build(kind, cx, alg.from_doc(files["result.json"]), maps,
                       plain_steps_doc(files["build_log.json"]))


def cold_cli(seed: int, scale: float, workdir: str, trace_dir: Optional[str]) -> list:
    """Requests of ``max(1, round(scale))`` mixes; below a scale of 0.5 only
    the requests that take well under a second are kept (for self-tests)."""
    mixes = max(1, round(scale))
    ops = []
    for m in range(mixes):
        for name, args, cx, expected_exit, extra in cli_mix(seed + 7919 * m):
            if scale < 0.5 and (name.startswith("x-") or name.startswith("envelope")):
                continue
            index = len(ops)
            reqdir = os.path.join(workdir, f"req{index:03d}")
            os.makedirs(reqdir)
            with open(os.path.join(reqdir, "input.json"), "w", encoding="utf-8") as fh:
                fh.write(cx if isinstance(cx, str) else json.dumps(alg.to_doc(cx)))
            argv = args + ["input.json"] + (["--output", "out"] if args[0] == "build" else [])
            key_doc = cx if isinstance(cx, str) else alg.to_doc(cx)
            trace_file = os.path.join(trace_dir, f"req{index:03d}.json") if trace_dir else None
            run = functools.partial(run_request, reqdir, argv, index, trace_file)
            known = cli_known(expected_exit, extra, None if isinstance(cx, str) else cx)
            ops.append(Op(f"cli|{' '.join(argv)}|{sha(key_doc)}", run, known, cli_record))
    return ops


def run_request(reqdir: str, argv: list, index: int, trace_file: Optional[str]) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_request.py"),
           trace_file or "-", str(index), "--"] + argv
    proc = subprocess.run(cmd, cwd=reqdir, capture_output=True, text=True, timeout=170)
    stderr, mark, probes = proc.stderr.rpartition(speed.PROBE_MARK)
    if not mark:
        stderr, probes = proc.stderr, ""
    files = {}
    outdir = os.path.join(reqdir, "out")
    for name in ("result.json", "map.json", "build_log.json"):
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                files[name] = json.load(fh)
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": stderr,
            "files": files, "probes": json.loads(probes) if probes else []}


