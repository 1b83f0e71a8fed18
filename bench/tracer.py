"""Spans and counts around homkit's public functions, installed from outside.

``Tracer.install()`` replaces each wrapped function in every ``homkit``
module that holds it (``lifting``, ``xclass`` and ``construct`` import many
lower-layer names directly) and wraps methods and properties on their
classes.  Spans stay in memory, tagged with the phase (``setup`` or
``timed``) and the id of the operation that caused them; the worker writes
them out when the run ends.  Self time is a span's duration minus the time
covered by its direct child spans.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "construct", "lifting", "xclass", "complexes", "modules", "exactalg")

# (module, attribute, span name); an attribute "Class.method" wraps a method
# or property on the class.
SPANS = [
    ("cli", "main", "cli"),
    ("construct", "precover_bounded", "construct.build"),
    ("construct", "preenvelope_bounded", "construct.build"),
    ("construct", "x_injective_envelope", "construct.build"),
    ("construct", "verify_precover_factorization", "construct.verify"),
    ("construct", "verify_preenvelope_factorization", "construct.verify"),
    ("lifting", "x_injective_module", "lifting.checks"),
    ("lifting", "x_projective_module", "lifting.checks"),
    ("lifting", "x_injective_complex", "lifting.checks"),
    ("lifting", "x_projective_complex", "lifting.checks"),
    ("lifting", "eps1_perp_homotopy", "lifting.checks"),
    ("lifting", "dg_x_injective", "lifting.checks"),
    ("lifting", "dg_x_projective", "lifting.checks"),
    ("xclass", "ModuleUniverse.members", "xclass.pool"),
    ("xclass", "ModuleUniverse.mono_pool", "xclass.pool"),
    ("xclass", "ModuleUniverse.epi_pool", "xclass.pool"),
    ("xclass", "ComplexUniverse.members", "xclass.pool"),
    ("xclass", "ComplexUniverse.mono_pool", "xclass.pool"),
    ("xclass", "ComplexUniverse.epi_pool", "xclass.pool"),
    ("xclass", "Eps1Universe.members", "xclass.pool"),
    ("complexes", "chain_map_group", "complexes.chain_map_group"),
    ("complexes", "ChainMapGroup.decode", "complexes.decode"),
    ("complexes", "hom_complex_data", "complexes.hom_complex_data"),
    ("complexes", "null_homotopy", "complexes.null_homotopy"),
    ("complexes", "is_exact", "complexes.is_exact"),
    ("modules", "hom_module", "modules.hom_module"),
    ("modules", "normalize_presentation", "modules.presentation"),
    ("modules", "kernel", "modules.kernel"),
    ("modules", "cokernel", "modules.cokernel"),
    ("modules", "cokernel_with_section", "modules.cokernel"),
    ("modules", "MapSystem.solve", "modules.mapsystem"),
    ("exactalg", "CongruenceSystem.solve", "exactalg.solve"),
    ("exactalg", "integer_kernel", "exactalg.kernel"),
    ("exactalg", "smith_normal_form", "exactalg.kernel"),
    ("exactalg", "howell_form", "exactalg.kernel"),
    ("exactalg", "solve_linear", "exactalg.kernel"),
]

# (module, attribute, counter), counted without a span: their time stays
# with the caller's span.
COUNTED = [
    ("xclass", "chain_monos", "xclass.pool.decoded"),
    ("xclass", "chain_epis", "xclass.pool.decoded"),
    ("xclass", "enumerate_monos", "xclass.pool.decoded"),
    ("xclass", "enumerate_epis", "xclass.pool.decoded"),
    ("modules", "ModuleMap.__post_init__", "modules.map.constructed"),
    ("modules", "ModuleMap.apply", "modules.map.apply_calls"),
]


def _hom_size(a, b) -> int:
    """|Hom(a, b)| for modules over Z/n, from the invariant factors alone."""
    total = 1
    for di in b.factors:
        for dj in a.factors:
            total *= math.gcd(dj, di)
    return total


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.op = None
        self.spans = []           # (op, phase, name, parent index, start, end)
        self._stack = []          # [span index, child time, name]
        self.self_s = defaultdict(float)     # (phase, name) -> seconds
        self.calls = Counter()               # (phase, name) -> calls
        self.counts = Counter()              # (phase, counter) -> value
        self._group_sizes = {}
        self._returned = {}                  # id -> verdict, kept alive
        self._built = {}                     # id -> pool or member list
        self._seen_pairs = set()             # (phase, source key, target key)
        self._seen_systems = set()           # (phase, hash of coefficients)
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent, parent_name = (stack[-1][0], stack[-1][2]) if stack else (-1, "")
            tracer.spans.append(None)
            frame = [index, 0.0, name]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame, parent, start)
                # counted once, where it leaves the outermost construct call
                if type(exc).__name__ == "OracleHypothesisError" and \
                        name.startswith("construct.") and not parent_name.startswith("construct."):
                    tracer.counts[(tracer.phase, "construct.hypothesis_failures")] += 1
                raise
            tracer._close(name, frame, parent, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _close(self, name, frame, parent, start):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - start
        key = (self.phase, name)
        self.self_s[key] += dur - frame[1]
        self.calls[key] += 1
        if stack:
            stack[-1][1] += dur
        self.spans[frame[0]] = (self.op, self.phase, name, parent, start, end)

    def _count(self, counter, fn, amount=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[(tracer.phase, counter)] += 1 if amount is None \
                else amount(args, result)
            return result

        return wrapper

    # -- per-function bookkeeping --------------------------------------------

    def _after_lifting(self, args, kwargs, verdict):
        if id(verdict) in self._returned:
            self.counts[(self.phase, "lifting.cache_returns")] += 1
            return
        if not verdict.witnesses:
            self._returned[id(verdict)] = verdict
        self.counts[(self.phase, "lifting.instances_checked")] += verdict.checked

    def _after_verify(self, args, kwargs, tested):
        self.counts[(self.phase, "construct.verify.maps_tested")] += tested

    def _after_build(self, args, kwargs, result):
        examined = getattr(result, "candidates_examined", None)
        if examined is not None:
            self.counts[(self.phase, "construct.envelope.candidates")] += examined

    def _after_chain_group(self, args, kwargs, grp):
        a, b = args[0], args[1]
        key = (a.canonical_key(), b.canonical_key())
        self._group_sizes[key] = grp.module.size() or 0
        if (self.phase, key) not in self._seen_pairs:
            self._seen_pairs.add((self.phase, key))
            self.counts[(self.phase, "complexes.chain_map_group.distinct")] += 1

    def _first_time(self, obj) -> bool:
        """True the first time a cached list is handed out (kept alive so
        its id stays unique)."""
        if id(obj) in self._built:
            return False
        self._built[id(obj)] = obj
        return True

    def _after_pool(self, args, kwargs, pool):
        if self._first_time(pool):
            self.counts[(self.phase, "xclass.pool.kept")] += len(pool)

    def _after_members(self, args, kwargs, members):
        if self._first_time(members):
            self.counts[(self.phase, "xclass.universe.members")] += len(members)

    def _after_solve(self, args, kwargs, result):
        system = args[0]
        if result[0] is None:
            self.counts[(self.phase, "exactalg.solve.unsolvable")] += 1
        key = hash((system.ring.modulus, system.nvars,
                    tuple((tuple(sorted(row.items())), m)
                          for row, m in zip(system._rows, system._mods))))
        if (self.phase, key) not in self._seen_systems:
            self._seen_systems.add((self.phase, key))
            self.counts[(self.phase, "exactalg.solve.distinct_systems")] += 1

    def _chain_decoded(self, args, result):
        return self._group_sizes.get((args[0].canonical_key(), args[1].canonical_key()), 0)

    @staticmethod
    def _monos_decoded(args, result):
        a, b = args[0], args[1]
        return _hom_size(a, b) if a.size() <= b.size() else 0

    @staticmethod
    def _epis_decoded(args, result):
        a, b = args[0], args[1]
        return _hom_size(a, b) if a.size() >= b.size() else 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import homkit.cli  # noqa: F401  (loads every layer)
        after = {
            "lifting.checks": self._after_lifting,
            "construct.verify": self._after_verify,
            "construct.build": self._after_build,
            "complexes.chain_map_group": self._after_chain_group,
            "exactalg.solve": self._after_solve,
        }
        for mod_name, attr, name in SPANS:
            hook = after.get(name)
            if attr.endswith(".members"):
                hook = self._after_members
            elif attr.endswith("_pool"):
                hook = self._after_pool
            self._replace(mod_name, attr, lambda fn, n=name, h=hook: self._span(n, fn, h))
        amounts = {
            "chain_monos": self._chain_decoded,
            "chain_epis": self._chain_decoded,
            "enumerate_monos": self._monos_decoded,
            "enumerate_epis": self._epis_decoded,
        }
        for mod_name, attr, counter in COUNTED:
            self._replace(mod_name, attr, lambda fn, c=counter, a=amounts.get(attr):
                          self._count(c, fn, a))

    def _replace(self, mod_name, attr, make):
        module = sys.modules[f"homkit.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, property):
                wrapped = property(make(original.fget))
            else:
                wrapped = make(original)
            setattr(cls, meth, wrapped)
            self._restore.append((cls, meth, original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        if hasattr(original, "cache_info"):
            wrapped.cache_info = original.cache_info
            wrapped.cache_clear = original.cache_clear
        for name, mod in list(sys.modules.items()):
            if name == "homkit" or name.startswith("homkit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def summary(self, phase: str = "timed") -> dict:
        """Counts and self times of one phase, keyed by metric name."""
        out = {}
        for (ph, name), secs in self.self_s.items():
            if ph == phase:
                out[f"{name}.self_s"] = secs
                out[f"{name}.calls"] = self.calls[(ph, name)]
        for (ph, name), value in self.counts.items():
            if ph == phase:
                out[name] = value
        return out


def merge(summaries: list) -> dict:
    total = Counter()
    for s in summaries:
        for k, v in s.items():
            total[k] += v
    return dict(total)


def layer_metrics(summary: dict, hom_cache: tuple) -> dict:
    """The per-layer metrics reported by the benchmark, from a summary and
    ``hom_module.cache_info()`` as (hits, misses)."""
    g = summary.get

    def secs(name):
        return g(f"{name}.self_s", 0.0)

    def calls(name):
        return g(f"{name}.calls", 0)

    decoded = g("xclass.pool.decoded", 0)
    kept = g("xclass.pool.kept", 0)
    hits, misses = hom_cache
    solve_calls = calls("exactalg.solve")
    out = {
        "cli.self_s": (secs("cli"), "s"),
        "construct.build.calls": (calls("construct.build"), "count"),
        "construct.build.self_s": (secs("construct.build"), "s"),
        "construct.verify.self_s": (secs("construct.verify"), "s"),
        "construct.verify.maps_tested": (g("construct.verify.maps_tested", 0), "count"),
        "construct.hypothesis_failures": (g("construct.hypothesis_failures", 0), "count"),
        "construct.envelope.candidates": (g("construct.envelope.candidates", 0), "count"),
        "lifting.checks.calls": (calls("lifting.checks"), "count"),
        "lifting.checks.self_s": (secs("lifting.checks"), "s"),
        "lifting.instances_checked": (g("lifting.instances_checked", 0), "count"),
        "lifting.cache_returns": (g("lifting.cache_returns", 0), "count"),
        "xclass.pool.self_s": (secs("xclass.pool"), "s"),
        "xclass.pool.decoded": (decoded, "count"),
        "xclass.pool.kept": (kept, "count"),
        "xclass.pool.keep_ratio": (kept / decoded if decoded else 0.0, "ratio"),
        "xclass.universe.members": (g("xclass.universe.members", 0), "count"),
        "complexes.chain_map_group.calls": (calls("complexes.chain_map_group"), "count"),
        "complexes.chain_map_group.distinct": (g("complexes.chain_map_group.distinct", 0), "count"),
        "complexes.chain_map_group.self_s": (secs("complexes.chain_map_group"), "s"),
        "complexes.decode.calls": (calls("complexes.decode"), "count"),
        "complexes.decode.self_s": (secs("complexes.decode"), "s"),
        "complexes.hom_complex_data.self_s": (secs("complexes.hom_complex_data"), "s"),
        "complexes.null_homotopy.calls": (calls("complexes.null_homotopy"), "count"),
        "complexes.null_homotopy.self_s": (secs("complexes.null_homotopy"), "s"),
        "complexes.is_exact.calls": (calls("complexes.is_exact"), "count"),
        "complexes.is_exact.self_s": (secs("complexes.is_exact"), "s"),
        "modules.hom_module.calls": (calls("modules.hom_module"), "count"),
        "modules.hom_module.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                         "ratio"),
        "modules.presentation.calls": (calls("modules.presentation"), "count"),
        "modules.presentation.self_s": (secs("modules.presentation"), "s"),
        "modules.kernel.calls": (calls("modules.kernel"), "count"),
        "modules.kernel.self_s": (secs("modules.kernel"), "s"),
        "modules.cokernel.calls": (calls("modules.cokernel"), "count"),
        "modules.cokernel.self_s": (secs("modules.cokernel"), "s"),
        "modules.mapsystem.calls": (calls("modules.mapsystem"), "count"),
        "modules.mapsystem.self_s": (secs("modules.mapsystem"), "s"),
        "modules.map.constructed": (g("modules.map.constructed", 0), "count"),
        "modules.map.apply_calls": (g("modules.map.apply_calls", 0), "count"),
        "exactalg.solve.calls": (solve_calls, "count"),
        "exactalg.solve.self_s": (secs("exactalg.solve"), "s"),
        "exactalg.solve.unsolvable": (g("exactalg.solve.unsolvable", 0), "count"),
        "exactalg.solve.distinct_systems": (g("exactalg.solve.distinct_systems", 0), "count"),
        "exactalg.kernel.calls": (calls("exactalg.kernel"), "count"),
        "exactalg.kernel.self_s": (secs("exactalg.kernel"), "s"),
    }
    for layer in LAYERS:
        total = sum(v for k, v in summary.items()
                    if k.endswith(".self_s") and k.split(".")[0] == layer)
        out[f"{layer}.layer_self_s"] = (total, "s")
    return out
