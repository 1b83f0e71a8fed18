"""The process that does one workload's work; started by ``run.py``.

    python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1> <mode>

mode is ``setup`` (set up, report ready, exit), ``run`` or ``record``
(``run`` that also rewrites ``expected/<workload>.json``).  Protocol on
stdout: a line ``READY`` once set-up is done, then one JSON line with the
timed phase's latencies, failures and, when traced, the layer summary.
"""
from __future__ import annotations

import gzip
import json
import os
import resource
import shutil
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, layer_metrics, merge  # noqa: E402

RUN_DIR = os.path.join(ROOT, ".bench_run")
REFERENCE_SECONDS = 15.0     # --seconds at which every workload runs all its inputs


def assert_cold() -> None:
    from homkit.modules import hom_module
    if hom_module.cache_info().currsize != 0:
        raise SystemExit("benchmark: homkit caches are not cold at run start")


def main() -> int:
    workload, seed, seconds, trace, mode = sys.argv[1:6]
    seed, scale, trace = int(seed), float(seconds) / REFERENCE_SECONDS, trace == "1"
    import homkit.cli  # noqa: F401  (every layer, as a user of the library loads it)
    assert_cold()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    tag = f"{workload}-seed{seed}-{os.getpid()}"
    workdir = os.path.join(RUN_DIR, tag)
    trace_dir = os.path.join(workdir, "trace") if trace else None
    os.makedirs(trace_dir or workdir, exist_ok=True)
    try:
        if workload == "cold-cli":
            ops = wl.cold_cli(seed, scale, workdir, trace_dir)
        elif workload == "warm-checks":
            ops = wl.warm_checks(seed, scale)
        else:
            ops = wl.builder_suite(seed, scale)
        print("READY", flush=True)
        after_setup = speed.burst()
        if mode == "setup":
            print(json.dumps({"setup_probes": after_setup}), flush=True)
            return 0
        result = timed_phase(ops, tracer, children=workload == "cold-cli")
        result["setup_probes"] = after_setup
        result["inputs"] = wl.sha([op.key for op in ops])
        result.update(check_phase(workload, ops, result.pop("results"), mode == "record"))
        if tracer:
            result["layers"] = layer_summary(tracer, trace_dir, result,
                                             f"trace-{workload}-seed{seed}.jsonl.gz")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_phase(ops: list, tracer, children: bool) -> dict:
    """Run every operation once, in order, one at a time.  Peak memory is
    this process's, or its largest child's when requests run as children."""
    from homkit.modules import hom_module
    before = hom_module.cache_info()
    if tracer:
        tracer.phase = "timed"
    latencies, results, bursts = [], [], []   # bursts: (index of next op, probe times)
    own_probes = {}
    since_probe = speed.PROBE_EVERY_S
    for index, op in enumerate(ops):
        if since_probe >= speed.PROBE_EVERY_S:
            # three probes, not one: a single 8 ms probe is noisy enough to
            # unsteady the median latency of short operations
            bursts.append((index, speed.burst(3)))
            since_probe = 0.0
        if tracer:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            results.append(op.run())
        except Exception as exc:  # an operation that raises counts as failed
            results.append(exc)
            op.info["raised"] = "".join(traceback.format_exception_only(type(exc), exc))
        latencies.append(time.perf_counter() - t0)
        own = results[-1].get("probes") if isinstance(results[-1], dict) else None
        if own:
            # a request probed inside its own process: not part of its latency
            latencies[-1] -= sum(own)
            own_probes[index] = own
        since_probe += latencies[-1]
    bursts.append((len(ops), speed.burst(3)))
    # each latency in reference seconds, by the probes on either side of it
    scaled, b = [], 0
    for index, lat in enumerate(latencies):
        while bursts[b + 1][0] <= index:
            b += 1
        probes = own_probes.get(index) or bursts[b][1] + bursts[b + 1][1]
        scaled.append(lat * speed.scale(probes))
    after = hom_module.cache_info()
    if tracer:
        tracer.uninstall()
        tracer.phase = "checks"
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return {"latencies": latencies, "scaled": scaled, "results": results,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "hom_cache": [after.hits - before.hits, after.misses - before.misses]}


def check_phase(workload: str, ops: list, results: list, record: bool) -> dict:
    path = os.path.join(BENCH_DIR, "expected", f"{workload}.json")
    expected = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
    records, failures, compared = {}, [], 0
    for op, result in zip(ops, results):
        problems = []
        if "raised" in op.info:
            problems.append("raised " + op.info["raised"].strip())
            rec = None
        else:
            rec = op.record(result)
            problems += op.known(result, rec)
            want = expected.get(op.key)
            if want is not None:
                compared += 1
                if want != rec:
                    problems.append(f"differs from the recorded answer: {rec} != {want}")
        records[op.key] = rec
        if problems:
            failures.append({"op": op.key, "problems": problems})
    if record:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return {"failures": failures, "compared": compared,
            "answers": wl.sha(records)}


def layer_summary(tracer, trace_dir, result: dict, spans_name: str) -> dict:
    """Per-layer metrics of the timed phase (plus a few of set-up); writes
    every span, children's included, to ``.bench_run/<spans_name>``."""
    summaries = [tracer.summary("timed")]
    hom_cache = result["hom_cache"]
    spans = [s for s in tracer.spans if s is not None]
    if os.listdir(trace_dir):
        hom_cache = [0, 0]
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                child = json.load(fh)
            summaries.append(child["summary"])
            hom_cache = [a + b for a, b in zip(hom_cache, child["hom_cache"])]
            spans.extend(tuple(s) for s in child["spans"])
    summary = merge(summaries)
    metrics = layer_metrics(summary, tuple(hom_cache))
    setup = tracer.summary("setup")
    metrics["setup.xclass.pool.self_s"] = (setup.get("xclass.pool.self_s", 0.0), "s")
    metrics["setup.xclass.universe.members"] = (setup.get("xclass.universe.members", 0), "count")
    metrics["setup.complexes.decode.calls"] = (setup.get("complexes.decode.calls", 0), "count")
    spanned = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    metrics["trace.wall_s"] = (sum(result["latencies"]), "s")
    metrics["trace.unspanned_s"] = (sum(result["latencies"]) - spanned, "s")
    os.makedirs(RUN_DIR, exist_ok=True)
    with gzip.open(os.path.join(RUN_DIR, spans_name), "wt",
                   encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
