"""homkit benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload {cold-cli,warm-checks,builder-suite}
                         --seed N --seconds S --trace {0,1} [--record]

Run from the repository root.  Every run starts fresh interpreters: a few
that only set up (for the median ``setup_s``) and one worker that sets up,
runs the timed phase once and checks every answer.  ``--trace 1`` wraps
homkit's layers from outside and reports per-layer metrics instead of the
end-to-end ones.  ``--record`` rewrites ``expected/<workload>.json`` from
this run's answers.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; lines before it give
every metric by name and unit and every failed check.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cold-cli", "warm-checks", "builder-suite")
# set-up runs per run, the worker's own included; warm-checks builds its
# universes in set-up (about ten seconds each), so it takes two samples
# instead of three to keep a run under a minute
SETUP_SAMPLES = {"cold-cli": 3, "warm-checks": 2, "builder-suite": 3}
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    pass


def spawn_worker(args, mode: str, env: dict, deadline: float):
    """Start a worker; return (set-up seconds scaled by the machine speed
    probed just before the start and just after READY, the worker's last
    stdout line as JSON)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), mode]
    before = speed.burst()
    started = time.perf_counter()
    # the worker leads its own process group, so its requests die with it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    # a worker still running at the deadline is killed, which ends its stdout
    watchdog = threading.Timer(max(0.0, deadline - started), kill_group)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise BenchError("run exceeded its deadline")
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return ready * speed.scale(before + result["setup_probes"]), result


def end_to_end(result: dict, setup: list) -> dict:
    """The end-to-end metrics, in reference seconds (see speed.py).  The
    timed phase's wall time is the sum of the operations' latencies, which
    leaves out the probes between them."""
    lat = result["scaled"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(lat), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.exists(os.path.join(ROOT, "src", "homkit", "cli.py")):
        print("benchmark: src/homkit is missing; run from a homkit checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = dict(os.environ, PYTHONHASHSEED="0")
    # compile homkit's bytecode once, untimed, so no sample pays for it
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import homkit.cli"], cwd=ROOT, env=env, check=True, timeout=60)
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES[args.workload] - 1):
                setup.append(spawn_worker(args, "setup", env, deadline)[0])
        ready, result = spawn_worker(args, "record" if args.record else "run", env, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    setup.append(ready)
    attempted = len(result["latencies"])
    failed = len(result["failures"])
    for failure in result["failures"]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    extra = {"fail_frac": (failed / attempted, "1"), "ops_attempted": (attempted, "count"),
             "measured_wall_s": (sum(result["latencies"]), "s")}
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, setup)
        if attempted >= 100:
            extra["op_p90_ms"] = (statistics.quantiles(result["scaled"], n=10)[-1] * 1000.0,
                                  "ms")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload}: {attempted} operations, {failed} failed, "
          f"{result['compared']} compared with recorded answers, "
          f"inputs {result['inputs']} answers {result['answers']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
