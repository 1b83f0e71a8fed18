"""One homkit command-line request in a fresh interpreter.

    python3 bench/cli_request.py <trace file or -> <op id> -- <homkit arguments>

Runs ``homkit.cli.main`` and exits with its code.  With a trace file, the
layer spans of the request are recorded and written there as JSON.  Speed
probes run just before and after ``main`` and, from a timer signal, every
0.2 s during it; their times go to the last line of stderr, so the caller
can take them out of the request's latency and scale it by the machine
speed seen by this very process while it worked.
"""
from __future__ import annotations

import json
import os
import signal
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))


def main() -> int:
    trace_file, op = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, BENCH_DIR)
    import speed
    probes = speed.burst(3)
    if trace_file == "-":   # a traced request reports no times, only spans
        signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(speed.probe()))
        signal.setitimer(signal.ITIMER_REAL, speed.PROBE_EVERY_S, speed.PROBE_EVERY_S)
    try:
        return request(trace_file, op, argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        probes += speed.burst(3)
        sys.stdout.flush()
        print(speed.PROBE_MARK + json.dumps(probes), file=sys.stderr)


def request(trace_file: str, op: int, argv: list) -> int:
    import homkit.cli
    from homkit.modules import hom_module
    if hom_module.cache_info().currsize:
        print("benchmark: homkit caches are not cold at request start", file=sys.stderr)
        return 98
    tracer = None
    if trace_file != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.phase, tracer.op = "timed", op
    code = homkit.cli.main(argv)
    if tracer is not None:
        tracer.uninstall()
        info = hom_module.cache_info()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "hom_cache": [info.hits, info.misses],
                       "spans": [s for s in tracer.spans if s is not None]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
