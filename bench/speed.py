"""Machine-speed probe used to put times on a common scale.

On a shared machine the same pure-Python work takes up to a quarter more or
less time from one minute to the next, in CPU time as much as in wall time,
so a run's raw seconds say as much about its neighbours as about homkit.
The benchmark therefore runs this fixed probe between operations and
reports times scaled to a machine on which one probe takes
``REFERENCE_PROBE_S``: reported = measured * REFERENCE_PROBE_S / mean probe.
"""
from __future__ import annotations

import gc
import time

REFERENCE_PROBE_S = 0.008
PROBE_EVERY_S = 0.2            # work between two probes
# prefix of the stderr line on which a request reports its own probes
PROBE_MARK = "benchmark-probes: "


def probe() -> float:
    """Seconds taken by a fixed mix of what homkit's inner loops do:
    allocating small tuples and strings, keying dicts by tuples, sorting."""
    # the collector stays off, so the probe never pays for a collection of
    # the caller's heap; its objects are freed before it returns
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    objs = [(i, (i % 7, i % 11), str(i % 13)) for i in range(4000)]
    groups = {}
    for obj in objs:
        groups[obj[1]] = groups.get(obj[1], ()) + (obj[0],)
    objs.sort(key=lambda o: (o[1], o[0]))
    elapsed = time.perf_counter() - started
    del objs, groups
    if enabled:
        gc.enable()
    return elapsed


def burst(count: int = 5) -> list:
    return [probe() for _ in range(count)]


def scale(probes: list) -> float:
    """Factor that turns measured seconds into reference seconds."""
    return REFERENCE_PROBE_S * len(probes) / sum(probes)
