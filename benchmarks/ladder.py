"""Size ladders: per-layer self time at growing input sizes, and its growth exponent.

Each ladder belongs to the workload that stresses its layer and runs in that
workload's traced run.  A rung's time is the median self time of the layer
over a few seeded instances, with calls under 20 ms repeated so a rung is not
one timer tick.  A call that exceeds ``CALL_CAP_S`` is interrupted and its
rung dropped, along with every larger rung of that ladder; once a workload's
ladders have run for ``BUDGET_S``, the rungs not yet started are dropped too,
which keeps a traced run within its time limit.  Dropped rungs read 0, are
counted in ``ladder.dropped`` and logged, and are never replaced by a smaller
size.
"""

from __future__ import annotations

import math
import random
import signal
from statistics import median
from time import perf_counter

from p3conv import caterpillar, generators, oracle, unit_interval
from p3conv.graph import Graph
from p3conv.unit_interval import build_model

from spans import Tracer
from workloads import near_uig_negative

CALL_CAP_S = 20.0
BUDGET_S = 45.0
INSTANCES = 3
QUICK_CALL_S = 0.02
QUICK_REPEATS = 9


class _CapReached(Exception):
    pass


def _on_alarm(signum, frame):
    raise _CapReached


def _self_time(layer: str, call) -> float:
    """Self time of `layer` in one traced call, interrupted after CALL_CAP_S."""
    tracer = Tracer()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CALL_CAP_S)
    try:
        with tracer.installed():
            try:
                call()
            finally:
                # Disarm inside the block, so the alarm cannot interrupt the
                # restoring of the patched functions.
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return tracer.self_times()[0].get(layer, 0.0)


def _rung_time(layer: str, calls: list) -> float:
    times = []
    for call in calls:
        t = _self_time(layer, call)
        if t < QUICK_CALL_S:
            t = median([t] + [_self_time(layer, call) for _ in range(QUICK_REPEATS - 1)])
        times.append(t)
    return median(times)


def _caterpillar_inputs(rng, k):
    profile = (1, *(rng.choice((2, 3, 4)) for _ in range(k - 2)), 1)
    g = generators.realize_caterpillar(profile)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.n, [(perm[u], perm[w]) for u, w in g.edges()]


def _caterpillar_build(rng, k):
    n, edges = _caterpillar_inputs(rng, k)
    return [lambda: Graph(n, edges)]


def _caterpillar_recognize(rng, k):
    n, edges = _caterpillar_inputs(rng, k)
    g = Graph(n, edges)
    return [lambda: caterpillar.recognize_caterpillar(g)]


def _segments(rng, n):
    models = [build_model(*generators.random_clique_chain(rng, n)) for _ in range(INSTANCES)]
    return [lambda m=m: unit_interval.cut_segments(m) for m in models]


def _recognize_negative(rng, n):
    graphs = [near_uig_negative(rng, n) for _ in range(INSTANCES)]
    return [lambda g=g: unit_interval.recognize_unit_interval(g) for g in graphs]


def _oracle_time(rng, n):
    g, _ = generators.random_biconnected_chain(rng, n)
    return [lambda: oracle.percolation_time_bruteforce(g)]


def _connected_graphs(rng, n):
    return [lambda: sum(1 for _ in generators.connected_graphs(n))]


# name -> (layer whose self time is read, size prefix, sizes, input builder)
LADDERS = {
    "caterpillar.graph_build": ("graph.Graph", "k", (100, 1000, 10000, 100000), _caterpillar_build),
    "caterpillar.recognize": (
        "caterpillar.recognize_caterpillar", "k", (100, 1000, 10000, 100000), _caterpillar_recognize,
    ),
    "cut_segments": ("unit_interval.cut_segments", "n", (10, 15, 20, 25, 30), _segments),
    "recognize_negative": (
        "unit_interval.recognize_unit_interval", "n", (16, 19, 22, 25), _recognize_negative,
    ),
    "oracle_time": ("oracle.percolation_time_bruteforce", "n", (12, 14, 16, 18), _oracle_time),
    "connected_graphs": ("generators.connected_graphs", "n", (5, 6, 7), _connected_graphs),
}

BY_WORKLOAD = {
    "analyze_mix": ("recognize_negative", "caterpillar.graph_build", "caterpillar.recognize", "cut_segments"),
    "validate_mix": ("oracle_time", "connected_graphs"),
}


def metric_names() -> list:
    names = []
    for name, (_, prefix, sizes, _) in LADDERS.items():
        names += [f"ladder.{name}.{prefix}{size}_s" for size in sizes]
        names.append(f"ladder.{name}.exponent")
    return names + ["ladder.dropped"]


def growth_exponent(sizes: list, times: list) -> float:
    """Least-squares slope of log time against log size; 0 with under two rungs."""
    if len(sizes) < 2:
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _unit(name: str) -> str:
    if name == "ladder.dropped":
        return "count"
    return "s" if name.endswith("_s") else "exponent"


def run(workload: str, seed: int, log) -> dict:
    """Ladder metrics as name -> (value, unit); ladders of other workloads read 0."""
    values = {name: 0.0 for name in metric_names()}
    dropped = 0
    start = perf_counter()
    for name in BY_WORKLOAD[workload]:
        layer, prefix, sizes, make = LADDERS[name]
        rng = random.Random(f"ladder:{name}:{seed}")
        done_sizes, done_times = [], []
        capped = False
        for size in sizes:
            key = f"ladder.{name}.{prefix}{size}_s"
            if capped:
                dropped += 1
                log(f"{key}: dropped, a smaller rung exceeded the {CALL_CAP_S:g} s call cap")
                continue
            if perf_counter() - start > BUDGET_S:
                dropped += 1
                log(f"{key}: dropped, the ladders used up their {BUDGET_S:g} s budget")
                continue
            t0 = perf_counter()
            try:
                t = _rung_time(layer, make(rng, size))
            except _CapReached:
                capped = True
                dropped += 1
                log(f"{key}: dropped, one call exceeded the {CALL_CAP_S:g} s call cap")
                continue
            values[key] = t
            done_sizes.append(size)
            done_times.append(t)
            log(f"{key}: {t:.6f} s ({perf_counter() - t0:.1f} s to measure)")
        values[f"ladder.{name}.exponent"] = growth_exponent(done_sizes, done_times)
    values["ladder.dropped"] = dropped
    return {name: (value, _unit(name)) for name, value in values.items()}
