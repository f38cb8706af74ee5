"""Outside-in tracing of p3conv: one span per call into a module's public function.

Nothing under ``src/`` is edited.  Inside ``Tracer.installed()`` every public
function of the package modules is replaced, at every module attribute that
refers to it, by a wrapper that records a span; ``Graph.__init__`` is wrapped
the same way.  Leaving the block puts the originals back, so the benchmark's
own input generation and output checking, done outside the block, are never
recorded.

A span is (name, start, end, parent span, item id).  Spans are kept in flat
arrays while the run lasts and written out once at the end.  A generator
function gets one span per ``next()``: wrapping only the call would time the
creation of the generator object, which does no work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "graphio",
    "graph",
    "caterpillar",
    "unit_interval",
    "hereditary",
    "oracle",
    "generators",
    "crossval",
    "cli",
)

# Per-layer entries reported as metrics.  An entry sums the spans of its
# member functions; entries with one member are named after that function.
# cli.main's self time is the CLI's own work: argument parsing, payload
# building and printing.
ENTRIES = {
    "cli.main": ("cli.main",),
    "graphio.parse_document": ("graphio.parse_document", "graphio.parse_documents"),
    "graph.Graph": ("graph.Graph",),
    "graph.contains_induced": ("graph.contains_induced",),
    "caterpillar.recognize_caterpillar": ("caterpillar.recognize_caterpillar",),
    "caterpillar.formulas": (
        "caterpillar.geodetic_number",
        "caterpillar.hull_number",
        "caterpillar.percolation_time",
        "caterpillar.percolation_sequence",
        "caterpillar.decompose_degree_sequence",
    ),
    "unit_interval.build_model": ("unit_interval.build_model",),
    "unit_interval.recognize_unit_interval": ("unit_interval.recognize_unit_interval",),
    "unit_interval.cut_segments": ("unit_interval.cut_segments",),
    "unit_interval.split_diameter": (
        "unit_interval.split_singular_vertices",
        "unit_interval.diameter_endpoints",
        "unit_interval.percolation_time_biconnected",
    ),
    "hereditary.find_forbidden_patterns": ("hereditary.find_forbidden_patterns",),
    "hereditary.crosscheck_interval_idempotence": (
        "hereditary.crosscheck_interval_idempotence",
    ),
    "oracle.percolation_time_bruteforce": ("oracle.percolation_time_bruteforce",),
    "oracle.hull_number_bruteforce": ("oracle.hull_number_bruteforce",),
    "oracle.geodetic_number_bruteforce": ("oracle.geodetic_number_bruteforce",),
    "oracle.interval_idempotent_bruteforce": ("oracle.interval_idempotent_bruteforce",),
    "generators.connected_graphs": ("generators.connected_graphs",),
    "crossval.caterpillar_suite": ("crossval.caterpillar_suite",),
}

COUNTS = (
    "graph.vertices_built",
    "graph.edges_built",
    "unit_interval.segments",
    "unit_interval.recognize_unit_interval.accepted",
    "unit_interval.recognize_unit_interval.rejected",
    "oracle.subsets_bound",
    "generators.connected_graphs.yielded",
)


def _free_vertices(g) -> int:
    # The oracles fold vertices of degree below two into every start set and
    # enumerate subsets of the rest.
    return sum(1 for v in range(g.n) if g.degree(v) >= 2)


def _count_recognition(counts, args, result):
    key = "rejected" if result is None else "accepted"
    counts[f"unit_interval.recognize_unit_interval.{key}"] += 1


def _count_segments(counts, args, result):
    counts["unit_interval.segments"] += len(result)


def _count_subsets_free(counts, args, result):
    counts["oracle.subsets_bound"] += 2 ** _free_vertices(args[0])


def _count_subsets_all(counts, args, result):
    counts["oracle.subsets_bound"] += 2 ** args[0].n


# The subset bound is computed from the input graph, 2^|free vertices| per
# call, not counted inside the oracle, which may stop early.
_COUNTERS = {
    "unit_interval.recognize_unit_interval": _count_recognition,
    "unit_interval.cut_segments": _count_segments,
    "oracle.hull_number_bruteforce": _count_subsets_free,
    "oracle.minimum_hull_sets": _count_subsets_free,
    "oracle.geodetic_number_bruteforce": _count_subsets_free,
    "oracle.percolation_time_bruteforce": _count_subsets_free,
    "oracle.vertex_percolation_time_bruteforce": _count_subsets_free,
    "oracle.interval_idempotent_bruteforce": _count_subsets_all,
}


def public_functions() -> dict:
    """Every public function defined in a package module, mapped to its span name."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"p3conv.{layer}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                found[obj] = f"{layer}.{attr}"
    return found


class Tracer:
    """Spans and counts recorded while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.counts: Counter = Counter()
        self.current_item = -1
        self._stack: list[int] = []
        self._patch_list = None

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            yielded = f"{name}.yielded"

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts[yielded] += 1
                    yield value

            return generator_wrapper

        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _patches(self) -> list:
        if self._patch_list is None:
            wrappers = {fn: self._wrap(name, fn) for fn, name in public_functions().items()}
            self._patch_list = []
            for mod_name in ("p3conv", *(f"p3conv.{layer}" for layer in LAYERS)):
                mod = importlib.import_module(mod_name)
                for attr, obj in vars(mod).items():
                    if isinstance(obj, types.FunctionType) and obj in wrappers:
                        self._patch_list.append((mod, attr, obj, wrappers[obj]))
            from p3conv.graph import Graph

            self._patch_list.append((Graph, "__init__", Graph.__init__, self._wrap_init(Graph.__init__)))
        return self._patch_list

    def _wrap_init(self, graph_init):
        def traced_init(g, *args, **kwargs):
            idx = self._open("graph.Graph")
            try:
                graph_init(g, *args, **kwargs)
            finally:
                self._close(idx)
            self.counts["graph.vertices_built"] += g.n
            self.counts["graph.edges_built"] += g.edge_count

        return traced_init

    @contextmanager
    def installed(self):
        """Record spans for calls into p3conv made inside the block."""
        patches = self._patches()
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (self seconds, calls).  Self time excludes child spans."""
        covered = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            self_s[name] += self.end[i] - self.start[i] - covered[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write(self, path) -> None:
        """All spans as JSON rows [name, start, end, parent, item]."""
        rows = [
            [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.item[i]]
            for i in range(len(self.name))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "item"], "spans": rows}, fh, separators=(",", ":"))
