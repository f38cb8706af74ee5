"""Seeded inputs and output checks for the benchmark's workloads.

Each workload is a pool of items, drawn from the item families below.  An
item is one ``p3conv`` command line, run in-process through
``p3conv.cli.main``, plus a check of its exit code and output.  The checks compute expected values by a route other than the one
being timed: the brute-force oracle, the split diameter on the generator's
known order, the generating degree profile, or a direct recount in this file.
All of that happens when the pool is built or after an item's timed call,
never inside it.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable

from p3conv import generators, graphio
from p3conv.graph import Graph
from p3conv.oracle import percolation_time_bruteforce
from p3conv.unit_interval import build_model, percolation_time_biconnected


class CheckFailed(Exception):
    """An item's exit code or output is not what its check expects."""


@dataclass
class Item:
    argv: list
    check: Callable[[int, str, str], int]  # returns the units of work done


def _write(workdir: Path, index: int, doc) -> str:
    path = workdir / f"doc-{index:04d}.txt"
    path.write_text(graphio.serialize_document(doc))
    return str(path)


def _text_fields(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# caterpillar_large ----------------------------------------------------------

CATERPILLAR_SPINE = 2000
# Documents per family in an analyze_mix pool: a round of the three families
# takes about 9 s, so a 50 s run makes four or more calls of every item.
PER_FAMILY = 48


def _caterpillar_check(spine_len: int, profile: tuple):
    def check(rc, out, err):
        _expect(rc == 0, f"exit {rc}")
        payload = json.loads(out)
        _expect(payload["class"] == "caterpillar", f"class {payload['class']}")
        _expect(len(payload["spine"]) == spine_len, "spine length")
        got = tuple(payload["degree_profile"])
        _expect(got in (profile, profile[::-1]), "degree profile")
        return 1

    return check


def caterpillar_large(rng: random.Random, workdir: Path, count: int = PER_FAMILY) -> list:
    items = []
    for i in range(count):
        k = CATERPILLAR_SPINE
        profile = (1, *(rng.choice((2, 3, 4)) for _ in range(k - 2)), 1)
        g = generators.shuffle_labels(rng, generators.realize_caterpillar(profile))
        path = _write(workdir, i, graphio.document_for(g, name=f"caterpillar-{i}"))
        items.append(
            Item(["analyze", path, "--format", "object"], _caterpillar_check(k, profile))
        )
    return items


# uig_ordered and uig_unordered ----------------------------------------------


def _uig_check(expected_time: int, split_diameter):
    def check(rc, out, err):
        _expect(rc == 0, f"exit {rc}")
        fields = _text_fields(out)
        _expect(fields.get("class") == "unit-interval", f"class {fields.get('class')}")
        _expect(
            fields.get("percolation_time") == str(expected_time),
            f"percolation_time {fields.get('percolation_time')} != {expected_time}",
        )
        if split_diameter is not None:
            _expect(fields.get("split_diameter") == str(split_diameter), "split_diameter")
        return 1

    return check


def _negative_check(rc, out, err):
    _expect(rc == 1, f"exit {rc}")
    _expect(out == "", "payload printed for a graph outside both classes")
    _expect("neither a caterpillar nor a unit interval graph" in err, "error message")
    return 1


def _biconnected_item(rng, n, workdir, index, with_order):
    g, order = generators.random_biconnected_chain(rng, n)
    expected = percolation_time_biconnected(build_model(g, order))
    doc = graphio.document_for(g, order=order if with_order else None, name=f"2conn-{index}")
    return Item(["analyze", _write(workdir, index, doc)], _uig_check(expected, expected))


def uig_ordered(rng: random.Random, workdir: Path, count: int = PER_FAMILY) -> list:
    # Alternate 2-connected chains (n = 14..20, checked against the split
    # diameter) with clique chains that carry cut vertices (n = 9..12,
    # checked against the oracle); the clique chains form the latency tail.
    items = []
    for i in range(count):
        if i % 2 == 0:
            items.append(_biconnected_item(rng, 14 + (i // 2) % 7, workdir, i, True))
        else:
            g, order = generators.random_clique_chain(rng, 9 + (i // 2) % 4)
            expected = percolation_time_bruteforce(g)
            doc = graphio.document_for(g, order=order, name=f"chain-{i}")
            items.append(Item(["analyze", _write(workdir, i, doc)], _uig_check(expected, None)))
    return items


NEGATIVE_SIZES = range(17, 21)


def near_uig_negative(rng: random.Random, n: int) -> Graph:
    """A 2-connected chain on n - 1 vertices plus one pendant vertex forming a claw.

    The pendant hangs off the leftmost chain vertex that has a left and a
    right neighbour which are not adjacent, so the graph contains an induced
    claw (no unit interval graph does) and a cycle (no caterpillar does).
    """
    while True:
        g, order = generators.random_biconnected_chain(rng, n - 1)
        pos = {v: p for p, v in enumerate(order)}
        for p, v in enumerate(order):
            left = [w for w in g.adj(v) if pos[w] < p]
            right = [w for w in g.adj(v) if pos[w] > p]
            if any(not g.has_edge(a, b) for a in left for b in right):
                edges = [*g.edges(), (v, n - 1)]
                return generators.shuffle_labels(rng, Graph(n, edges))


def uig_unordered(rng: random.Random, workdir: Path, count: int = PER_FAMILY) -> list:
    # Seven in ten are near-UIG negatives; the rest are shuffled 2-connected
    # chains (n = 14..18) without an order line, so recognition must run.
    items = []
    negatives = positives = 0
    for i in range(count):
        if i % 10 < 7:
            n = NEGATIVE_SIZES[negatives % len(NEGATIVE_SIZES)]
            negatives += 1
            doc = graphio.document_for(near_uig_negative(rng, n), name=f"near-uig-{i}")
            items.append(Item(["analyze", _write(workdir, i, doc)], _negative_check))
        else:
            items.append(_biconnected_item(rng, 14 + positives % 5, workdir, i, False))
            positives += 1
    return items


# crossval_caterpillar --------------------------------------------------------


def _crossval_check(rc, out, err):
    _expect(rc == 0, f"exit {rc}")
    summary = out.splitlines()[-1]
    _expect(summary.startswith("# summary:"), "no summary line")
    fields = dict(part.split("=") for part in summary[len("# summary: "):].split())
    _expect(fields["disagreeing"] == "0", f"{fields['disagreeing']} disagreements")
    rows = int(fields["rows"])
    _expect(rows > 0 and rows == int(fields["agreeing"]), "row counts")
    _expect(out.count("\n") == rows + int(fields["skipped"]) + 2, "row lines")
    return rows


def crossval_caterpillar(rng: random.Random, workdir: Path, count: int = 4) -> list:
    return [
        Item(["crossval", "caterpillar", "--seed", str(rng.randrange(10**6))], _crossval_check)
        for _ in range(count)
    ]


# propcheck ---------------------------------------------------------------------

# validate_mix enumerates up to 6 vertices: a call takes about 0.2 s, where
# one up to 7 takes 11 s and leaves a 50 s run too few calls of it to be
# steady (README.md, Noise).  The ladder still times 7.
PROPCHECK_MAX_N = 6
# Connected graphs on 1..6 vertices (OEIS A001349: 1, 1, 2, 6, 21, 112).
CONNECTED_GRAPHS = 143
# Pattern-free yet not idempotent, up to 6 vertices.  Up to 7, propcheck
# checks 996 graphs and also finds FFYe?.
REVERSE_FINDINGS = ("D]_", "EFj?", "E]Q?")

_PATTERNS = (
    (4, {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}),  # diamond
    (4, {(0, 1), (0, 2), (1, 2), (2, 3)}),  # paw
    (5, {(0, 1), (1, 2), (2, 3), (1, 4)}),  # chair
    (5, {(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)}),  # K_{2,3}
)


def _spread(adj: list, s: int) -> int:
    out = s
    for v, nbrs in enumerate(adj):
        if not s >> v & 1 and bin(nbrs & s).count("1") >= 2:
            out |= 1 << v
    return out


@functools.lru_cache(maxsize=None)
def _reverse_finding_holds(n: int, edges: tuple) -> bool:
    """Recount, without p3conv: pattern-free and some set needs two rounds."""
    adj = [0] * n
    for u, w in edges:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    edge_set = {(min(e), max(e)) for e in edges}
    for k, pattern in _PATTERNS:
        for perm in permutations(range(n), k):
            if all(
                ((i, j) in pattern) == ((min(perm[i], perm[j]), max(perm[i], perm[j])) in edge_set)
                for i, j in combinations(range(k), 2)
            ):
                return False
    return any(_spread(adj, _spread(adj, s)) != _spread(adj, s) for s in range(1 << n))


def _propcheck_check(rc, out, err):
    _expect(rc == 2, f"exit {rc}")
    lines = out.splitlines()
    _expect(lines[0] == f"graphs checked: {CONNECTED_GRAPHS} (sizes up to {PROPCHECK_MAX_N})", lines[0])
    _expect(lines[1].endswith(": 0"), "forward violations reported")
    _expect(lines[2].endswith(f": {len(REVERSE_FINDINGS)}"), lines[2])
    found = []
    for line in lines[3:]:
        head, _, edge_text = line.partition(" edges: ")
        kind, n_field, g6_field = head.split()
        _expect(kind == "[reverse]", line)
        g6 = g6_field.split("=", 1)[1]
        edges = tuple(tuple(int(x) for x in e.split("-")) for e in edge_text.split())
        _expect(_reverse_finding_holds(int(n_field[2:]), edges), f"{g6} is not a reverse finding")
        found.append(g6)
    _expect(tuple(found) == REVERSE_FINDINGS, f"reverse findings {found}")
    return CONNECTED_GRAPHS


def enumerate_graphs(rng: random.Random, workdir: Path, count: int) -> list:
    return [
        Item(
            ["propcheck", "--max-n", str(PROPCHECK_MAX_N), "--seed", str(rng.randrange(10**6))],
            _propcheck_check,
        )
        for _ in range(count)
    ]


def _interleave(*pools) -> list:
    """One item from each pool in turn, cycling the shorter pools."""
    longest = max(len(p) for p in pools)
    return [pool[i % len(pool)] for i in range(longest) for pool in pools]


def analyze_mix(rng: random.Random, workdir: Path) -> list:
    # A caterpillar, an ordered UIG and an unordered UIG document in turn, so
    # every analyze path runs in each stretch of a run.
    pools = []
    for family in (caterpillar_large, uig_ordered, uig_unordered):
        sub = workdir / family.__name__
        sub.mkdir()
        pools.append(family(rng, sub))
    return _interleave(*pools)


def validate_mix(rng: random.Random, workdir: Path) -> list:
    # Four crossval caterpillar calls over seeds, each followed by two
    # propchecks over every connected graph up to PROPCHECK_MAX_N vertices:
    # a round takes about 6 s, so a 50 s run makes six or more calls of each.
    crossvals = crossval_caterpillar(rng, workdir)
    propchecks = enumerate_graphs(rng, workdir, 2 * len(crossvals))
    return [item for i, c in enumerate(crossvals) for item in (c, *propchecks[2 * i:2 * i + 2])]


WORKLOADS = {"analyze_mix": analyze_mix, "validate_mix": validate_mix}


def build(workload: str, seed: int, workdir: Path) -> list:
    """The workload's item pool for this seed; documents are written to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
