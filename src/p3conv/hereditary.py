"""Interval idempotence and the small induced subgraphs that break it.

I(S) is S plus every vertex with two neighbors in S, and a graph is interval
idempotent when I(I(S)) = I(S) for every vertex set S.

Theorem: idempotence is hereditary, and every non-idempotent graph has a
connected non-idempotent induced subgraph on at most seven vertices.  Proof:
if H is an induced subgraph of G and S a set of its vertices, I_G(S) meets
H in I_H(S), so a witness w in I_H(I_H(S)) but not in I_H(S) has two
neighbors in I_G(S) and is not in I_G(S).  Conversely, let w be in I(I(S))
but not in I(S), with neighbors x, y in I(S).  Keep w, x, y and two
S-neighbors of each of x, y outside S: at most seven vertices, within two
steps of w, on which S still puts x and y into the interval but not w, which
has at most one neighbor in S and is not in S.

So every minimal non-idempotent graph is connected with at most seven
vertices, and the exhaustive check up to seven vertices finds all of them:
the diamond, paw, chair and K_{2,3} below, and the banner, a 4-cycle with a
pendant vertex (graph6 ``D]_``).  The predictor uses the four patterns, so
the crosscheck reports each pattern-free graph with a banner as a reverse
finding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, contains_induced
from .oracle import CapExceeded, interval_idempotent_bruteforce
from .graphio import to_graph6
from .generators import DEFAULT_SEED, connected_graphs, random_connected_graph


@dataclass(frozen=True)
class ForbiddenPattern:
    name: str
    graph: Graph


DIAMOND = ForbiddenPattern(
    "diamond", Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
)
PAW = ForbiddenPattern("paw", Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
CHAIR = ForbiddenPattern("chair", Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]))
COMPLETE_BIPARTITE_2_3 = ForbiddenPattern("k23", Graph.complete_bipartite(2, 3))

FORBIDDEN_PATTERNS = (DIAMOND, PAW, CHAIR, COMPLETE_BIPARTITE_2_3)


def find_forbidden_patterns(g: Graph) -> tuple[str, ...]:
    """Names of the breaking patterns that occur in g as induced subgraphs."""
    return tuple(p.name for p in FORBIDDEN_PATTERNS if contains_induced(g, p.graph))


def interval_idempotent_by_patterns(g: Graph) -> bool:
    """Predict idempotence from the absence of the four breaking patterns."""
    return not any(contains_induced(g, p.graph) for p in FORBIDDEN_PATTERNS)


def idempotence_corpus(
    max_n: int, seed: int, samples_per_size: int
) -> Iterator[Graph]:
    """Connected graphs to probe for idempotence, smallest first.

    Every connected graph with up to seven vertices, one per isomorphism
    class; then, for each size from eight to max_n, samples_per_size seeded
    random connected graphs, each edge list probed once.
    """
    for n in range(1, min(max_n, 7) + 1):
        yield from connected_graphs(n)
    rng = random.Random(seed)
    for n in range(8, max_n + 1):
        seen: set[tuple[tuple[int, int], ...]] = set()
        for _ in range(samples_per_size):
            g = random_connected_graph(rng, n)
            key = tuple(g.edges())
            if key not in seen:
                seen.add(key)
                yield g


@dataclass(frozen=True)
class Disagreement:
    graph6: str
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    pattern_free: bool
    idempotent: bool


@dataclass(frozen=True)
class CrosscheckReport:
    max_n: int
    checked: int
    forward_violations: tuple[Disagreement, ...]
    reverse_findings: tuple[Disagreement, ...]

    @property
    def clean(self) -> bool:
        return not self.forward_violations and not self.reverse_findings


def crosscheck_interval_idempotence(
    max_n: int = 7, seed: int = DEFAULT_SEED, samples_per_size: int = 150
) -> CrosscheckReport:
    """Compare the pattern predictor with the exhaustive check.

    Connected graphs with up to seven vertices are enumerated completely, one
    per isomorphism class; sizes eight and nine are sampled at random.  A
    graph that contains a pattern yet passes the direct check is a forward
    violation (the pattern would not actually be breaking); a pattern-free
    graph that fails the direct check is a reverse finding (a candidate for a
    missing fifth pattern).  Sizes beyond nine are refused.
    """
    if max_n > 9:
        raise CapExceeded(
            f"idempotence crosscheck is capped at 9 vertices, got {max_n}"
        )
    forward: list[Disagreement] = []
    reverse: list[Disagreement] = []
    checked = 0
    for g in idempotence_corpus(max_n, seed, samples_per_size):
        checked += 1
        pattern_free = interval_idempotent_by_patterns(g)
        direct = interval_idempotent_bruteforce(g)
        if pattern_free == direct:
            continue
        entry = Disagreement(
            to_graph6(g), g.n, tuple(g.edges()), pattern_free, direct
        )
        if direct:
            forward.append(entry)
        else:
            reverse.append(entry)

    key = lambda d: (d.vertex_count, d.graph6)
    return CrosscheckReport(
        max_n=max_n,
        checked=checked,
        forward_violations=tuple(sorted(forward, key=key)),
        reverse_findings=tuple(sorted(reverse, key=key)),
    )
