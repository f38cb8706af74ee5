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
from itertools import chain, combinations
from typing import Iterator, NamedTuple

from .graph import Graph, _adjacency_masks, _embeds, _search_order
from .oracle import CapExceeded, _idempotent
from .graphio import to_graph6
from .generators import (
    DEFAULT_SEED,
    _canonical_graphs,
    _connected_levels,
    random_connected_graph,
)


class ForbiddenPattern(NamedTuple):
    name: str
    graph: Graph


DIAMOND = ForbiddenPattern(
    "diamond", Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
)
PAW = ForbiddenPattern("paw", Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
CHAIR = ForbiddenPattern("chair", Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]))
COMPLETE_BIPARTITE_2_3 = ForbiddenPattern("k23", Graph.complete_bipartite(2, 3))

FORBIDDEN_PATTERNS = (DIAMOND, PAW, CHAIR, COMPLETE_BIPARTITE_2_3)


_SEARCH_ORDERS = tuple(
    (p.name, _search_order(_adjacency_masks(p.graph))) for p in FORBIDDEN_PATTERNS
)


def _pattern_free(adj: list[int]) -> bool:
    """Whether no pattern is induced in the graph with these adjacency bitmasks."""
    return not any(_embeds(adj, plan) for _, plan in _SEARCH_ORDERS)


def find_forbidden_patterns(g: Graph) -> tuple[str, ...]:
    """Names of the breaking patterns that occur in g as induced subgraphs."""
    adj = _adjacency_masks(g)
    return tuple(name for name, plan in _SEARCH_ORDERS if _embeds(adj, plan))


def interval_idempotent_by_patterns(g: Graph) -> bool:
    """Predict idempotence from the absence of the four breaking patterns."""
    return _pattern_free(_adjacency_masks(g))


# Random connected graphs drawn per corpus size from eight on; both idempotence
# checks default to it, so they walk the same corpus for the same seed.
_SAMPLES_PER_SIZE = 150


def idempotence_corpus(
    max_n: int, seed: int, samples_per_size: int
) -> Iterator[list[list[int]]]:
    """Connected graphs to probe for idempotence, as adjacency bitmasks, one list per size.

    Up to seven vertices, one member of every isomorphism class, from one
    growth (``_connected_levels``) and in no canonical labelling; then, for
    each size from eight to max_n, samples_per_size seeded random connected
    graphs, each edge list probed once.  ``printed_graphs`` gives the graphs
    of a size as they are printed.
    """
    yield from _connected_levels(min(max_n, 7))
    rng = random.Random(seed)
    for n in range(8, max_n + 1):
        drawn = dict.fromkeys(
            tuple(_adjacency_masks(random_connected_graph(rng, n))) for _ in range(samples_per_size)
        )
        yield [list(adj) for adj in drawn]


def printed_graphs(level: list[list[int]]) -> Iterator[Graph]:
    """The graphs of one corpus size as they are printed.

    An enumerated size (at most seven vertices) canonically labelled, in the
    order ``connected_graphs`` yields; a sampled size as drawn.  Only graphs
    whose labels reach the output need this: the predictor and the direct
    check do not depend on the labelling.
    """
    if level and len(level[0]) <= 7:
        return _canonical_graphs(level)
    return (
        Graph(len(adj), [(u, w) for u, w in combinations(range(len(adj)), 2) if adj[u] >> w & 1])
        for adj in level
    )


class Disagreement(NamedTuple):
    graph6: str
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    pattern_free: bool
    idempotent: bool


class CrosscheckReport(NamedTuple):
    max_n: int
    checked: int
    forward_violations: tuple[Disagreement, ...]
    reverse_findings: tuple[Disagreement, ...]

    @property
    def clean(self) -> bool:
        return not self.forward_violations and not self.reverse_findings


def crosscheck_interval_idempotence(
    max_n: int = 7, seed: int = DEFAULT_SEED, samples_per_size: int = _SAMPLES_PER_SIZE
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
    for adj in chain.from_iterable(idempotence_corpus(max_n, seed, samples_per_size)):
        checked += 1
        pattern_free = _pattern_free(adj)
        direct = _idempotent(adj)
        if pattern_free == direct:
            continue
        (g,) = printed_graphs([adj])
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
