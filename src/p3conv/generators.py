"""Graph generators used by the validation suites and the command line.

Everything that involves randomness takes an explicit random.Random so runs
are reproducible; the same seed always yields the same graphs.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterator, Optional

from .graph import Graph, _clique_edges

DEFAULT_SEED = 1729


def spine_sequences(max_len: int) -> Iterator[tuple[int, ...]]:
    """All capped degree profiles with 2..max_len spine positions.

    Endpoints are always 1; interior entries range over 2, 3, 4.
    """
    for k in range(2, max_len + 1):
        for interior in product((2, 3, 4), repeat=k - 2):
            yield (1, *interior, 1)


def realize_caterpillar(
    rds: tuple[int, ...], extra_leaves: Optional[dict[int, int]] = None
) -> Graph:
    """Build a caterpillar whose capped degree profile equals rds.

    Spine vertices come first (0..k-1 along the path), then leaves position
    by position.  A profile entry of 3 gets one leaf and an entry of 4 gets
    two, unless extra_leaves maps that position to a larger count; entries of
    4 are the only ones allowed more, since the profile caps at 4 anyway.
    """
    k = len(rds)
    if k < 2 or rds[0] != 1 or rds[-1] != 1:
        raise ValueError("profile must have length >= 2 and endpoints 1")
    if any(d not in (2, 3, 4) for d in rds[1:-1]):
        raise ValueError("interior profile entries must be 2, 3 or 4")
    extra_leaves = extra_leaves or {}
    counts = []
    for i, d in enumerate(rds):
        base = {1: 0, 2: 0, 3: 1, 4: 2}[d]
        if i in extra_leaves:
            if d != 4:
                raise ValueError(f"position {i} has profile {d}, not 4")
            if extra_leaves[i] < 2:
                raise ValueError("a profile-4 position needs at least two leaves")
            base = extra_leaves[i]
        counts.append(base)
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i, c in enumerate(counts):
        for _ in range(c):
            edges.append((i, nxt))
            nxt += 1
    return Graph(nxt, edges)


def shuffle_labels(rng: random.Random, g: Graph) -> Graph:
    """The same graph under a random relabeling of its vertices."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


def random_caterpillar(rng: random.Random, max_vertices: int = 14) -> Graph:
    """A random caterpillar with at most max_vertices vertices, labels shuffled."""
    if max_vertices < 2:
        raise ValueError("need room for at least two vertices")
    while True:
        k = rng.randint(2, min(10, max_vertices))
        rds = (1, *(rng.choice((2, 3, 4)) for _ in range(k - 2)), 1)
        extras = {}
        for i, d in enumerate(rds):
            if d == 4 and rng.random() < 0.25:
                extras[i] = rng.randint(3, 4)
        g = realize_caterpillar(rds, extras)
        if g.n <= max_vertices:
            return shuffle_labels(rng, g)


def _min_mask(adj: list[int]) -> int:
    """The smallest edge mask of the graph over all relabelings.

    Bit i of a mask is pair i of ``combinations(range(n), 2)``, so the pairs
    (k, j > k) outweigh every pair of a smaller label.  Labels are handed out
    from n - 1 down; each step keeps the vertices whose key, their adjacency
    to the labelled ones read from label n - 1 down, is smallest, following
    every tie.  A state is the unlabelled vertices with their keys; it fixes
    every later bit, so equal states are kept once.
    """
    n = len(adj)
    states = {tuple((v, 0) for v in range(n))}
    mask = 0
    for k in range(n - 1, -1, -1):
        best = min(key for state in states for _, key in state)
        states = {
            tuple((u, key << 1 | (adj[u] >> v & 1)) for u, key in state if u != v)
            for state in states
            for v, key_v in state
            if key_v == best
        }
        mask |= best << (k * n - k * (k + 1) // 2)
    return mask


def _class_key(adj: list[int]) -> tuple[int, ...]:
    """An isomorphism invariant that is exact on connected graphs up to 7 vertices.

    Each vertex gives the multiset of its neighbours' degrees as a sum of
    8 ** degree (at most six neighbours, so no base-8 digit carries into
    bit 21), plus twice its triangle count from bit 21 up; the key is these
    values sorted.  Isomorphic graphs get equal keys, and connected graphs
    with at most 7 vertices get equal keys only when isomorphic: the classes
    on 1 to 7 vertices (1, 1, 2, 6, 21, 112, 853) get as many keys.
    """
    weight = [8 ** a.bit_count() for a in adj]
    key = []
    for a in adj:
        x = 0
        rest = a
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            x += weight[u] + ((adj[u] & a).bit_count() << 21)
            rest ^= low
        key.append(x)
    key.sort()
    return tuple(key)


def _connected_levels(max_n: int) -> Iterator[list[list[int]]]:
    """One member of each class of connected graphs on 1, 2, ..., max_n vertices.

    Each size is one list of adjacency bitmasks (bit w of entry v is the
    edge vw), in no canonical labelling.  Feasible up to max_n = 7.
    Deleting a leaf of a spanning tree leaves a graph connected, so every
    connected graph on k + 1 vertices is one on k vertices plus a vertex
    with at least one neighbour.  The graphs are grown one vertex at a time,
    each size deduplicated by ``_class_key`` (any member of a class grows
    into the same classes).
    """
    if max_n > 7:
        raise ValueError("exhaustive enumeration is only feasible up to 7 vertices")
    if max_n < 1:
        return
    level = [[0]]
    yield level
    for k in range(1, max_n):
        grown = {}
        for adj in level:
            for nbrs in range(1, 1 << k):
                bigger = [a | (nbrs >> v & 1) << k for v, a in enumerate(adj)] + [nbrs]
                grown[_class_key(bigger)] = bigger
        level = list(grown.values())
        yield level


def _canonical_graphs(level: list[list[int]]) -> Iterator[Graph]:
    """A non-empty list of graphs on n vertices, as bitmasks, canonically labelled.

    Each is relabelled by ``_min_mask`` and they come in increasing order
    of that mask, so one graph per class gives the same sequence whichever
    member stands for it.
    """
    n = len(level[0])
    pairs = list(combinations(range(n), 2))
    for mask in sorted(map(_min_mask, level)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected graph on n vertices, one per isomorphism class.

    The last level of ``_connected_levels(n)`` through ``_canonical_graphs``:
    the first edge mask of each class, in increasing mask order.
    """
    if n < 1:
        return
    *_, level = _connected_levels(n)
    yield from _canonical_graphs(level)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """A connected graph drawn by edge flips, resampling until connected."""
    if n < 1:
        raise ValueError("need at least one vertex")
    while True:
        density = rng.uniform(0.25, 0.6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        g = Graph(n, edges)
        if g.is_connected():
            return g


def random_tree(rng: random.Random, n: int) -> Graph:
    """A uniform-ish random tree: each new vertex attaches to an earlier one."""
    if n < 1:
        raise ValueError("need at least one vertex")
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return shuffle_labels(rng, Graph(n, edges))


def random_unit_interval_graph(
    rng: random.Random, n: int
) -> tuple[Graph, tuple[int, ...]]:
    """A connected graph of unit intervals on the line, plus a valid order.

    Returns (graph, order) where order[p] is the vertex at position p; labels
    are shuffled so the order carries real information.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    while True:
        points = sorted(rng.uniform(0, n / 2.5) for _ in range(n))
        # Connected exactly when consecutive points are adjacent.
        if any(b - a > 1.0 for a, b in zip(points, points[1:])):
            continue
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if points[j] - points[i] <= 1.0
        ]
        perm = list(range(n))
        rng.shuffle(perm)
        mapped = [(perm[i], perm[j]) for i, j in edges]
        return Graph(n, mapped), tuple(perm)


def _random_chain(
    rng: random.Random, n: int, overlap: int
) -> tuple[Graph, tuple[int, ...]]:
    """Cliques of at most five positions covering 0..n-1, labels shuffled.

    Consecutive cliques share at least ``overlap`` positions.
    """
    b = rng.randint(overlap, min(overlap + 2, n - 1))
    cliques = [(0, b)]
    a = 0
    while b < n - 1:
        a2 = rng.randint(max(a + 1, b - 3), b + 1 - overlap)
        b2 = rng.randint(b + 1, min(n - 1, a2 + 4))
        cliques.append((a2, b2))
        a, b = a2, b2
    perm = list(range(n))
    rng.shuffle(perm)
    mapped = [(perm[i], perm[j]) for i, j in _clique_edges(cliques)]
    return Graph(n, mapped), tuple(perm)


def random_clique_chain(
    rng: random.Random, n: int
) -> tuple[Graph, tuple[int, ...]]:
    """A chain of overlapping cliques covering positions 0..n-1.

    Consecutive cliques overlap in at least one position, so single shared
    positions (cut vertices) occur regularly.  Returns (graph, order).
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    return _random_chain(rng, n, 1)


def random_biconnected_chain(
    rng: random.Random, n: int
) -> tuple[Graph, tuple[int, ...]]:
    """A 2-connected chain of cliques: consecutive cliques overlap in two.

    Clique ends of nonconsecutive cliques still meet in single positions now
    and then, which is what produces singular positions.  Returns
    (graph, order).
    """
    if n < 3:
        raise ValueError("need at least three vertices")
    return _random_chain(rng, n, 2)
