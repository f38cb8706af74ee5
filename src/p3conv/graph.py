"""Undirected simple graphs and the small structural algorithms everything else builds on.

Vertices are dense integers 0..n-1. A Graph is immutable after construction,
so instances can be shared freely and used as dictionary keys.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, islice
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Optional


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    It keeps its edges as a sorted tuple of pairs (u, w) with u < w, and
    builds one neighbour set per vertex only when a query first needs them.
    """

    __slots__ = ("n", "edge_count", "_edges", "_sets", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        pairs = []
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            # A tuple already in order is kept, so a sorted edge list, as a
            # parsed document has, allocates no pair again.
            if u > v:
                e = (v, u)
            elif type(e) is not tuple:
                e = (u, v)
            pairs.append(e)
        pairs.sort()
        if any(map(eq, pairs, islice(pairs, 1, None))):
            pairs = sorted(set(pairs))  # repeated edges collapse
        self.n = n
        self._edges: tuple[tuple[int, int], ...] = tuple(pairs)
        self.edge_count: int = len(pairs)
        self._sets: Optional[tuple[frozenset[int], ...]] = None
        self._hash: Optional[int] = None

    @property
    def _adj(self) -> tuple[frozenset[int], ...]:
        """The neighbour set of every vertex, built on first use."""
        if self._sets is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for u, w in self._edges:
                adj[u].append(w)
                adj[w].append(u)
            self._sets = tuple(map(frozenset, adj))
        return self._sets

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, combinations(range(n), 2))

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        return cls(leaves + 1, [(0, i + 1) for i in range(leaves)])

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} outside range 0..{self.n - 1}")

    def adj(self, v: int) -> frozenset[int]:
        self._check(v)
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return tuple(sorted(self.adj(v)))

    def degree(self, v: int) -> int:
        return len(self.adj(v))

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return list(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        nbrs = self._adj
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by the given vertices, reindexed in ascending order."""
        vs = sorted(set(vertices))
        for v in vs:
            self._check(v)
        index = {v: i for i, v in enumerate(vs)}
        nbrs = self._adj
        edges = [
            (index[u], index[w])
            for u in vs
            for w in nbrs[u]
            if u < w and w in index
        ]
        return Graph(len(vs), edges)


class BlockDecomposition(NamedTuple):
    """Maximal subgraphs without their own cut vertex, plus the cut vertices."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


def blocks(g: Graph) -> BlockDecomposition:
    """Decompose g into blocks via depth-first search lowpoints.

    Every edge lies in exactly one block; isolated vertices form singleton
    blocks so that each vertex belongs to at least one.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_stack: list[tuple[int, int]] = []
    out: list[frozenset[int]] = []
    cuts: set[int] = set()
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        if g.degree(root) == 0:
            out.append(frozenset((root,)))
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(g.neighbors(root)))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, iter(g.neighbors(w))))
                    advanced = True
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                members: set[int] = set()
                while edge_stack:
                    a, b = edge_stack.pop()
                    members.add(a)
                    members.add(b)
                    if (a, b) == (u, v):
                        break
                out.append(frozenset(members))
                if u != root:
                    cuts.add(u)
        if root_children >= 2:
            cuts.add(root)
    return BlockDecomposition(blocks=tuple(out), cut_vertices=frozenset(cuts))


def is_biconnected(g: Graph) -> bool:
    """True for connected graphs on three or more vertices with no cut vertex."""
    return g.n >= 3 and g.is_connected() and not blocks(g).cut_vertices


def _clique_edges(cliques: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Position pairs (i, j), i < j, that share one of the given clique intervals."""
    return {e for a, b in cliques for e in combinations(range(a, b + 1), 2)}


def _adjacency_masks(g: Graph) -> list[int]:
    """Bit w of entry v is set when v and w are adjacent."""
    masks = [0] * g.n
    for u, w in g._edges:
        masks[u] |= 1 << w
        masks[w] |= 1 << u
    return masks


def _search_order(pattern: list[int]) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """The pattern's vertices in the order the embedding search maps them.

    Breadth-first, one component at a time, each component from its vertex
    of largest degree.  Entry i is (parent, earlier, degree): the position of
    its BFS parent (-1 for a component's first vertex), the earlier
    positions adjacent to it, and its degree.
    """
    k = len(pattern)
    order: list[int] = []
    parent: list[int] = []
    for root in sorted(range(k), key=lambda v: -pattern[v].bit_count()):
        if root in order:
            continue
        i = len(order)
        order.append(root)
        parent.append(-1)
        while i < len(order):
            for u in range(k):
                if pattern[order[i]] >> u & 1 and u not in order:
                    order.append(u)
                    parent.append(i)
            i += 1
    return tuple(
        (parent[i], tuple(j for j in range(i) if pattern[v] >> order[j] & 1), pattern[v].bit_count())
        for i, v in enumerate(order)
    )


def _embeds(host: list[int], plan: tuple[tuple[int, tuple[int, ...], int], ...]) -> bool:
    """Whether some vertices of host induce the pattern that plan was made from.

    Backtracking over plan's order (Ullmann 1976): a vertex's image is drawn
    from the neighbours of its BFS parent's image, or from every unused
    vertex for a component's first vertex, and is kept when its degree is
    large enough and its adjacency to the earlier images is exactly the
    pattern's.  For a connected pattern on k vertices that is O(n * D^(k-1))
    candidates, D the largest degree of host.
    """
    k = len(plan)
    images = [0] * k  # vertex mapped at each position
    bits = [0] * k  # its bit
    everything = (1 << len(host)) - 1

    def extend(i: int, placed: int) -> bool:
        if i == k:
            return True
        parent, earlier, degree = plan[i]
        required = 0
        for j in earlier:
            required |= bits[j]
        candidates = (host[images[parent]] if parent >= 0 else everything) & ~placed
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            c = low.bit_length() - 1
            nbrs = host[c]
            if nbrs & placed == required and nbrs.bit_count() >= degree:
                images[i] = c
                bits[i] = low
                if extend(i + 1, placed | low):
                    return True
        return False

    return k <= len(host) and extend(0, 0)


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """True when some vertex subset of g induces a graph isomorphic to pattern."""
    return _embeds(_adjacency_masks(g), _search_order(_adjacency_masks(pattern)))
