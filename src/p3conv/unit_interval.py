"""Unit interval graphs: recognition, clique structure, and percolation time.

A unit interval graph is one whose vertices can be arranged left to right so
that every closed neighborhood occupies a contiguous run of positions.  All
structure here is expressed in terms of such an order: maximal cliques are
position intervals, and the two-infected-neighbors spreading process can be
timed by walking the clique chain instead of enumerating start sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .graph import Graph, _clique_edges


class UnitIntervalModel:
    """A graph together with a vertex order whose neighborhoods are contiguous.

    ``order[p]`` is the vertex at position p.  ``right[p]`` is the largest
    position adjacent to (or equal to) p, and ``cliques`` lists the maximal
    cliques as closed position intervals ``(start, end)`` with strictly
    increasing starts and ends.
    """

    __slots__ = ("graph", "order", "right", "cliques")

    def __init__(self, graph: Graph, order: Sequence[int]):
        order = tuple(order)
        if sorted(order) != list(range(graph.n)):
            raise ValueError("order must be a permutation of the vertices")
        pos = {v: p for p, v in enumerate(order)}
        right = []
        for p, v in enumerate(order):
            nbr_pos = [pos[w] for w in graph.adj(v)]
            lo = min(nbr_pos + [p])
            hi = max(nbr_pos + [p])
            if hi - lo != len(nbr_pos):
                raise ValueError(
                    f"vertex {v} at position {p} has a gap in its neighborhood"
                )
            right.append(hi)
        cliques = []
        for p in range(graph.n):
            if p == 0 or right[p - 1] < right[p]:
                cliques.append((p, right[p]))
        self.graph = graph
        self.order = order
        self.right = tuple(right)
        self.cliques = tuple(cliques)

    @property
    def connected(self) -> bool:
        """Whether the graph is connected: each position but the last reaches past itself."""
        return all(r > p for p, r in enumerate(self.right[:-1]))

    @property
    def biconnected(self) -> bool:
        """Whether the graph is 2-connected, read off the order in O(n).

        A connected graph has an inner cut vertex p exactly when no edge
        jumps over it, right[p - 1] <= p.  With ``right`` nondecreasing, on
        three or more vertices neither fault occurs exactly when
        right[p] >= p + 2 for every p < n - 2.
        """
        n = len(self.right)
        return n >= 3 and all(r >= p + 2 for p, r in enumerate(self.right[:-2]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitIntervalModel):
            return NotImplemented
        return self.graph == other.graph and self.order == other.order

    def __hash__(self) -> int:
        return hash((self.graph, self.order))

    def __repr__(self) -> str:
        return f"UnitIntervalModel(n={self.graph.n}, order={self.order})"


def build_model(g: Graph, order: Sequence[int]) -> UnitIntervalModel:
    """Validate an explicit vertex order and wrap it in a model."""
    return UnitIntervalModel(g, order)


def _lbfs(g: Graph, ranked: Sequence[int]) -> list[int]:
    """A lexicographic breadth-first search order of g, by partition refinement.

    The unvisited vertices sit in a row of classes.  The next vertex visited
    is the one of the first class that comes earliest in ``ranked``; visiting
    it moves its unvisited neighbors out of each class into a new class just
    before that class (Rose, Tarjan and Lueker 1976).  O(n + m) time.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u in ranked:
        for w in g.adj(u):
            adj[w].append(u)
    # Neighbor lists are in ranked order, so every class holds its vertices
    # in ranked order; an entry goes stale once its vertex is visited or
    # moved.  prev/nxt link the row of classes, starting at head.
    members, prev, nxt = [deque(ranked)], [-1], [-1]
    cls = [0] * g.n
    head = 0
    order: list[int] = []
    while len(order) < g.n:
        q = members[head]
        while q and cls[q[0]] != head:
            q.popleft()
        if not q:
            head = nxt[head]
            prev[head] = -1
            continue
        v = q.popleft()
        cls[v] = -1
        order.append(v)
        split: dict[int, int] = {}
        for w in adj[v]:
            c = cls[w]
            if c < 0:
                continue
            new = split.get(c)
            if new is None:
                new = split[c] = len(members)
                members.append(deque())
                prev.append(prev[c])
                nxt.append(c)
                if prev[c] < 0:
                    head = new
                else:
                    nxt[prev[c]] = new
                prev[c] = new
            members[new].append(w)
            cls[w] = new
    return order


def recognize_unit_interval(g: Graph) -> Optional[UnitIntervalModel]:
    """A valid model for g if one exists, else None.

    Corneil's 3-sweep LexBFS (Discrete Applied Mathematics 2004): one LexBFS,
    then two more, each breaking ties toward the vertex the previous sweep
    visited last.  The third order has contiguous closed neighborhoods
    exactly when g is a unit interval graph.  The model constructor checks
    that, so only a genuine model is ever returned.  The sweeps take O(n + m)
    time.
    """
    order: Sequence[int] = range(g.n)
    for _ in range(3):
        order = _lbfs(g, order[::-1])
    try:
        return UnitIntervalModel(g, order)
    except ValueError:
        return None


def _singulars(cliques: Sequence[tuple[int, int]]) -> list[int]:
    starts = {a: i for i, (a, b) in enumerate(cliques)}
    ends = {b: i for i, (a, b) in enumerate(cliques)}
    return sorted(h for h in starts if h in ends and starts[h] != ends[h])


def singular_positions(model: UnitIntervalModel) -> tuple[int, ...]:
    """Positions that end one maximal clique and begin another."""
    return tuple(_singulars(model.cliques))


def _split_cliques(model: UnitIntervalModel) -> list[tuple[int, int]]:
    """The cliques of ``split_singular_vertices(model)``, without its graph."""
    if not model.biconnected:
        raise ValueError("vertex splitting needs a 2-connected graph on 3+ vertices")
    sing = _singulars(model.cliques)
    return [(a + bisect_right(sing, a), b + bisect_left(sing, b)) for a, b in model.cliques]


def split_singular_vertices(model: UnitIntervalModel) -> UnitIntervalModel:
    """Duplicate each singular position so that adjacent cliques overlap in two.

    At each singular position the clique ending there keeps the left copy,
    the clique starting there gets the new right copy, and everything to the
    right shifts.  Splitting one singular position creates no new one, so all
    of them are split in one pass: a clique start moves right by the number
    of singular positions at or before it, a clique end by the number
    strictly before it.  Only defined for 2-connected graphs on at least
    three vertices.
    """
    cliques = _split_cliques(model)
    n = cliques[-1][1] + 1
    return UnitIntervalModel(Graph(n, sorted(_clique_edges(cliques))), range(n))


def _walk(cliques: Sequence[tuple[int, int]]) -> int:
    """Steps from the first position to the last by greedy right jumps.

    From position p the walk jumps to the end of the last clique that
    starts at or before p, which is p's farthest neighbor to the right.
    """
    steps = p = i = 0
    while p < cliques[-1][1]:
        while i + 1 < len(cliques) and cliques[i + 1][0] <= p:
            i += 1
        if cliques[i][1] == p:
            raise ValueError("graph is disconnected")
        p = cliques[i][1]
        steps += 1
    return steps


def diameter_endpoints(model: UnitIntervalModel) -> int:
    """Distance between the first and last position, by greedy right jumps.

    For a connected model this equals the diameter of the graph.
    """
    if model.graph.n == 0:
        raise ValueError("empty graph has no diameter")
    return _walk(model.cliques)


def percolation_time_biconnected(model: UnitIntervalModel) -> int:
    """Worst-case spreading time of a 2-connected unit interval graph.

    It is the diameter of the split graph, walked over the split cliques.
    """
    return _walk(_split_cliques(model))


class CutSegment(NamedTuple):
    """A maximal position range not crossed by any degree-2 cut vertex."""

    lo: int
    hi: int
    case_tag: str
    time: int


def _segment_time(model: UnitIntervalModel, a: int, b: int, left: str, right: str) -> int:
    """Worst completion time of segment a..b over all spanning start sets.

    The segment is a chain of 2-connected blocks joined at cut vertices, the
    positions that no edge jumps over.  A start set is normalized to at most
    two vertices per block: any vertex ignited by a larger set is already
    ignited by some pair inside it, and shrinking a start set never speeds
    anything up.  For a fixed choice of per-block seeds the spreading
    process is determined by the firing times of the cut vertices, and those
    times are the unique assignment where each cut fires one round after its
    second-earliest infected neighbor, counting neighbors on both sides.
    The search below enumerates per-block seeds and candidate cut times
    left to right and keeps only assignments that satisfy that firing
    equation, so every surviving schedule is realizable and the realized
    worst case survives.

    A search state at a cut is its candidate time u, whether it is seeded,
    and its profile: the times of its left neighbors with the cut itself
    unclamped.  Four reductions keep the answer exact:

    - Two-value profiles.  The firing equation reads only the second
      smallest time among the profile and the right neighbors, which is
      also the second smallest among the two smallest of each side.
    - Bounded clamps.  That second smallest time is at least 0 and at most
      the profile's second entry, so an unseeded cut passes the check only
      with 1 <= u <= profile[1] + 1, and a seeded one has u = 0.  No other
      u is enumerated.
    - Grouped states.  A state's profile decides only whether it passes the
      check; the next block's run, the next profile and the next cut time
      depend on (u, seeded) and the next block's choices alone.  So states
      are grouped by (u, seeded), the right neighbors' two smallest times
      are computed once per (seeds, next cut time), and a group contributes
      the largest value among its passing profiles.
    - Event-driven rounds, in ``evolve``.

    Boundary kinds: ``anchor`` is a plain end of the whole vertex order,
    ``pendant`` is a degree-1 end whose vertex belongs to every spanning
    start set, and ``cut`` is a shared degree-2 cut vertex whose outside
    neighbor is modeled as one extra already-infected helper (the helper is
    free for the worst case: delaying it only delays the boundary vertex
    itself, and that delay is charged to the neighboring segment).

    When both ends are anchors and the graph has no cut vertex, the segment
    is the whole 2-connected graph, and its time is the diameter of the
    split graph (``percolation_time_biconnected``), with no search.
    """
    if left == right == "anchor" and model.biconnected:
        return percolation_time_biconnected(model)
    rs = model.right
    m = b - a + 1
    bounds = [0, *(p - a for p in range(a + 1, b) if rs[p - 1] == p), m - 1]
    nblocks = len(bounds) - 1
    forced = {p for p, kind in ((0, left), (m - 1, right)) if kind == "pendant"}
    tmax = m + 4
    # Vertex sets are bitmasks over the segment's positions.  Per block,
    # nbrs maps a vertex's bit to the mask of its in-block neighbors (the
    # positions from its leftmost neighbor to its rightmost, clipped), need
    # to the number of them that must be infected for it to fire (one at a
    # cut end, which has the helper), and seeds lists the seed choices: at
    # most two vertices, each block but the first leaving its left cut to
    # the block before, and the pendant ends always included.
    nbrs, need, seeds = [], [], []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        nbrs.append({
            1 << p: ((2 << min(rs[a + p] - a, hi)) - (1 << max(bisect_left(rs, a + p) - a, lo)))
            ^ (1 << p)
            for p in range(lo, hi + 1)
        })
        need.append(dict.fromkeys(nbrs[i], 2))
        pool = range(lo if i == 0 else lo + 1, hi + 1)
        musts = [p for p in pool if p in forced]
        rest = [1 << p for p in pool if p not in forced]
        base = sum(1 << p for p in musts[:2])
        if len(musts) >= 2:
            seeds.append([base])
        elif musts:
            seeds.append([base, *(base | x for x in rest)])
        else:
            seeds.append([0, *rest, *(x | y for x, y in combinations(rest, 2))])
    if left == "cut":
        need[0][1] = 1
    if right == "cut":
        need[-1][1 << m - 1] = 1
    memo: dict[tuple, tuple[bool, int, dict[int, int]]] = {}

    def evolve(
        i: int, sigma: int, t_lo: Optional[int], t_hi: Optional[int]
    ) -> tuple[bool, int, dict[int, int]]:
        """Infection times inside block i with its ends clamped as given.

        ``t_lo``/``t_hi`` inject the block's boundary cut vertices at fixed
        rounds (None = no injection).  Vertices may still fire earlier
        through in-block neighbors; the caller's consistency check rejects
        clamp values that disagree with such earlier firings.  Returns
        whether the whole block got infected, the last round that infected
        a vertex, and the round of each infected vertex, keyed by its bit.

        The rounds are event-driven.  A vertex's infected-neighbor count
        changes only when a neighbor is infected, so a round recounts only
        the uninfected neighbors of the vertices infected in the round
        before.  After a round that infects nothing, every round up to the
        next pending clamp is idle too and is skipped; with no clamp
        pending the process is at its fixpoint and stops.  No vertex fires
        after round ``tmax``.
        """
        key = (i, sigma, t_lo, t_hi)
        got = memo.get(key)
        if got is not None:
            return got
        nbr, req = nbrs[i], need[i]
        lo, hi = 1 << bounds[i], 1 << bounds[i + 1]
        infected, new, times = 0, sigma, {}
        t = last = 0
        while True:
            if t_lo == t:
                new |= lo
            if t_hi == t:
                new |= hi
            new &= ~infected
            infected |= new
            reached = 0
            while new:
                low = new & -new
                new ^= low
                times[low] = last = t
                reached |= nbr[low]
            if t == tmax:
                break
            rest = reached & ~infected
            while rest:
                low = rest & -rest
                rest ^= low
                if (nbr[low] & infected).bit_count() >= req[low]:
                    new |= low
            if new:
                t += 1
            else:
                pending = [
                    c for c, bit in ((t_lo, lo), (t_hi, hi))
                    if c is not None and c > t and not infected & bit
                ]
                if not pending:
                    break
                t = min(pending)
        got = memo[key] = (len(times) == len(nbr), last, times)
        return got

    def low2(times: dict[int, int], mask: int) -> tuple[int, ...]:
        return tuple(sorted(t for bit, t in times.items() if bit & mask)[:2])

    def cut_times(seeded: int, profile: tuple[int, ...]) -> Sequence[int]:
        if seeded:
            return (0,)
        return range(1, min(tmax, profile[1] + 1) + 1 if len(profile) == 2 else tmax + 1)

    # states[u, seeded][profile]: the largest completion time so far over
    # schedules whose block's left cut fires at u with that profile.  The
    # first block enters from one seeded state with no clamp (u = None),
    # which skips the firing check at its left end.
    states: dict[tuple[Optional[int], int], dict[tuple[int, ...], int]] = {(None, 1): {(): -1}}
    answer = -1
    for j in range(nblocks):
        final = j == nblocks - 1
        nxt: dict[tuple[Optional[int], int], dict[tuple[int, ...], int]] = {}
        # Per transition, not per state: the right neighbors' two smallest
        # times per (seeds, next cut time), and per (u, those times) the
        # best value among the passing profiles of group (u, unseeded).
        right_pairs: dict[tuple[int, Optional[int]], tuple[int, ...]] = {}
        passing: dict[tuple[int, tuple[int, ...]], int] = {}
        for (u, seeded), group in states.items():
            for sigma in seeds[j]:
                seeded2, profile2, u2s = 0, (), (None,)
                if not final:
                    seeded2 = sigma >> bounds[j + 1] & 1
                    if not seeded2:
                        profile2 = low2(evolve(j, sigma, u, None)[2], nbrs[j][1 << bounds[j + 1]])
                    u2s = cut_times(seeded2, profile2)
                for u2 in u2s:
                    if seeded:
                        val = group[()]
                    else:
                        pair = right_pairs.get((sigma, u2))
                        if pair is None:
                            pair = right_pairs[sigma, u2] = low2(
                                evolve(j, sigma, None, u2)[2], nbrs[j][1 << bounds[j]]
                            )
                        val = passing.get((u, pair))
                        if val is None:
                            val = passing[u, pair] = max(
                                (v for p, v in group.items()
                                 if len(p) + len(pair) >= 2 and sorted(p + pair)[1] + 1 == u),
                                default=-1,
                            )
                        if val < 0:
                            continue
                    full, last, _ = evolve(j, sigma, u, u2)
                    if not full:
                        continue
                    if final:
                        answer = max(answer, val, last)
                    else:
                        group2 = nxt.setdefault((u2, seeded2), {})
                        group2[profile2] = max(group2.get(profile2, -1), val, last)
        states = nxt
    if answer < 0:
        raise RuntimeError("no spreading schedule covers the segment")
    return answer


# Case tags by (left end, right end) kind; every other pairing is guarded_both.
_CASE_TAGS = {
    ("anchor", "anchor"): "two_anchors",
    ("pendant", "anchor"): "guarded_left",
    ("cut", "anchor"): "guarded_left",
    ("anchor", "pendant"): "guarded_right",
    ("anchor", "cut"): "guarded_right",
    ("pendant", "pendant"): "two_pendants",
}


def _classify(model: UnitIntervalModel, a: int, b: int) -> CutSegment:
    if b - a == 1:
        return CutSegment(a, b, "edge", 1)
    rs = model.right
    n = len(rs)
    # An end of the order is an anchor when its vertex has a second neighbor.
    left = "cut" if a > 0 else "anchor" if rs[0] >= 2 else "pendant"
    right = "cut" if b < n - 1 else "anchor" if rs[n - 3] == n - 1 else "pendant"
    tag = _CASE_TAGS.get((left, right), "guarded_both")
    return CutSegment(a, b, tag, _segment_time(model, a, b, left, right))


def cut_segments(model: UnitIntervalModel) -> tuple[CutSegment, ...]:
    """Split the order at degree-2 cut vertices and time each piece.

    A degree-2 vertex whose two neighbors are non-adjacent never spreads
    infection across itself before being infected, so no edge joins the two
    sides and the worst start set works against one side at a time.  A
    2-connected graph is one ``two_anchors`` segment, timed by the split
    diameter; every other segment is timed by the cut-time search of
    ``_segment_time``.
    """
    rs = model.right
    n = len(rs)
    if n < 3:
        raise ValueError("segment analysis needs at least three vertices")
    if not model.connected:
        raise ValueError("segment analysis needs a connected graph")
    # p's neighbors are exactly p - 1 and p + 1, and those two are not adjacent.
    cuts = [
        p
        for p in range(1, n - 1)
        if rs[p - 1] == p and rs[p] == p + 1 and (p == 1 or rs[p - 2] < p)
    ]
    bounds = [0, *cuts, n - 1]
    return tuple(_classify(model, a, b) for a, b in zip(bounds, bounds[1:]))


def percolation_time(model: UnitIntervalModel) -> int:
    """Worst-case number of rounds to infect a connected unit interval graph."""
    if not model.connected:
        raise ValueError("percolation time is defined for connected graphs")
    if model.graph.n <= 2:
        return 0
    return max(seg.time for seg in cut_segments(model))
