"""Unit interval graphs: recognition, clique structure, and percolation time.

A unit interval graph is one whose vertices can be arranged left to right so
that every closed neighborhood occupies a contiguous run of positions.  All
structure here is expressed in terms of such an order: maximal cliques are
position intervals, and the two-infected-neighbors spreading process is
timed without enumerating start sets: by one walk over the clique chain
when the graph is 2-connected, else by two sweeps over its cut vertices.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import lru_cache
from itertools import combinations
from operator import ge
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


def _runner(nbr: dict[int, int], lo: int, hi: int) -> tuple:
    """Memoized runs of one block whose cuts are the bits lo and hi (0: none).

    A run spreads from the seeds ``sigma`` and injects the cuts at rounds
    ``t_lo`` and ``t_hi`` (None: never); a cut never fires inside the block,
    every other position fires once two of its neighbors are infected.  It
    gives the two smallest rounds among the lo cut's neighbors, the last
    round (None unless the whole block is infected), and the same for the
    hi cut.  Returns the runs and the runs of the mirrored block.
    """
    cuts, block = lo | hi, sum(nbr)
    lo_nbrs, hi_nbrs = nbr.get(lo, 0), nbr.get(hi, 0)

    @lru_cache(maxsize=None)
    def run(sigma: int, t_lo: Optional[int], t_hi: Optional[int]) -> tuple:
        infected = once = twice = 0
        new, t, last, lo2, hi2 = sigma, 0, -1, [], []
        stop = max(t_lo or 0, t_hi or 0)
        while True:
            if t_lo == t:
                new |= lo
            if t_hi == t:
                new |= hi
            if new:
                last = t
                lo2 += [t] * (new & lo_nbrs).bit_count()
                hi2 += [t] * (new & hi_nbrs).bit_count()
            infected |= new
            while new:
                low = new & -new
                nbrs = nbr[low]
                twice |= once & nbrs
                once |= nbrs
                new ^= low
            new = twice & ~infected & ~cuts
            if not new and t >= stop:
                return tuple(lo2[:2]), last if infected == block else None, tuple(hi2[:2])
            t += 1

    def mirrored(sigma: int, t_lo: Optional[int], t_hi: Optional[int]) -> tuple:
        return run(sigma, t_hi, t_lo)[::-1]

    return run, mirrored


def _blocks(his: Sequence[int]) -> list[tuple]:
    """The blocks of a segment whose position p has its last neighbor at his[p].

    Each block is (seed choices, runs, mirrored runs), positions as bits.  A
    seed choice is at most two positions other than cuts that infect the
    whole block once its cuts are infected; a position with one neighbor can
    only be infected as a seed, so it is in every choice.
    """
    m = len(his)
    los = [bisect_left(his, p) for p in range(m)]
    cuts = [p for p in range(1, m - 1) if his[p - 1] == p]
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, m - 1]):
        span = range(lo, hi + 1)
        nbr = {1 << p: ((2 << min(his[p], hi)) - (1 << max(los[p], lo))) ^ (1 << p) for p in span}
        lo_bit, hi_bit = 1 << lo if lo else 0, 1 << hi if hi < m - 1 else 0
        free = [bit for bit in nbr if not bit & (lo_bit | hi_bit)]
        run, mirrored = _runner(nbr, lo_bit, hi_bit)
        full = [0 if bit else None for bit in (lo_bit, hi_bit)]
        choices = (sum(c) for k in range(3) for c in combinations(free, k))
        blocks.append(([s for s in choices if run(s, *full)[1] is not None], run, mirrored))
    return blocks


def _fire(seeded: int, own: tuple[int, ...], other: tuple[int, ...]) -> Optional[int]:
    """A cut's round: 0 if seeded, else one after the second smallest profile round."""
    if seeded:
        return 0
    both = sorted(own + other)
    return both[1] + 1 if len(both) >= 2 else None


# Sweep states at a cut by (seeded, own profile length, other side's length).
# _START is the one state before the segment's first position, never
# infected; _GUESS lists every key the opposite sweep may hold.
_START = {(0, 0, 0): [()]}
_GUESS = [(1, 0, 0), *((0, a, c) for a in range(3) for c in range(3) if a + c >= 2)]


def _sweep(blocks: Sequence[tuple], other: Optional[list[dict]] = None) -> tuple[list[dict], int]:
    """One sweep over the blocks from left to right; see ``_segment_time``.

    ``other[j]`` holds the opposite sweep's states at block j's right cut.
    Without it the sweep guesses them, times nothing, and stops before the
    last block, whose right end is the segment's.  Returns the states at
    each block's left cut and the latest round of any block run with both
    cuts at their true rounds (-1 when guessing).
    """
    timed = other is not None
    if not timed:
        other = [_GUESS] * (len(blocks) - 1)
    states, tables, answer = _START, [], -1
    for (seeds, run), right in zip(blocks, other):
        tables.append(states)
        nxt: dict[tuple[int, int, int], set[tuple[int, ...]]] = {}
        for sigma in seeds:
            lo_alone, _, hi_alone = run(sigma, None, None)
            # A state at the left cut: its profile f, the length cb it assumed
            # for the b from the right, and the f2 it gives the right cut; an
            # opposite state there: b2, the length cf2 assumed for f2, and b.
            lefts = [
                (s, cb, f, run(sigma, _fire(s, f, lo_alone), None)[2])
                for (s, _, cb), profiles in states.items()
                for f in profiles
            ]
            if timed:
                rights = [
                    (s2, cb2, cf2, b2, run(sigma, None, _fire(s2, b2, hi_alone))[0])
                    for (s2, cb2, cf2), profiles in right.items()
                    for b2 in profiles
                ]
            else:  # a guess needs only len(b), and any finite round gives it
                b = run(sigma, None, 0)[0]
                rights = [(s2, a, c, (), b if s2 or a + len(hi_alone) >= 2 else lo_alone)
                          for s2, a, c in _GUESS]
            pairs = set()
            for s, cb, f, f2 in lefts:
                for s2, cb2, cf2, b2, b in rights:
                    if (s or cb == len(b)) and (s2 or cf2 == len(f2)):
                        if timed:
                            pairs.add((_fire(s, f, b), _fire(s2, f2, b2)))
                        key = (1, 0, 0) if s2 else (0, len(f2), cb2)
                        nxt.setdefault(key, set()).add(() if s2 else f2)
            for t_lo, t_hi in pairs:
                answer = max(answer, run(sigma, t_lo, t_hi)[1])
        states = {
            key: [p for p in ps if not any(q != p and all(map(ge, q, p)) for q in ps)]
            for key, ps in nxt.items()
        }
    tables.append(states)
    return tables, answer


def _segment_time(model: UnitIntervalModel, a: int, b: int) -> int:
    """Percolation time of the unit interval graph induced on positions a..b.

    The range is a chain of 2-connected blocks joined at inner cuts, the
    positions that no edge jumps over; a block runs from one cut to the
    next, both included, and the range's ends are ordinary positions of its
    first and last block.  A start set is normalized to at most two
    vertices per block: any vertex ignited by a larger set is already
    ignited by some pair inside it, and shrinking a start set never speeds
    anything up.  So a block's seeds are at most two of its positions other
    than its cuts, and each cut is seeded or not on its own.

    Lemma.  An unseeded inner cut c fires one round after the second
    smallest round among its neighbors, and those rounds are the ones the
    process gives its left neighbors when run on the positions left of c
    alone, and its right neighbors when run on those right of c alone.
    Proof: removing c makes no round earlier, and a position left of c has
    all its neighbors left of c or at c.  By induction on the round, every
    position infected before c keeps its round in the left-alone run, since
    the two neighbors that fired it were infected earlier, so not at c.

    So c's round (``_fire``) follows from its forward profile, the two
    smallest rounds of its left neighbors in the left-alone run, and its
    backward profile, the same from the right.  In the left-alone run the
    next cut's forward profile comes from running the block between them
    with c injected at the round its forward profile and the block alone
    give it.  With both cuts at their true rounds, a block's run is exact.

    ``_sweep`` carries the profiles from cut to cut.  Its states at a cut
    are keyed by (cut seeded, how many of this side's two profile entries
    are finite, how many of the other side's are) and hold only the
    Pareto-maximal profiles.  That is exact: which positions get infected
    does not depend on rounds, so the counts decide every percolation check,
    and every round is monotone in the profiles.  The backward sweep reads
    the blocks right to left and guesses the other side's counts, which the
    next block checks.  The forward sweep pairs its states with the backward
    states at the next cut, so every pair is realized by a spanning start
    set, and times each block on each pair.  Each sweep visits a block once.
    """
    blocks = _blocks([min(r, b) - a for r in model.right[a:b + 1]])
    backward, _ = _sweep([(seeds, mirrored) for seeds, _, mirrored in reversed(blocks)])
    _, answer = _sweep([(seeds, run) for seeds, run, _ in blocks], backward[::-1])
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
    # An end of the order is an anchor when its vertex has a second neighbor
    # and a pendant when it has one; any other end is a cut.
    left = "cut" if a > 0 else "anchor" if rs[0] >= 2 else "pendant"
    right = "cut" if b < n - 1 else "anchor" if rs[n - 3] == n - 1 else "pendant"
    tag = _CASE_TAGS.get((left, right), "guarded_both")
    return CutSegment(a, b, tag, _segment_time(model, a - (a > 0), b + (b < n - 1)))


def cut_segments(model: UnitIntervalModel) -> tuple[CutSegment, ...]:
    """Split the order at degree-2 cut vertices and time each piece.

    A degree-2 vertex whose two neighbors are non-adjacent never spreads
    infection across itself before being infected, so no edge joins the two
    sides and the worst start set works against one side at a time.  A
    2-connected graph is one ``two_anchors`` segment, timed by the diameter
    of its split graph (``percolation_time_biconnected``).  Every other
    segment is timed as a graph of its own, widened by the outside neighbor
    of each cut end (``_segment_time``).  That neighbor has one neighbor in
    the widened range, so it is a seed of every start set: the one infected
    helper the other side can give the cut, and free for the worst case,
    since delaying it only delays the cut, a delay charged to the
    neighboring segment.
    """
    rs = model.right
    n = len(rs)
    if n < 3:
        raise ValueError("segment analysis needs at least three vertices")
    if not model.connected:
        raise ValueError("segment analysis needs a connected graph")
    if model.biconnected:
        return (CutSegment(0, n - 1, "two_anchors", percolation_time_biconnected(model)),)
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
