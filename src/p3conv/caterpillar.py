"""Closed-form infection parameters for caterpillar trees.

A caterpillar is a tree whose non-leaf vertices form a path.  All three
parameters computed here (minimum one-round cover, minimum percolating set,
worst-case infection time) depend only on the tree's capped degree profile
along a longest path, plus the leaf count.  The profile caps each degree at
four because a spine vertex with two infected leaf neighbors is infected in
the first round no matter how many further leaves it carries.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, islice
from math import inf
from typing import NamedTuple, Optional, Sequence

from .graph import Graph

_VALID_VALUES = (1, 2, 3, 4)


class _CaterpillarFields(NamedTuple):
    spine: tuple[int, ...]
    reduced_degrees: tuple[int, ...]
    leaves: tuple[tuple[int, ...], ...]


class CaterpillarStructure(_CaterpillarFields):
    """A caterpillar described by a longest path and the leaves hanging off it.

    spine            vertices of a longest path, in path order
    reduced_degrees  degree of each spine vertex, capped at four
    leaves           for each spine position, its attached off-spine leaves

    The fields are read-only; the derived values below are computed on
    first use and kept in the instance dictionary.
    """

    @cached_property
    def leaf_count(self) -> int:
        """Number of degree-one vertices of the whole tree."""
        hanging = sum(len(group) for group in self.leaves)
        if len(self.spine) == 1:
            return hanging
        return hanging + 2

    @cached_property
    def factorization(self) -> "SpineFactorization":
        """The degree profile's factors, computed once per structure."""
        return decompose_degree_sequence(self.reduced_degrees)

    @cached_property
    def percolation(self) -> "PercolationSequence":
        """The spine's worst-case infection rounds, computed once per structure."""
        return percolation_sequence(self.reduced_degrees)

    def reversed(self) -> "CaterpillarStructure":
        """The same caterpillar walked from the other end of the spine."""
        return CaterpillarStructure(
            spine=self.spine[::-1],
            reduced_degrees=self.reduced_degrees[::-1],
            leaves=self.leaves[::-1],
        )


def recognize_caterpillar(g: Graph) -> Optional[CaterpillarStructure]:
    """Structure of g if it is a caterpillar tree, else None.

    Works from the degrees and one pass over the edge list, and builds no
    neighbour sets.  A vertex is inner when its degree is at least two; g is
    a caterpillar when it has n - 1 edges, its inner vertices form a path
    (each has at most two inner neighbours, and a walk from an end of the
    path meets all of them), and every other vertex hangs off that path.
    The spine is the longest path that two breadth-first searches, one from
    vertex 0 and one from where it ends, would find.  Graphs with fewer than
    two vertices are outside the domain and raise ValueError rather than
    returning None.
    """
    n = g.n
    if n < 2:
        raise ValueError("caterpillar recognition needs at least two vertices")
    if g.edge_count != n - 1:
        return None
    if n == 2:
        return CaterpillarStructure((0, 1), (1, 1), ((), ()))
    edges = g._edges
    deg = [0] * n
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    # Each inner vertex counts its inner neighbours and keeps their XOR, so
    # that a walk steps on from the neighbour it came from; each leaf keeps
    # its one neighbour.  Two adjacent leaves form a component of their own.
    links = [0] * n
    xor = [0] * n
    hub = [0] * n
    for u, w in edges:
        if deg[u] == 1:
            if deg[w] == 1:
                return None
            hub[u] = w
        elif deg[w] == 1:
            hub[w] = u
        else:
            links[u] += 1
            links[w] += 1
            xor[u] ^= w
            xor[w] ^= u
    k = n - deg.count(1) - deg.count(0)
    if k == 1:
        # A star: every edge meets the one inner vertex.
        path = [deg.index(n - 1)]
    elif max(links) > 2 or 1 not in links:
        return None
    else:
        prev = links.index(1)
        path = [prev]
        v = xor[prev]
        while links[v] == 2:
            path.append(v)
            prev, v = v, xor[v] ^ prev
        path.append(v)
        if len(path) != k:
            return None
    # The path sends sum(degrees) - 2(k - 1) edges off itself, each to a
    # leaf of its own, as g has n - 1 edges and no two leaves are adjacent.
    # When that reaches all n - k other vertices, none of them is isolated
    # and each hangs off the path.
    if sum(map(deg.__getitem__, path)) - 2 * (k - 1) != n - k:
        return None

    # Each path position's leaves in ascending order: a counting sort puts
    # those of position i in flat[cuts[i]:cuts[i + 1]].
    rank = [0] * n
    for i, v in enumerate(path):
        rank[v] = i
    cuts = list(accumulate((deg[v] - links[v] for v in path), initial=0))
    fill = cuts[:-1]
    flat = [0] * (n - k)
    for v in range(n):
        if deg[v] == 1:
            i = rank[hub[v]]
            flat[fill[i]] = v
            fill[i] += 1
    flat = tuple(flat)
    groups = [flat[a:b] for a, b in zip(cuts, islice(cuts, 1, None))]

    # The first search from vertex 0 ends at the largest leaf of the path
    # end farther from 0 (or from its neighbour, when 0 is a leaf); between
    # two ends equally far it goes the way of the larger of the two path
    # neighbours.  The second ends at the largest leaf of the other end.
    # The spine runs from the second to the first.
    j = rank[0] if deg[0] > 1 else rank[hub[0]]
    if j > k - 1 - j or (j == k - 1 - j and k > 1 and path[j - 1] > path[j + 1]):
        path.reverse()
        groups.reverse()
    if k == 1:
        end_b, end_a = groups[0][-2:]
        groups[0] = groups[0][:-2]
    else:
        end_b, end_a = groups[0][-1], groups[-1][-1]
        groups[0], groups[-1] = groups[0][:-1], groups[-1][:-1]
    return CaterpillarStructure(
        (end_b, *path, end_a),
        (1, *[d if d < 4 else 4 for d in map(deg.__getitem__, path)], 1),
        ((), *groups, ()),
    )


def is_basic_sequence(seq: Sequence[int]) -> bool:
    """Whether seq is one of the indivisible factor shapes.

    The shapes are: a bare 1; a 2 followed by one value; or a 3 or 4, then a
    run of 4s, closed off either by a terminal 1 or 2 or by a 3 plus one
    further value.
    """
    s = tuple(seq)
    try:
        return decompose_degree_sequence(s).factors == (s,)
    except ValueError:
        return False


class SpineFactorization(NamedTuple):
    """A degree profile split into consecutive indivisible factors."""

    factors: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        # The number of factors; it shadows tuple.count.
        return len(self.factors)


def decompose_degree_sequence(seq: Sequence[int]) -> SpineFactorization:
    """Split a degree profile into its unique sequence of indivisible factors.

    Greedy from the left: a 1 stands alone; a 2 takes the next value with it;
    a 3 or 4 absorbs the following run of 4s and closes at the first value
    that is a 1 or 2, or one step past it when that value is a 3.  Any profile
    ending in 1 splits completely; otherwise ValueError is raised.
    """
    s = tuple(seq)
    if not s:
        raise ValueError("empty degree profile")
    for x in s:
        if x not in _VALID_VALUES:
            raise ValueError(f"degree profile value {x} outside 1..4")
    factors: list[tuple[int, ...]] = []
    i = 0
    while i < len(s):
        head = s[i]
        if head == 1:
            j = i + 1
        elif head == 2:
            j = i + 2
        else:
            k = i + 1
            while k < len(s) and s[k] == 4:
                k += 1
            if k == len(s):
                j = k + 1
            elif s[k] in (1, 2):
                j = k + 1
            else:
                j = k + 2
        if j > len(s):
            raise ValueError(f"profile {s} has no complete factor at offset {i}")
        factors.append(s[i:j])
        i = j
    return SpineFactorization(tuple(factors))


class PercolationSequence(NamedTuple):
    """Per-position worst-case infection times along a caterpillar spine.

    Positions are grouped into runs: consecutive capped-3 positions share a
    run, every other position is a run by itself.  run_ids numbers the runs
    from 1; run_starts and run_ends give each position's run boundaries as
    0-based positions.  times[i] is the largest round at which spine position
    i can become infected under any percolating start set.
    """

    run_ids: tuple[int, ...]
    run_starts: tuple[int, ...]
    run_ends: tuple[int, ...]
    times: tuple[int, ...]

    @property
    def worst_time(self) -> int:
        return max(self.times)


def percolation_sequence(seq: Sequence[int]) -> PercolationSequence:
    """Worst-case infection round of every spine position, from the degree profile.

    Capped-1 positions take round 0 and capped-4 ones round 1.  A run of
    capped 3s is fed through a flank of capped degree 1 after 1 round and
    through one of degree 4 after 2; a position a and b steps from the run's
    ends takes the earlier feed, or max(a, b) + 1 when no flank feeds the
    run (the worst seed then sits at the far side).  A capped-2 position
    takes 1 + the latest time of its neighbors of capped degree above 2.
    """
    s = tuple(seq)
    k = len(s)
    if k == 0:
        raise ValueError("empty degree profile")
    if s[0] != 1 or s[-1] != 1:
        raise ValueError("degree profile must start and end with 1")
    for x in s[1:-1]:
        if x not in (2, 3, 4):
            raise ValueError(f"interior profile value {x} outside 2..4")

    feed = {1: 1, 4: 2}
    run_ids, run_starts, ends = [], [], []
    for i, d in enumerate(s):
        if d == 3 == s[i - 1]:
            ends[-1] = i
        else:
            ends.append(i)
            lo = i
        run_ids.append(len(ends))
        run_starts.append(lo)
    run_ends = [ends[r - 1] for r in run_ids]
    times = [1 if d == 4 else 0 for d in s]
    for i, d in enumerate(s):
        if d == 3:
            lo, hi = run_starts[i], run_ends[i]
            left, right = feed.get(s[lo - 1], inf), feed.get(s[hi + 1], inf)
            if left == right == inf:
                times[i] = max(i - lo, hi - i) + 1
            else:
                times[i] = min(i - lo + left, hi - i + right)
    for i in range(1, k - 1):
        if s[i] == 2:
            times[i] = max(times[i - 1] if s[i - 1] > 2 else 0, times[i + 1] if s[i + 1] > 2 else 0) + 1

    return PercolationSequence(
        run_ids=tuple(run_ids),
        run_starts=tuple(run_starts),
        run_ends=tuple(run_ends),
        times=tuple(times),
    )


def geodetic_number(structure: CaterpillarStructure) -> int:
    """Minimum size of a set covering the tree in a single infection round."""
    if len(structure.spine) == 1:
        return 1
    return structure.factorization.count + structure.leaf_count - 2


def _paired_twos(values: Sequence[int]) -> int:
    total = 0
    run = 0
    for d in values:
        if d == 2:
            run += 1
        else:
            total += run // 2
            run = 0
    return total + run // 2


def hull_number(structure: CaterpillarStructure) -> int:
    """Minimum size of a set whose infection eventually covers the tree.

    Every leaf is needed; beyond that, each maximal stretch of capped-2
    spine positions (measured after dropping the capped-3 positions, which
    relay infection on their own) demands one extra seed per two positions.
    """
    if len(structure.spine) == 1:
        return 1
    pruned = [d for d in structure.reduced_degrees if d != 3]
    return structure.leaf_count + _paired_twos(pruned)


def percolation_time(structure: CaterpillarStructure) -> int:
    """Largest number of rounds a percolating set can take to cover the tree."""
    if len(structure.spine) == 1:
        return 0
    return structure.percolation.worst_time
