"""Brute-force reference computations for the two-neighbor infection process.

A vertex becomes infected once at least two of its neighbors are infected,
and infection never recedes.  Everything here enumerates vertex subsets
directly, so it is exponential by design: these functions exist to validate
the closed-form results on small graphs, not to be fast.

Every public function is a short reduction over one core of two private
pieces, on vertex sets held as bitmasks (bit v stands for vertex v):

- ``_spread`` runs the process from a start set and yields the infected set
  after each round, from round 0 until a round infects nothing.  It keeps
  the vertices seen once and seen twice among the neighborhoods of the
  infected vertices, adding each vertex's adjacency mask once, in the round
  that infects it; the next round infects the vertices seen twice.  The
  one-round interval, the closure and the round list all come from it.
- ``_start_sets`` enumerates start sets by rising size.  A vertex of degree
  below two can never become infected by its neighbors, so it belongs to
  every set whose closure is to cover the whole graph.  Every start set
  holds all such vertices plus k free others, listed with it, with k rising
  from 0 and the sets of one size in ``itertools.combinations`` order.
  Folding the forced vertices in up front shrinks the search space without
  changing any answer, and the empty graph gets the empty start set.

The hull and geodetic numbers are the smallest size of a start set that
covers the graph, eventually or in one round.  The percolation times are
maxima over the round lists of the inclusion-minimal start sets that cover
it: if S is a subset of T, each round from T contains the same round from S,
so T percolates when S does and infects every vertex no later.  A set one
free vertex above a percolating set is recorded as percolating, unrun, and
the search stops after the first size where every start set percolates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, count, islice
from typing import Iterable, Iterator, Optional

from .graph import Graph

DEFAULT_HULL_CAP = 20
DEFAULT_TIME_CAP = 18
DEFAULT_PROPERTY_CAP = 16


class CapExceeded(Exception):
    """A brute-force computation was asked to search more than its size cap allows."""


def _require_within(g: Graph, max_n: Optional[int], default: int, what: str) -> None:
    cap = default if max_n is None else max_n
    if g.n > cap:
        raise CapExceeded(
            f"{what} enumerates subsets of {g.n} vertices; cap is {cap}"
        )


def _adjacency_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in nbrs) for nbrs in g._adj]


def _mask_of(g: Graph, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside range 0..{g.n - 1}")
        mask |= 1 << v
    return mask


def _members(mask: int) -> frozenset[int]:
    return frozenset(compress(count(), map("1".__eq__, reversed(bin(mask)))))


def _spread(masks: list[int], start: int) -> Iterator[int]:
    """Infected sets after rounds 0, 1, 2, ... until a round infects nothing."""
    once = twice = 0
    infected = fresh = start
    while True:
        yield infected
        while fresh:
            low = fresh & -fresh
            nbrs = masks[low.bit_length() - 1]
            twice |= once & nbrs
            once |= nbrs
            fresh ^= low
        fresh = twice & ~infected
        if not fresh:
            return
        infected |= fresh


def _start_sets(masks: list[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(mask, free bits) of the degree-below-two vertices plus k others, k rising from 0."""
    forced = 0
    free = []
    for v, nbrs in enumerate(masks):
        if nbrs.bit_count() < 2:
            forced |= 1 << v
        else:
            free.append(1 << v)
    for k in range(len(free) + 1):
        for combo in combinations(free, k):
            yield forced | sum(combo), combo


def _smallest_covers(masks: list[int], stop: Optional[int] = None) -> Iterator[int]:
    """Start sets of the smallest size that infect every vertex within stop - 1 rounds.

    Lazy and in enumeration order.  ``stop=None`` runs each start set to its
    fixpoint (hull sets); ``stop=2`` allows one round (geodetic sets).
    """
    full = (1 << len(masks)) - 1
    size = len(masks)
    for s, _ in _start_sets(masks):
        if s.bit_count() > size:
            return
        for last in islice(_spread(masks, s), stop):
            pass
        if last == full:
            size = s.bit_count()
            yield s


def _percolating_rounds(masks: list[int]) -> Iterator[list[int]]:
    """Round lists of the minimal start sets whose infection reaches every vertex."""
    full = (1 << len(masks)) - 1
    smaller, percolating, size, stalled = set(), set(), 0, False
    for s, free in _start_sets(masks):
        if len(free) > size:
            if not stalled:
                return
            smaller, percolating, size, stalled = percolating, set(), len(free), False
        if smaller.isdisjoint(map(s.__xor__, free)):
            rounds = list(_spread(masks, s))
            if rounds[-1] != full:
                stalled = True
                continue
            yield rounds
        percolating.add(s)


def interval(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """One infection round: s together with vertices having two infected neighbors."""
    first_two = islice(_spread(_adjacency_masks(g), _mask_of(g, s)), 2)
    return _members(list(first_two)[-1])


@dataclass(frozen=True)
class PercolationTrace:
    """Round-by-round record of infection spreading from a start set."""

    rounds: tuple[frozenset[int], ...]
    time_of: tuple[Optional[int], ...]
    percolated: bool

    @property
    def closure(self) -> frozenset[int]:
        return self.rounds[-1]


def percolate(g: Graph, s: Iterable[int]) -> PercolationTrace:
    """Run the infection process from s until it stabilizes.

    The trace lists every round as a set, so it is inherently O(n·t) for t rounds.
    """
    rounds: list[frozenset[int]] = []
    time_of: list[Optional[int]] = [None] * g.n
    infected = 0
    for t, m in enumerate(_spread(_adjacency_masks(g), _mask_of(g, s))):
        fresh = _members(m ^ infected)
        for v in fresh:
            time_of[v] = t
        rounds.append(rounds[-1] | fresh if rounds else fresh)
        infected = m
    return PercolationTrace(tuple(rounds), tuple(time_of), infected == (1 << g.n) - 1)


def hull_closure(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Smallest superset of s that gains nothing from another infection round."""
    return percolate(g, s).closure


def hull_number_bruteforce(g: Graph, max_n: Optional[int] = None) -> int:
    """Minimum size of a set whose closure is the whole vertex set."""
    _require_within(g, max_n, DEFAULT_HULL_CAP, "hull number search")
    return next(_smallest_covers(_adjacency_masks(g))).bit_count()


def minimum_hull_sets(g: Graph, max_n: Optional[int] = None) -> list[frozenset[int]]:
    """All minimum-size sets whose closure is the whole vertex set."""
    _require_within(g, max_n, DEFAULT_HULL_CAP, "hull set search")
    return [_members(s) for s in _smallest_covers(_adjacency_masks(g))]


def geodetic_number_bruteforce(g: Graph, max_n: Optional[int] = None) -> int:
    """Minimum size of a set that covers the whole graph in a single round."""
    _require_within(g, max_n, DEFAULT_HULL_CAP, "geodetic number search")
    return next(_smallest_covers(_adjacency_masks(g), 2)).bit_count()


def percolation_time_bruteforce(g: Graph, max_n: Optional[int] = None) -> int:
    """Largest number of rounds any percolating set needs to cover the graph."""
    _require_within(g, max_n, DEFAULT_TIME_CAP, "percolation time search")
    return max(len(rounds) - 1 for rounds in _percolating_rounds(_adjacency_masks(g)))


def vertex_percolation_time_bruteforce(
    g: Graph, v: int, max_n: Optional[int] = None
) -> int:
    """Latest round at which v gets infected, over all percolating start sets."""
    _require_within(g, max_n, DEFAULT_TIME_CAP, "vertex percolation time search")
    bit = _mask_of(g, (v,))
    return max(
        next(t for t, m in enumerate(rounds) if m & bit)
        for rounds in _percolating_rounds(_adjacency_masks(g))
    )


def interval_idempotent_bruteforce(g: Graph, max_n: Optional[int] = None) -> bool:
    """Whether spreading once from any vertex set already reaches a fixpoint.

    True iff for every S the set infected after one round equals the set
    infected after two rounds, that is, no start set has a second round
    that infects anything.  Checks all 2^n subsets.
    """
    _require_within(g, max_n, DEFAULT_PROPERTY_CAP, "interval idempotence check")
    masks = _adjacency_masks(g)
    return all(len(list(islice(_spread(masks, s), 3))) < 3 for s in range(1 << g.n))
