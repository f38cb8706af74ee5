"""Brute-force reference computations for the two-neighbor infection process.

A vertex becomes infected once at least two of its neighbors are infected,
and infection never recedes.  ``percolate`` runs the process from one start
set in O(n + m) and returns each vertex's infection time; ``hull_closure``
is the set of vertices with a time.  Everything else enumerates vertex
subsets directly, so it is exponential by design: these functions exist to
validate the closed-form results on small graphs, not to be fast.

Every subset oracle is a short reduction over a few private pieces, on
vertex sets held as bitmasks (bit v stands for vertex v):

- ``_step`` runs one round from a set: it keeps the vertices seen once and
  seen twice among the neighborhoods of the set's vertices, and adds the
  vertices seen twice.  The one-round interval and the idempotence check
  come from it.
- ``_start_sets`` enumerates start sets by rising size.  A vertex of degree
  below two can never become infected by its neighbors, so it belongs to
  every set whose closure is to cover the whole graph.  Every start set
  holds all such vertices plus k free others, listed with it, with k rising
  from 0 and the sets of one size in ``itertools.combinations`` order.
  Folding the forced vertices in up front shrinks the search space without
  changing any answer, and the empty graph gets the empty start set.
- ``_search`` is the one pass over ``_start_sets`` behind every parameter
  oracle, for one parameter or for all three at once.  It spreads each set
  in its own loop, adding each vertex's adjacency mask once, in the round
  that infects it.

The percolation times are maxima over the inclusion-minimal start sets that
cover the graph: if S is a subset of T, each round from T contains the same
round from S, so T percolates when S does and infects every vertex no later.
So the search spreads a set only when no set one free vertex smaller
percolates, and it stops spreading after the first size where every start
set percolates.  Every set below the hull number stalls and is spread, so
the first percolating set met has the hull number's size.  A set that
covers the graph in one round is a hull set, so the geodetic number is at
least the hull number: the search tests each percolating set for a one-round
cover, and goes on past the spreading only until one turns up.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, count
from typing import Iterable, Iterator, NamedTuple, Optional

from .graph import Graph, _adjacency_masks

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


def _mask_of(g: Graph, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        g._check(v)
        mask |= 1 << v
    return mask


def _members(mask: int) -> frozenset[int]:
    return frozenset(compress(count(), map("1".__eq__, reversed(bin(mask)))))


def _step(masks: list[int], s: int) -> int:
    """One round: s together with every vertex that has two neighbors in s."""
    once = twice = 0
    rest = s
    while rest:
        low = rest & -rest
        nbrs = masks[low.bit_length() - 1]
        twice |= once & nbrs
        once |= nbrs
        rest ^= low
    return s | twice


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


def _covers_in_one_round(masks: list[int], start: int) -> bool:
    """Whether every vertex outside start has two neighbors in it."""
    rest = ~start & ((1 << len(masks)) - 1)
    while rest:
        low = rest & -rest
        if (masks[low.bit_length() - 1] & start).bit_count() < 2:
            return False
        rest ^= low
    return True


def _search(
    masks: list[int], watch: Optional[int], geodetic: bool
) -> Iterator[tuple[int, Optional[int], bool]]:
    """Percolating start sets by rising size, as (s, t, one_round).

    Yields each set it spreads that percolates, t the last round infecting a
    vertex of watch, and with geodetic set the first one-round cover, with
    one_round True (t None if it was not spread).  Spreading stops after the
    first size where all sets percolate, with watch 0 where any does, and
    with watch None at once; one-round tests then run to the first cover.
    """
    full = (1 << len(masks)) - 1
    smaller, percolating, stalled = set(), set(), False
    size = 0 if watch is not None else -1
    sets = _start_sets(masks)
    for s, free in sets:
        if len(free) > size:
            if not stalled or not watch and percolating:
                break
            smaller, percolating, size, stalled = percolating, set(), len(free), False
        if not smaller or smaller.isdisjoint(map(s.__xor__, free)):
            once = twice = t = r = 0
            infected = fresh = s
            while fresh:
                while fresh:
                    low = fresh & -fresh
                    nbrs = masks[low.bit_length() - 1]
                    twice |= once & nbrs
                    once |= nbrs
                    fresh ^= low
                fresh = twice & ~infected
                infected |= fresh
                r += 1
                if fresh & watch:
                    t = r
            if infected != full:
                stalled = True
                continue
        else:
            t = None
        percolating.add(s)
        one_round = geodetic and _covers_in_one_round(masks, s)
        if one_round:
            geodetic = False
        if one_round or t is not None:
            yield s, t, one_round
    if geodetic:
        for s in chain((s,), (m for m, _ in sets)):
            if _covers_in_one_round(masks, s):
                yield s, None, True
                return


def interval(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """One infection round: s together with vertices having two infected neighbors."""
    return _members(_step(_adjacency_masks(g), _mask_of(g, s)))


def percolate(g: Graph, s: Iterable[int]) -> tuple[Optional[int], ...]:
    """Round at which each vertex gets infected from s; None if it never is.

    Each newly infected vertex bumps a counter on each uninfected neighbor,
    and a vertex fires in the next round once its counter reaches two, so
    every vertex and edge is handled a bounded number of times: O(n + m).
    """
    time_of: list[Optional[int]] = [None] * g.n
    fresh = []
    for v in s:
        g._check(v)
        if time_of[v] is None:
            time_of[v] = 0
            fresh.append(v)
    hits = [0] * g.n
    nbrs = g._adj
    t = 0
    while fresh:
        t += 1
        fired = []
        for v in fresh:
            for w in nbrs[v]:
                if time_of[w] is None:
                    hits[w] += 1
                    if hits[w] == 2:
                        time_of[w] = t
                        fired.append(w)
        fresh = fired
    return tuple(time_of)


def hull_closure(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Smallest superset of s that gains nothing from another infection round."""
    return frozenset(v for v, t in enumerate(percolate(g, s)) if t is not None)


def hull_number_bruteforce(g: Graph, max_n: Optional[int] = None) -> int:
    """Minimum size of a set whose closure is the whole vertex set."""
    _require_within(g, max_n, DEFAULT_HULL_CAP, "hull number search")
    return next(_search(_adjacency_masks(g), 0, False))[0].bit_count()


def minimum_hull_sets(g: Graph, max_n: Optional[int] = None) -> list[frozenset[int]]:
    """All minimum-size sets whose closure is the whole vertex set."""
    _require_within(g, max_n, DEFAULT_HULL_CAP, "hull set search")
    return [_members(s) for s, _, _ in _search(_adjacency_masks(g), 0, False)]


def geodetic_number_bruteforce(g: Graph, max_n: Optional[int] = None) -> int:
    """Minimum size of a set that covers the whole graph in a single round."""
    _require_within(g, max_n, DEFAULT_HULL_CAP, "geodetic number search")
    return next(_search(_adjacency_masks(g), None, True))[0].bit_count()


def percolation_time_bruteforce(g: Graph, max_n: Optional[int] = None) -> int:
    """Largest number of rounds any percolating set needs to cover the graph."""
    _require_within(g, max_n, DEFAULT_TIME_CAP, "percolation time search")
    covers = _search(_adjacency_masks(g), (1 << g.n) - 1, False)
    return max(t for _, t, _ in covers if t is not None)


def vertex_percolation_time_bruteforce(
    g: Graph, v: int, max_n: Optional[int] = None
) -> int:
    """Latest round at which v gets infected, over all percolating start sets."""
    _require_within(g, max_n, DEFAULT_TIME_CAP, "vertex percolation time search")
    covers = _search(_adjacency_masks(g), _mask_of(g, (v,)), False)
    return max(t for _, t, _ in covers if t is not None)


class P3Parameters(NamedTuple):
    """The three parameters; percolation_time is None above the time cap."""

    geodetic_number: int
    hull_number: int
    percolation_time: Optional[int]


def p3_parameters_bruteforce(g: Graph, max_n: Optional[int] = None) -> P3Parameters:
    """Geodetic number, hull number and percolation time from one start-set search.

    Raises CapExceeded above the hull and geodetic cap, naming the geodetic
    number search; above the smaller time cap the percolation time is None.
    """
    _require_within(g, max_n, DEFAULT_HULL_CAP, "geodetic number search")
    timed = g.n <= (DEFAULT_TIME_CAP if max_n is None else max_n)
    covers = list(_search(_adjacency_masks(g), (1 << g.n) - 1 if timed else 0, True))
    return P3Parameters(
        next(s for s, _, one_round in covers if one_round).bit_count(),
        covers[0][0].bit_count(),
        max(t for _, t, _ in covers if t is not None) if timed else None,
    )


def interval_idempotent_bruteforce(g: Graph, max_n: Optional[int] = None) -> bool:
    """Whether spreading once from any vertex set already reaches a fixpoint.

    True iff for every S the set infected after one round equals the set
    infected after two rounds, that is, no start set has a second round
    that infects anything.  Checks all 2^n subsets.
    """
    _require_within(g, max_n, DEFAULT_PROPERTY_CAP, "interval idempotence check")
    return _idempotent(_adjacency_masks(g))


def _idempotent(masks: list[int]) -> bool:
    return all(_step(masks, x) == x for x in (_step(masks, s) for s in range(1 << len(masks))))
