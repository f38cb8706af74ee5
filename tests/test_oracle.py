"""Brute-force oracle behavior on known graphs plus process invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chainutil import chain_graph, interval_systems
from p3conv.generators import connected_graphs, random_biconnected_chain
from p3conv.graph import Graph
from p3conv.oracle import (
    CapExceeded,
    geodetic_number_bruteforce,
    hull_closure,
    hull_number_bruteforce,
    interval,
    interval_idempotent_bruteforce,
    minimum_hull_sets,
    p3_parameters_bruteforce,
    percolate,
    percolation_time_bruteforce,
    vertex_percolation_time_bruteforce,
    _adjacency_masks,
    _search,
    _start_sets,
    _step,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def assert_firing_equation(g, s, times):
    """Seeds get 0, a vertex without a time has fewer than two infected
    neighbors, and any other vertex gets 1 + its second-smallest neighbor time."""
    for v, t in enumerate(times):
        near = sorted(times[w] for w in g.adj(v) if times[w] is not None)
        if v in s:
            assert t == 0
        elif t is None:
            assert len(near) < 2
        else:
            assert t == 1 + near[1]


def test_percolate_trace_on_path():
    assert percolate(path(3), {0, 2}) == (0, 1, 0)
    assert hull_closure(path(3), {0, 2}) == frozenset({0, 1, 2})


def test_percolate_can_stall():
    assert percolate(path(4), {0, 3}) == (0, None, None, 0)
    assert hull_closure(path(4), {0, 3}) == frozenset({0, 3})


def test_percolate_scales_to_a_long_chain():
    g, order = random_biconnected_chain(random.Random(1), 10**4)
    times = percolate(g, order[:2])
    assert None not in times and max(times) == 4961
    assert_firing_equation(g, set(order[:2]), times)


def test_interval_is_one_round():
    g = complete(3)
    assert interval(g, {0, 1}) == frozenset({0, 1, 2})
    # one round only: the new vertex cannot recruit further in the same call
    p = path(5)
    assert interval(p, {0, 2}) == frozenset({0, 1, 2})


def test_interval_rejects_vertices_outside_the_graph():
    for op in (interval, hull_closure, percolate):
        with pytest.raises(ValueError, match="outside range"):
            op(path(3), {0, 2, 99})
        with pytest.raises(ValueError, match="outside range"):
            op(path(3), {-1})


def test_hull_closure_runs_to_fixpoint():
    p = path(5)
    assert hull_closure(p, {0, 2}) == frozenset({0, 1, 2})
    assert hull_closure(p, {0, 2, 4}) == frozenset(range(5))


known_parameters = [
    (complete(4), 2, 2, 1),
    (path(4), 3, 3, 1),
    (Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 2, 2, 1),
    (Graph(4, [(0, 1), (0, 2), (0, 3)]), 3, 3, 1),
]


@pytest.mark.parametrize("g,h,geo,tau", known_parameters)
def test_known_small_graphs(g, h, geo, tau):
    assert hull_number_bruteforce(g) == h
    assert geodetic_number_bruteforce(g) == geo
    assert percolation_time_bruteforce(g) == tau


def test_edge_has_zero_percolation_time():
    assert percolation_time_bruteforce(Graph(2, [(0, 1)])) == 0


def test_triangle_percolation_time():
    assert percolation_time_bruteforce(complete(3)) == 1


def test_vertex_times_on_path():
    p = path(5)
    times = [vertex_percolation_time_bruteforce(p, v) for v in range(5)]
    assert times == [0, 1, 1, 1, 0]
    with pytest.raises(ValueError):
        vertex_percolation_time_bruteforce(p, 5)


def test_minimum_hull_sets_on_path():
    sets = minimum_hull_sets(path(4))
    assert all(len(s) == 3 for s in sets)
    assert frozenset({0, 1, 3}) in sets
    assert all({0, 3} <= set(s) for s in sets)


def test_idempotence_bruteforce():
    assert interval_idempotent_bruteforce(path(6))
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert not interval_idempotent_bruteforce(diamond)


def test_totals_over_connected_graphs_up_to_six_vertices():
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    assert len(graphs) == 143
    assert sum(hull_number_bruteforce(g) for g in graphs) == 347
    assert sum(geodetic_number_bruteforce(g) for g in graphs) == 431
    assert sum(percolation_time_bruteforce(g) for g in graphs) == 356
    assert sum(len(minimum_hull_sets(g)) for g in graphs) == 1028
    vertex_times = [
        vertex_percolation_time_bruteforce(g, v) for g in graphs for v in range(g.n)
    ]
    assert sum(vertex_times) == 1433
    assert sum(interval_idempotent_bruteforce(g) for g in graphs) == 16


def test_empty_graph():
    empty = Graph(0)
    assert hull_number_bruteforce(empty) == 0
    assert geodetic_number_bruteforce(empty) == 0
    assert percolation_time_bruteforce(empty) == 0
    assert minimum_hull_sets(empty) == [frozenset()]
    assert interval_idempotent_bruteforce(empty)
    assert percolate(empty, ()) == ()


def test_caps_raise():
    big = path(21)
    with pytest.raises(CapExceeded):
        hull_number_bruteforce(big)
    with pytest.raises(CapExceeded):
        percolation_time_bruteforce(path(19))
    with pytest.raises(CapExceeded):
        interval_idempotent_bruteforce(path(17))
    # explicit override lifts the cap
    assert percolation_time_bruteforce(path(19), max_n=19) == 1
    # the three parameters at once: the time is None above its own cap
    with pytest.raises(CapExceeded, match="geodetic number search"):
        p3_parameters_bruteforce(big)
    star = Graph(19, [(0, v) for v in range(1, 19)])
    assert p3_parameters_bruteforce(star) == (18, 18, None)
    assert p3_parameters_bruteforce(star, max_n=19) == (18, 18, 1)
    with pytest.raises(CapExceeded):
        p3_parameters_bruteforce(star, max_n=18)


@st.composite
def graph_and_sets(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = {(p, i) for i, p in enumerate(parents, start=1)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    g = Graph(n, sorted(edges))
    small = draw(st.sets(st.integers(0, n - 1), max_size=n))
    grow = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return g, small, small | grow


@given(graph_and_sets())
def test_rounds_match_a_set_based_spread(data):
    g, s, _ = data

    def one_round(infected):
        return infected | {
            v for v in range(g.n) if len(g.adj(v) & infected) >= 2
        }

    expected = [frozenset(s)]
    while (nxt := one_round(expected[-1])) != expected[-1]:
        expected.append(nxt)
    times = percolate(g, s)
    last = max((t for t in times if t is not None), default=0)
    rounds = [
        frozenset(v for v, t in enumerate(times) if t is not None and t <= r)
        for r in range(last + 1)
    ]
    assert rounds == expected
    assert (None not in times) == (expected[-1] == frozenset(range(g.n)))
    assert interval(g, s) == one_round(frozenset(s))


@given(graph_and_sets())
def test_interval_is_extensive_and_monotone(data):
    g, s, t = data
    assert s <= interval(g, s)
    assert interval(g, s) <= interval(g, t)


@given(graph_and_sets())
def test_hull_closure_is_idempotent(data):
    g, s, _ = data
    closed = hull_closure(g, s)
    assert hull_closure(g, closed) == closed


@given(graph_and_sets())
def test_percolate_trace_is_consistent(data):
    g, s, _ = data
    assert_firing_equation(g, s, percolate(g, s))


@settings(max_examples=60)
@given(graph_and_sets())
def test_hull_never_exceeds_geodetic(data):
    g, _, _ = data
    if not g.is_connected():
        return
    assert hull_number_bruteforce(g) <= geodetic_number_bruteforce(g)


@settings(max_examples=40)
@given(graph_and_sets())
def test_percolation_time_is_max_vertex_time(data):
    g, _, _ = data
    if not g.is_connected():
        return
    whole = percolation_time_bruteforce(g)
    per_vertex = max(vertex_percolation_time_bruteforce(g, v) for v in range(g.n))
    assert whole == per_vertex


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=60)
@given(small_graphs())
def test_parameters_match_the_standalone_oracles(g):
    assert p3_parameters_bruteforce(g) == (
        geodetic_number_bruteforce(g),
        hull_number_bruteforce(g),
        percolation_time_bruteforce(g),
    )


@given(graph_and_sets())
def test_spread_is_monotone_in_the_start_set(data):
    # The lemma the minimal-set pruning rests on: if S is a subset of T,
    # every vertex infected from S is infected from T, and no later.
    g, s, t = data
    small, big = percolate(g, s), percolate(g, t)
    assert all(a is None or b is not None and b <= a for a, b in zip(small, big))
    assert hull_closure(g, s) <= hull_closure(g, t)


def exhaustive_search(g):
    """Geodetic and hull numbers, percolation time, per-vertex times and minimal sets.

    The search as it was before the minimal-set pruning: spread every start
    set from ``_start_sets`` to its fixpoint, one ``_step`` at a time.  The geodetic and hull numbers
    are the sizes of the smallest one-round cover and closure cover.
    """
    masks = _adjacency_masks(g)
    full = (1 << g.n) - 1
    geodetic = hull = g.n
    whole, per_vertex, percolating = 0, [0] * g.n, {}
    for s, free in _start_sets(masks):
        rounds = [s]
        while (nxt := _step(masks, rounds[-1])) != rounds[-1]:
            rounds.append(nxt)
        if rounds[-1] != full:
            continue
        percolating[s] = free
        hull = min(hull, s.bit_count())
        if len(rounds) <= 2:
            geodetic = min(geodetic, s.bit_count())
        whole = max(whole, len(rounds) - 1)
        for t in range(1, len(rounds)):
            fresh = rounds[t] ^ rounds[t - 1]
            while fresh:
                v = (fresh & -fresh).bit_length() - 1
                per_vertex[v] = max(per_vertex[v], t)
                fresh &= fresh - 1
    minimal = {
        s for s, free in percolating.items() if not any(s ^ b in percolating for b in free)
    }
    return geodetic, hull, whole, per_vertex, minimal


def test_pruned_search_matches_every_start_set(connected_graphs_up_to_7):
    graphs = connected_graphs_up_to_7 + [
        chain_graph(n, cliques) for n in range(2, 9) for cliques in interval_systems(n)
    ]
    assert len(graphs) == 996 + 1 + 2 + 5 + 14 + 42 + 132 + 429
    for g in graphs:
        geodetic, hull, whole, per_vertex, minimal = exhaustive_search(g)
        run = [s for s, _, _ in _search(_adjacency_masks(g), (1 << g.n) - 1, False)]
        assert sorted(run) == sorted(minimal), g.edges()
        assert percolation_time_bruteforce(g) == whole, g.edges()
        assert p3_parameters_bruteforce(g) == (geodetic, hull, whole), g.edges()
        if g.n <= 6:
            got = [vertex_percolation_time_bruteforce(g, v) for v in range(g.n)]
            assert got == per_vertex, g.edges()
