import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from p3conv.graph import (
    Graph,
    _adjacency_masks,
    _search_order,
    blocks,
    contains_induced,
    is_biconnected,
)
from p3conv.hereditary import FORBIDDEN_PATTERNS


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    assert g.n == 4
    assert g.degree(1) == 3
    assert g.has_edge(3, 1) and not g.has_edge(0, 2)
    assert sorted(g.adj(2)) == [1, 3]
    assert len(g.edges()) == 4


def test_edges_are_deduplicated_and_validated():
    g = Graph(3, [(0, 1), (1, 0)])
    assert len(g.edges()) == 1
    assert g.edge_count == 1
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_edges_are_kept_sorted_in_order_and_once():
    g = Graph(5, [(3, 0), (2, 1), (1, 0), [4, 2], (0, 3), (0, 1), (1, 0)])
    assert g.edge_count == 4
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 4)]
    assert all(type(e) is tuple for e in g.edges())
    g.edges().clear()
    assert g.edge_count == len(g.edges()) == 4


def test_neighbour_queries_under_the_edge_list():
    g = Graph(5, [(4, 1), (1, 0), (3, 1), (2, 3)])
    assert g._sets is None  # nothing built until a query needs it
    assert g.adj(1) == frozenset({0, 3, 4}) and isinstance(g.adj(1), frozenset)
    assert g.adj(3) & g.adj(4) == {1} and g.adj(0) <= g.adj(3)
    assert g.neighbors(1) == (0, 3, 4) and g.neighbors(2) == (3,)
    assert [g.degree(v) for v in range(5)] == [1, 3, 1, 2, 1]
    assert g.has_edge(4, 1) and g.has_edge(1, 4) and not g.has_edge(0, 4)
    with pytest.raises(ValueError, match=r"vertex 5 outside range 0\.\.4"):
        g.adj(5)


def test_equality_and_hash_ignore_edge_order_and_repeats():
    a = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, [(3, 2), (1, 0), (2, 1), (0, 1)])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    a.adj(0)  # building the neighbour sets of one changes neither
    assert a == b and hash(a) == hash(b)
    assert a != Graph(5, [(0, 1), (1, 2), (2, 3)]) and a != Graph(4, [(0, 1), (1, 2)])


def test_edge_errors_keep_their_messages():
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) outside vertex range 0\.\.2$"):
        Graph(3, [(0, 1), (0, 3)])
    with pytest.raises(ValueError, match=r"^edge \(-1, 0\) outside vertex range 0\.\.2$"):
        Graph(3, [(-1, 0)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        Graph(2, [(0, 1), (1, 1)])
    # The first bad pair in input order decides, range before self-loop.
    with pytest.raises(ValueError, match=r"^edge \(5, 5\) outside"):
        Graph(3, [(5, 5), (1, 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1)


def test_connectivity():
    assert path(5).is_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
    assert Graph(1, []).is_connected()


def test_complete_bipartite():
    g = Graph.complete_bipartite(2, 3)
    assert g.n == 5
    assert len(g.edges()) == 6
    degs = sorted(g.degree(v) for v in range(5))
    assert degs == [2, 2, 2, 3, 3]


def test_blocks_on_path():
    dec = blocks(path(4))
    assert sorted(map(sorted, dec.blocks)) == [[0, 1], [1, 2], [2, 3]]
    assert dec.cut_vertices == frozenset({1, 2})


def test_blocks_on_bowtie():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    dec = blocks(g)
    assert sorted(map(sorted, dec.blocks)) == [[0, 1, 2], [2, 3, 4]]
    assert dec.cut_vertices == frozenset({2})


def test_blocks_on_biconnected_graph():
    dec = blocks(complete(4))
    assert dec.blocks == (frozenset({0, 1, 2, 3}),)
    assert dec.cut_vertices == frozenset()


def test_is_biconnected():
    assert is_biconnected(complete(3))
    assert is_biconnected(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert not is_biconnected(path(3))
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert not is_biconnected(bowtie)


def test_contains_induced():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert contains_induced(c5, path(4))
    assert not contains_induced(c5, complete(3))
    # K4 has no induced diamond: the missing edge never materializes
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert not contains_induced(complete(4), diamond)
    assert contains_induced(Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4)]), diamond)


def reference_contains_induced(g, pattern):
    """contains_induced as first written: every k-subset of g whose induced
    degree multiset matches, then every bijection of it onto the pattern."""
    k = pattern.n
    if k > g.n:
        return False
    if k == 0:
        return True
    pat_adj = [pattern.adj(v) for v in range(k)]
    pat_degs = sorted(len(a) for a in pat_adj)
    for subset in combinations(range(g.n), k):
        members = frozenset(subset)
        ind_deg = {v: len(g.adj(v) & members) for v in subset}
        if sorted(ind_deg.values()) != pat_degs:
            continue
        for perm in permutations(subset):
            if any(ind_deg[perm[i]] != len(pat_adj[i]) for i in range(k)):
                continue
            if all(
                (j in pat_adj[i]) == g.has_edge(perm[i], perm[j])
                for i in range(k)
                for j in range(i + 1, k)
            ):
                return True
    return False


CONNECTED_PATTERNS = [p.graph for p in FORBIDDEN_PATTERNS] + [
    Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]),  # banner
    Graph.star(3),  # claw
    Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]),  # net
    Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)]),  # tent
]

DISCONNECTED_PATTERNS = [
    Graph(4, [(0, 1), (2, 3)]),  # 2K2
    Graph(4, [(0, 1), (1, 2)]),  # P3 + K1
    Graph(3),  # 3K1
    Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),  # K3 + K2
]


@pytest.mark.parametrize(
    "pattern, components",
    [(p, 1) for p in CONNECTED_PATTERNS] + list(zip(DISCONNECTED_PATTERNS, (2, 2, 3, 2))),
)
def test_search_order_is_breadth_first_per_component(pattern, components):
    plan = _search_order(_adjacency_masks(pattern))
    assert sorted(degree for _, _, degree in plan) == sorted(map(pattern.degree, range(pattern.n)))
    assert sum(parent < 0 for parent, _, _ in plan) == components
    for i, (parent, earlier, _) in enumerate(plan):
        assert all(j < i for j in earlier)
        assert parent in earlier if parent >= 0 else i == 0 or not earlier


def test_pattern_search_on_a_long_cycle():
    g = Graph.cycle(2000)
    assert not contains_induced(g, CONNECTED_PATTERNS[1])  # paw
    assert contains_induced(g, Graph.path(7))
    assert not contains_induced(g, Graph.cycle(5))


def test_contains_induced_matches_the_subset_search_on_connected_graphs(connected_graphs_up_to_7):
    found = 0
    for g in connected_graphs_up_to_7:
        for pattern in CONNECTED_PATTERNS:
            expected = reference_contains_induced(g, pattern)
            assert contains_induced(g, pattern) == expected, (g.edges(), pattern.edges())
            found += expected
    assert found == 3405


def test_contains_induced_matches_the_subset_search_on_disconnected_graphs():
    rng = random.Random(11)
    found = disconnected = 0
    for _ in range(300):
        n = rng.randint(4, 9)
        density = rng.uniform(0.1, 0.7)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        disconnected += not g.is_connected()
        for pattern in DISCONNECTED_PATTERNS:
            expected = reference_contains_induced(g, pattern)
            assert contains_induced(g, pattern) == expected, (g.edges(), pattern.edges())
            found += expected
    assert (found, disconnected) == (680, 137)


@st.composite
def connected_graphs_st(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = {(p, i) for i, p in enumerate(parents, start=1)}
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    return Graph(n, sorted(edges))


@given(connected_graphs_st())
def test_blocks_cover_all_edges(g):
    dec = blocks(g)
    for u, v in g.edges():
        assert any(u in b and v in b for b in dec.blocks)


@given(connected_graphs_st())
def test_cut_vertices_match_deletion(g):
    def connected_without(x):
        keep = [v for v in range(g.n) if v != x]
        if not keep:
            return True
        seen = {keep[0]}
        stack = [keep[0]]
        while stack:
            u = stack.pop()
            for w in g.adj(u):
                if w != x and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == g.n - 1

    expected = frozenset(v for v in range(g.n) if not connected_without(v))
    assert blocks(g).cut_vertices == expected
