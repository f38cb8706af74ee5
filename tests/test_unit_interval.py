"""Unit interval model construction and the spreading-time machinery.

The frozen chain fixtures were computed with the subset oracle and spot
checked by hand; the exhaustive sweep re-derives every clique layout up
to eight positions and compares against the oracle directly.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from chainutil import chain_graph, glue, interval_systems, ladder, solid
from p3conv.generators import (
    DEFAULT_SEED,
    connected_graphs,
    random_biconnected_chain,
    random_clique_chain,
    random_unit_interval_graph,
    shuffle_labels,
)
from p3conv.graph import Graph, contains_induced, is_biconnected
from p3conv.oracle import percolate, percolation_time_bruteforce
from p3conv.unit_interval import (
    _segment_time,
    build_model,
    cut_segments,
    diameter_endpoints,
    percolation_time,
    percolation_time_biconnected,
    recognize_unit_interval,
    singular_positions,
    split_singular_vertices,
)


def bfs_diameter(g):
    best = 0
    for src in range(g.n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.adj(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


def test_build_model_path():
    m = build_model(Graph(4, [(0, 1), (1, 2), (2, 3)]), (0, 1, 2, 3))
    assert m.cliques == ((0, 1), (1, 2), (2, 3))
    assert m.right == (1, 2, 3, 3)


def test_build_model_rejects_invalid_orders():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        build_model(c4, (0, 1, 2, 3))
    p3 = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        build_model(p3, (1, 0, 2))
    with pytest.raises(ValueError):
        build_model(p3, (0, 1))


def test_recognize_unit_interval():
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert recognize_unit_interval(claw) is None
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert recognize_unit_interval(c4) is None
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    m = recognize_unit_interval(k4)
    assert m is not None and m.cliques == ((0, 3),)


def test_recognize_survives_relabeling():
    rng = random.Random(7)
    base = chain_graph(8, [(0, 2), (2, 5), (4, 7)])
    for _ in range(10):
        g = shuffle_labels(rng, base)
        m = recognize_unit_interval(g)
        assert m is not None
        # the returned order must itself be valid for the model builder
        build_model(g, m.order)


CLAW = Graph.star(3)
NET = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
TENT = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)])


def is_chordal(g):
    # Chordal graphs are exactly those that can be emptied by repeatedly
    # deleting a vertex whose remaining neighbors form a clique.
    alive = set(range(g.n))
    while alive:
        for v in alive:
            nbrs = [w for w in g.adj(v) if w in alive]
            if all(g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]):
                alive.discard(v)
                break
        else:
            return False
    return True


def is_uig_by_forbidden_subgraphs(g):
    # Wegner 1967, Roberts 1969: a graph is a unit interval graph exactly
    # when it is chordal and has no induced claw, net or tent.
    return is_chordal(g) and not any(contains_induced(g, h) for h in (CLAW, NET, TENT))


def test_recognize_matches_forbidden_subgraph_characterization():
    counts = {}
    for n in range(1, 7):
        for g in connected_graphs(n):
            expected = is_uig_by_forbidden_subgraphs(g)
            assert (recognize_unit_interval(g) is not None) == expected, g
            counts[n] = counts.get(n, 0) + expected
    assert counts == {1: 1, 2: 1, 3: 2, 4: 4, 5: 10, 6: 26}
    rng = random.Random(DEFAULT_SEED)
    kinds = set()
    for _ in range(1000):
        n = rng.randint(1, 9)
        p = rng.random()
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        expected = is_uig_by_forbidden_subgraphs(g)
        assert (recognize_unit_interval(g) is not None) == expected, g
        kinds.add((g.is_connected(), expected))
    # connected and disconnected graphs, inside and outside the class
    assert len(kinds) == 4


def test_recognize_large_shuffled_chains():
    rng = random.Random(DEFAULT_SEED)
    for make in (random_clique_chain, random_biconnected_chain):
        g = shuffle_labels(rng, make(rng, 10**4)[0])
        m = recognize_unit_interval(g)
        assert m is not None and m.graph == g


def test_recognize_rejects_large_chain_with_claw():
    # A pendant on a vertex whose leftmost and rightmost neighbors are not
    # adjacent makes an induced claw, so no unit interval order exists.
    rng = random.Random(DEFAULT_SEED)
    n = 1000
    g, order = random_biconnected_chain(rng, n - 1)
    pos = {v: p for p, v in enumerate(order)}
    v = next(
        v for v in order
        if not g.has_edge(min(g.adj(v), key=pos.get), max(g.adj(v), key=pos.get))
    )
    g = shuffle_labels(rng, Graph(n, [*g.edges(), (v, n - 1)]))
    assert recognize_unit_interval(g) is None


def test_recognized_order_gives_generator_percolation_time():
    # The recognized order may be the generator's reversed, or permute twins,
    # so this also runs cut_segments on an order other than the generator's.
    rng = random.Random(DEFAULT_SEED)
    makers = [random_unit_interval_graph, random_clique_chain, random_biconnected_chain]
    other_orders = 0
    for i in range(45):
        g, order = makers[i % 3](rng, rng.randint(3, 12))
        m = recognize_unit_interval(g)
        assert m is not None
        assert percolation_time(m) == percolation_time(build_model(g, order))
        other_orders += m.order != order
    assert other_orders > 0


def test_singular_positions():
    p4 = build_model(Graph(4, [(0, 1), (1, 2), (2, 3)]), (0, 1, 2, 3))
    assert singular_positions(p4) == (1, 2)
    bowtie = build_model(chain_graph(5, [(0, 2), (2, 4)]), tuple(range(5)))
    assert singular_positions(bowtie) == (2,)
    k4 = recognize_unit_interval(Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]))
    assert singular_positions(k4) == ()


def test_split_requires_biconnected():
    bowtie = build_model(chain_graph(5, [(0, 2), (2, 4)]), tuple(range(5)))
    with pytest.raises(ValueError):
        split_singular_vertices(bowtie)
    # The guard reads the order; it must agree with the block search on
    # every connected layout and on graphs too small or disconnected.
    graphs = [Graph(0), Graph(1), Graph(2, [(0, 1)]), Graph(4, [(0, 1), (2, 3)])]
    for n in range(3, 9):
        graphs += [chain_graph(n, cliques) for cliques in interval_systems(n)]
    for g in graphs:
        m = build_model(g, range(g.n))
        assert m.connected == g.is_connected()
        assert m.biconnected == is_biconnected(g)
        if is_biconnected(g):
            split_singular_vertices(m)
        else:
            with pytest.raises(ValueError):
                split_singular_vertices(m)


def test_split_on_overlapping_chain():
    g = chain_graph(5, [(0, 2), (1, 3), (2, 4)])
    m = build_model(g, tuple(range(5)))
    assert is_biconnected(g)
    assert singular_positions(m) == (2,)
    split = split_singular_vertices(m)
    assert split.graph.n == 6
    assert split.cliques == ((0, 2), (1, 4), (3, 5))
    for (a1, b1), (a2, b2) in zip(split.cliques, split.cliques[1:]):
        assert b1 - a2 + 1 >= 2
    assert singular_positions(split) == ()
    # the transform must not change the worst-case spreading time
    assert percolation_time_bruteforce(split.graph) == percolation_time_bruteforce(g)


def test_split_matches_one_position_at_a_time():
    # Reference: split the leftmost singular position, shift, repeat.
    def stepwise(cliques):
        while True:
            sing = sorted({a for a, _ in cliques} & {b for _, b in cliques})
            if not sing:
                return tuple(cliques)
            h = sing[0]
            cliques = [(a + (a >= h), b + (b > h)) for a, b in cliques]

    rng = random.Random(DEFAULT_SEED)
    most = 0
    for _ in range(40):
        g, order = random_biconnected_chain(rng, rng.randint(3, 60))
        m = build_model(g, order)
        split = split_singular_vertices(m)
        assert split.cliques == stepwise(list(m.cliques))
        assert singular_positions(split) == ()
        most = max(most, len(singular_positions(m)))
    assert most >= 5


def test_split_diameter_walk_matches_split_model():
    # The walk over the shifted clique intervals against the built split
    # graph's own greedy walk.
    models = []
    for n in range(3, 11):
        for cliques in interval_systems(n):
            g = chain_graph(n, cliques)
            if is_biconnected(g):
                models.append(build_model(g, range(n)))
    rng = random.Random(DEFAULT_SEED)
    for n in (3, 10, 50, 200, 1000, 2000):
        models.append(build_model(*random_biconnected_chain(rng, n)))
    for m in models:
        assert percolation_time_biconnected(m) == diameter_endpoints(split_singular_vertices(m))


def test_biconnected_time_via_split_diameter():
    g = chain_graph(5, [(0, 2), (1, 3), (2, 4)])
    m = build_model(g, tuple(range(5)))
    assert diameter_endpoints(m) == 2
    assert percolation_time_biconnected(m) == 3
    assert percolation_time_bruteforce(g) == 3


def test_diameter_endpoints_matches_bfs():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(40):
        g, order = random_unit_interval_graph(rng, rng.randint(2, 10))
        m = build_model(g, order)
        assert diameter_endpoints(m) == bfs_diameter(g)


def test_path_segments_are_edges():
    g = Graph(5, [(i, i + 1) for i in range(4)])
    m = build_model(g, tuple(range(5)))
    segs = cut_segments(m)
    assert [(s.lo, s.hi, s.case_tag, s.time) for s in segs] == [
        (0, 1, "edge", 1),
        (1, 2, "edge", 1),
        (2, 3, "edge", 1),
        (3, 4, "edge", 1),
    ]
    assert percolation_time(m) == 1


segment_fixtures = [
    # cliques, expected (lo, hi, tag, time) rows, total time
    ([(0, 2), (2, 4)], [(0, 4, "two_anchors", 2)], 2),
    ([(0, 1), (1, 2), (2, 4)], [(0, 1, "edge", 1), (1, 4, "guarded_left", 2)], 2),
    ([(0, 2), (2, 3), (3, 4)], [(0, 3, "guarded_right", 2), (3, 4, "edge", 1)], 2),
    ([(0, 1), (1, 3), (3, 4)], [(0, 4, "two_pendants", 2)], 2),
    (
        [(0, 2), (2, 3), (3, 4), (4, 6)],
        [(0, 3, "guarded_right", 2), (3, 6, "guarded_left", 2)],
        2,
    ),
    (
        [(0, 2), (2, 3), (3, 4), (4, 6), (6, 7), (7, 8), (8, 10)],
        [
            (0, 3, "guarded_right", 2),
            (3, 7, "guarded_both", 3),
            (7, 10, "guarded_left", 2),
        ],
        3,
    ),
]


@pytest.mark.parametrize("cliques,rows,total", segment_fixtures)
def test_segment_classification(cliques, rows, total):
    n = cliques[-1][1] + 1
    g = chain_graph(n, cliques)
    m = build_model(g, tuple(range(n)))
    assert [(s.lo, s.hi, s.case_tag, s.time) for s in cut_segments(m)] == rows
    assert percolation_time(m) == total
    assert percolation_time_bruteforce(g) == total


def test_cut_segments_read_the_order_not_the_graph(monkeypatch):
    cases = [
        (build_model(chain_graph(c[-1][1] + 1, c), range(c[-1][1] + 1)), rows)
        for c, rows, _ in segment_fixtures
    ]

    def refuse(*args):
        raise AssertionError("cut_segments asked the graph")

    monkeypatch.setattr(Graph, "degree", refuse)
    monkeypatch.setattr(Graph, "has_edge", refuse)
    for m, rows in cases:
        assert [(s.lo, s.hi, s.case_tag, s.time) for s in cut_segments(m)] == rows


def test_single_source_rule_is_refuted():
    # Refuted: "some worst start set has a single source".  Blocks run from
    # cut to cut, both cuts included; a start set's sources are the blocks
    # holding two or more start vertices, plus each unseeded cut with a start
    # vertex among its neighbors on both sides.  Here every percolating start
    # set has at least two sources.
    g = chain_graph(8, [(0, 2), (2, 4), (3, 5), (5, 7)])
    m = build_model(g, range(8))
    cuts = [p for p in range(1, 7) if m.right[p - 1] == p]
    assert cuts == [2, 5]
    assert percolation_time(m) == percolation_time_bruteforce(g) == 2
    blocks = [set(range(lo, hi + 1)) for lo, hi in zip([0, *cuts], [*cuts, 7])]
    sources = []
    for k in range(9):
        for start in map(set, combinations(range(8), k)):
            if None in percolate(g, start):
                continue
            fed = [c for c in cuts if c not in start
                   and any(w < c for w in g.adj(c) & start) and any(w > c for w in g.adj(c) & start)]
            sources.append(sum(len(b & start) >= 2 for b in blocks) + len(fed))
    assert len(sources) == 124 and min(sources) == 2


chain_fixtures = [
    (glue(ladder(1), ladder(1)), 2),
    (glue(ladder(1), ladder(1), ladder(1)), 3),
    (glue(ladder(1), ladder(1), ladder(1), ladder(1)), 4),
    (ladder(2), 3),
    (glue(ladder(1), ladder(2)), 4),
    (glue(ladder(2), ladder(1)), 4),
    (glue(ladder(2), ladder(2)), 5),
    (glue(ladder(1), ladder(2), ladder(1)), 4),
    (glue(ladder(2), ladder(1), ladder(2)), 7),
    (glue(ladder(1), ladder(1), ladder(2)), 5),
    (glue(ladder(2), ladder(1), ladder(1)), 5),
    (ladder(3), 5),
    (glue(ladder(1), ladder(3)), 6),
    (glue(ladder(3), ladder(1)), 6),
    (glue(ladder(2), ladder(3)), 7),
    (glue(ladder(3), ladder(3)), 9),
    (glue(ladder(1), ladder(1), ladder(3)), 7),
    (glue(solid(4), ladder(2), solid(4)), 4),
    (glue(solid(4), solid(4)), 2),
    (glue(solid(4), solid(4), solid(4)), 3),
    (glue(solid(4), ladder(1)), 2),
    (glue(solid(4), ladder(2)), 4),
    (glue(ladder(2), solid(4)), 4),
    (glue(solid(4), ladder(3)), 6),
]


@pytest.mark.parametrize("chain,expected", chain_fixtures)
def test_clique_chain_times(chain, expected):
    n, cliques = chain
    g = chain_graph(n, cliques)
    m = build_model(g, tuple(range(n)))
    assert percolation_time(m) == expected
    assert percolation_time_bruteforce(g, max_n=13) == expected


def test_pincer_schedule_regression():
    # a middle block can be left seedless and fed from both sides at once;
    # the worst case here is 3, not the 4 a one-directional account suggests
    cliques = [(0, 1), (1, 3), (2, 4), (4, 5), (5, 7), (6, 8), (8, 9)]
    g = chain_graph(10, cliques)
    m = build_model(g, tuple(range(10)))
    assert percolation_time(m) == 3
    assert percolation_time_bruteforce(g) == 3


def test_exhaustive_layouts_up_to_eight_positions():
    # Each layout's time, also from the sweeps run over the whole order,
    # which cut_segments leaves to the split diameter on a 2-connected one;
    # and each row's time, that of the graph induced by its segment and the
    # outside neighbor of each cut end.
    expected_counts = {3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429}
    rows = 0
    for n in range(3, 9):
        systems = interval_systems(n)
        assert len(systems) == expected_counts[n]
        for cliques in systems:
            g = chain_graph(n, cliques)
            m = build_model(g, tuple(range(n)))
            assert m.cliques == tuple(cliques)
            assert percolation_time(m) == _segment_time(m, 0, n - 1) == percolation_time_bruteforce(g)
            for s in cut_segments(m):
                wide = g.induced_subgraph(range(s.lo - (s.lo > 0), s.hi + (s.hi < n - 1) + 1))
                assert s.time == percolation_time_bruteforce(wide), (cliques, s)
                rows += 1
    assert rows == 820


def _runs_on(g, side):
    """percolate on the subgraph of g induced by side, from every start set inside side."""
    index = {p: i for i, p in enumerate(side)}
    sub = Graph(len(side), [(index[u], index[w]) for u, w in g.edges() if u in index and w in index])
    return {
        frozenset(start): dict(zip(side, percolate(sub, [index[p] for p in start])))
        for k in range(len(side) + 1)
        for start in combinations(side, k)
    }


def test_cut_rounds_follow_from_one_sided_runs():
    # The lemma the segment sweeps rest on, checked with percolate alone: an
    # unseeded cut vertex fires one round after the second smallest round
    # among its neighbors, read from percolate run on the positions left of
    # the cut alone and on those right of it alone (None when fewer than two
    # of those rounds are finite).
    checks = 0
    for n in range(3, 9):
        for cliques in interval_systems(n):
            g = chain_graph(n, cliques)
            right = build_model(g, range(n)).right
            full = {
                frozenset(start): percolate(g, start)
                for k in range(n + 1)
                for start in combinations(range(n), k)
            }
            for c in (p for p in range(1, n - 1) if right[p - 1] == p):
                sides = [(side, _runs_on(g, side)) for side in (range(c), range(c + 1, n))]
                for start, times in full.items():
                    if c in start:
                        continue
                    rounds = sorted(
                        t
                        for side, runs in sides
                        for w, t in runs[start.intersection(side)].items()
                        if t is not None and g.has_edge(w, c)
                    )
                    assert times[c] == (rounds[1] + 1 if len(rounds) >= 2 else None)
                    checks += 1
    assert checks == 85572


LAYOUTS = [(n, cliques) for n in range(3, 9) for cliques in interval_systems(n)]


def _block_rounds(g, seeds, injected):
    """The round of each infected position of g when its ends are cut vertices.

    An end is infected only at its round in ``injected`` (None: never);
    every other position once two of its neighbors are.
    """
    times = {p: t for p, t in injected.items() if t is not None}
    times.update(dict.fromkeys(seeds, 0))
    r = 0
    while True:
        r += 1
        fired = [
            v for v in range(1, g.n - 1)
            if v not in times and sum(times.get(w, r) < r for w in g.adj(v)) >= 2
        ]
        if not fired and r > max(times.values(), default=0):
            return times
        times.update(dict.fromkeys(fired, r))


@given(st.data())
def test_delaying_a_blocks_cuts_never_makes_a_round_earlier(data):
    # The monotonicity the sweeps' Pareto pruning rests on, with its own
    # spreader: injecting a block's cuts later infects the same positions,
    # none of them earlier.
    n, cliques = data.draw(st.sampled_from(LAYOUTS))
    g = chain_graph(n, cliques)
    seeds = data.draw(st.sets(st.integers(1, n - 2)))
    early = {p: data.draw(st.none() | st.integers(0, 6)) for p in (0, n - 1)}
    late = {p: t if t is None else t + data.draw(st.integers(0, 4)) for p, t in early.items()}
    before, after = _block_rounds(g, seeds, early), _block_rounds(g, seeds, late)
    assert before.keys() == after.keys()
    assert all(after[p] >= t for p, t in before.items())


def test_cut_segments_mirror_under_reversal():
    mirror = {"guarded_left": "guarded_right", "guarded_right": "guarded_left"}
    graphs = [
        (chain_graph(n, cliques), range(n))
        for n in range(3, 9)
        for cliques in interval_systems(n)
    ]
    rng = random.Random(DEFAULT_SEED)
    graphs += [random_clique_chain(rng, rng.randint(10, 30)) for _ in range(60)]
    for g, order in graphs:
        n = g.n
        rows = [(s.lo, s.hi, s.case_tag, s.time) for s in cut_segments(build_model(g, order))]
        flipped = cut_segments(build_model(g, tuple(order)[::-1]))
        assert [(n - 1 - s.hi, n - 1 - s.lo, mirror.get(s.case_tag, s.case_tag), s.time)
                for s in reversed(flipped)] == rows


def test_biconnected_layouts_on_nine_positions_match_oracle():
    # 2-connected graphs are timed by the split diameter, not the sweeps
    checked = 0
    for cliques in interval_systems(9):
        g = chain_graph(9, cliques)
        if not is_biconnected(g):
            continue
        m = build_model(g, tuple(range(9)))
        assert percolation_time(m) == percolation_time_bruteforce(g)
        checked += 1
    assert checked == 429


def test_large_shuffled_biconnected_chain_is_one_segment():
    rng = random.Random(DEFAULT_SEED)
    g = shuffle_labels(rng, random_biconnected_chain(rng, 500)[0])
    m = recognize_unit_interval(g)
    assert m is not None
    (seg,) = cut_segments(m)
    assert (seg.lo, seg.hi, seg.case_tag) == (0, 499, "two_anchors")
    assert seg.time == percolation_time_biconnected(m)


def test_tiny_graphs():
    assert percolation_time(build_model(Graph(1, []), (0,))) == 0
    assert percolation_time(build_model(Graph(2, [(0, 1)]), (0, 1))) == 0


def test_disconnected_is_rejected():
    g = Graph(4, [(0, 1), (2, 3)])
    m = build_model(g, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        percolation_time(m)


def test_random_generators_match_oracle():
    rng = random.Random(DEFAULT_SEED)
    makers = [random_unit_interval_graph, random_clique_chain, random_biconnected_chain]
    for i in range(60):
        make = makers[i % 3]
        g, order = make(rng, rng.randint(3, 10))
        m = build_model(g, order)
        assert percolation_time(m) == percolation_time_bruteforce(g)


@pytest.mark.parametrize(
    "seed, rows",
    [
        (0, [(0, 39, "two_anchors", 16)]),
        (1, [(0, 39, "guarded_left", 17)]),
        (2, [(0, 1, "edge", 1), (1, 39, "guarded_both", 19)]),
        (0, [(0, 99, "two_anchors", 41)]),
        (1, [(0, 99, "two_pendants", 40)]),
        (2, [(0, 1, "edge", 1), (1, 99, "guarded_left", 40)]),
    ],
)
def test_forty_vertex_clique_chains_keep_their_segment_rows(seed, rows):
    # random_clique_chain(Random(seed), n) with n = 40 and n = 100, n being
    # one past the last row's hi.  The 40-vertex rows were computed by the
    # cut-time search over full neighbor profiles and every cut time, the
    # 100-vertex rows by the search's final form (2.6-11 s a chain), both
    # before the sweeps replaced it.  These chains have cut vertices, so the
    # sweeps (not the split diameter) time them.
    g, order = random_clique_chain(random.Random(seed), rows[-1][1] + 1)
    m = build_model(g, order)
    assert not is_biconnected(g)
    assert [(s.lo, s.hi, s.case_tag, s.time) for s in cut_segments(m)] == rows
