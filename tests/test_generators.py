import random
from itertools import combinations, permutations

from p3conv.caterpillar import recognize_caterpillar
from p3conv.generators import (
    DEFAULT_SEED,
    _canonical_graphs,
    _class_key,
    _connected_levels,
    _min_mask,
    connected_graphs,
    random_biconnected_chain,
    random_caterpillar,
    random_clique_chain,
    random_connected_graph,
    random_tree,
    random_unit_interval_graph,
    realize_caterpillar,
    shuffle_labels,
    spine_sequences,
)
from p3conv.graph import Graph, is_biconnected
from p3conv.unit_interval import build_model


def test_spine_sequences_shape():
    seqs = list(spine_sequences(4))
    assert len(seqs) == 13
    assert all(2 <= len(s) <= 4 for s in seqs)
    assert all(s[0] == 1 and s[-1] == 1 for s in seqs)
    assert all(all(2 <= d <= 4 for d in s[1:-1]) for s in seqs)
    assert len(set(seqs)) == 13


def test_spine_sequences_counts():
    assert sum(1 for _ in spine_sequences(5)) == 40
    assert sum(1 for _ in spine_sequences(8)) == 1093


def test_realize_reference_profile():
    g = realize_caterpillar((1, 4, 3, 4, 2, 3, 3, 1))
    # 8 spine vertices plus 7 attached leaves
    assert g.n == 15
    s = recognize_caterpillar(g)
    assert s is not None and s.leaf_count == 9


def test_realize_with_extra_leaves():
    assert realize_caterpillar((1, 4, 1)).n == 5
    heavy = realize_caterpillar((1, 4, 1), {1: 3})
    assert heavy.n == 6
    s = recognize_caterpillar(heavy)
    assert s is not None
    assert s.reduced_degrees in ((1, 4, 1), (1, 4, 1)[::-1])


def test_random_caterpillars_are_caterpillars():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(30):
        g = random_caterpillar(rng, 14)
        assert g.n <= 14
        assert recognize_caterpillar(g) is not None


def test_random_tree():
    rng = random.Random(3)
    for n in range(2, 12):
        t = random_tree(rng, n)
        assert t.n == n
        assert len(t.edges()) == n - 1
        assert t.is_connected()


def test_connected_graphs_counts():
    # OEIS A001349; 853 classes at n = 7 also show _class_key exact there.
    counts = [1, 1, 2, 6, 21, 112, 853]
    assert [sum(1 for _ in connected_graphs(n)) for n in range(1, 8)] == counts


def test_class_key_agrees_with_the_smallest_edge_mask():
    """Every one-vertex extension of every class on 1 to 5 vertices: equal
    keys exactly when equal smallest edge masks, so each key names one class."""
    for k in range(1, 6):
        pairs = set()
        for g in connected_graphs(k):
            adj = [sum(1 << w for w in g.adj(v)) for v in range(k)]
            for nbrs in range(1, 1 << k):
                bigger = [a | (nbrs >> v & 1) << k for v, a in enumerate(adj)] + [nbrs]
                pairs.add((_class_key(bigger), _min_mask(bigger)))
        keys = {key for key, _ in pairs}
        masks = {mask for _, mask in pairs}
        assert len(keys) == len(masks) == len(pairs), k + 1


def reference_connected_graphs(n):
    """connected_graphs as first written: every edge mask in increasing order,
    marking the relabeling orbit of each connected one it yields."""
    pairs = list(combinations(range(n), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edge_maps = [
        [idx[tuple(sorted((perm[u], perm[w])))] for u, w in pairs]
        for perm in permutations(range(n))
    ]
    seen = set()
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        if not g.is_connected():
            continue
        yield g
        for emap in edge_maps:
            seen.add(sum(1 << emap[i] for i in range(len(pairs)) if mask >> i & 1))


def test_connected_graphs_match_the_orbit_marking_enumeration():
    for n in range(1, 7):
        got = [g.edges() for g in connected_graphs(n)]
        assert got == [g.edges() for g in reference_connected_graphs(n)], n


def test_canonical_graphs_do_not_depend_on_the_members_given():
    rng = random.Random(4)
    for n, level in enumerate(_connected_levels(7), start=1):
        assert len(level) == [1, 1, 2, 6, 21, 112, 853][n - 1]
        relabelled = []
        for adj in level:
            perm = list(range(n))
            rng.shuffle(perm)
            moved = [0] * n
            for v, a in enumerate(adj):
                moved[perm[v]] = sum(1 << perm[w] for w in range(n) if a >> w & 1)
            relabelled.append(moved)
        rng.shuffle(relabelled)
        got = [g.edges() for g in _canonical_graphs(relabelled)]
        assert got == [g.edges() for g in _canonical_graphs(level)], n


def test_connected_graphs_are_connected_and_distinct():
    seen = set()
    for g in connected_graphs(5):
        assert g.n == 5
        assert g.is_connected()
        seen.add(frozenset(g.edges()))
    assert len(seen) == 21


def test_random_connected_graph():
    rng = random.Random(11)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 10))
        assert g.is_connected()


def test_interval_generators_yield_valid_orders():
    rng = random.Random(DEFAULT_SEED)
    for make in (random_unit_interval_graph, random_clique_chain, random_biconnected_chain):
        for _ in range(15):
            g, order = make(rng, rng.randint(3, 10))
            assert g.is_connected()
            build_model(g, order)  # raises if the order is not valid


def test_biconnected_chain_is_biconnected():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(15):
        g, _ = random_biconnected_chain(rng, rng.randint(3, 10))
        assert is_biconnected(g)


def test_shuffle_labels_preserves_structure():
    rng = random.Random(2)
    g = realize_caterpillar((1, 3, 2, 4, 1))
    h = shuffle_labels(rng, g)
    assert h.n == g.n
    assert len(h.edges()) == len(g.edges())
    assert sorted(h.degree(v) for v in range(h.n)) == sorted(g.degree(v) for v in range(g.n))


def test_generators_are_deterministic():
    a = [random_caterpillar(random.Random(99), 12).edges() for _ in range(1)]
    b = [random_caterpillar(random.Random(99), 12).edges() for _ in range(1)]
    assert a == b
    g1, o1 = random_unit_interval_graph(random.Random(42), 9)
    g2, o2 = random_unit_interval_graph(random.Random(42), 9)
    assert g1.edges() == g2.edges() and o1 == o2


def reference_chain_graph(rng, n, cliques):
    edges = set()
    for a, b in cliques:
        for i in range(a, b + 1):
            for j in range(i + 1, b + 1):
                edges.add((i, j))
    perm = list(range(n))
    rng.shuffle(perm)
    mapped = [(perm[i], perm[j]) for i, j in edges]
    return Graph(n, mapped), tuple(perm)


def reference_clique_chain(rng, n):
    """random_clique_chain as first written, with its own loop."""
    b = rng.randint(1, min(3, n - 1))
    cliques = [(0, b)]
    a = 0
    while b < n - 1:
        a2 = rng.randint(max(a + 1, b - 3), min(b, n - 2))
        b2 = rng.randint(b + 1, min(n - 1, a2 + 4))
        cliques.append((a2, b2))
        a, b = a2, b2
    return reference_chain_graph(rng, n, cliques)


def reference_biconnected_chain(rng, n):
    """random_biconnected_chain as first written, with its own loop."""
    b = rng.randint(2, min(4, n - 1))
    cliques = [(0, b)]
    a = 0
    while b < n - 1:
        a2 = rng.randint(max(a + 1, b - 3), min(b - 1, n - 3))
        b2 = rng.randint(b + 1, min(n - 1, a2 + 4))
        cliques.append((a2, b2))
        a, b = a2, b2
    return reference_chain_graph(rng, n, cliques)


def test_chain_generators_match_reference_bodies():
    pairs = (
        (random_clique_chain, reference_clique_chain),
        (random_biconnected_chain, reference_biconnected_chain),
    )
    for make, reference in pairs:
        for seed in range(40):
            for n in range(3, 31):
                rng, ref = random.Random(seed), random.Random(seed)
                assert make(rng, n) == reference(ref, n), (make.__name__, seed, n)
                assert rng.getstate() == ref.getstate()
