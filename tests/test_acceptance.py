"""Acceptance suite: ten checks, one verdict line each.

Each test prints a [criterion NN] line through the shared recorder;
the conftest hook echoes all lines after the run.  Criterion 9 checks
a per-block time bound that is proved in its docstring, and asserts
exact counterexamples to the refuted sum bounds that it replaces.
Every criterion must pass.
"""

import random
from time import perf_counter

import pytest

from conftest import record_criterion
from p3conv.caterpillar import (
    decompose_degree_sequence,
    geodetic_number,
    hull_number,
    percolation_sequence,
    percolation_time,
    recognize_caterpillar,
)
from p3conv.crossval import caterpillar_suite
from p3conv.generators import (
    DEFAULT_SEED,
    connected_graphs,
    random_biconnected_chain,
    random_clique_chain,
    random_connected_graph,
    random_unit_interval_graph,
    realize_caterpillar,
    spine_sequences,
)
from p3conv.graph import Graph, blocks, is_biconnected
from p3conv.hereditary import crosscheck_interval_idempotence
from p3conv.oracle import (
    geodetic_number_bruteforce,
    hull_closure,
    hull_number_bruteforce,
    interval,
    interval_idempotent_bruteforce,
    percolate,
    percolation_time_bruteforce,
)
from p3conv.unit_interval import (
    build_model,
    diameter_endpoints,
    percolation_time as interval_percolation_time,
    singular_positions,
    split_singular_vertices,
)

REFERENCE_PROFILE = (1, 4, 3, 4, 2, 3, 3, 1)
STEP_PROFILE = (1, 2, 3, 4, 2, 3, 3, 1)


def best_time(fn, repeats=5):
    fn()  # warm caches before timing
    best = min(timed(fn) for _ in range(repeats))
    return best


def timed(fn):
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


@pytest.fixture(scope="module")
def interval_corpus():
    rng = random.Random(DEFAULT_SEED)
    makers = [
        (random_unit_interval_graph, 2),
        (random_clique_chain, 3),
        (random_biconnected_chain, 3),
    ]
    corpus = []
    for i in range(300):
        make, lo = makers[i % 3]
        g, order = make(rng, rng.randint(lo, 10))
        corpus.append((g, build_model(g, order)))
    return corpus


def test_criterion_01_profile_factorization():
    f = decompose_degree_sequence(REFERENCE_PROFILE)
    ok = f.factors == ((1,), (4, 3, 4), (2, 3), (3, 1)) and f.count == 4
    r = decompose_degree_sequence(REFERENCE_PROFILE[::-1])
    ok = ok and r.factors == ((1,), (3, 3, 2), (4, 3, 4), (1,)) and r.count == 4
    elapsed = best_time(lambda: decompose_degree_sequence(REFERENCE_PROFILE))
    ok = ok and elapsed < 0.001
    record_criterion(1, "profile factorization", ok, f"{elapsed * 1e6:.0f}us per call")
    assert ok


def test_criterion_02_spreading_step_vectors():
    p = percolation_sequence(STEP_PROFILE)
    ok = (
        p.run_ids == (1, 2, 3, 4, 5, 6, 6, 7)
        and p.run_starts == (0, 1, 2, 3, 4, 5, 5, 7)
        and p.run_ends == (0, 1, 2, 3, 4, 6, 6, 7)
        and p.times == (0, 3, 2, 1, 3, 2, 1, 0)
        and max(p.times) == 3
    )
    elapsed = best_time(lambda: percolation_sequence(STEP_PROFILE))
    ok = ok and elapsed < 0.001
    record_criterion(2, "spreading step vectors", ok, f"{elapsed * 1e6:.0f}us per call")
    assert ok


def test_criterion_03_caterpillar_formulas_vs_oracle():
    t0 = perf_counter()
    rep = caterpillar_suite(spine_max=8, random_count=500, cap=26)
    elapsed = perf_counter() - t0
    ok = not rep.disagreements and not rep.skipped and elapsed < 300
    record_criterion(
        3,
        "caterpillar formulas vs oracle",
        ok,
        f"{len(rep.rows)} checks, {len(rep.disagreements)} disagreements, {elapsed:.1f}s",
    )
    assert ok, rep.disagreements[:5]


def test_criterion_04_orientation_invariance():
    checked = 0
    ok = True
    for profile in spine_sequences(8):
        s = recognize_caterpillar(realize_caterpillar(profile))
        r = s.reversed()
        ok = ok and geodetic_number(s) == geodetic_number(r)
        ok = ok and hull_number(s) == hull_number(r)
        ok = ok and percolation_time(s) == percolation_time(r)
        ok = ok and (
            decompose_degree_sequence(profile).count
            == decompose_degree_sequence(profile[::-1]).count
        )
        checked += 1
    record_criterion(4, "orientation invariance", ok, f"{checked} profiles")
    assert ok


def test_criterion_05_interval_graph_times_vs_oracle(interval_corpus):
    t0 = perf_counter()
    two_connected = 0
    with_singulars = 0
    bad = []
    for g, model in interval_corpus:
        if interval_percolation_time(model) != percolation_time_bruteforce(g):
            bad.append(model)
        if singular_positions(model):
            with_singulars += 1
        if is_biconnected(g):
            two_connected += 1
            split = split_singular_vertices(model)
            for (a1, b1), (a2, b2) in zip(split.cliques, split.cliques[1:]):
                if b1 - a2 + 1 < 2:
                    bad.append(("split overlap", model))
            if percolation_time_bruteforce(split.graph) != percolation_time_bruteforce(g):
                bad.append(("split time", model))
    elapsed = perf_counter() - t0
    ok = not bad and two_connected >= 50 and with_singulars >= 50 and elapsed < 600
    record_criterion(
        5,
        "interval graph times vs oracle",
        ok,
        f"300 instances, {two_connected} 2-connected, "
        f"{with_singulars} with singular positions, {elapsed:.1f}s",
    )
    assert ok, bad[:3]


def test_criterion_06_endpoint_distance_shortcut(interval_corpus):
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

    ok = all(diameter_endpoints(model) == bfs_diameter(g) for g, model in interval_corpus)
    record_criterion(6, "endpoint distance shortcut", ok, f"{len(interval_corpus)} instances")
    assert ok


def test_criterion_07_idempotence_pattern_crosscheck():
    rep = crosscheck_interval_idempotence(max_n=6)
    for d in rep.reverse_findings:
        print(
            f"  reverse finding: n={d.vertex_count} graph6={d.graph6} "
            f"edges={d.edges} pattern_free={d.pattern_free} idempotent={d.idempotent}"
        )
    ok = (
        rep.forward_violations == ()
        and {d.graph6 for d in rep.reverse_findings} == {"D]_", "EFj?", "E]Q?"}
    )
    record_criterion(
        7,
        "idempotence pattern crosscheck",
        ok,
        f"{rep.checked} graphs, 0 forward violations, "
        f"{len(rep.reverse_findings)} reverse findings reported above",
    )
    assert ok


def test_criterion_08_idempotent_graphs_have_equal_invariants():
    checked = 0
    ok = True
    for n in range(2, 7):
        for g in connected_graphs(n):
            if interval_idempotent_bruteforce(g):
                checked += 1
                ok = ok and hull_number_bruteforce(g) == geodetic_number_bruteforce(g)
    record_criterion(
        8, "idempotent graphs have equal invariants", ok, f"{checked} idempotent graphs"
    )
    assert ok


def test_criterion_09_blockwise_time_bound():
    """Each block is covered within its own percolation time of its last cut vertex.

    For a start set S that percolates G and a block B of G, let r be the
    round at which the last cut vertex of B is infected (r = 0 when B has
    no cut vertex).  Then every vertex of B is infected by round r + t(B).
    Proof: a non-cut vertex of B has all its neighbours in B.  So once all
    of B's cut vertices are infected, the process on B runs as B's own
    process from the set A of B's vertices infected at round r.  A
    percolates B, since S percolates G, so B finishes within t(B) further
    rounds.  A block without a cut vertex is the whole graph, where the
    bound is t(G) itself and must be reached exactly.

    The check runs every subset of every corpus graph through percolate.
    It replaces the sum bound t(G) <= sum of t(B) over the blocks, which is
    false, as is its repair with one extra round per cut vertex; both
    counterexamples are asserted exactly.  The corpus count of sum-bound
    violations is printed, not asserted.
    """

    def block_times(g):
        return [
            percolation_time_bruteforce(g.induced_subgraph(b), max_n=12)
            for b in blocks(g).blocks
        ]

    # The sum bound: P3 breaks it (t = 1, two edge blocks with t = 0),
    # and no connected graph on fewer than 3 vertices does.
    assert percolation_time_bruteforce(Graph.complete(2)) == 0
    assert percolation_time_bruteforce(Graph.complete(3)) == 1
    p3 = Graph.path(3)
    assert percolation_time_bruteforce(p3) == 1
    assert block_times(p3) == [0, 0]
    for n in (1, 2):
        for g in connected_graphs(n):
            assert percolation_time_bruteforce(g) <= sum(block_times(g))
    # The sum bound plus one round per cut vertex: broken by the only
    # such graph on at most 7 vertices, t = 4 > 0 + 2 + 1.
    g7 = Graph(7, [(0, 2), (0, 4), (0, 6), (1, 2), (1, 3), (1, 6), (2, 5), (3, 4)])
    bd7 = blocks(g7)
    assert bd7.cut_vertices == {2}
    assert dict(zip(bd7.blocks, block_times(g7))) == {
        frozenset({2, 5}): 0,
        frozenset({0, 1, 2, 3, 4, 6}): 2,
    }
    assert percolation_time_bruteforce(g7) == 4

    rng = random.Random(DEFAULT_SEED)
    sum_violations = 0
    pairs = 0
    broken = []
    reached = 0
    for i in range(200):
        g = random_connected_graph(rng, rng.randint(2, 10))
        bd = blocks(g)
        limits = block_times(g)
        if percolation_time_bruteforce(g, max_n=12) > sum(limits):
            sum_violations += 1
        worst = [0] * len(limits)
        for mask in range(1 << g.n):
            times = percolate(g, [v for v in range(g.n) if mask >> v & 1])
            if None in times:
                continue
            for k, b in enumerate(bd.blocks):
                start = max((times[c] for c in b & bd.cut_vertices), default=0)
                lag = max(times[v] for v in b) - start
                worst[k] = max(worst[k], lag)
        for b, lag, limit in zip(bd.blocks, worst, limits):
            pairs += 1
            reached += lag == limit
            if lag > limit or (lag < limit and not b & bd.cut_vertices):
                broken.append((i, sorted(b), lag, limit))
    ok = not broken
    record_criterion(
        9,
        "blockwise time bound",
        ok,
        f"{len(broken)} of {pairs} (graph, block) pairs break it, {reached} reach it; "
        f"sum bound broken by {sum_violations} of 200 graphs",
    )
    for i, b, lag, limit in broken[:3]:
        print(f"  instance {i}: block {b} took {lag} rounds, t(B) = {limit}")
    assert ok


def test_criterion_10_invariant_inequality_and_process_properties(connected_graphs_up_to_7):
    t0 = perf_counter()
    ok = True
    exhaustive = 0
    for g in connected_graphs_up_to_7:
        exhaustive += 1
        ok = ok and hull_number_bruteforce(g) <= geodetic_number_bruteforce(g)

    rng = random.Random(DEFAULT_SEED)
    randomized = 0
    for _ in range(10_000):
        g = random_connected_graph(rng, rng.randint(2, 8))
        small = {v for v in range(g.n) if rng.random() < 0.4}
        grow = small | {v for v in range(g.n) if rng.random() < 0.3}
        spread = interval(g, small)
        ok = ok and small <= spread
        ok = ok and spread <= interval(g, grow)
        closed = hull_closure(g, small)
        ok = ok and hull_closure(g, closed) == closed
        randomized += 3
    elapsed = perf_counter() - t0
    ok = ok and exhaustive == 996 and randomized >= 10_000
    record_criterion(
        10,
        "invariant inequality and process properties",
        ok,
        f"{exhaustive} exhaustive graphs, {randomized} randomized checks, {elapsed:.1f}s",
    )
    assert ok
