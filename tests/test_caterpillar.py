import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from caterpillar_reference import two_search_caterpillar
from p3conv.caterpillar import (
    decompose_degree_sequence,
    geodetic_number,
    hull_number,
    is_basic_sequence,
    percolation_sequence,
    percolation_time,
    recognize_caterpillar,
)
from p3conv.generators import (
    random_caterpillar,
    random_tree,
    realize_caterpillar,
    shuffle_labels,
    spine_sequences,
)
from p3conv.graph import Graph
from p3conv.oracle import (
    geodetic_number_bruteforce,
    hull_number_bruteforce,
    percolation_time_bruteforce,
    vertex_percolation_time_bruteforce,
)


def test_factorization_of_reference_profile():
    f = decompose_degree_sequence((1, 4, 3, 4, 2, 3, 3, 1))
    assert f.factors == ((1,), (4, 3, 4), (2, 3), (3, 1))
    assert f.count == 4


def test_factorization_of_mirrored_profile():
    f = decompose_degree_sequence((1, 3, 3, 2, 4, 3, 4, 1))
    assert f.factors == ((1,), (3, 3, 2), (4, 3, 4), (1,))
    assert f.count == 4


def test_factorization_small_cases():
    assert decompose_degree_sequence((1, 1)).factors == ((1,), (1,))
    assert decompose_degree_sequence((1, 2, 2, 1)).factors == ((1,), (2, 2), (1,))
    assert decompose_degree_sequence((1,)).factors == ((1,),)
    assert decompose_degree_sequence((2, 2)).factors == ((2, 2),)


def test_factorization_rejects_bad_profiles():
    with pytest.raises(ValueError):
        decompose_degree_sequence(())
    with pytest.raises(ValueError):
        decompose_degree_sequence((1, 5, 1))
    with pytest.raises(ValueError):
        decompose_degree_sequence((1, 0, 1))
    with pytest.raises(ValueError):
        decompose_degree_sequence((1, 2))


def test_factors_are_basic_and_concatenate():
    for profile in [(1, 4, 3, 4, 2, 3, 3, 1), (1, 2, 2, 1), (1, 3, 2, 4, 4, 1)]:
        f = decompose_degree_sequence(profile)
        assert all(is_basic_sequence(piece) for piece in f.factors)
        flat = tuple(d for piece in f.factors for d in piece)
        assert flat == profile


def test_is_basic_sequence():
    assert is_basic_sequence((1,))
    assert is_basic_sequence((2, 3))
    assert is_basic_sequence((4, 3, 4))
    assert is_basic_sequence((3, 3, 2))
    assert not is_basic_sequence((1, 1))
    assert not is_basic_sequence((2, 2, 2, 2))


def reference_is_basic_sequence(s):
    """is_basic_sequence as first written, with the factor shapes spelled out."""
    if not s or any(x not in (1, 2, 3, 4) for x in s):
        return False
    if s[0] == 1:
        return len(s) == 1
    if s[0] == 2:
        return len(s) == 2
    i = 1
    while i < len(s) and s[i] == 4:
        i += 1
    if i >= len(s):
        return False
    if s[i] in (1, 2):
        return i == len(s) - 1
    return i + 2 == len(s)


@pytest.mark.parametrize(
    "max_len, values", [(6, range(6)), (9, range(1, 5))], ids=["len6-values0to5", "len9-values1to4"]
)
def test_is_basic_sequence_matches_the_spelled_out_shapes(max_len, values):
    for k in range(max_len + 1):
        for s in itertools.product(values, repeat=k):
            assert is_basic_sequence(s) == reference_is_basic_sequence(s), s


def test_step_vectors_of_reference_profile():
    p = percolation_sequence((1, 2, 3, 4, 2, 3, 3, 1))
    assert p.run_ids == (1, 2, 3, 4, 5, 6, 6, 7)
    assert p.run_starts == (0, 1, 2, 3, 4, 5, 5, 7)
    assert p.run_ends == (0, 1, 2, 3, 4, 6, 6, 7)
    assert p.times == (0, 3, 2, 1, 3, 2, 1, 0)
    assert max(p.times) == 3


def test_step_vectors_small():
    assert percolation_sequence((1, 2, 2, 1)).times == (0, 1, 1, 0)
    assert percolation_sequence((1, 1)).times == (0, 0)
    assert percolation_sequence((1,)).times == (0,)
    with pytest.raises(ValueError):
        percolation_sequence((2, 2))


def test_recognize_needs_two_vertices():
    with pytest.raises(ValueError):
        recognize_caterpillar(Graph(1, []))


def test_recognize_edge():
    s = recognize_caterpillar(Graph(2, [(0, 1)]))
    assert s is not None
    assert s.reduced_degrees == (1, 1)
    # both endpoints of the single edge count as degree-one vertices
    assert s.leaf_count == 2


def test_recognize_rejects_cycle_and_spider():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert recognize_caterpillar(c4) is None
    # three legs of length two: removing leaves leaves a star, not a path
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert recognize_caterpillar(spider) is None


def test_star_is_a_caterpillar():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    s = recognize_caterpillar(star)
    assert s is not None
    assert geodetic_number(s) == 3
    assert hull_number(s) == 3
    assert percolation_time(s) == 1


def test_reference_caterpillar_parameters():
    g = realize_caterpillar((1, 4, 3, 4, 2, 3, 3, 1))
    s = recognize_caterpillar(g)
    assert s is not None
    assert s.leaf_count == 9
    assert geodetic_number(s) == 11
    assert hull_number(s) == 9
    assert percolation_time(s) == 3
    assert geodetic_number_bruteforce(g) == 11
    assert hull_number_bruteforce(g) == 9
    assert percolation_time_bruteforce(g) == 3


profiles_st = st.integers(min_value=2, max_value=4).flatmap(
    lambda k: st.tuples(*([st.just(1)] + [st.integers(2, 4)] * k + [st.just(1)]))
)


@settings(max_examples=50, deadline=None)
@given(profiles_st)
def test_realized_profiles_round_trip(profile):
    g = realize_caterpillar(profile)
    s = recognize_caterpillar(g)
    assert s is not None
    assert s.reduced_degrees in (profile, profile[::-1])


@settings(max_examples=40, deadline=None)
@given(profiles_st)
def test_formulas_match_oracle_on_small_profiles(profile):
    g = realize_caterpillar(profile)
    s = recognize_caterpillar(g)
    if g.n > 13:
        return
    assert geodetic_number(s) == geodetic_number_bruteforce(g)
    assert hull_number(s) == hull_number_bruteforce(g)
    assert percolation_time(s) == percolation_time_bruteforce(g)


@settings(max_examples=50, deadline=None)
@given(profiles_st)
def test_parameters_ignore_orientation(profile):
    a = recognize_caterpillar(realize_caterpillar(profile))
    b = recognize_caterpillar(realize_caterpillar(profile[::-1]))
    assert geodetic_number(a) == geodetic_number(b)
    assert hull_number(a) == hull_number(b)
    assert percolation_time(a) == percolation_time(b)


def two_search_recognizer(g):
    # Reference: a separate connectivity search, then two farthest-vertex
    # searches over sorted neighbor tuples.
    if g.edge_count != g.n - 1 or not g.is_connected():
        return None

    def farthest(src):
        parent = {src: src}
        frontier = [src]
        last = src
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u):
                    if w not in parent:
                        parent[w] = u
                        nxt.append(w)
            if nxt:
                last = nxt[-1]
            frontier = nxt
        return last, parent

    end_a, _ = farthest(0)
    end_b, parent = farthest(end_a)
    path = [end_b]
    while path[-1] != end_a:
        path.append(parent[path[-1]])
    on_spine = set(path)
    for v in range(g.n):
        if v not in on_spine and (g.degree(v) != 1 or not g.adj(v) <= on_spine):
            return None
    return (
        tuple(path),
        tuple(min(g.degree(v), 4) for v in path),
        tuple(tuple(sorted(w for w in g.adj(v) if w not in on_spine)) for v in path),
    )


def test_recognizer_matches_two_search_reference():
    rng = random.Random(11)
    caterpillars = rejected = 0
    for i in range(300):
        if i % 3:
            g = shuffle_labels(rng, random_caterpillar(rng, rng.randint(2, 40)))
        else:
            g = random_tree(rng, rng.randint(2, 40))
        s = recognize_caterpillar(g)
        got = None if s is None else (s.spine, s.reduced_degrees, s.leaves)
        assert got == two_search_recognizer(g), g
        caterpillars += s is not None
        rejected += s is None
    assert caterpillars >= 200 and rejected >= 20


def test_one_pass_recognizer_matches_the_two_search_reference():
    # The same structure, longest path included, as the two breadth-first
    # searches it replaced, on every profile up to eight positions and its
    # heavy variant (each also under three seeded relabelings), random
    # caterpillars and trees, and graphs with n - 1 edges that are mostly
    # no trees at all.
    rng = random.Random(21)
    graphs = []
    for rds in spine_sequences(8):
        heavy = {i: 3 for i, d in enumerate(rds) if d == 4}
        for g in [realize_caterpillar(rds)] + ([realize_caterpillar(rds, heavy)] if heavy else []):
            graphs += [g] + [shuffle_labels(rng, g) for _ in range(3)]
    graphs += [random_caterpillar(rng, rng.randint(2, 40)) for _ in range(1000)]
    graphs += [random_tree(rng, rng.randint(2, 40)) for _ in range(1000)]
    for _ in range(3000):
        n = rng.randint(2, 11)
        graphs.append(Graph(n, rng.sample(list(itertools.combinations(range(n), 2)), n - 1)))
    graphs += [Graph(2, [(0, 1)]), Graph(2, [(1, 0)])]
    graphs += [Graph.star(leaves) for leaves in range(2, 9)]
    graphs += [Graph.path(n) for n in range(3, 12)]
    caterpillars = 0
    for g in graphs:
        s = recognize_caterpillar(g)
        assert s == two_search_caterpillar(g), g
        caterpillars += s is not None
    assert len(graphs) - caterpillars >= 2000 and caterpillars >= 10000
    for n in (0, 1):
        with pytest.raises(ValueError):
            recognize_caterpillar(Graph(n))
        with pytest.raises(ValueError):
            two_search_caterpillar(Graph(n))


def test_recognition_builds_no_neighbour_sets():
    g = shuffle_labels(random.Random(4), realize_caterpillar((1, 4, 3, 2, 4, 3, 1)))
    s = recognize_caterpillar(g)
    assert s.factorization.count and s.percolation.worst_time
    assert g._sets is None
    assert g.adj(0) and g._sets is not None


def test_derived_values_are_computed_once(monkeypatch):
    import p3conv.caterpillar as module

    calls = []
    for name in ("decompose_degree_sequence", "percolation_sequence"):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda seq, original=original, name=name: calls.append(name) or original(seq)
        )
    s = recognize_caterpillar(realize_caterpillar((1, 4, 3, 3, 2, 1)))
    for _ in range(3):
        geodetic_number(s), percolation_time(s), s.factorization.factors, s.percolation.times
    assert sorted(calls) == ["decompose_degree_sequence", "percolation_sequence"]


def test_structures_are_immutable_values():
    a = recognize_caterpillar(realize_caterpillar((1, 3, 4, 1)))
    b = recognize_caterpillar(realize_caterpillar((1, 3, 4, 1)))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a.reversed().reversed() == a != a.reversed()
    for field in ("spine", "reduced_degrees", "leaves"):
        with pytest.raises(AttributeError):
            setattr(a, field, ())
    with pytest.raises(AttributeError):
        a.factorization.factors = ()
    with pytest.raises(AttributeError):
        a.percolation.times = ()


def test_recognize_rejects_disconnected_graph_with_tree_edge_count():
    # A triangle plus a disjoint edge has n - 1 edges but is no tree.
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert recognize_caterpillar(g) is None
    assert two_search_recognizer(g) is None


def nine_branch_spine_times(s):
    """Spine times as first written: one branch per pair of flanking degrees."""
    k = len(s)
    run_ids = [1]
    for i in range(1, k):
        run_ids.append(run_ids[-1] if s[i] == 3 and s[i - 1] == 3 else run_ids[-1] + 1)
    run_starts, run_ends = [0] * k, [0] * k
    i = 0
    while i < k:
        j = i
        while j + 1 < k and run_ids[j + 1] == run_ids[i]:
            j += 1
        for p in range(i, j + 1):
            run_starts[p], run_ends[p] = i, j
        i = j + 1
    times = [0] * k
    for i in range(k):
        if s[i] == 4:
            times[i] = 1
        elif s[i] == 3:
            lo, hi = run_starts[i], run_ends[i]
            before, after = s[lo - 1], s[hi + 1]
            a, b = i - lo, hi - i
            if before == 1 and after == 1:
                times[i] = min(a, b) + 1
            elif before == 2 and after == 2:
                times[i] = max(a, b) + 1
            elif before == 1 and after == 2:
                times[i] = a + 1
            elif before == 2 and after == 1:
                times[i] = b + 1
            elif before == 1 and after == 4:
                times[i] = min(a + 1, b + 2)
            elif before == 4 and after == 1:
                times[i] = min(a + 2, b + 1)
            elif before == 4 and after == 2:
                times[i] = a + 2
            elif before == 2 and after == 4:
                times[i] = b + 2
            else:
                times[i] = min(a, b) + 2
    for i in range(k):
        if s[i] != 2:
            continue
        left_small, right_small = s[i - 1] in (1, 2), s[i + 1] in (1, 2)
        if left_small and right_small:
            times[i] = 1
        elif left_small:
            times[i] = times[i + 1] + 1
        elif right_small:
            times[i] = times[i - 1] + 1
        else:
            times[i] = max(times[i - 1], times[i + 1]) + 1
    return tuple(run_ids), tuple(run_starts), tuple(run_ends), tuple(times)


def test_spine_times_match_nine_branch_reference():
    checked = 0
    for k in range(2, 11):
        for interior in itertools.product((2, 3, 4), repeat=k - 2):
            s = (1, *interior, 1)
            p = percolation_sequence(s)
            assert (p.run_ids, p.run_starts, p.run_ends, p.times) == nine_branch_spine_times(s), s
            checked += 1
    assert checked == (3 ** 9 - 1) // 2


def test_spine_times_match_the_vertex_time_oracle():
    checked = 0
    for p in spine_sequences(7):
        g = realize_caterpillar(p)
        if g.n > 18:
            continue
        times = percolation_sequence(p).times
        for i in range(len(p)):
            assert times[i] == vertex_percolation_time_bruteforce(g, i), (p, i)
            checked += 1
    assert checked == 2369
