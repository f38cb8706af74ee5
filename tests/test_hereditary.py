import random

import pytest

from p3conv.generators import connected_graphs, random_connected_graph
from p3conv.graph import Graph, contains_induced
from p3conv.hereditary import (
    FORBIDDEN_PATTERNS,
    crosscheck_interval_idempotence,
    find_forbidden_patterns,
    idempotence_corpus,
    interval_idempotent_by_patterns,
    printed_graphs,
)
from p3conv.oracle import (
    geodetic_number_bruteforce,
    hull_number_bruteforce,
    interval_idempotent_bruteforce,
    p3_parameters_bruteforce,
)


def test_pattern_inventory():
    inventory = {(p.name, p.graph.n, len(p.graph.edges())) for p in FORBIDDEN_PATTERNS}
    assert inventory == {
        ("diamond", 4, 5),
        ("paw", 4, 4),
        ("chair", 5, 4),
        ("k23", 5, 6),
    }


def test_every_pattern_breaks_idempotence():
    for p in FORBIDDEN_PATTERNS:
        assert not interval_idempotent_bruteforce(p.graph), p.name


def test_find_forbidden_patterns():
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert find_forbidden_patterns(diamond) == ("diamond",)
    assert find_forbidden_patterns(paw) == ("paw",)
    assert find_forbidden_patterns(k4) == ()
    assert find_forbidden_patterns(Graph.complete_bipartite(2, 3)) == ("k23",)


def test_predictor_on_simple_graphs():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert interval_idempotent_by_patterns(path)
    assert not interval_idempotent_by_patterns(diamond)


def test_predictor_is_exact_up_to_four_vertices():
    for n in range(1, 5):
        for g in connected_graphs(n):
            assert interval_idempotent_by_patterns(g) == interval_idempotent_bruteforce(g)


def test_predictor_has_exactly_one_blind_spot_at_five_vertices():
    off = [g for g in connected_graphs(5)
           if interval_idempotent_by_patterns(g) != interval_idempotent_bruteforce(g)]
    assert len(off) == 1
    (g,) = off
    # a four-cycle with one pendant vertex: pattern-free yet not idempotent
    assert sorted(g.degree(v) for v in range(5)) == [1, 2, 2, 2, 3]
    assert interval_idempotent_by_patterns(g)
    assert not interval_idempotent_bruteforce(g)


def test_crosscheck_at_five_vertices():
    rep = crosscheck_interval_idempotence(max_n=5)
    assert rep.max_n == 5
    assert rep.checked == 31
    assert rep.forward_violations == ()
    assert not rep.clean
    (finding,) = rep.reverse_findings
    assert finding.graph6 == "D]_"
    assert finding.vertex_count == 5
    assert set(finding.edges) == {(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)}
    assert finding.pattern_free and not finding.idempotent


# The fifth minimal non-idempotent graph: the 4-cycle 0-2-1-3 with a pendant
# vertex 4 on vertex 0, graph6 D]_.
BANNER = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])


def test_crosscheck_at_six_vertices():
    rep = crosscheck_interval_idempotence(max_n=6)
    assert rep.forward_violations == ()
    assert {d.graph6 for d in rep.reverse_findings} == {"D]_", "EFj?", "E]Q?"}
    assert find_forbidden_patterns(BANNER) == ()
    assert not interval_idempotent_bruteforce(BANNER)
    for d in rep.reverse_findings:
        g = Graph(d.vertex_count, d.edges)
        assert find_forbidden_patterns(g) == ()
        assert not interval_idempotent_bruteforce(g)
        assert contains_induced(g, BANNER)


@pytest.mark.parametrize("max_n, checked", [(7, 996), (8, 1146)])
def test_crosscheck_finds_the_same_four_graphs_up_to_eight_vertices(max_n, checked):
    rep = crosscheck_interval_idempotence(max_n=max_n)
    assert rep.checked == checked
    assert rep.forward_violations == ()
    assert [d.graph6 for d in rep.reverse_findings] == ["D]_", "EFj?", "E]Q?", "FFYe?"]


def test_printed_graphs_of_the_corpus_are_the_canonical_enumeration(connected_graphs_up_to_7):
    levels = list(idempotence_corpus(8, seed=3, samples_per_size=5))
    assert [len(level) for level in levels] == [1, 1, 2, 6, 21, 112, 853, 5]
    printed = [g for level in levels[:7] for g in printed_graphs(level)]
    assert printed == connected_graphs_up_to_7
    # The sampled size is printed as drawn.
    rng = random.Random(3)
    drawn = [random_connected_graph(rng, 8).edges() for _ in range(5)]
    assert [g.edges() for g in printed_graphs(levels[7])] == drawn


def test_crosscheck_rejects_oversized_bound():
    from p3conv.oracle import CapExceeded

    with pytest.raises(CapExceeded):
        crosscheck_interval_idempotence(max_n=10)


def test_hull_equals_geodetic_on_idempotent_graphs():
    for n in range(2, 6):
        for g in connected_graphs(n):
            if interval_idempotent_bruteforce(g):
                params = p3_parameters_bruteforce(g)
                assert params.hull_number == params.geodetic_number
                assert hull_number_bruteforce(g) == geodetic_number_bruteforce(g)
