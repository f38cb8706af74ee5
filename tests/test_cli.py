"""Command line behavior, driven in-process through main()."""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import p3conv.cli
import p3conv.crossval
import p3conv.generators
import p3conv.graph
import p3conv.hereditary
import p3conv.oracle
from p3conv import unit_interval
from p3conv.caterpillar import (
    geodetic_number,
    hull_number,
    percolation_time,
    recognize_caterpillar,
)
from p3conv.cli import main
from p3conv.generators import (
    random_biconnected_chain,
    random_clique_chain,
    realize_caterpillar,
    shuffle_labels,
)
from p3conv.graph import Graph, blocks as graph_blocks
from p3conv.graphio import document_for, parse_documents, serialize_document


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4\n0 1\n1 2\n2 3\n")
    return str(f)


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.txt"
    f.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    return str(f)


@pytest.fixture
def uig9_file(tmp_path, capsys):
    rc = main(["generate", "uig-random", "--size", "9", "--seed", "7", "--count", "1"])
    out, _ = capsys.readouterr()
    assert rc == 0
    f = tmp_path / "uig9.txt"
    f.write_text(out)
    return str(f)


def test_analyze_caterpillar(capsys, p4_file):
    rc, out, err = run(capsys, "analyze", p4_file)
    assert rc == 0
    assert "class: caterpillar" in out
    assert "degree_profile: 1 2 2 1" in out
    assert "factors: 1 22 1" in out
    assert "spine_times: 0 1 1 0" in out
    assert "geodetic_number: 3" in out
    assert "hull_number: 3" in out
    assert "percolation_time: 1" in out


def test_analyze_caterpillar_with_oracle(capsys, p4_file):
    rc, out, _ = run(capsys, "analyze", p4_file, "--oracle")
    assert rc == 0
    assert "oracle.geodetic_number: 3" in out
    assert "agreement.geodetic_number: yes" in out
    assert "agreement.percolation_time: yes" in out


def test_analyze_large_caterpillar_object_and_text(capsys, tmp_path):
    rng = random.Random(12)
    profile = (1, *(rng.choice((2, 3, 4)) for _ in range(298)), 1)
    shuffled = shuffle_labels(rng, realize_caterpillar(profile))
    f = tmp_path / "cat.txt"
    f.write_text(serialize_document(document_for(shuffled)))
    # Expected values come from the graph itself, not from the parser.
    s = recognize_caterpillar(Graph(shuffled.n, shuffled.edges()))
    expected = {
        "spine": list(s.spine),
        "degree_profile": list(s.reduced_degrees),
        "leaf_count": s.leaf_count,
        "factors": ["".join(map(str, f)) for f in s.factorization.factors],
        "spine_times": list(s.percolation.times),
        "geodetic_number": geodetic_number(s),
        "hull_number": hull_number(s),
        "percolation_time": percolation_time(s),
    }
    assert tuple(expected["degree_profile"]) in (profile, profile[::-1])

    rc, out, _ = run(capsys, "analyze", str(f), "--format", "object")
    assert rc == 0
    payload = json.loads(out)
    assert payload["class"] == "caterpillar"
    assert (payload["vertices"], payload["edge_count"]) == (shuffled.n, shuffled.n - 1)
    assert {key: payload[key] for key in expected} == expected

    rc, out, _ = run(capsys, "analyze", str(f))
    assert rc == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["class"] == "caterpillar"
    assert {key: lines[key] for key in expected} == {
        key: " ".join(map(str, v)) if isinstance(v, list) else str(v)
        for key, v in expected.items()
    }


def test_analyze_unit_interval(capsys, uig9_file):
    rc, out, _ = run(capsys, "analyze", uig9_file)
    assert rc == 0
    assert "class: unit-interval" in out
    assert "order: 5 2 4 3 7 1 0 8 6" in out
    assert "cliques: 0 3 1 4 3 5 4 7 6 8" in out
    assert "singular_positions: 3 4" in out
    assert "segments: 0..8 two_anchors t=5" in out
    assert "percolation_time: 5" in out
    assert "split_diameter: 5" in out


def test_analyze_unit_interval_object_format(capsys, uig9_file):
    rc, out, _ = run(capsys, "analyze", uig9_file, "--format", "object")
    assert rc == 0
    payload = json.loads(out)
    assert payload["class"] == "unit-interval"
    assert payload["percolation_time"] == 5
    assert payload["order"] == [5, 2, 4, 3, 7, 1, 0, 8, 6]


def test_analyze_other_needs_oracle_flag(capsys, c4_file):
    rc, out, err = run(capsys, "analyze", c4_file)
    assert rc == 1
    assert "neither a caterpillar nor a unit interval graph" in err


def test_analyze_uig_runs_one_segment_pass(capsys, tmp_path, monkeypatch):
    g, order = random_clique_chain(random.Random(7), 12)
    model = unit_interval.build_model(g, order)
    f = tmp_path / "chain.txt"
    f.write_text(serialize_document(document_for(g, order=order)))
    original = unit_interval.cut_segments
    calls = []

    def counted(m):
        calls.append(m)
        return original(m)

    # Count calls made directly and through unit_interval.percolation_time.
    monkeypatch.setattr(unit_interval, "cut_segments", counted)
    rc, out, _ = run(capsys, "analyze", str(f))
    assert rc == 0
    assert len(calls) == 1
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    segment_times = [int(t) for t in re.findall(r"t=(\d+)", lines["segments"])]
    assert len(segment_times) >= 2
    assert int(lines["percolation_time"]) == max(segment_times)
    assert int(lines["percolation_time"]) == unit_interval.percolation_time(model)


def test_analyze_2connected_uig_computes_split_diameter_once(capsys, tmp_path, monkeypatch):
    g, order = random_biconnected_chain(random.Random(5), 30)
    f = tmp_path / "chain.txt"
    f.write_text(serialize_document(document_for(g, order=order)))
    cg, corder = random_clique_chain(random.Random(2), 12)
    cf = tmp_path / "cuts.txt"
    cf.write_text(serialize_document(document_for(cg, order=corder)))
    original = unit_interval.percolation_time_biconnected
    calls = []

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(unit_interval, "percolation_time_biconnected", counted)
    searches = []

    def counted_blocks(graph):
        searches.append(graph)
        return graph_blocks(graph)

    original_connected = p3conv.graph.Graph.is_connected
    bfs = []

    def counted_connected(graph):
        bfs.append(graph)
        return original_connected(graph)

    # Connectivity, 2-connectivity and blocks are read off the model's
    # order: an ordered document needs no graph search at all.
    monkeypatch.setattr(p3conv.graph, "blocks", counted_blocks)
    monkeypatch.setattr(p3conv.graph.Graph, "is_connected", counted_connected)
    rc, out, _ = run(capsys, "analyze", str(f))
    assert rc == 0
    assert len(calls) == 1
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["segments"].startswith("0..29 two_anchors t=")
    assert lines["split_diameter"] == lines["percolation_time"]
    assert int(lines["split_diameter"]) == original(unit_interval.build_model(g, order))
    rc, out, _ = run(capsys, "analyze", str(cf))
    assert rc == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["segments"] == "0..1 edge t=1 1..11 guarded_both t=6"
    assert "split_diameter" not in lines
    assert len(calls) == 1
    assert len(searches) == 0
    assert len(bfs) == 0


def test_analyze_other_skips_pattern_search_without_oracle(capsys, c4_file, monkeypatch):
    def forbidden(g):
        raise AssertionError("pattern search ran without --oracle")

    monkeypatch.setattr(p3conv.hereditary, "find_forbidden_patterns", forbidden)
    rc, out, err = run(capsys, "analyze", c4_file)
    assert rc == 1
    assert out == ""
    assert err == (
        "error: graph is neither a caterpillar nor a unit interval graph; "
        "rerun with --oracle for brute-force values\n"
    )


def test_analyze_other_with_oracle_names_patterns(capsys, tmp_path):
    f = tmp_path / "k23.txt"
    f.write_text("5\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n")
    rc, out, _ = run(capsys, "analyze", str(f), "--oracle")
    assert rc == 0
    assert "class: other" in out
    assert "forbidden_patterns: k23\n" in out


@pytest.mark.parametrize(
    "text, tail",
    [
        ("0\n", "percolation_time: 0\n"),
        ("1\n", "percolation_time: 0\n"),
        ("2\n0 1\n", "percolation_time: 0\n"),
        ("2\n0 1\norder: 1 0\n", "percolation_time: 0\n"),
        ("4\n0 1\n2 3\norder: 0 1 2 3\n", "connected: no\n"),
    ],
)
def test_analyze_tiny_and_disconnected_documents(capsys, tmp_path, text, tail):
    f = tmp_path / "doc.txt"
    f.write_text(text)
    rc, out, _ = run(capsys, "analyze", str(f))
    assert rc == 0
    assert out.endswith(tail)
    assert "segments" not in out


def test_analyze_other_with_oracle(capsys, c4_file):
    rc, out, _ = run(capsys, "analyze", c4_file, "--oracle")
    assert rc == 0
    assert "class: other" in out
    assert "oracle.geodetic_number: 2" in out
    assert "oracle.hull_number: 2" in out
    assert "oracle.percolation_time: 1" in out


def test_analyze_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "analyze", str(tmp_path / "nope.txt"))
    assert rc == 1
    assert "error:" in err


def test_analyze_rejects_multiple_documents(capsys, tmp_path):
    f = tmp_path / "two.txt"
    f.write_text("2\n0 1\n\n2\n0 1\n")
    rc, _, err = run(capsys, "analyze", str(f))
    assert rc == 1
    assert "expected exactly one document" in err


def test_generate_exhaustive_caterpillars(capsys):
    rc, out, _ = run(capsys, "generate", "caterpillar-exhaustive", "--size", "5")
    assert rc == 0
    docs = parse_documents(out)
    assert len(docs) == 40
    assert docs[0].name == "caterpillar-11"


def test_generate_all_connected(capsys):
    rc, out, _ = run(capsys, "generate", "all-connected", "--size", "4")
    assert rc == 0
    assert len(parse_documents(out)) == 6


def test_generate_all_connected_size_cap(capsys):
    rc, _, err = run(capsys, "generate", "all-connected", "--size", "8")
    assert rc == 1
    assert "sizes 1 through 7" in err


def test_generate_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "generate", "uig-random", "--size", "8", "--seed", "5", "--count", "3")
    rc2, out2, _ = run(capsys, "generate", "uig-random", "--size", "8", "--seed", "5", "--count", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(parse_documents(out1)) == 3


@pytest.mark.parametrize("kind", ["caterpillar-random", "uig-random", "uig-2connected-random"])
def test_generate_rejects_a_negative_count(capsys, kind):
    assert run(capsys, "generate", kind, "--count", "-1") == (
        1, "", "error: generate needs --count of at least 0\n"
    )
    assert run(capsys, "generate", kind, "--count", "0") == (0, "", "")


def test_seed_default_is_read_when_the_command_runs(capsys, monkeypatch):
    rc, seeded, _ = run(capsys, "generate", "uig-random", "--count", "2", "--seed", "5")
    assert rc == 0
    monkeypatch.setattr(p3conv.generators, "DEFAULT_SEED", 5)
    assert run(capsys, "generate", "uig-random", "--count", "2") == (0, seeded, "")


def test_crossval_looks_up_its_suite_when_it_runs(capsys, monkeypatch):
    original = p3conv.crossval.caterpillar_suite
    calls = []

    def counted(**kwargs):
        calls.append(kwargs)
        return original(**kwargs)

    monkeypatch.setattr(p3conv.crossval, "caterpillar_suite", counted)
    rc, out, _ = run(capsys, "crossval", "caterpillar", "--max-n", "3")
    assert rc == 0 and "disagreeing=0" in out
    assert calls == [{"seed": p3conv.generators.DEFAULT_SEED, "max_n": 3, "cap": None}]


def test_generate_2connected_orders_are_present(capsys):
    rc, out, _ = run(capsys, "generate", "uig-2connected-random", "--size", "7", "--seed", "3", "--count", "2")
    assert rc == 0
    for doc in parse_documents(out):
        assert doc.order is not None


def test_crossval_caterpillar_green(capsys):
    rc, out, _ = run(capsys, "crossval", "caterpillar", "--max-n", "8")
    assert rc == 0
    assert "disagreeing=0" in out


def test_crossval_property_p_flags_findings(capsys):
    rc, out, _ = run(capsys, "crossval", "property-p", "--max-n", "5")
    assert rc == 2
    assert "disagreeing=1" in out


def test_crossval_property_p_over_every_graph_up_to_seven_vertices(capsys):
    rc, out, _ = run(capsys, "crossval", "property-p", "--max-n", "7")
    assert rc == 2
    assert out.endswith("# summary: rows=996 agreeing=992 disagreeing=4 skipped=0\n")


def test_crossval_object_format(capsys):
    rc, out, _ = run(capsys, "crossval", "property-p", "--max-n", "4", "--format", "object")
    assert rc == 0
    payload = json.loads(out)
    assert payload["summary"]["disagreeing"] == 0
    assert payload["rows"]


def test_propcheck_clean_range(capsys):
    rc, out, _ = run(capsys, "propcheck", "--max-n", "4")
    assert rc == 0
    assert "reverse findings (pattern-free, not idempotent): 0" in out


def test_propcheck_reports_findings(capsys):
    rc, out, _ = run(capsys, "propcheck", "--max-n", "5")
    assert rc == 2
    assert "graphs checked: 31 (sizes up to 5)" in out
    assert "forward violations (pattern present, still idempotent): 0" in out
    assert "reverse findings (pattern-free, not idempotent): 1" in out
    assert "[reverse] n=5 graph6=D]_ edges: 0-2 0-3 0-4 1-2 1-3" in out


def test_propcheck_size_cap(capsys):
    rc, _, err = run(capsys, "propcheck", "--max-n", "12")
    assert rc == 3
    assert "capped at 9 vertices, got 12" in err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["nosuchcmd"])
    assert e.value.code == 1


def test_usage_error_after_a_successful_call(capsys, p4_file):
    # The parser is built once and reused across calls.
    rc, _, _ = run(capsys, "analyze", p4_file)
    assert rc == 0
    with pytest.raises(SystemExit) as e:
        main(["analyze", p4_file, "--format", "yaml"])
    assert e.value.code == 1
    assert "invalid choice" in capsys.readouterr().err
    rc, out, _ = run(capsys, "analyze", p4_file)
    assert rc == 0 and "class: caterpillar" in out


@pytest.mark.parametrize(
    "argv, rc, tail, err",
    [
        # 0 is a cap like any other: every check is skipped in every suite.
        (
            ["crossval", "uig", "--max-oracle-n", "0"],
            0,
            "# summary: rows=0 agreeing=0 disagreeing=0 skipped=300\n",
            "warning: 300 checks skipped beyond the oracle cap; raise --max-oracle-n to include them\n",
        ),
        (
            ["crossval", "caterpillar", "--max-n", "4", "--max-oracle-n", "0"],
            0,
            "# summary: rows=0 agreeing=0 disagreeing=0 skipped=1512\n",
            "warning: 1512 checks skipped beyond the oracle cap; raise --max-oracle-n to include them\n",
        ),
        (["crossval", "property-p", "--max-n", "0"], 0, "# summary: rows=0 agreeing=0 disagreeing=0 skipped=0\n", ""),
        (["crossval", "caterpillar", "--max-n", "0"], 1, "", "error: crossval caterpillar needs --max-n of at least 2\n"),
        (["crossval", "caterpillar", "--max-n", "1"], 1, "", "error: crossval caterpillar needs --max-n of at least 2\n"),
        (["crossval", "uig", "--max-n", "2"], 1, "", "error: crossval uig needs --max-n of at least 3\n"),
        (
            ["crossval", "property-p", "--max-n", "4", "--max-oracle-n", "0"],
            0,
            "# summary: rows=0 agreeing=0 disagreeing=0 skipped=10\n",
            "warning: 10 checks skipped beyond the oracle cap; raise --max-oracle-n to include them\n",
        ),
        (
            ["crossval", "all", "--max-n", "3", "--max-oracle-n", "0"],
            0,
            "# summary: rows=0 agreeing=0 disagreeing=0 skipped=1810\n",
            "warning: 1810 checks skipped beyond the oracle cap; raise --max-oracle-n to include them\n",
        ),
        (["crossval", "all", "--max-n", "2"], 1, "", "error: crossval all needs --max-n of at least 3\n"),
    ],
    ids=["uig-cap-0", "caterpillar-cap-0", "property-p-max-n-0",
         "caterpillar-max-n-0", "caterpillar-max-n-1", "uig-max-n-2",
         "property-p-cap-0", "all-max-n-3-cap-0", "all-max-n-2"],
)
def test_crossval_size_options_take_zero_as_a_value(capsys, argv, rc, tail, err):
    got_rc, out, got_err = run(capsys, *argv)
    assert (got_rc, got_err) == (rc, err)
    assert out.endswith(tail)


def test_analyze_oracle_cap_of_zero_is_a_cap(capsys, p4_file):
    rc, out, err = run(capsys, "analyze", p4_file, "--oracle", "--max-oracle-n", "0")
    assert (rc, out) == (3, "")
    assert err == "error: geodetic number search enumerates subsets of 4 vertices; cap is 0\n"


@pytest.mark.parametrize(
    "text, extra, rc, out, err",
    [
        # connected and over the time cap only: exit 3 names the time search
        (
            "19\n" + "".join(f"0 {v}\n" for v in range(1, 19)),
            (),
            3,
            "",
            "error: percolation time search enumerates subsets of 19 vertices; cap is 18\n",
        ),
        # disconnected: no oracle.percolation_time line
        (
            "5\n0 1\n1 2\n3 4\n",
            (),
            0,
            "vertices: 5\nedge_count: 3\nclass: unit-interval\norder: 4 3 2 1 0\n"
            "cliques: 0 1 2 3 3 4\nsingular_positions: 3\nconnected: no\n"
            "oracle.geodetic_number: 4\noracle.hull_number: 4\n",
            "",
        ),
        # a cap of 0 still admits the empty graph
        (
            "0\n",
            ("--max-oracle-n", "0"),
            0,
            "vertices: 0\nedge_count: 0\nclass: unit-interval\norder: \ncliques: \n"
            "singular_positions: \npercolation_time: 0\noracle.geodetic_number: 0\n"
            "oracle.hull_number: 0\noracle.percolation_time: 0\nagreement.percolation_time: yes\n",
            "",
        ),
    ],
    ids=["connected-over-time-cap", "disconnected", "empty-at-cap-0"],
)
def test_analyze_oracle_caps_and_disconnected_graphs(capsys, tmp_path, text, extra, rc, out, err):
    f = tmp_path / "doc.txt"
    f.write_text(text)
    assert run(capsys, "analyze", str(f), "--oracle", *extra) == (rc, out, err)


def test_analyze_oracle_runs_one_search(capsys, c4_file, monkeypatch):
    searches = []
    search = p3conv.oracle._search

    def counted(*args):
        searches.append(args[1:])
        return search(*args)

    monkeypatch.setattr(p3conv.oracle, "_search", counted)
    rc, out, _ = run(capsys, "analyze", c4_file, "--oracle")
    assert rc == 0 and "oracle.percolation_time: 1" in out
    assert searches == [(15, True)]


@pytest.mark.parametrize(
    "g, err",
    [
        (Graph.cycle(40), "geodetic number search enumerates subsets of 40 vertices; cap is 20"),
        # A 4-cycle beside an 18-vertex path: disconnected, over the hull cap.
        (
            Graph(22, [(0, 1), (1, 2), (2, 3), (3, 0)] + [(v, v + 1) for v in range(4, 21)]),
            "geodetic number search enumerates subsets of 22 vertices; cap is 20",
        ),
        (Graph.cycle(19), "percolation time search enumerates subsets of 19 vertices; cap is 18"),
    ],
    ids=["C40", "C4+P18", "C19"],
)
def test_analyze_oracle_checks_the_caps_before_the_pattern_search(capsys, tmp_path, monkeypatch, g, err):
    def forbidden(g):
        raise AssertionError("pattern search ran on a graph over the oracle caps")

    monkeypatch.setattr(p3conv.hereditary, "find_forbidden_patterns", forbidden)
    f = tmp_path / "doc.txt"
    f.write_text(serialize_document(document_for(g)))
    assert run(capsys, "analyze", str(f), "--oracle") == (3, "", f"error: {err}\n")


def test_analyze_oracle_checks_the_time_cap_before_searching(capsys, tmp_path, monkeypatch):
    searches = []
    search = p3conv.oracle._search

    def counted(*args):
        searches.append(args[1:])
        return search(*args)

    monkeypatch.setattr(p3conv.oracle, "_search", counted)
    f = tmp_path / "path19.txt"
    f.write_text(serialize_document(document_for(Graph.path(19))))
    rc, out, err = run(capsys, "analyze", str(f), "--oracle")
    assert (rc, out) == (3, "")
    assert err == "error: percolation time search enumerates subsets of 19 vertices; cap is 18\n"
    assert searches == []


JSON_PAYLOADS = [
    {},
    [],
    {"spine": [], "cliques": [], "factors": [], "oracle": {}},
    {"cliques": [[0, 2], [1, 3], [3, 4]], "order": [4, 3, 2, 1, 0], "class": "unit-interval"},
    {"oracle": {"geodetic_number": 2, "hull_number": 2, "percolation_time": None}},
    {"agreement": {"percolation_time": True, "hull_number": False}, "connected": False},
    {"rows": [{"seconds": 0.000123, "agree": True, "oracle": None, "formula": 3}], "skipped": []},
    {"seconds": [1e-07, 2.5, -0.0, 1e22], "counts": (1, 2, 3)},
    {"name": "Grünbaum ↔ 图 \u2028 \"q\"\\", "vertices": 3},
    [None, True, "x", [[]], {}, [{}], {"a": []}],
    {
        "max_n": 5,
        "checked": 29,
        "forward_violations": [],
        "reverse_findings": [
            {
                "graph6": "D]_",
                "vertex_count": 5,
                "edges": ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4)),
                "pattern_free": True,
                "idempotent": False,
            }
        ],
    },
]


@pytest.mark.parametrize("payload", JSON_PAYLOADS)
def test_json_text_matches_json_dumps(payload):
    assert p3conv.cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@settings(max_examples=30, deadline=None)
@given(
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(max_size=8), inner),
        max_leaves=20,
    )
)
def test_json_text_matches_json_dumps_on_any_value(value):
    assert p3conv.cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_object_output_matches_json_dumps(capsys, tmp_path, uig9_file):
    rng = random.Random(3)
    cat = tmp_path / "cat.txt"
    cat.write_text(
        serialize_document(
            document_for(shuffle_labels(rng, realize_caterpillar((1, 4, 3, 2, 4, 1))), name="raupe-ü")
        )
    )
    for argv in (
        ["analyze", str(cat), "--format", "object", "--oracle"],
        ["analyze", uig9_file, "--format", "object", "--oracle"],
        ["crossval", "uig", "--max-n", "4", "--format", "object"],
        ["propcheck", "--max-n", "5", "--format", "object"],
    ):
        _, out, _ = run(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


def test_parse_error_exits_one_with_its_line(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("3\n0 1\n1 5\n")
    rc, out, err = run(capsys, "analyze", str(f))
    assert (rc, out, err) == (1, "", "error: line 3: edge 1 5 outside vertex range 0..2\n")
