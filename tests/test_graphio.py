import io

import pytest
from hypothesis import given, strategies as st

from p3conv.graph import Graph
from p3conv.graphio import (
    GraphDocument,
    ParseError,
    document_for,
    parse_document,
    parse_documents,
    serialize_document,
    serialize_documents,
    to_graph6,
)


def test_round_trip_full_document():
    text = "name: demo\n4\n0 1\n1 2\n2 3\norder: 0 1 2 3\n"
    doc = parse_document(text)
    assert doc.name == "demo"
    assert doc.vertex_count == 4
    assert doc.edges == ((0, 1), (1, 2), (2, 3))
    assert doc.order == (0, 1, 2, 3)
    assert serialize_document(doc) == text
    g = doc.to_graph()
    assert g.n == 4 and g.has_edge(1, 2)


def test_round_trip_minimal_document():
    doc = parse_document("2\n0 1\n")
    assert doc.name is None and doc.order is None
    assert serialize_document(doc) == "2\n0 1\n"


def test_comments_and_blank_lines():
    docs = parse_documents("# comment\n3\n0 1\n1 2\n\nname: k3\n3\n0 1\n1 2\n0 2\n")
    assert len(docs) == 2
    assert docs[0].name is None
    assert docs[1].name == "k3"
    rejoined = parse_documents(serialize_documents(docs))
    assert rejoined == docs


def test_parse_document_wants_exactly_one():
    with pytest.raises(ParseError):
        parse_document("")
    with pytest.raises(ParseError):
        parse_document("2\n0 1\n\n2\n0 1\n")


def test_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_document("x\n0 1\n")
    assert e.value.line_no == 1
    assert "expected a vertex count" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_document("3\n0 1\n1 5\n")
    assert e.value.line_no == 3
    assert "outside vertex range" in str(e.value)


@pytest.mark.parametrize(
    "text, line_no, reason",
    [
        ("name: a\nname: b\n2\n", 2, "duplicate name line"),
        ("name:  \n2\n", 1, "empty name"),
        ("order: 0 1\n2\n", 1, "order line before the vertex count"),
        ("2\norder: 0 1\norder: 1 0\n", 3, "duplicate order line"),
        ("2\norder: 0 x\n", 2, "order entries must be integers"),
        ("3\n0 1\norder: 0 1 1\n", 3, "order must be a permutation of 0..2"),
        ("x\n0 1\n", 1, "expected a vertex count, got 'x'"),
        ("-2\n", 1, "vertex count must be nonnegative"),
        ("3\n0 1 2\n", 2, "expected an edge 'u v', got '0 1 2'"),
        ("3\n0 a\n", 2, "edge endpoints must be integers, got '0 a'"),
        ("3\n0 1\n2 2\n", 3, "self-loop at vertex 2"),
        ("3\n0 1\n1 5\n", 3, "edge 1 5 outside vertex range 0..2"),
        ("3\n0 1\n1 2\n# again\n1 0\n", 5, "duplicate edge 0 1"),
        ("# header\n\nname: lonely\n", 3, "document has no vertex count"),
        # Only \n, \r\n and \r end a line; a form feed separates fields.
        ("3\n0 1\f1 5\n", 2, "expected an edge 'u v', got '0 1\\x0c1 5'"),
        ("3\r\n0 1\r\n1 5\r\n", 3, "edge 1 5 outside vertex range 0..2"),
        ("3\r0 1\r1 5\r", 3, "edge 1 5 outside vertex range 0..2"),
    ],
)
def test_every_parse_error_names_its_line(text, line_no, reason):
    with pytest.raises(ParseError) as e:
        parse_documents(text)
    assert (e.value.line_no, e.value.reason) == (line_no, reason)
    assert str(e.value) == f"line {line_no}: {reason}"


_FRAGMENTS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "x", " ", "\t", "\n", "\r", "\r\n", "\f", "\x85",
     "\u2028", "#", "name:", "order:", "1 2", "0 1\n", "3\n"]
)


@given(st.one_of(st.text(), st.lists(_FRAGMENTS).map("".join)))
def test_any_text_parses_or_names_a_line_it_has(text):
    try:
        docs = parse_documents(text)
    except ParseError as e:
        # The standard library's universal-newline reader gives the lines.
        assert 1 <= e.line_no <= len(io.StringIO(text, newline=None).readlines())
    else:
        assert all(isinstance(d, GraphDocument) for d in docs)


@st.composite
def _documents(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    edges = tuple(sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else ())
    order = draw(st.none() | st.permutations(range(n)).map(tuple))
    name = draw(st.none() | st.from_regex(r"[A-Za-z0-9_-]([A-Za-z0-9_ -]*[A-Za-z0-9_-])?", fullmatch=True))
    return GraphDocument(n, edges, order, name)


@given(st.lists(_documents(), max_size=4))
def test_documents_round_trip(docs):
    assert parse_documents(serialize_documents(docs)) == docs


def test_order_must_cover_all_vertices():
    with pytest.raises(ParseError):
        parse_document("3\n0 1\n1 2\norder: 0 1\n")


def test_document_for():
    g = Graph(3, [(0, 1), (1, 2)])
    doc = document_for(g, order=(0, 1, 2), name="p3")
    assert doc == GraphDocument(3, ((0, 1), (1, 2)), (0, 1, 2), "p3")


def test_graph6_known_strings():
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert to_graph6(k3) == "Bw"
    assert to_graph6(k4) == "C~"
    assert to_graph6(p4) == "Ch"


def test_graph6_size_limit():
    big = Graph(63, [])
    with pytest.raises(ValueError):
        to_graph6(big)
