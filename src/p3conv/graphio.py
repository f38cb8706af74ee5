"""Plain-text graph documents and graph6 strings.

A document is a block of lines: an optional ``name:`` line, a vertex count,
one ``u v`` line per edge, and an optional ``order:`` line giving a left to
right vertex arrangement.  Lines starting with ``#`` are comments; a blank
line separates documents in a stream.  A line ends at ``\n``, ``\r\n`` or
``\r`` only, as in a file read with universal newlines; a form feed or any
other Unicode line separator inside a line is whitespace between fields.
Parse errors always carry the 1-based line number they refer to.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .graph import Graph


class ParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class GraphDocument(NamedTuple):
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    order: Optional[tuple[int, ...]] = None
    name: Optional[str] = None

    def to_graph(self) -> Graph:
        return Graph(self.vertex_count, self.edges)


def _parse_block(lines: Iterator[tuple[int, str]]) -> Optional[GraphDocument]:
    """The next document from numbered lines, or None when only blank lines
    and comments remain.  Reads through the blank line that ends it."""
    first = name = n = order = None
    edges: list[tuple[int, int]] = []
    seen: set[int] = set()  # edge u < w as the key u * n + w
    for no, raw in lines:
        parts = raw.split()
        if n is not None and len(parts) == 2:
            # Any line of two integers is an edge: no name, order or comment
            # line splits that way.
            try:
                u, w = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if u == w:
                    raise ParseError(no, f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= w < n):
                    raise ParseError(no, f"edge {u} {w} outside vertex range 0..{n - 1}")
                if u > w:
                    u, w = w, u
                key = u * n + w
                if key in seen:
                    raise ParseError(no, f"duplicate edge {u} {w}")
                seen.add(key)
                edges.append((u, w))
                continue
        if not parts:
            if first is None:
                continue
            break
        line = raw.strip()
        if line.startswith("#"):
            continue
        if first is None:
            first = no
        if line.startswith("name:"):
            if name is not None:
                raise ParseError(no, "duplicate name line")
            name = line[len("name:"):].strip()
            if not name:
                raise ParseError(no, "empty name")
        elif line.startswith("order:"):
            if n is None:
                raise ParseError(no, "order line before the vertex count")
            if order is not None:
                raise ParseError(no, "duplicate order line")
            try:
                vals = [int(t) for t in line[len("order:"):].split()]
            except ValueError:
                raise ParseError(no, "order entries must be integers") from None
            if sorted(vals) != list(range(n)):
                raise ParseError(no, f"order must be a permutation of 0..{n - 1}")
            order = tuple(vals)
        elif n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(
                    no, f"expected a vertex count, got {line!r}"
                ) from None
            if n < 0:
                raise ParseError(no, "vertex count must be nonnegative")
        elif len(parts) != 2:
            raise ParseError(no, f"expected an edge 'u v', got {line!r}")
        else:
            raise ParseError(no, f"edge endpoints must be integers, got {line!r}")
    if first is None:
        return None
    if n is None:
        raise ParseError(first, "document has no vertex count")
    edges.sort()
    return GraphDocument(n, tuple(edges), order, name)


def parse_documents(text: str) -> list[GraphDocument]:
    lines = enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1)
    docs = []
    while (doc := _parse_block(lines)) is not None:
        docs.append(doc)
    return docs


def parse_document(text: str) -> GraphDocument:
    docs = parse_documents(text)
    if len(docs) != 1:
        raise ParseError(1, f"expected exactly one document, found {len(docs)}")
    return docs[0]


def serialize_document(doc: GraphDocument) -> str:
    lines = []
    if doc.name:
        lines.append(f"name: {doc.name}")
    lines.append(str(doc.vertex_count))
    for u, w in sorted((min(e), max(e)) for e in doc.edges):
        lines.append(f"{u} {w}")
    if doc.order is not None:
        lines.append("order: " + " ".join(str(v) for v in doc.order))
    return "\n".join(lines) + "\n"


def serialize_documents(docs: list[GraphDocument]) -> str:
    return "\n".join(serialize_document(d) for d in docs)


def document_for(g: Graph, order=None, name=None) -> GraphDocument:
    return GraphDocument(
        g.n,
        tuple(g.edges()),
        tuple(order) if order is not None else None,
        name,
    )


def to_graph6(g: Graph) -> str:
    """The standard compact ASCII form for graphs on up to 62 vertices."""
    if g.n > 62:
        raise ValueError("graph6 output implemented for up to 62 vertices")
    out = [chr(63 + g.n)]
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)
