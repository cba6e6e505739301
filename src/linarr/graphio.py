"""Text formats for graphs and arrangements.

Two graph formats are supported:

* edge list — one edge per line as two whitespace-separated labels;
  a line with a single label declares an isolated vertex; '#' starts a
  comment. Labels are assigned vertex ids in order of first appearance.
* JSON — {"vertices": ["a", ...], "edges": [["a", "b"], ...]}, or the
  label-free variant {"order": n, "edges": [[0, 1], ...]} whose labels
  default to "0", "1", ....

Arrangements are written as comma-separated labels in position order,
e.g. "a,e,b,d,c", and edge subsets as "a-b,b-c". So that every emitted
graph, arrangement and edge can be read back, both graph parsers and
`emit_graph` reject a label that is empty, contains ",", "-", "#" or
whitespace, or starts with "{" or "[" (an edge list starting so would be
detected as JSON), and every emitter refuses a repeated label.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable

from .arrangement import Arrangement
from .errors import ParseError, UnknownLabelError, ValidationError
from .graph import Graph, make_graph

FORMAT_EDGE_LIST = "edge-list"
FORMAT_JSON = "json"

_TOKEN = re.compile(r"\S+")
_UNREADABLE = re.compile(r"^[{\[]|[,\-#\s]")


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph together with its external labels and source format."""

    graph: Graph
    labels: tuple[str, ...]
    format: str

    def label_of(self, v: int) -> str:
        return self.labels[v]

    def vertex_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"unknown vertex label {label!r}") from None


def _check_label(label: str, line: int | None = None, column: int | None = None) -> None:
    if not label or _UNREADABLE.search(label):
        raise ParseError(
            f"vertex label {label!r} must be nonempty, without ',', '-', '#' or "
            "whitespace and not starting with '{' or '[', so that graphs, "
            "arrangements and edges naming it can be read back",
            line=line, column=column,
        )


def detect_format(text: str) -> str:
    return FORMAT_JSON if text.lstrip()[:1] in ("{", "[") else FORMAT_EDGE_LIST


def _column(body: str, k: int) -> int:
    """The 1-based column of the k-th whitespace-separated token of body."""
    return list(_TOKEN.finditer(body))[k].start() + 1


def _parse_edge_list(text: str) -> GraphDocument:
    # Vertex ids in order of first appearance; each label is checked when
    # first seen, and token columns are found only for an error.
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.partition("#")[0]
        tokens = body.split()
        if not tokens:
            continue
        if len(tokens) > 2:
            raise ParseError(
                f"expected at most two labels per line, got {len(tokens)}",
                line=lineno, column=_column(body, 2),
            )
        for k, label in enumerate(tokens):
            if label not in index and _UNREADABLE.search(label):
                _check_label(label, lineno, _column(body, k))
        if len(tokens) == 1:
            index.setdefault(tokens[0], len(index))
            continue
        a, b = tokens
        if a == b:
            raise ParseError(
                f"self-loop on {a!r} is not a valid edge",
                line=lineno, column=_column(body, 1),
            )
        edges.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
    return GraphDocument(make_graph(len(index), edges), tuple(index), FORMAT_EDGE_LIST)


def _parse_json(text: str) -> GraphDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list of pairs')

    if "vertices" in doc:
        raw_vertices = doc["vertices"]
        if not isinstance(raw_vertices, list) or not all(isinstance(x, str) for x in raw_vertices):
            raise ParseError('"vertices" must be a list of strings')
        labels = tuple(raw_vertices)
        for label in labels:
            _check_label(label)
        if len(set(labels)) != len(labels):
            raise ParseError("vertex labels must be unique")
        index = {label: i for i, label in enumerate(labels)}

        def vertex(x) -> int:
            if not isinstance(x, str):
                raise ParseError(f"edge endpoint {x!r} must be a declared label")
            if x not in index:
                raise UnknownLabelError(f"unknown vertex label {x!r}")
            return index[x]
    else:
        order = doc.get("order")
        if isinstance(order, bool) or not isinstance(order, int) or order < 0:
            raise ParseError('a JSON graph needs either "vertices" or a nonnegative "order"')
        labels = tuple(str(i) for i in range(order))

        def vertex(x) -> int:
            if isinstance(x, bool):
                raise ParseError(f"edge endpoint {x!r} must be a vertex index, not a boolean")
            if not isinstance(x, int) or not 0 <= x < order:
                raise UnknownLabelError(f"edge endpoint {x!r} is not a vertex index below {order}")
            return x

    edges = []
    for entry in raw_edges:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f"edge entry {entry!r} must be a pair")
        edges.append((vertex(entry[0]), vertex(entry[1])))
    try:
        graph = make_graph(len(labels), edges)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
    return GraphDocument(graph, labels, FORMAT_JSON)


def parse_graph(text: str, format: str = "auto") -> GraphDocument:
    """Parse a graph from text; format is "edge-list", "json" or "auto"."""
    fmt = detect_format(text) if format == "auto" else format
    if fmt == FORMAT_EDGE_LIST:
        return _parse_edge_list(text)
    if fmt == FORMAT_JSON:
        return _parse_json(text)
    raise ValidationError(f"unknown graph format {format!r}")


def default_labels(g: Graph) -> tuple[str, ...]:
    return tuple(str(v) for v in range(g.order))


def _resolve_labels(labels: Iterable[str] | None, g: Graph | None = None) -> tuple[str, ...]:
    """The labels to emit with, read once from any iterable, or g's default
    labels for None. A repeated label, or given g a count other than its
    order, raises ValidationError."""
    if labels is None and g is not None:
        labels = default_labels(g)
    labels = tuple(labels)
    if g is not None and len(labels) != g.order:
        raise ValidationError(f"got {len(labels)} labels for a graph of order {g.order}")
    if len(set(labels)) != len(labels):
        raise ValidationError("vertex labels must be unique")
    return labels


def emit_graph(g: Graph, labels: Iterable[str] | None = None,
               format: str = FORMAT_EDGE_LIST) -> str:
    """Serialize a graph; inverse of parse_graph for both formats.

    Labels the parsers would reject raise ParseError here too, and repeated
    labels ValidationError.
    """
    labels = _resolve_labels(labels, g)
    for label in labels:
        _check_label(label)
    if format == FORMAT_EDGE_LIST:
        lines = [f"{labels[u]} {labels[v]}" for u, v in g.sorted_edges]
        covered = {v for e in g.edges for v in e}
        lines.extend(labels[v] for v in range(g.order) if v not in covered)
        return "\n".join(lines) + ("\n" if lines else "")
    if format == FORMAT_JSON:
        doc = {
            "vertices": list(labels),
            "edges": [[labels[u], labels[v]] for u, v in g.sorted_edges],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValidationError(f"unknown graph format {format!r}")


def parse_arrangement(text: str, doc: GraphDocument) -> Arrangement:
    """Parse "a,e,b,d,c"-style position order against a graph document."""
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    order = [doc.vertex_of(p) for p in parts]
    if len(order) != doc.graph.order or len(set(order)) != len(order):
        raise ValidationError(
            f"arrangement must list each of the {doc.graph.order} vertex labels exactly once"
        )
    return Arrangement.from_vertex_order(order)


def emit_arrangement(arr: Arrangement, labels: Iterable[str]) -> str:
    """The arrangement as its labels in position order, comma-separated."""
    return _emit_positions((arr.positions,), labels)[0]


def _emit_positions(arrangements: Iterable[tuple[int, ...]], labels: Iterable[str]) -> list[str]:
    """`emit_arrangement` of each arrangement, given as its position tuple
    (`Arrangement.positions`), in order.

    Each label is written straight into the slot of its vertex's position,
    one pass over the positions per arrangement, into one list reused
    across arrangements.
    """
    labels = _resolve_labels(labels)
    n = len(labels)
    line = [""] * n
    out = []
    for positions in arrangements:
        if len(positions) != n:
            raise ValidationError(f"got {n} labels for a graph of order {len(positions)}")
        for label, p in zip(labels, positions):
            line[p - 1] = label
        out.append(",".join(line))
    return out


def parse_edge_subset(text: str, doc: GraphDocument) -> list[tuple[int, int]]:
    """Parse an edge list like "a-b,b-c" against a graph document."""
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        ends = part.split("-")
        if len(ends) != 2:
            raise ParseError(f"edge {part!r} must be written as LABEL-LABEL")
        edges.append((doc.vertex_of(ends[0].strip()), doc.vertex_of(ends[1].strip())))
    return edges
