from __future__ import annotations

import pytest

from conftest import arr_of
from linarr import Arrangement, ValidationError, emit_arc_diagram, make_graph

LABELS = ("a", "b", "c", "d", "e")

# Golden output, generated once and pinned.
PENTAGON_DOT = """\
graph arrangement {
  layout=neato
  splines=curved
  node [shape=circle fixedsize=true width=0.4]
  "a" [pos="0,0!"]
  "e" [pos="1,0!"]
  "b" [pos="2,0!"]
  "d" [pos="3,0!"]
  "c" [pos="4,0!"]
  "a" -- "e"
  "a" -- "b"
  "e" -- "d"
  "b" -- "d"
  "b" -- "c"
  "d" -- "c"
}
"""

K2_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="120" height="88" viewBox="0 0 120 88">
  <path d="M 30 46 Q 60 -2 90 46" fill="none" stroke="black"/>
  <circle cx="30" cy="46" r="12" fill="white" stroke="black"/>
  <text x="30" y="50" text-anchor="middle" font-size="12">0</text>
  <circle cx="90" cy="46" r="12" fill="white" stroke="black"/>
  <text x="90" y="50" text-anchor="middle" font-size="12">1</text>
</svg>
"""

# A triangle whose labels hold TeX specials. DOT and SVG output are pinned
# as they were before TikZ labels were escaped.
SPECIAL_LABELS = ("a_1", "b%", "{$&#^~}\\")
SPECIAL_ARR = Arrangement((2, 1, 3))

SPECIAL_DOT = """\
graph arrangement {
  layout=neato
  splines=curved
  node [shape=circle fixedsize=true width=0.4]
  "b%" [pos="0,0!"]
  "a_1" [pos="1,0!"]
  "{$&#^~}\\\\" [pos="2,0!"]
  "b%" -- "a_1"
  "b%" -- "{$&#^~}\\\\"
  "a_1" -- "{$&#^~}\\\\"
}
"""

SPECIAL_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="180" height="112" viewBox="0 0 180 112">
  <path d="M 30 70 Q 60 22 90 70" fill="none" stroke="black"/>
  <path d="M 30 70 Q 90 -26 150 70" fill="none" stroke="black"/>
  <path d="M 90 70 Q 120 22 150 70" fill="none" stroke="black"/>
  <circle cx="30" cy="70" r="12" fill="white" stroke="black"/>
  <text x="30" y="74" text-anchor="middle" font-size="12">b%</text>
  <circle cx="90" cy="70" r="12" fill="white" stroke="black"/>
  <text x="90" y="74" text-anchor="middle" font-size="12">a_1</text>
  <circle cx="150" cy="70" r="12" fill="white" stroke="black"/>
  <text x="150" y="74" text-anchor="middle" font-size="12">{$&amp;#^~}\\</text>
</svg>
"""


def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


class TestDot:
    def test_pentagon_golden(self, pentagon):
        out = emit_arc_diagram(pentagon, arr_of("aebdc"), "dot", LABELS)
        assert out == PENTAGON_DOT

    def test_nodes_listed_in_spine_order(self, pentagon):
        out = emit_arc_diagram(pentagon, arr_of("aebdc"), "dot", LABELS)
        node_lines = [l for l in out.splitlines() if "pos=" in l]
        assert [l.split('"')[1] for l in node_lines] == ["a", "e", "b", "d", "c"]

    def test_undirected_graph_statement(self, pentagon):
        out = emit_arc_diagram(pentagon, arr_of("abcde"), "dot", LABELS)
        assert out.startswith("graph ")
        assert "digraph" not in out
        assert "->" not in out

    def test_tex_specials_golden(self):
        assert emit_arc_diagram(triangle(), SPECIAL_ARR, "dot", SPECIAL_LABELS) == SPECIAL_DOT


class TestSvg:
    def test_k2_golden(self):
        g = make_graph(2, [(0, 1)])
        assert emit_arc_diagram(g, Arrangement((1, 2)), "svg") == K2_SVG

    def test_tex_specials_golden(self):
        assert emit_arc_diagram(triangle(), SPECIAL_ARR, "svg", SPECIAL_LABELS) == SPECIAL_SVG

    def test_one_arc_per_edge(self, pentagon):
        out = emit_arc_diagram(pentagon, arr_of("abcde"), "svg", LABELS)
        assert out.count("<path") == pentagon.size
        assert out.count("<circle") == pentagon.order

    def test_arc_height_proportional_to_span(self, pentagon):
        # Wider arcs rise higher, so nesting renders as nesting.
        out = emit_arc_diagram(pentagon, arr_of("abcde"), "svg", LABELS)
        for line in out.splitlines():
            if "<path" not in line:
                continue
            toks = line.split()
            x1, base, ctrl_y, x2 = int(toks[2]), int(toks[3]), int(toks[6]), int(toks[7])
            span = (x2 - x1) // 60
            assert span >= 1
            assert base - ctrl_y == 48 * span


class TestTikz:
    def test_structure(self, pentagon):
        out = emit_arc_diagram(pentagon, arr_of("aebdc"), "tikz", LABELS)
        assert out.startswith(r"\begin{tikzpicture}")
        assert out.rstrip().endswith(r"\end{tikzpicture}")
        assert out.count(r"\node") == 5
        assert out.count(r"\draw") == 6

    def test_tex_specials_are_escaped(self):
        # Raw, "_" breaks outside math mode and "%" comments out the "};".
        out = emit_arc_diagram(triangle(), SPECIAL_ARR, "tikz", SPECIAL_LABELS)
        nodes = [line for line in out.splitlines() if r"\node" in line]
        assert nodes == [
            r"  \node (p1) at (0,0) {b\%};",
            r"  \node (p2) at (1,0) {a\_1};",
            r"  \node (p3) at (2,0) {\{\$\&\#\^{}\textasciitilde{}\}\textbackslash{}};",
        ]


class TestContract:
    def test_byte_identical_across_runs(self, pentagon):
        first = emit_arc_diagram(pentagon, arr_of("aebdc"), "svg", LABELS)
        second = emit_arc_diagram(pentagon, arr_of("aebdc"), "svg", LABELS)
        assert first == second

    def test_unknown_format_rejected(self, pentagon):
        with pytest.raises(ValidationError):
            emit_arc_diagram(pentagon, arr_of("abcde"), "png", LABELS)

    def test_arity_mismatch_rejected(self, pentagon):
        with pytest.raises(ValidationError):
            emit_arc_diagram(pentagon, Arrangement((1, 2)), "dot", LABELS)

    @pytest.mark.parametrize("fmt", ["dot", "tikz", "svg"])
    def test_repeated_label_rejected(self, fmt):
        # DOT names nodes by label: the path a-a-b once came out with the
        # arc "a" -- "a", and Graphviz drew two vertices as one.
        path = make_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValidationError, match="vertex labels must be unique"):
            emit_arc_diagram(path, arr_of("abc"), fmt, ("a", "a", "b"))

    def test_label_count_must_match(self, pentagon):
        with pytest.raises(ValidationError, match="^got 4 labels for a graph of order 5$"):
            emit_arc_diagram(pentagon, arr_of("abcde"), "dot", LABELS[:4])

    def test_labels_from_any_iterable(self, pentagon):
        assert (emit_arc_diagram(pentagon, arr_of("aebdc"), "dot", iter(LABELS))
                == emit_arc_diagram(pentagon, arr_of("aebdc"), "dot", LABELS))
