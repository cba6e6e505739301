from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_parse_edge_list
from linarr import (
    Arrangement,
    ParseError,
    UnknownLabelError,
    ValidationError,
    emit_arrangement,
    emit_graph,
    make_graph,
    parse_arrangement,
    parse_graph,
    pentagon_with_chord,
)
from linarr.graphio import _emit_positions, _parse_edge_list, parse_edge_subset

PENTAGON_TEXT = "a b\nb c\nc d\nd e\ne a\nb d\n"


def labeled_edges(doc):
    return {frozenset((doc.labels[u], doc.labels[v])) for u, v in doc.graph.edges}


class TestEdgeListParsing:
    def test_pentagon_text(self):
        doc = parse_graph(PENTAGON_TEXT)
        assert doc.labels == ("a", "b", "c", "d", "e")
        assert doc.graph == pentagon_with_chord()
        assert doc.format == "edge-list"

    def test_comments_and_blanks(self):
        doc = parse_graph("# header\n\na b  # trailing\n")
        assert doc.graph.size == 1

    def test_isolated_vertex_line(self):
        doc = parse_graph("a b\nc\n")
        assert doc.labels == ("a", "b", "c")
        assert doc.graph.order == 3
        assert doc.graph.size == 1

    def test_self_loop_is_parse_error_with_position(self):
        with pytest.raises(ParseError) as info:
            parse_graph("a b\na a\n")
        assert info.value.line == 2

    def test_too_many_tokens(self):
        with pytest.raises(ParseError) as info:
            parse_graph("a b c\n")
        assert info.value.line == 1
        assert info.value.column == 5

    def test_empty_text_is_empty_graph(self):
        assert parse_graph("").graph.order == 0

    # Labels, unreadable label characters, comments and whitespace, among it
    # \x1c-\x1e, which end a line, and \x1f, which separates tokens only.
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(
        ["a", "b", "cd", "é", "a,b", " ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
         "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "#", ",", "-", "{", "["]), max_size=24)
        .map("".join))
    def test_matches_reference_parser(self, text):
        try:
            want = reference_parse_edge_list(text)
        except (ParseError, ValidationError) as exc:
            with pytest.raises(type(exc)) as got:
                _parse_edge_list(text)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
            assert getattr(got.value, "column", None) == getattr(exc, "column", None)
        else:
            assert _parse_edge_list(text) == want


class TestJsonParsing:
    def test_single_vertex(self):
        doc = parse_graph('{"vertices": ["x"], "edges": []}')
        assert doc.graph.order == 1
        assert doc.labels == ("x",)
        assert doc.format == "json"

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            parse_graph('{"vertices": ["a", "b"], "edges": [["a", "z"]]}')

    def test_duplicate_labels(self):
        with pytest.raises(ParseError):
            parse_graph('{"vertices": ["a", "a"], "edges": []}')

    def test_malformed_json_has_position(self):
        with pytest.raises(ParseError) as info:
            parse_graph('{"vertices": [}')
        assert info.value.line is not None

    def test_integer_form(self):
        doc = parse_graph('{"order": 3, "edges": [[0, 1]]}')
        assert doc.labels == ("0", "1", "2")
        assert doc.graph == make_graph(3, [(0, 1)])

    def test_integer_form_out_of_range(self):
        with pytest.raises(UnknownLabelError):
            parse_graph('{"order": 2, "edges": [[0, 5]]}')

    def test_self_loop_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_graph('{"vertices": ["a"], "edges": [["a", "a"]]}')

    def test_boolean_order_is_parse_error(self):
        # bool is an int subclass; true must not pass as order 1.
        with pytest.raises(ParseError):
            parse_graph('{"order": true, "edges": []}')

    @pytest.mark.parametrize("edge", ["[true, 0]", "[1, false]"])
    def test_boolean_endpoint_is_parse_error(self, edge):
        with pytest.raises(ParseError):
            parse_graph('{"order": 2, "edges": [%s]}' % edge)

    def test_explicit_format_override(self):
        with pytest.raises(ParseError):
            parse_graph("a b\n", format="json")


class TestLabelRules:
    # A label with "," splits an emitted arrangement, one with "-" cannot be
    # named in an edge subset, and an empty or space-padded label comes back
    # stripped; so no parser accepts them.
    @pytest.mark.parametrize("text, label, column", [
        ("a b\nc a,b\n", "a,b", 3),
        ("a-b c\n", "a-b", 1),
        ("x\n-\n", "-", 1),
        ("x\n[a\n", "[a", 1),
    ])
    def test_edge_list_rejects_unreadable_label(self, text, label, column):
        with pytest.raises(ParseError, match=re.escape(repr(label))) as info:
            parse_graph(text)
        assert info.value.line == text.count("\n")
        assert info.value.column == column

    @pytest.mark.parametrize("label", ["a,b", "a-b", "", " a", "a\t", "a#b", "a b", "a\nb",
                                       "{a", "[a"])
    def test_json_rejects_unreadable_label(self, label):
        with pytest.raises(ParseError, match=re.escape(repr(label))):
            parse_graph(json.dumps({"vertices": [label, "c"], "edges": []}))

    # A "#" in an edge list starts a comment, whitespace splits tokens, and a
    # leading "{" or "[" makes auto-detection read the text as JSON.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text("ab_%,-#{[ \t", max_size=3), min_size=1, max_size=6, unique=True),
           st.data())
    def test_every_accepted_label_round_trips(self, labels, data):
        pairs = [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
        try:
            doc = parse_graph(json.dumps({"vertices": labels, "edges": edges}))
        except ParseError:
            return
        arr = Arrangement.from_vertex_order(data.draw(st.permutations(range(len(labels)))))
        assert parse_arrangement(emit_arrangement(arr, doc.labels), doc) == arr
        again = parse_graph(emit_graph(doc.graph, doc.labels, "json"), "json")
        assert again.labels == doc.labels and again.graph == doc.graph
        again = parse_graph(emit_graph(doc.graph, doc.labels, "edge-list"))
        assert sorted(again.labels) == sorted(doc.labels)
        assert labeled_edges(again) == labeled_edges(doc)


class TestRoundTrip:
    def test_edge_list_round_trip(self, pentagon):
        doc = parse_graph(PENTAGON_TEXT)
        again = parse_graph(emit_graph(doc.graph, doc.labels, "edge-list"))
        assert set(again.labels) == set(doc.labels)
        assert labeled_edges(again) == labeled_edges(doc)

    def test_json_round_trip_is_exact(self):
        doc = parse_graph(PENTAGON_TEXT)
        again = parse_graph(emit_graph(doc.graph, doc.labels, "json"))
        assert again.labels == doc.labels
        assert again.graph == doc.graph

    def test_isolated_vertices_survive(self):
        g = make_graph(3, [(0, 1)])
        for fmt in ("edge-list", "json"):
            again = parse_graph(emit_graph(g, ("x", "y", "z"), fmt))
            assert again.graph.order == 3
            assert set(again.labels) == {"x", "y", "z"}

    def test_label_count_must_match(self, pentagon):
        with pytest.raises(ValidationError):
            emit_graph(pentagon, ("a", "b"))

    @pytest.mark.parametrize("fmt", ["edge-list", "json"])
    def test_repeated_label_is_not_emitted(self, fmt):
        # The path a-b-a once came out as "a b\nb a\n", read back as one
        # edge on two vertices.
        with pytest.raises(ValidationError, match="vertex labels must be unique"):
            emit_graph(make_graph(3, [(0, 1), (1, 2)]), ("a", "b", "a"), fmt)

    def test_labels_from_any_iterable(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert emit_graph(g, iter("xyz")) == emit_graph(g, ("x", "y", "z"))

    @pytest.mark.parametrize("fmt", ["edge-list", "json"])
    def test_unreadable_label_is_not_emitted(self, fmt):
        # "{a c" would be read back as JSON.
        with pytest.raises(ParseError, match=re.escape("'{a'")):
            emit_graph(make_graph(2, [(0, 1)]), ("{a", "c"), fmt)


class TestArrangementText:
    def test_parse_position_order(self):
        doc = parse_graph(PENTAGON_TEXT)
        arr = parse_arrangement("a,e,b,d,c", doc)
        assert arr.positions == (1, 3, 5, 4, 2)
        assert emit_arrangement(arr, doc.labels) == "a,e,b,d,c"

    def test_round_trip_all_orders(self):
        doc = parse_graph("x y\ny z\n")
        for text in ("x,y,z", "z,x,y", "y,z,x"):
            assert emit_arrangement(parse_arrangement(text, doc), doc.labels) == text

    @pytest.mark.parametrize("labels", [("a", "b", "c", "d"), ("a", "b", "c", "d", "e", "f")])
    def test_label_count_must_match(self, labels):
        # Too few labels once raised IndexError; too many were ignored.
        arr = Arrangement.from_vertex_order([0, 4, 1, 3, 2])
        with pytest.raises(ValidationError,
                           match=rf"^got {len(labels)} labels for a graph of order 5$"):
            emit_arrangement(arr, labels)

    def test_labels_from_any_iterable(self):
        # An iterator has no len(): the labels are read once into a tuple.
        arr = Arrangement.from_vertex_order([1, 0])
        assert emit_arrangement(arr, iter(["a", "b"])) == "b,a"
        assert emit_arrangement(arr, (label for label in "ab")) == "b,a"
        assert _emit_positions([arr.positions, arr.positions], iter(["a", "b"])) == ["b,a", "b,a"]

    def test_repeated_label_is_refused(self):
        arr = Arrangement.from_vertex_order([0, 1, 2])
        with pytest.raises(ValidationError, match="vertex labels must be unique"):
            emit_arrangement(arr, ("a", "b", "a"))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.lists(st.text("abc_é0", min_size=1, max_size=3), min_size=n, max_size=n, unique=True),
        st.lists(st.permutations(range(n)), max_size=6))))
    def test_batch_matches_one_at_a_time(self, case):
        labels, orders = case
        arrs = [Arrangement.from_vertex_order(order) for order in orders]
        got = _emit_positions([arr.positions for arr in arrs], labels)
        assert got == [emit_arrangement(arr, labels) for arr in arrs]
        # The text read off the vertex order, position by position.
        assert got == [",".join(labels[v] for v in order) for order in orders]

    def test_batch_of_none_is_empty(self):
        assert _emit_positions([], ("a", "b")) == []
        assert _emit_positions(iter(()), ()) == []

    @pytest.mark.parametrize("labels", [("a", "b", "c", "d"), ("a", "b", "c", "d", "e", "f")])
    def test_batch_label_count_must_match(self, labels):
        # The second arrangement is the one that does not fit.
        arrs = [Arrangement.from_vertex_order(range(len(labels))),
                Arrangement.from_vertex_order([0, 4, 1, 3, 2])]
        with pytest.raises(ValidationError,
                           match=rf"^got {len(labels)} labels for a graph of order 5$"):
            _emit_positions([arr.positions for arr in arrs], labels)

    def test_unknown_label(self):
        doc = parse_graph(PENTAGON_TEXT)
        with pytest.raises(UnknownLabelError):
            parse_arrangement("a,e,b,d,x", doc)

    def test_incomplete_arrangement(self):
        doc = parse_graph(PENTAGON_TEXT)
        with pytest.raises(ValidationError):
            parse_arrangement("a,e,b", doc)

    def test_duplicate_label(self):
        doc = parse_graph(PENTAGON_TEXT)
        with pytest.raises(ValidationError):
            parse_arrangement("a,e,b,d,a", doc)


class TestEdgeSubsetText:
    def test_cycle_syntax(self):
        doc = parse_graph(PENTAGON_TEXT)
        edges = parse_edge_subset("a-b,b-c,c-d,d-e,e-a", doc)
        assert edges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]

    def test_bad_pair(self):
        doc = parse_graph(PENTAGON_TEXT)
        with pytest.raises(ParseError):
            parse_edge_subset("a-b-c", doc)
