from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import arr_of, oracle_positions
from linarr import (
    Arrangement,
    ValidationError,
    cost,
    crosses,
    dominates,
    is_planar_arrangement,
    make_graph,
    reverse,
)


class TestArrangement:
    def test_from_vertex_order(self):
        arr = arr_of("aebdc")
        assert arr.positions == (1, 3, 5, 4, 2)
        assert arr.vertex_order() == (0, 4, 1, 3, 2)

    @given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_vertex_order_sorts_by_position(self, perm):
        positions = tuple(perm)
        expected = tuple(sorted(range(len(positions)), key=positions.__getitem__))
        assert Arrangement(positions).vertex_order() == expected

    def test_rejects_non_bijection(self):
        with pytest.raises(ValidationError):
            Arrangement((1, 1, 3))
        with pytest.raises(ValidationError):
            Arrangement((0, 1, 2))

    def test_rejects_non_integer_positions(self):
        # A float is not truncated and a numeric string is not parsed.
        for positions in [(1, 2.5), ("2", "1"), (1.0, 2.0)]:
            with pytest.raises(ValidationError, match="not a sequence of integers"):
                Arrangement(positions)
        with pytest.raises(ValidationError, match=r"^vertex 1\.5 is not an integer$"):
            Arrangement.from_vertex_order([0, 1.5])

    def test_rejects_vertex_order_that_is_not_a_sequence(self):
        with pytest.raises(ValidationError, match=r"^vertex order 5 is not a sequence$"):
            Arrangement.from_vertex_order(5)

    def test_trusted_and_validated_instances_agree(self):
        # The solvers build witnesses without the bijection check; those
        # must be indistinguishable from checked ones.
        for positions in [(), (1,), (2, 3, 1), (1, 3, 5, 4, 2)]:
            trusted = Arrangement._trusted(positions)
            checked = Arrangement(positions)
            assert trusted == checked and hash(trusted) == hash(checked)
            assert not trusted < checked and not checked < trusted
        mixed = [Arrangement._trusted((2, 1, 3)), Arrangement((1, 3, 2)),
                 Arrangement._trusted((1, 2, 3)), Arrangement((2, 1, 3))]
        assert [a.positions for a in sorted(mixed)] == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 1, 3)]
        assert len(set(mixed)) == 3

    def test_reverse_is_involution(self):
        arr = arr_of("aebdc")
        assert reverse(reverse(arr)) == arr
        assert reverse(arr).positions == (5, 3, 1, 2, 4)


class TestCost:
    def test_known_cost_table(self, pentagon):
        # The six pinned cost values for the pentagon-with-chord fixture.
        assert cost(pentagon, arr_of("aebdc")) == 9
        assert cost(pentagon, arr_of("aedcb")) == 10
        assert cost(pentagon, arr_of("baedc")) == 11
        assert cost(pentagon, arr_of("cbaed")) == 11
        assert cost(pentagon, arr_of("dcbae")) == 10
        assert cost(pentagon, arr_of("abcde")) == 10

    def test_edgeless_graph_costs_zero(self):
        g = make_graph(4, [])
        assert cost(g, Arrangement((3, 1, 4, 2))) == 0

    def test_arity_mismatch(self, pentagon):
        with pytest.raises(ValidationError):
            cost(pentagon, Arrangement((1, 2, 3)))

    def test_reverse_preserves_cost(self, pentagon):
        assert cost(pentagon, reverse(arr_of("aebdc"))) == 9


class TestCrosses:
    def test_interleaving_edges_cross(self):
        # In a,e,b,d,c the edges {a,b} (1,3) and {d,e} (2,4) interleave.
        arr = arr_of("aebdc")
        assert crosses(arr, (0, 1), (3, 4))
        assert crosses(arr, (3, 4), (0, 1))

    def test_shared_endpoint_never_crosses(self):
        for perm in permutations(range(4)):
            arr = Arrangement.from_vertex_order(perm)
            assert not crosses(arr, (0, 1), (1, 2))

    def test_nested_edges_do_not_cross(self):
        arr = arr_of("abcde")
        assert not crosses(arr, (0, 4), (1, 3))

    def test_same_edge_rejected(self):
        arr = arr_of("abcde")
        with pytest.raises(ValidationError):
            crosses(arr, (0, 1), (1, 0))


class TestPlanarArrangement:
    def test_crossing_free_layouts(self, pentagon):
        for letters in ["aedcb", "baedc", "cbaed", "dcbae", "abcde"]:
            assert is_planar_arrangement(pentagon, arr_of(letters))

    def test_crossing_layout(self, pentagon):
        assert not is_planar_arrangement(pentagon, arr_of("aebdc"))

    def test_single_edge_graph(self):
        g = make_graph(2, [(0, 1)])
        assert is_planar_arrangement(g, Arrangement((1, 2)))
        assert is_planar_arrangement(g, Arrangement((2, 1)))

    def test_reverse_preserves_planarity_exhaustively(self, pentagon):
        for pos in oracle_positions(5):
            arr = Arrangement(pos)
            assert is_planar_arrangement(pentagon, arr) == is_planar_arrangement(
                pentagon, reverse(arr)
            )


class TestDominates:
    def test_nested_with_shared_endpoint(self):
        # In a,e,d,c,b the chord {b,d} (3,5) nests inside {a,b} (1,5).
        arr = arr_of("aedcb")
        assert dominates(arr, (1, 3), (0, 1))
        assert not dominates(arr, (0, 1), (1, 3))

    def test_nested_strictly(self):
        arr = arr_of("abcde")
        assert dominates(arr, (1, 3), (0, 4))

    def test_same_edge_rejected(self):
        arr = arr_of("abcde")
        with pytest.raises(ValidationError):
            dominates(arr, (2, 1), (1, 2))

    def test_crossing_edges_do_not_dominate(self):
        arr = arr_of("aebdc")
        assert crosses(arr, (0, 1), (3, 4))
        assert not dominates(arr, (0, 1), (3, 4))
        assert not dominates(arr, (3, 4), (0, 1))
