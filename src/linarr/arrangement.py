"""Linear arrangements and the predicates defined on them.

An arrangement places the vertices of a graph on positions 1..n, one vertex
per position. The cost of an arrangement is the total edge length, an edge's
length being the absolute position difference of its endpoints. Two edges
cross when their position intervals properly interleave; an edge dominates
another when the other's closed interval contains its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError
from .graph import Edge, Graph, normalize_edge


# Bound once: `_trusted` runs once per witness, up to MAX_PLANAR_WITNESSES
# times in one solve.
_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, order=True)
class Arrangement:
    """A bijection vertex -> position; positions[v] is the 1-based position of v."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            positions = tuple(map(index, self.positions))
        except TypeError:
            raise ValidationError(
                f"positions {self.positions!r} are not a sequence of integers") from None
        _set(self, "positions", positions)
        n = len(self.positions)
        if sorted(self.positions) != list(range(1, n + 1)):
            raise ValidationError(
                f"positions {self.positions} are not a bijection onto 1..{n}"
            )

    @classmethod
    def _trusted(cls, positions: tuple[int, ...]) -> Arrangement:
        """Wrap a tuple of ints already known to be a bijection onto 1..n,
        skipping the check; the solvers build their witnesses this way."""
        arr = _new(cls)
        _set(arr, "positions", positions)
        return arr

    @classmethod
    def from_vertex_order(cls, order: Sequence[int]) -> Arrangement:
        """Build from the sequence of vertices read left to right."""
        try:
            n = len(order)
        except TypeError:
            raise ValidationError(f"vertex order {order!r} is not a sequence") from None
        positions = [0] * n
        for i, v in enumerate(order):
            try:
                v = index(v)
            except TypeError:
                raise ValidationError(f"vertex {v!r} is not an integer") from None
            if not 0 <= v < n:
                raise ValidationError(f"vertex {v} out of range for order {n}")
            positions[v] = i + 1
        return cls(tuple(positions))

    def __len__(self) -> int:
        return len(self.positions)

    def position(self, v: int) -> int:
        return self.positions[v]

    def vertex_order(self) -> tuple[int, ...]:
        """Vertices sorted by position, i.e. read left to right."""
        order = [0] * len(self.positions)
        for v, p in enumerate(self.positions):
            order[p - 1] = v
        return tuple(order)

    def reverse(self) -> Arrangement:
        n = len(self.positions)
        return Arrangement(tuple(n + 1 - p for p in self.positions))


def reverse(arr: Arrangement) -> Arrangement:
    """Mirror the arrangement: position p becomes n+1-p."""
    return arr.reverse()


def _span(pos: Sequence[int], e: Edge) -> tuple[int, int]:
    """The position interval (lo, hi) of edge e under the positions `pos`."""
    pu, pv = pos[e[0]], pos[e[1]]
    return (pu, pv) if pu < pv else (pv, pu)


def _distinct_spans(arr: Arrangement, e1: Iterable[int], e2: Iterable[int],
                    relation: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """The spans of two given edges, checked to be distinct edges that have
    positions in arr; `relation` names the predicate in the error."""
    a = normalize_edge(e1)
    b = normalize_edge(e2)
    if a == b:
        raise ValidationError(f"{relation} is only defined for distinct edges, got {a} twice")
    n = len(arr)
    for u, v in (a, b):
        if v >= n or u < 0:
            raise ValidationError(f"edge ({u}, {v}) has no position in an arrangement of {n}")
    return _span(arr.positions, a), _span(arr.positions, b)


def _check_arity(g: Graph, arr: Arrangement) -> None:
    if g.order != len(arr):
        raise ValidationError(
            f"arrangement of length {len(arr)} does not fit a graph of order {g.order}"
        )


def cost(g: Graph, arr: Arrangement) -> int:
    """Total edge length: sum over edges {u, v} of |pos(u) - pos(v)|."""
    _check_arity(g, arr)
    pos = arr.positions
    return sum(abs(pos[u] - pos[v]) for u, v in g.edges)


def crosses(arr: Arrangement, e1: Iterable[int], e2: Iterable[int]) -> bool:
    """True iff the position intervals of two distinct edges properly interleave.

    Edges sharing an endpoint never cross; nested or disjoint intervals do
    not cross either.
    """
    (lo1, hi1), (lo2, hi2) = _distinct_spans(arr, e1, e2, "crossing")
    return lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1


def dominates(arr: Arrangement, e1: Iterable[int], e2: Iterable[int]) -> bool:
    """True iff e2's closed position interval contains e1's (and e1 != e2).

    The dominated edge e2 is the wider one; endpoints may coincide in
    position with e1's.
    """
    (lo1, hi1), (lo2, hi2) = _distinct_spans(arr, e1, e2, "domination")
    return lo2 <= lo1 and hi1 <= hi2


def _iter_crossings(g: Graph, arr: Arrangement) -> Iterator[tuple[Edge, Edge]]:
    """Yield each crossing pair of g's edges in arr, in sorted edge order."""
    _check_arity(g, arr)
    pos = arr.positions
    spans = [(e, _span(pos, e)) for e in g.sorted_edges]
    for (e1, (lo1, hi1)), (e2, (lo2, hi2)) in combinations(spans, 2):
        if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
            yield e1, e2


def is_planar_arrangement(g: Graph, arr: Arrangement) -> bool:
    """True iff no two distinct edges of g cross in arr (pairwise check)."""
    return next(_iter_crossings(g, arr), None) is None
