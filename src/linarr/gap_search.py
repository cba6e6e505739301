"""Per-graph gap computation and the search for gap graphs.

The gap of a graph is its crossing-free optimum minus its unconstrained
optimum; graphs with no crossing-free arrangement carry no gap. A graph
has one iff it is outerplanar, so the search walks only the connected
outerplanar classes, order by order, and reports every graph whose gap
reaches a threshold. It runs in one process and solves each class only
when the consumer asks for its report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .arrangement import Arrangement
from .errors import ValidationError
from .graph import Graph, enumerate_connected_outerplanar_graphs
from .solvers import MAX_ORDER_SEARCH, _twin_sorted_optima, solve_minla_dp


@dataclass(frozen=True)
class GapReport:
    """Both optima of one graph, their difference, and one witness per variant.

    Each witness is the lexicographically smallest optimum of its variant.
    `planar_opt`, `gap` and `planar_witness` are None when the graph has no
    crossing-free arrangement.
    """

    graph: Graph
    minla_opt: int
    planar_opt: int | None
    gap: int | None
    minla_witness: Arrangement
    planar_witness: Arrangement | None
    outerplanar: bool


def compute_gap(g: Graph) -> GapReport:
    """Run both exact solvers on one graph.

    A graph has a crossing-free arrangement iff it is outerplanar (Bernhart
    & Kainen 1979), and the crossing-free solver answers None, after its
    linear-time outerplanarity test and before any search, exactly when it
    is not; so that answer is the report's `outerplanar` flag. The
    crossing-free optima are not listed: the smallest is the least
    twin-sorted one, so a graph with too many optima for
    `solve_planar_minla`, such as a 12-vertex star, is answered too.
    """
    minla = solve_minla_dp(g)
    planar = _twin_sorted_optima(g, dedup_reversals=True)
    outerplanar = planar is not None
    if planar is None:
        planar_opt = None
        gap = None
        planar_witness = None
    else:
        planar_opt, optima, _, _ = planar
        gap = planar_opt - minla.optimal_cost
        planar_witness = Arrangement._trusted(min(optima))
    return GapReport(
        graph=g,
        minla_opt=minla.optimal_cost,
        planar_opt=planar_opt,
        gap=gap,
        minla_witness=minla.best,
        planar_witness=planar_witness,
        outerplanar=outerplanar,
    )


def iter_gap_reports(max_order: int,
                     start: tuple[int, int] = (1, 0)) -> Iterator[tuple[int, int, GapReport]]:
    """Yield (order, class_index, report) for every connected outerplanar
    class up to max_order.

    Classes come from `enumerate_connected_outerplanar_graphs` and
    class_index counts within that stream, so every report has a
    crossing-free optimum; the other connected classes have no gap and are
    never built. Emission is incremental per class and deterministic: each
    class is solved only when its report is asked for, so a long run
    interrupted at (order, index) can be resumed by passing that pair as
    `start`. Orders above MAX_ORDER_SEARCH, and a start order below 1 or a
    negative start index, raise ValidationError before any enumeration. A
    start past max_order or past the last class of its order yields
    nothing for it.
    """
    if max_order < 1:
        raise ValidationError(f"max_order must be >= 1, got {max_order}")
    if max_order > MAX_ORDER_SEARCH:
        raise ValidationError(
            f"the gap search accepts max_order <= {MAX_ORDER_SEARCH}, got {max_order}"
        )
    start_order, start_index = start
    if start_order < 1 or start_index < 0:
        raise ValidationError(f"start must be (order >= 1, index >= 0), got {start}")
    for order in range(start_order, max_order + 1):
        first = start_index if order == start_order else 0
        for index, g in enumerate(enumerate_connected_outerplanar_graphs(order)):
            if index >= first:
                yield order, index, compute_gap(g)


def search_gap_graphs(max_order: int, min_gap: int) -> list[GapReport]:
    """All connected graphs up to max_order whose gap is defined and >= min_gap."""
    if min_gap < 1:
        raise ValidationError(f"min_gap must be a positive integer, got {min_gap}")
    return [
        report
        for _, _, report in iter_gap_reports(max_order)
        if report.gap is not None and report.gap >= min_gap
    ]
