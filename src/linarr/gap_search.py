"""Per-graph gap computation and the search for gap graphs.

The gap of a graph is its crossing-free optimum minus its unconstrained
optimum; graphs with no crossing-free arrangement carry no gap. A graph
has one iff it is outerplanar, so the search walks only the connected
outerplanar classes, order by order, and reports every graph whose gap
reaches a threshold. It runs in one process. The subset DP's tables are
built for a chunk of classes at a time in one packed pass, and each class
is solved only when the consumer asks for its report, with its tables
handed to both solves. The minLA solve comes first; a class whose
smallest minLA optimum has no crossing has gap 0 and is settled from that
witness, and only the other classes run the crossing-free optimum search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import index
from typing import Iterable, Iterator, Sequence

from .arrangement import Arrangement, is_planar_arrangement
from .errors import ValidationError
from .graph import Graph, enumerate_connected_outerplanar_graphs, is_outerplanar
from .solvers import (
    MAX_ORDER_DP,
    MAX_ORDER_SEARCH,
    SOLVER_DP,
    SolveResult,
    _batched_subset_tables,
    _check_order,
    _minla_dp,
    _subset_tables,
    _twin_sorted_optima,
)

# Classes whose subset tables are built in one packed pass. Larger chunks
# amortise the interpreted steps over more lanes but hold more tables at
# once: at order 9 a chunk of 512 peaks at about 2 MB of packed tables.
_CHUNK = 512


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

    The subset DP's tables are built once and serve both solves. A graph
    that is not outerplanar has no crossing-free arrangement, so after the
    linear-time outerplanarity test only the minLA solve runs; every other
    graph gets the same report as in the gap search (`_gap_report`).
    """
    _check_order(g, MAX_ORDER_DP, SOLVER_DP)
    cut, ahead = _subset_tables(g)
    if is_outerplanar(g):
        return _gap_report(g, cut, ahead)
    return _make_report(g, _minla_dp(g, cut, ahead))


def _make_report(g: Graph, minla: SolveResult, planar_opt: int | None = None,
                 planar_witness: Arrangement | None = None) -> GapReport:
    """Every GapReport, from g's minLA result and its crossing-free optimum
    and witness; these are None iff g is not outerplanar, and so has no gap."""
    gap = None if planar_opt is None else planar_opt - minla.optimal_cost
    return GapReport(graph=g, minla_opt=minla.optimal_cost, planar_opt=planar_opt, gap=gap,
                     minla_witness=minla.best, planar_witness=planar_witness,
                     outerplanar=planar_opt is not None)


def _gap_report(g: Graph, cut: Sequence[int], ahead: Sequence[int]) -> GapReport:
    """The report of an outerplanar graph, from its subset tables.

    The subset DP runs first. Its witness w is the smallest minLA optimum,
    and when w has no crossing the crossing-free search is skipped: w
    answers both variants, with gap 0. This is exact:
    - minla_opt <= planar_opt <= cost(w) = minla_opt.
    - So the crossing-free optima are exactly the minLA optima with no
      crossing, and w is the smallest of them. That is also what the
      search returns, the least twin-sorted optimum that precedes its
      mirror.

    Otherwise the crossing-free optimum search runs. The crossing-free
    optima are not listed: the smallest is the least twin-sorted one, so a
    graph with too many optima for `solve_planar_minla`, such as a
    12-vertex star, is answered too.
    """
    minla = _minla_dp(g, cut, ahead)
    if is_planar_arrangement(g, minla.best):
        return _make_report(g, minla, minla.optimal_cost, minla.best)
    planar_opt, optima, _, _ = _twin_sorted_optima(g, ahead)
    return _make_report(g, minla, planar_opt, Arrangement._trusted(min(optima)))


def _reports(graphs: Iterable[Graph]) -> Iterator[GapReport]:
    """`_gap_report` of each of a stream of outerplanar graphs of one order.

    The subset tables are built _CHUNK graphs at a time in one packed pass
    (`_batched_subset_tables`), and each graph is solved only when its
    report is asked for.
    """
    graphs = iter(graphs)
    while chunk := list(islice(graphs, _CHUNK)):
        for g, (cut, ahead) in zip(chunk, _batched_subset_tables(chunk)):
            yield _gap_report(g, cut, ahead)


def iter_gap_reports(max_order: int,
                     start: tuple[int, int] = (1, 0)) -> Iterator[tuple[int, int, GapReport]]:
    """Yield (order, class_index, report) for every connected outerplanar
    class up to max_order.

    Classes come from `enumerate_connected_outerplanar_graphs` and
    class_index counts within that stream, so every report has a
    crossing-free optimum; the other connected classes have no gap and are
    never built. Emission is deterministic and incremental: the subset
    tables are built for up to _CHUNK classes at a time, and each class is
    solved only when its report is asked for. A long run interrupted at
    (order, index) can be resumed by passing that pair as `start`: a chunk
    then begins at that class, and no class before it is tabled or solved.
    Orders above MAX_ORDER_SEARCH, a start order below 1 or a negative
    start index, and a max_order or start that is not an integer or a pair
    of integers (`operator.index`), raise ValidationError before any
    enumeration. A start past max_order or past the last class of its
    order yields nothing for it.
    """
    try:
        max_order = index(max_order)
    except TypeError:
        raise ValidationError(f"max_order must be an integer, got {max_order!r}") from None
    try:
        start_order, start_index = map(index, start)
    except (TypeError, ValueError):
        raise ValidationError(
            f"start must be a pair of integers (order, index), got {start!r}") from None
    if max_order < 1:
        raise ValidationError(f"max_order must be >= 1, got {max_order}")
    if max_order > MAX_ORDER_SEARCH:
        raise ValidationError(
            f"the gap search accepts max_order <= {MAX_ORDER_SEARCH}, got {max_order}"
        )
    if start_order < 1 or start_index < 0:
        raise ValidationError(f"start must be (order >= 1, index >= 0), got {start}")
    for order in range(start_order, max_order + 1):
        first = start_index if order == start_order else 0
        classes = islice(enumerate_connected_outerplanar_graphs(order), first, None)
        for class_index, report in enumerate(_reports(classes), first):
            yield order, class_index, report


def search_gap_graphs(max_order: int, min_gap: int) -> list[GapReport]:
    """All connected graphs up to max_order whose gap is defined and >= min_gap."""
    try:
        min_gap = index(min_gap)
    except TypeError:
        raise ValidationError(f"min_gap must be an integer, got {min_gap!r}") from None
    if min_gap < 1:
        raise ValidationError(f"min_gap must be a positive integer, got {min_gap}")
    return [
        report
        for _, _, report in iter_gap_reports(max_order)
        if report.gap is not None and report.gap >= min_gap
    ]
