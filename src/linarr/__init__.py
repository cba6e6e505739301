"""Exact toolkit for minimum linear arrangements and their crossing-free
variant on small graphs."""

from .arrangement import Arrangement, cost, crosses, dominates, is_planar_arrangement, reverse
from .errors import ParseError, UnknownLabelError, ValidationError
from .gap_search import GapReport, compute_gap, iter_gap_reports, search_gap_graphs
from .graph import (
    Graph,
    are_isomorphic,
    canonical_form,
    enumerate_connected_graphs,
    enumerate_connected_outerplanar_graphs,
    is_connected,
    is_outerplanar,
    make_graph,
    pentagon_with_chord,
)
from .graphio import (
    GraphDocument,
    emit_arrangement,
    emit_graph,
    parse_arrangement,
    parse_graph,
)
from .render import emit_arc_diagram
from .solvers import (
    ClaimReport,
    ClaimVerdict,
    SolveResult,
    check_dominating_edge_claims,
    iter_crossing_free,
    solve_minla_dp,
    solve_minla_exhaustive,
    solve_planar_minla,
)
from .cli import run_cli

__all__ = [
    "Arrangement",
    "ClaimReport",
    "ClaimVerdict",
    "GapReport",
    "Graph",
    "GraphDocument",
    "ParseError",
    "SolveResult",
    "UnknownLabelError",
    "ValidationError",
    "are_isomorphic",
    "canonical_form",
    "check_dominating_edge_claims",
    "compute_gap",
    "cost",
    "crosses",
    "dominates",
    "emit_arc_diagram",
    "emit_arrangement",
    "emit_graph",
    "enumerate_connected_graphs",
    "enumerate_connected_outerplanar_graphs",
    "is_connected",
    "is_outerplanar",
    "is_planar_arrangement",
    "iter_crossing_free",
    "iter_gap_reports",
    "make_graph",
    "parse_arrangement",
    "parse_graph",
    "pentagon_with_chord",
    "reverse",
    "run_cli",
    "search_gap_graphs",
    "solve_minla_dp",
    "solve_minla_exhaustive",
    "solve_planar_minla",
]
