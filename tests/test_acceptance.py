"""Acceptance suite: the binding checks for this package, one test per
criterion. Run with `pytest tests/test_acceptance.py -v` for a pass/fail
line per criterion. All checks are exact (integer equalities)."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from conftest import (
    arr_of,
    arrangement_and_edge_pair,
    graph_and_arrangement,
    labeled_graphs,
    letters_of,
    oracle_is_outerplanar,
    oracle_minla,
)
from linarr import (
    are_isomorphic,
    check_dominating_edge_claims,
    compute_gap,
    cost,
    crosses,
    dominates,
    emit_graph,
    enumerate_connected_graphs,
    enumerate_planar_optima,
    is_outerplanar,
    is_planar_arrangement,
    iter_crossing_free,
    parse_graph,
    pentagon_with_chord,
    reverse,
    search_gap_graphs,
    solve_minla_dp,
    solve_minla_exhaustive,
    solve_planar_minla,
)

CYCLE_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))

thousand_cases = settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_c1_cost_table(pentagon):
    """Criterion 1: the six known cost values reproduce exactly."""
    assert cost(pentagon, arr_of("aebdc")) == 9
    expected = {"aedcb": 10, "baedc": 11, "cbaed": 11, "dcbae": 10, "abcde": 10}
    for letters, value in expected.items():
        assert cost(pentagon, arr_of(letters)) == value
        assert is_planar_arrangement(pentagon, arr_of(letters))


def test_c2_gap_between_the_two_optima(pentagon):
    """Criterion 2: crossing-free optimum 10, unconstrained optimum 9, gap 1."""
    planar = solve_planar_minla(pentagon)
    assert planar is not None and planar.optimal_cost == 10
    assert solve_minla_exhaustive(pentagon).optimal_cost == 9
    assert solve_minla_dp(pentagon).optimal_cost == 9
    assert planar.optimal_cost > 9
    assert compute_gap(pentagon).gap == 1
    # Independent confirmation that 9 is the true optimum over all 120.
    assert oracle_minla(pentagon)[0] == 9


def test_c3_crossing_free_structure_and_optima(pentagon):
    """Criterion 3: every crossing-free arrangement has one spanning cycle
    edge and adjacent remaining cycle edges; the optima are the known
    cost-10 layouts up to reversal."""
    count = 0
    for arr in iter_crossing_free(pentagon):
        count += 1
        spanning = []
        for u, v in CYCLE_EDGES:
            lo, hi = sorted((arr.position(u), arr.position(v)))
            if (lo, hi) == (1, 5):
                spanning.append((u, v))
            else:
                assert hi - lo == 1
        assert len(spanning) == 1
    assert count > 0
    optima = enumerate_planar_optima(pentagon)
    assert {letters_of(a) for a in optima} == {"abcde", "aedcb", "eabcd"}
    assert {letters_of(reverse(a)) for a in optima} == {"edcba", "bcdea", "dcbae"}


def test_c4_dominating_edge_claims(pentagon):
    """Criterion 4: both structural claims hold over every crossing-free
    arrangement of the pentagon-with-chord."""
    report = check_dominating_edge_claims(pentagon, CYCLE_EDGES)
    assert report.claim1.holds
    assert report.claim2.holds
    assert report.arrangement_count == 10


def test_c5_subset_dp_equals_exhaustive_up_to_order_6():
    """Criterion 5: the subset DP and the exhaustive solver agree on the
    optimum and on the smallest optimal arrangement of every connected
    class, n <= 6."""
    expected_counts = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for n, expected in expected_counts.items():
        graphs = list(enumerate_connected_graphs(n))
        assert len(graphs) == expected
        for g in graphs:
            exhaustive = solve_minla_exhaustive(g)
            dp = solve_minla_dp(g)
            assert dp.optimal_cost == exhaustive.optimal_cost
            assert dp.best == exhaustive.best


def test_c6_book_embedding_equivalence_up_to_order_6():
    """Criterion 6: a crossing-free arrangement exists iff the forbidden-minor
    test says outerplanar, for every connected class with n <= 6. The solver
    answers a non-outerplanar graph from `is_outerplanar` itself, so the
    search's own verdict, from the first item of its stream, is checked
    against the minor oracle too."""
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert (solve_planar_minla(g) is not None) == is_outerplanar(g)
            assert (next(iter_crossing_free(g), None) is not None) == oracle_is_outerplanar(g)


def test_c7_search_reproduces_the_example():
    """Criterion 7: the order-5 search finds the pentagon-with-chord and
    every emitted report re-verifies."""
    reports = search_gap_graphs(5, 1)
    assert any(are_isomorphic(r.graph, pentagon_with_chord()) for r in reports)
    for r in reports:
        assert r.gap is not None and r.gap >= 1
        again = compute_gap(r.graph)
        assert (again.minla_opt, again.planar_opt, again.gap) == (
            r.minla_opt, r.planar_opt, r.gap,
        )
        assert cost(r.graph, r.minla_witness) == r.minla_opt
        assert cost(r.graph, r.planar_witness) == r.planar_opt
        assert is_planar_arrangement(r.graph, r.planar_witness)


@thousand_cases
@given(graph_and_arrangement())
def test_c8a_cost_is_reversal_invariant(data):
    """Criterion 8: cost(g, arr) == cost(g, reverse(arr))."""
    g, arr = data
    assert cost(g, arr) == cost(g, reverse(arr))


@thousand_cases
@given(arrangement_and_edge_pair())
def test_c8b_crossing_and_domination_exclude_each_other(data):
    """Criterion 8: no ordered pair of distinct edges both crosses and dominates."""
    arr, e1, e2 = data
    assert not (crosses(arr, e1, e2) and dominates(arr, e1, e2))
    assert not (crosses(arr, e1, e2) and dominates(arr, e2, e1))


@thousand_cases
@given(arrangement_and_edge_pair())
def test_c8c_shared_endpoint_edges_never_cross(data):
    arr, e1, e2 = data
    if set(e1) & set(e2):
        assert not crosses(arr, e1, e2)


@thousand_cases
@given(graph_and_arrangement())
def test_c8d_cost_at_least_edge_count(data):
    g, arr = data
    assert cost(g, arr) >= g.size


@thousand_cases
@given(labeled_graphs())
def test_c8e_round_trip_parsing(data):
    """Criterion 8: parse(emit(g)) is isomorphic and label-identical, both formats."""
    g, labels = data
    expected = {frozenset((labels[u], labels[v])) for u, v in g.edges}
    for fmt in ("edge-list", "json"):
        doc = parse_graph(emit_graph(g, labels, fmt), format=fmt)
        assert set(doc.labels) == set(labels)
        assert {frozenset((doc.labels[u], doc.labels[v])) for u, v in doc.graph.edges} == expected
        assert are_isomorphic(doc.graph, g)
