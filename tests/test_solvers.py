from __future__ import annotations

import hashlib
import math
import random
import time
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings

from conftest import (
    arr_of,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graphs,
    letters_of,
    oracle_claims,
    oracle_crossing_free_set,
    oracle_is_outerplanar,
    oracle_minla,
    oracle_planar_minla,
    path_graph,
    reference_claims,
    simple_cycles,
    up_to_reversal,
)
from linarr import (
    Arrangement,
    Graph,
    ValidationError,
    check_dominating_edge_claims,
    compute_gap,
    cost,
    enumerate_connected_graphs,
    enumerate_connected_outerplanar_graphs,
    is_outerplanar,
    is_planar_arrangement,
    iter_crossing_free,
    make_graph,
    reverse,
    solve_minla_dp,
    solve_minla_exhaustive,
    solve_planar_minla,
)
from linarr.graph import _all_graph_reps, _twin_masks
from linarr.solvers import (
    MAX_ORDER_CLAIMS,
    MAX_ORDER_DP,
    MAX_WITNESSES,
    _batched_subset_tables,
    _crossing_free_search,
    _subset_tables,
)

# sha256 over the graphs of _all_graph_reps(7) of repr([a.positions for a in
# iter_crossing_free(g)]), taken before the search dropped dead prefixes.
ORDER7_STREAM_SHA256 = "a87b88d23fb3db32087b944382d12ebb04b4c368c1c3bc140b028bd2f9c6ab9b"

# sha256 over the 1,253 graphs of _all_graph_reps(k), k = 0..7, of
# repr([(r.optimal_cost, r.best.positions) for r in solve_minla_dp results]),
# taken while the witness was still found by fixing one vertex at a time.
DP_ORDER7_SHA256 = "d3e2b66f467cafb74a244c81bf182cd2e1eb7861f286cd73d6b3092c54448168"

# The same graphs, of repr([(r.optimal_cost, [w.positions for w in
# r.witnesses]) for solve_minla_exhaustive results]), taken while that
# solver still costed all n! arrangements.
EXHAUSTIVE_ORDER7_SHA256 = "3f4f99b8766846871117851f1949b3563a1a3135be5c2db8cdae0ec5c93d041f"

# sha256 over the graphs of _all_graph_reps(k), k = 0..7, of two records per
# solve_planar_minla result, repr(None) or repr((optimal_cost, explored,
# positions)): first with `positions` the list of every optimum, the
# witnesses and their mirrors sorted together, then with the witnesses
# alone, which are the optima up to reversal. The digest was taken while
# the solver had a mode that listed every optimum; the test rebuilds that
# list from the witnesses, so it pins that no optimum was lost when the
# mode was removed. Retaken when the search began to defer tied prefixes
# and to drop the larger half of each mirror pair itself, which lowered
# `explored`; the witnesses are pinned apart below. Retaken again when the
# search began to reach only the twin-sorted arrangements, which lowered
# `explored` on every class with a twin cell outside vertices 0 and 1; the
# witnesses digest below did not change. Retaken once more when the search
# began to break mirrors in both modes and the full list began to be built
# by adding each witness's mirror, which made `explored` the same for both
# records; again the witnesses digest did not change.
PLANAR_ORDER7_SHA256 = "18abf6a5464e181f3c804a6cc5e662c9666012092512215b6056edc06d39cfea"

# The same two records, repr(None) or repr((optimal_cost, positions)),
# without `explored`; taken while the search still expanded tied prefixes
# and the mirror pairs were collapsed after it.
PLANAR_WITNESSES_ORDER7_SHA256 = (
    "b4786812978ea418f0041e9dd61bc628b48ca01ce435ddf009294bc6d75e7ff3")

# Order-8 graphs whose searches push prefixes that no crossing-free
# arrangement extends and drop them only levels later, when no candidate
# fits the stack: all six connected ones do, and every prefix pushed for
# the K2,3 subdivision is such. That graph keeps the 4-cycle 0-2-1-3 and
# subdivides the path through 4. The last four have cut vertices, so the
# pocket rule must admit some vertices without a placed neighbour and drop
# others: pendants on a 4-cycle, two 4-cycles sharing vertex 3 with a
# pendant on it, a tree, and three components.
ORDER8_RULE_GRAPHS = {
    "C8-chords": cycle_graph(8).edges | {(0, 4), (1, 3)},
    "C5-3pendants": cycle_graph(5).edges | {(0, 5), (1, 6), (2, 7)},
    "K23-subdivision": [(0, 2), (2, 1), (0, 3), (3, 1), (0, 5), (5, 6), (6, 4), (4, 7), (7, 1)],
    "C4-4pendants": cycle_graph(4).edges | {(0, 4), (1, 5), (2, 6), (3, 7)},
    "two-blocks-pendant": [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3),
                           (3, 7)],
    "tree": [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6), (5, 7)],
    "C4+P3+K1": cycle_graph(4).edges | {(4, 5), (5, 6)},
}


class TestExhaustive:
    def test_pentagon_optimum(self, pentagon):
        result = solve_minla_exhaustive(pentagon)
        assert result.optimal_cost == 9
        assert arr_of("aebdc") in result.witnesses
        assert result.explored == 2 ** 5

    def test_matches_oracle_witnesses(self, pentagon):
        best, witnesses = oracle_minla(pentagon)
        result = solve_minla_exhaustive(pentagon)
        assert result.optimal_cost == best
        assert {b.positions for a in result.witnesses for b in (a, reverse(a))} == witnesses

    def test_single_edge(self):
        assert solve_minla_exhaustive(make_graph(2, [(0, 1)])).optimal_cost == 1

    def test_path_places_middle_vertex_in_middle(self):
        result = solve_minla_exhaustive(path_graph(3))
        assert result.optimal_cost == 2
        assert all(a.position(1) == 2 for a in result.witnesses)

    def test_reversal_dedup_halves_witnesses(self, pentagon):
        # Each optimum is listed up to reversal: half of them, each the
        # member of its mirror pair that precedes the other.
        result = solve_minla_exhaustive(pentagon)
        assert 2 * len(result.witnesses) == len(oracle_minla(pentagon)[1])
        for a in result.witnesses:
            assert a.positions < reverse(a).positions

    def test_witnesses_are_pinned_to_order_seven(self):
        # Every graph of order <= 7, disconnected ones included.
        results = [solve_minla_exhaustive(g) for k in range(8) for g in _all_graph_reps(k)]
        assert len(results) == 1253
        digest = hashlib.sha256(repr([(r.optimal_cost, [w.positions for w in r.witnesses])
                                      for r in results]).encode())
        assert digest.hexdigest() == EXHAUSTIVE_ORDER7_SHA256

    def test_cap_counts_exactly_the_witnesses(self, monkeypatch):
        # The count that the cap is checked against, before any witness is
        # built, is the number listed.
        listed = [(g, len(solve_minla_exhaustive(g).witnesses)) for g in _all_graph_reps(6)]
        for g, count in listed:
            monkeypatch.setattr("linarr.solvers.MAX_WITNESSES", count - 1)
            with pytest.raises(ValidationError, match=f"at most {count - 1:,} .* has {count:,};"):
                solve_minla_exhaustive(g)

    def test_nine_star_is_listed(self):
        # Every arrangement with the centre at position 5 or 6 is optimal:
        # 2 * 9! optima, 362,880 up to reversal, under MAX_WITNESSES.
        star = make_graph(10, [(0, i) for i in range(1, 10)])
        result = solve_minla_exhaustive(star)
        assert result.optimal_cost == 25
        assert len(result.witnesses) == 362880 <= MAX_WITNESSES
        assert result.best.positions == (5,) + tuple(range(1, 5)) + tuple(range(6, 11))
        assert result.witnesses[-1].positions == (5,) + tuple(range(10, 5, -1)) + (4, 3, 2, 1)


class TestSubsetDP:
    def test_pentagon(self, pentagon):
        result = solve_minla_dp(pentagon)
        assert result.optimal_cost == 9
        assert result.witnesses == (arr_of("aebdc"),)
        assert result.explored == 2 ** 5
        assert result.solver_id == "subset-dp"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_exhaustive_optimum_and_best(self, n):
        # The witness contract: the DP returns exactly the brute-force
        # oracle's lexicographically smallest optimum.
        for g in enumerate_connected_graphs(n):
            best, optima = oracle_minla(g)
            dp = solve_minla_dp(g)
            assert dp.optimal_cost == best
            assert dp.witnesses == (Arrangement(min(optima)),)

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_order=1, max_order=7))
    def test_matches_oracle(self, g):
        best, witnesses = oracle_minla(g)
        result = solve_minla_dp(g)
        assert result.optimal_cost == best
        assert result.best.positions == min(witnesses)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_closed_forms(self, n):
        # Beyond brute-force range: K_n, P_n and C_n have known optima.
        for g, expected in [(complete_graph(n), (n ** 3 - n) // 6),
                            (path_graph(n), n - 1),
                            (cycle_graph(n), 2 * (n - 1))]:
            result = solve_minla_dp(g)
            assert result.optimal_cost == expected
            assert cost(g, result.best) == expected
            assert result.explored == 2 ** n

    def test_witnesses_are_pinned_to_order_seven(self):
        # Every graph of order <= 7, disconnected ones included; the
        # oracle comparison above stops at connected order 6.
        results = [solve_minla_dp(g) for k in range(8) for g in _all_graph_reps(k)]
        assert len(results) == 1253
        digest = hashlib.sha256(
            repr([(r.optimal_cost, r.best.positions) for r in results]).encode())
        assert digest.hexdigest() == DP_ORDER7_SHA256


class TestBatchedTables:
    """The packed kernel of the gap search against the per-graph tables."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_outerplanar_class_in_chunks(self, n):
        gs = list(enumerate_connected_outerplanar_graphs(n))
        for at in range(0, len(gs), 300):
            chunk = gs[at:at + 300]
            assert list(_batched_subset_tables(chunk)) == [_subset_tables(g) for g in chunk]

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_dense_batches(self, n):
        # Complete graphs, whose lanes hold the largest values, next to
        # random graphs, a path and an edgeless graph of the same order.
        rng = random.Random(n)
        pairs = [(u, v) for v in range(n) for u in range(v)]
        batch = [complete_graph(n), make_graph(n), path_graph(n)]
        batch += [make_graph(n, [e for e in pairs if rng.random() < p])
                  for p in (0.3, 0.6, 0.9) for _ in range(2)]
        assert list(_batched_subset_tables(batch)) == [_subset_tables(g) for g in batch]

    def test_order_one_and_one_graph_batches(self):
        assert list(_batched_subset_tables([make_graph(1)])) == [([0, 0], [0, 0])]
        pentagon = cycle_graph(5)
        assert list(_batched_subset_tables([pentagon])) == [_subset_tables(pentagon)]


class UnreadableGraph(Graph):
    """A graph whose structure raises when read: every solver reads one of
    these views before it starts work, so a solver that skips its order
    check fails at once instead of running."""

    @property
    def sorted_edges(self):
        raise AssertionError("work before order check")

    neighbor_masks = sorted_edges


class TestOrderLimits:
    @pytest.mark.parametrize("solve, limit", [
        (solve_minla_exhaustive, MAX_ORDER_DP),
        (solve_minla_dp, MAX_ORDER_DP),
        (solve_planar_minla, MAX_ORDER_DP),
    ])
    def test_one_vertex_too_many_is_rejected_before_solving(self, solve, limit):
        with pytest.raises(ValidationError, match=f"order <= {limit}"):
            solve(UnreadableGraph(limit + 1))

    def test_claims_rejected_before_checking(self):
        with pytest.raises(ValidationError, match=f"order <= {MAX_ORDER_CLAIMS}"):
            check_dominating_edge_claims(UnreadableGraph(MAX_ORDER_CLAIMS + 1),
                                         [(0, 1), (1, 2), (2, 0)])

    def test_claims_accepted_at_the_limit(self):
        g = cycle_graph(MAX_ORDER_CLAIMS)
        assert check_dominating_edge_claims(g, g.edges).arrangement_count > 0

    def test_documented_limits(self):
        assert MAX_ORDER_CLAIMS == 10
        assert MAX_ORDER_DP <= 20


class TestPlanarSolver:
    def test_pentagon_planar_optimum(self, pentagon):
        result = solve_planar_minla(pentagon)
        assert result is not None
        assert result.optimal_cost == 10
        for a in result.witnesses:
            assert is_planar_arrangement(pentagon, a)
            assert cost(pentagon, a) == 10

    def test_k4_has_no_planar_arrangement(self):
        assert solve_planar_minla(complete_graph(4)) is None

    def test_triangle(self):
        result = solve_planar_minla(cycle_graph(3))
        assert result.optimal_cost == 4
        # Every arrangement of a triangle is crossing-free.
        assert sum(1 for _ in iter_crossing_free(cycle_graph(3))) == 6

    def test_matches_oracle(self, pentagon):
        # The connected classes are checked against the oracle in
        # TestSolverInvariants; these are labelled otherwise.
        graphs = [pentagon, path_graph(4), cycle_graph(5), complete_graph(4),
                  make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])]
        for g in graphs:
            best, witnesses = oracle_planar_minla(g)
            result = solve_planar_minla(g)
            if best is None:
                assert result is None
            else:
                assert result.optimal_cost == best
                assert {b.positions for a in result.witnesses
                        for b in (a, reverse(a))} == witnesses

    def test_dedup_matches_oracle(self, pentagon):
        # Orders 0-3 hold the edge cases of the mirror break: no vertex, a
        # single self-mirrored arrangement, and vertex 0 in the middle.
        graphs = [pentagon, path_graph(4), cycle_graph(5), complete_graph(4),
                  make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])]
        graphs += [g for n in range(7) for g in _all_graph_reps(n)]
        for g in graphs:
            best, witnesses = oracle_planar_minla(g)
            result = solve_planar_minla(g)
            if best is None:
                assert result is None
                continue
            mirror = (g.order + 1).__sub__
            expected = sorted({min(p, tuple(map(mirror, p))) for p in witnesses})
            assert result.optimal_cost == best
            assert [a.positions for a in result.witnesses] == expected

    def test_crossing_prefix_pruning_is_sound(self):
        # The pruned stream must equal the brute-force filter, disconnected
        # graphs included.
        graphs = [path_graph(4), cycle_graph(4), complete_graph(4),
                  make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])]
        graphs += [g for n in range(7) for g in _all_graph_reps(n)]
        for g in graphs:
            pruned = {a.positions for a in iter_crossing_free(g)}
            assert pruned == oracle_crossing_free_set(g)

    def test_stream_is_pinned_at_order_seven(self):
        # The brute-force oracle is too slow for all 1,044 graphs of order 7.
        digest = hashlib.sha256()
        for g in _all_graph_reps(7):
            digest.update(repr([a.positions for a in iter_crossing_free(g)]).encode())
        assert digest.hexdigest() == ORDER7_STREAM_SHA256

    @pytest.mark.parametrize("name", ORDER8_RULE_GRAPHS)
    def test_dead_prefix_rules_match_oracle_at_order_eight(self, name):
        g = make_graph(8, ORDER8_RULE_GRAPHS[name])
        assert {a.positions for a in iter_crossing_free(g)} == oracle_crossing_free_set(g)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_two_connected_graphs_have_2n_arrangements(self, n):
        # Lemma (i): in a crossing-free arrangement of a 2-connected graph,
        # consecutive positions, and the first and last, hold adjacent
        # vertices, so the arrangements are the 2n rotations and reflections
        # of its Hamiltonian cycle. networkx picks the 2-connected classes.
        nx = pytest.importorskip("networkx")
        blocks = 0
        for g in enumerate_connected_outerplanar_graphs(n):
            h = nx.Graph(list(g.edges))
            if not nx.is_biconnected(h):
                continue
            blocks += 1
            orders = [a.vertex_order() for a in iter_crossing_free(g)]
            assert len(orders) == 2 * n
            for order in orders:
                assert all(h.has_edge(u, v) for u, v in zip(order, order[1:] + order[:1]))
        # 110 classes in all.
        assert blocks == {3: 1, 4: 2, 5: 3, 6: 9, 7: 20, 8: 75}[n]

    def test_long_cycle_stream_is_fast(self):
        # The pocket rule keeps the search to prefixes that some arrangement
        # extends; without it the 16-cycle pushes 791,520 prefixes.
        start = time.perf_counter()
        assert sum(1 for _ in iter_crossing_free(cycle_graph(16))) == 32
        assert time.perf_counter() - start < 2.0

    def test_too_many_edges_for_outerplanar_builds_no_tables(self, monkeypatch):
        # The 6-wheel, with 12 edges on 7 vertices, is not outerplanar, so the
        # outerplanarity gate answers it with no crossing-free arrangement.
        wheel = make_graph(7, [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)])
        assert wheel.size == 12
        assert list(iter_crossing_free(wheel)) == []

        def no_tables(g):
            raise AssertionError("subset tables built for a non-outerplanar graph")

        monkeypatch.setattr("linarr.solvers._subset_tables", no_tables)
        assert solve_planar_minla(wheel) is None

    def test_non_outerplanar_gets_none_before_any_search(self, monkeypatch):
        # Only the outerplanarity gate keeps these graphs from the tables and
        # the prefix search, in the solver, the stream and the claim checker
        # alike. They are chosen by the minor oracle, not by the test the
        # gates use.
        gated = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)
                 if not oracle_is_outerplanar(g)]
        assert len(gated) == 756

        def refuse(*args, **kwargs):
            raise AssertionError("a non-outerplanar graph reached the crossing-free search")

        monkeypatch.setattr("linarr.solvers._subset_tables", refuse)
        monkeypatch.setattr("linarr.solvers._crossing_free_search", refuse)
        for g in gated:
            assert solve_planar_minla(g) is None
            assert list(iter_crossing_free(g)) == []
            report = check_dominating_edge_claims(g, simple_cycles(g)[0])
            assert report.arrangement_count == 0 and report.both_hold
        # K2,3 with 6 isolated vertices: an unpruned search of its prefixes
        # grows exponentially with the isolated vertices and yields nothing.
        k23 = complete_bipartite(2, 3)
        assert list(iter_crossing_free(make_graph(11, k23.edges))) == []

    def test_optima_are_pinned_to_order_seven(self):
        digest, witnesses_digest = hashlib.sha256(), hashlib.sha256()
        for k in range(8):
            for g in _all_graph_reps(k):
                r = solve_planar_minla(g)
                listed = full = None if r is None else [w.positions for w in r.witnesses]
                # Every optimum: from order 2 on no arrangement is its own
                # mirror, so the mirrors are the other half.
                if r is not None and k >= 2:
                    full = sorted(listed + [reverse(w).positions for w in r.witnesses])
                for positions in (full, listed):
                    digest.update(repr(None if r is None else (
                        r.optimal_cost, r.explored, positions)).encode())
                    witnesses_digest.update(repr(None if r is None else (
                        r.optimal_cost, positions)).encode())
        assert witnesses_digest.hexdigest() == PLANAR_WITNESSES_ORDER7_SHA256
        assert digest.hexdigest() == PLANAR_ORDER7_SHA256

    def test_nine_star_ties(self):
        # Every arrangement of a star is crossing-free; 8! = 40,320 optima
        # put the centre in the middle, 20,160 up to reversal. Leaves 2..8
        # form one twin cell, so the search reaches only arrangements that
        # place them in ascending order: the 4 optima up to reversal that
        # fix where leaf 1 goes, and 4 leaves beyond them, before it has the
        # optimum; 20,164 before the twin rule.
        star = make_graph(9, [(0, i) for i in range(1, 9)])
        result = solve_planar_minla(star)
        assert result.optimal_cost == 20
        assert result.explored == 8
        assert len(result.witnesses) == 20160
        positions = [w.positions for w in result.witnesses]
        assert all(a < b for a, b in zip(positions, positions[1:]))
        assert all(w.positions[0] == 5 for w in result.witnesses)

    def test_stream_is_lazy(self):
        # The 12-star has 12! crossing-free arrangements; an eager search
        # would not return.
        star = make_graph(12, [(0, i) for i in range(1, 12)])
        start = time.perf_counter()
        first = [a.vertex_order() for a in islice(iter_crossing_free(star), 3)]
        assert time.perf_counter() - start < 2.0
        assert first == [
            tuple(range(12)),
            tuple(range(10)) + (11, 10),
            tuple(range(9)) + (10, 9, 11),
        ]

    def test_order_zero_yields_one_empty_arrangement(self):
        assert list(iter_crossing_free(Graph(0))) == [Arrangement(())]

    def test_stream_ascends_by_vertex_order(self):
        # Claim witnesses are the first failures in stream order, so the
        # order is part of the contract.
        for n in range(7):
            for g in _all_graph_reps(n):
                orders = [a.vertex_order() for a in iter_crossing_free(g)]
                assert all(a < b for a, b in zip(orders, orders[1:]))


def _restricting_cells(g: Graph) -> list[int]:
    """The twin cells, vertices 0 and 1 left out, that restrict g's search."""
    return [c for c in set(m & ~3 for m in _twin_masks(g.neighbor_masks)) if c.bit_count() > 1]


def _assert_orbits_expand(g: Graph) -> None:
    """Given the twin cells and no cost-to-go table, the engine yields one
    twin-sorted arrangement per orbit of twin swaps and mirroring, the one
    that precedes its mirror, and the orbits make up the full stream."""
    n = g.order
    mirror = (n + 1).__sub__
    masks = _restricting_cells(g)
    cells = [[v for v in range(n) if c >> v & 1] for c in masks]
    expanded = []
    for _, p in _crossing_free_search(g, masks):
        assert all(p[u] < p[v] for c in cells for u, v in zip(c, c[1:]))
        q = tuple(map(mirror, p))
        assert p < q or n < 2
        for side in {p, q}:
            for perms in product(*(permutations([side[v] for v in c]) for c in cells)):
                r = list(side)
                for c, perm in zip(cells, perms):
                    for v, x in zip(c, perm):
                        r[v] = x
                expanded.append(tuple(r))
    assert len(expanded) == len(set(expanded))
    assert set(expanded) == {a.positions for a in iter_crossing_free(g)}


class TestReducedStream:
    def test_orbits_expand_to_the_full_stream(self):
        # Disconnected graphs included.
        for n in range(8):
            for g in _all_graph_reps(n):
                _assert_orbits_expand(g)

    @pytest.mark.parametrize("name", ORDER8_RULE_GRAPHS)
    def test_nesting_rule_keeps_every_orbit_at_order_eight(self, name):
        # The walk with cells and no cost-to-go applies the nesting rule;
        # these graphs push dead prefixes without it.
        _assert_orbits_expand(make_graph(8, ORDER8_RULE_GRAPHS[name]))


def _assert_matches(g: Graph, best: int, optima: set[tuple[int, ...]]) -> None:
    """solve_planar_minla lists exactly `optima` up to reversal, sorted."""
    mirror = (g.order + 1).__sub__
    result = solve_planar_minla(g)
    assert result.optimal_cost == best
    assert [a.positions for a in result.witnesses] == sorted(
        {min(p, tuple(map(mirror, p))) for p in optima})


# Twin-rich graphs of order 9-12: double stars, caterpillars, a binary
# tree, pendant twins on cycles and a windmill, whose triangles make
# adjacent twins. Some twin cells hold vertex 0 or 1, and some interleave
# in vertex index.
TWIN_RICH_GRAPHS = {
    "double star, interleaved leaves": (9, [(0, 1)] + [(i % 2, i) for i in range(2, 9)]),
    "double star, leaves 0 and 1": (9, [(7, 8)] + [(7, i) for i in range(3)]
                                    + [(8, i) for i in range(3, 7)]),
    "caterpillar": (10, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (2, 8),
                         (2, 9)]),
    "bintree10": (10, [((i - 1) // 2, i) for i in range(1, 10)]),
    "windmill": (9, [(0, i) for i in range(1, 9)] + [(1, 2), (3, 4), (5, 6), (7, 8)]),
    "square with pendants": (11, [(i, (i + 1) % 4) for i in range(4)]
                             + [(0, 4), (0, 5), (0, 6), (2, 7), (2, 8), (2, 9), (2, 10)]),
    "hexagon with pendant pairs": (12, [(i, (i + 1) % 6) for i in range(6)]
                                   + [(0, 6), (0, 7), (2, 8), (2, 9), (4, 10), (4, 11)]),
}


class TestTwinQuotient:
    def test_matches_oracle_to_order_seven(self):
        # The oracle uses no twin code. Only classes with a twin cell outside
        # vertices 0 and 1 reach the twin rule; the search of every other
        # class is unchanged, and PLANAR_WITNESSES_ORDER7_SHA256 pins its
        # witnesses.
        checked = 0
        for k in range(8):
            for g in _all_graph_reps(k):
                if not _restricting_cells(g) or not is_outerplanar(g):
                    continue
                best, optima = oracle_planar_minla(g)
                _assert_matches(g, best, optima)
                checked += 1
        assert checked == 201

    @pytest.mark.parametrize("name", TWIN_RICH_GRAPHS)
    def test_matches_stream_on_twin_rich_graphs(self, name):
        g = make_graph(*TWIN_RICH_GRAPHS[name])
        assert _restricting_cells(g)
        costed = [(cost(g, a), a.positions) for a in iter_crossing_free(g)]
        best = min(c for c, _ in costed)
        _assert_matches(g, best, {p for c, p in costed if c == best})

    @pytest.mark.parametrize("centre", [0, 4, 8])
    def test_star_optima_put_the_centre_in_the_middle(self, centre):
        # Every arrangement of a star is crossing-free, and the optima of
        # odd order put the centre in the middle. With centre 4 the twin
        # cell holds vertices 0 and 1, and with centre 8 the mirror break
        # reads two leaves.
        g = make_graph(9, [(centre, i) for i in range(9) if i != centre])
        leaves = [v for v in range(9) if v != centre]
        optima = set()
        for spots in permutations([1, 2, 3, 4, 6, 7, 8, 9]):
            p = [5] * 9
            for v, x in zip(leaves, spots):
                p[v] = x
            optima.add(tuple(p))
        _assert_matches(g, 20, optima)

    def test_ten_star_is_answered(self):
        # 2 * 9! optima, 362,880 up to reversal, under MAX_WITNESSES.
        star = make_graph(10, [(0, i) for i in range(1, 10)])
        result = solve_planar_minla(star)
        assert result.optimal_cost == 25
        assert result.explored == 13
        assert len(result.witnesses) == 362880 <= MAX_WITNESSES
        assert result.best.positions == (5,) + tuple(range(1, 5)) + tuple(range(6, 11))

    def test_witness_cap_is_checked_before_expansion(self, monkeypatch):
        # The 9-star's 20,160 optima up to reversal.
        star = make_graph(9, [(0, i) for i in range(1, 9)])

        def no_expansion(*args, **kwargs):
            raise AssertionError("the witnesses were expanded past the cap")

        monkeypatch.setattr("linarr.solvers.MAX_WITNESSES", 20160)
        assert len(solve_planar_minla(star).witnesses) == 20160
        monkeypatch.setattr("linarr.solvers.MAX_WITNESSES", 20159)
        monkeypatch.setattr("linarr.solvers._expand_orbits", no_expansion)
        with pytest.raises(ValidationError, match="at most 20,159 .* has 20,160"):
            solve_planar_minla(star)

    def test_gap_witness_is_the_smallest_optimum(self):
        # Also where compute_gap settles the class from the minLA witness
        # and never runs the crossing-free search.
        for n in range(1, 9):
            for g in enumerate_connected_outerplanar_graphs(n):
                report = compute_gap(g)
                planar = solve_planar_minla(g)
                assert report.planar_witness == planar.best
                assert report.planar_opt == planar.optimal_cost
                assert report.gap == planar.optimal_cost - report.minla_opt

    def test_gap_answers_the_twelve_star(self):
        # 2 * 11! crossing-free optima, far more than MAX_WITNESSES;
        # compute_gap never lists them.
        star = make_graph(12, [(0, i) for i in range(1, 12)])
        start = time.perf_counter()
        report = compute_gap(star)
        assert time.perf_counter() - start < 2.0
        assert report.gap == 0
        assert report.planar_opt == report.minla_opt == 36
        assert is_planar_arrangement(star, report.planar_witness)
        assert cost(star, report.planar_witness) == 36
        assert report.planar_witness.positions == (6,) + tuple(range(1, 6)) + tuple(range(7, 13))
        with pytest.raises(ValidationError, match="39,916,800"):
            solve_planar_minla(star)


class TestPlanarOptima:
    def test_pentagon_optima_up_to_reversal(self, pentagon):
        optima = solve_planar_minla(pentagon).witnesses
        assert {letters_of(a) for a in optima} == {"abcde", "aedcb", "eabcd"}

    def test_k2(self):
        optima = solve_planar_minla(make_graph(2, [(0, 1)])).witnesses
        assert optima == (Arrangement((1, 2)),)

    def test_c4_optima_are_nested_layouts(self):
        g = cycle_graph(4)
        optima = solve_planar_minla(g).witnesses
        assert len(optima) == 4
        for a in optima:
            spanning = [
                e for e in g.edges
                if {a.position(e[0]), a.position(e[1])} == {1, 4}
            ]
            assert len(spanning) == 1

    def test_k4_distinguished_outcome(self):
        assert solve_planar_minla(complete_graph(4)) is None


class TestSolverInvariants:
    @pytest.mark.parametrize("solve", [solve_minla_exhaustive, solve_minla_dp, solve_planar_minla],
                             ids=["exhaustive", "dp", "planar"])
    def test_order_zero_and_one(self, solve):
        # The one arrangement is its own mirror, so it is listed.
        for n in (0, 1):
            result = solve(make_graph(n))
            assert result.optimal_cost == 0
            assert result.witnesses == (Arrangement(tuple(range(1, n + 1))),)
            assert result.explored == (1 if solve is solve_planar_minla else 2 ** n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_witnesses_are_the_oracle_optima_up_to_reversal(self, n):
        # The witnesses are the oracle's optima that precede their mirrors,
        # sorted; `reverse` gives the others.
        for g in enumerate_connected_graphs(n):
            for (best, optima), result in [(oracle_minla(g), solve_minla_exhaustive(g)),
                                           (oracle_planar_minla(g), solve_planar_minla(g))]:
                if best is None:
                    assert result is None
                    continue
                assert result.optimal_cost == best
                assert [a.positions for a in result.witnesses] == up_to_reversal(optima)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sandwich_and_witness_validity(self, n):
        for g in enumerate_connected_graphs(n):
            minla = solve_minla_dp(g)
            planar = solve_planar_minla(g)
            if planar is not None:
                assert minla.optimal_cost <= planar.optimal_cost
                for a in planar.witnesses:
                    assert is_planar_arrangement(g, a)
                    assert cost(g, a) == planar.optimal_cost
            for a in minla.witnesses:
                assert cost(g, a) == minla.optimal_cost

    def test_reversal_closure(self, pentagon):
        for result in [solve_minla_exhaustive(pentagon), solve_planar_minla(pentagon)]:
            for a in result.witnesses:
                assert cost(pentagon, reverse(a)) == result.optimal_cost


def pendant_cycle(k: int, p: int) -> Graph:
    """C_k with p pendants, one on each cycle vertex in turn from vertex 0,
    as the benchmark's claims inputs build them."""
    return make_graph(k + p, cycle_graph(k).edges | {(i % k, k + i) for i in range(p)})


def _count_pulls(monkeypatch) -> list[list]:
    """Wrap the engine so that each call appends [its arguments, the number
    of leaves pulled from it] to the returned list."""
    pulls = []

    def counting(*args):
        pulls.append(record := [args, 0])
        for leaf in _crossing_free_search(*args):
            record[1] += 1
            yield leaf

    monkeypatch.setattr("linarr.solvers._crossing_free_search", counting)
    return pulls


class TestClaims:
    CYCLE = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]

    def test_pentagon_claims_hold(self, pentagon):
        report = check_dominating_edge_claims(pentagon, self.CYCLE)
        assert report.arrangement_count == 10
        assert report.claim1.holds
        assert report.claim2.holds
        assert report.both_hold

    def test_triangle_claims_hold(self):
        report = check_dominating_edge_claims(cycle_graph(3), cycle_graph(3).edges)
        assert report.arrangement_count == 6
        assert report.both_hold

    def test_non_cycle_rejected(self, pentagon):
        with pytest.raises(ValidationError):
            check_dominating_edge_claims(pentagon, [(0, 1), (1, 2)])

    def test_edge_outside_graph_rejected(self, pentagon):
        with pytest.raises(ValidationError):
            check_dominating_edge_claims(pentagon, [(0, 2), (2, 4), (4, 0)])

    def test_edge_that_is_not_a_pair_rejected(self, pentagon):
        with pytest.raises(ValidationError, match="not a pair of vertices"):
            check_dominating_edge_claims(pentagon, [(0, 1, 2)])

    @pytest.mark.parametrize("cycle", [5, None])
    def test_cycle_that_is_not_iterable_rejected(self, cycle):
        triangle = make_graph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValidationError,
                           match=r"^cycle edges must be an iterable of vertex pairs, got "):
            check_dominating_edge_claims(triangle, cycle)

    @pytest.mark.parametrize("cycle, message", [
        ([(0, 1), (1, 2), (2, 0)], "not an edge of the graph"),
        ([(0, 2), (2, 1)], "at least 3 edges"),
    ])
    def test_malformed_cycle_rejected_before_outerplanarity(self, cycle, message):
        # K2,3 is not outerplanar, yet its cycle is validated first.
        with pytest.raises(ValidationError, match=message):
            check_dominating_edge_claims(complete_bipartite(2, 3), cycle)

    def test_two_disjoint_triangles_rejected(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(ValidationError):
            check_dominating_edge_claims(g, g.edges)

    def test_failing_claims_carry_witnesses(self):
        # A square with a pendant vertex: the cycle edge spanning the square
        # cannot contain the pendant edge, so claim 1 fails somewhere.
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        report = check_dominating_edge_claims(g, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not report.claim1.holds
        assert report.claim1.witness_arrangement is not None
        assert report.claim1.witness_edge is not None
        assert not report.claim2.holds
        assert report.claim2.witness_arrangement is not None
        assert report.claim2.witness_edge is not None
        # The witness really does violate claim 1 in that arrangement.
        arr = report.claim1.witness_arrangement
        e = report.claim1.witness_edge
        lo, hi = sorted((arr.position(e[0]), arr.position(e[1])))
        assert hi - lo != 1
        others = [f for f in g.edges if f != e]
        assert not all(
            lo <= min(arr.position(f[0]), arr.position(f[1]))
            and max(arr.position(f[0]), arr.position(f[1])) <= hi
            for f in others
        )

    def test_matches_containment_oracle(self):
        # Disconnected graphs catch a hull taken over isolated vertices.
        pairs = 0
        for n in range(3, 7):
            for g in _all_graph_reps(n):
                if not is_outerplanar(g):
                    continue
                for cycle in simple_cycles(g):
                    pairs += 1
                    report = check_dominating_edge_claims(g, cycle)
                    count, claim1, claim2 = oracle_claims(g, cycle)
                    assert report.arrangement_count == count
                    for verdict, (holds, pos, edge) in [(report.claim1, claim1),
                                                        (report.claim2, claim2)]:
                        assert verdict.holds == holds
                        got = verdict.witness_arrangement
                        assert (None if got is None else got.positions) == pos
                        assert verdict.witness_edge == edge
        assert pairs == 205

    def test_matches_full_walk_to_order_seven(self):
        # Every outerplanar class of orders 3-7, disconnected ones included,
        # with every simple cycle.
        pairs = 0
        for n in range(3, 8):
            for g in _all_graph_reps(n):
                if not is_outerplanar(g):
                    continue
                for cycle in simple_cycles(g):
                    pairs += 1
                    assert check_dominating_edge_claims(g, cycle) == reference_claims(g, cycle)
        assert pairs == 1104

    @pytest.mark.parametrize("n", range(6, 11))
    def test_triangle_with_pendants(self, n):
        # A triangle with n - 3 pendants on one vertex has 2n(n - 2)!
        # crossing-free arrangements; the pendants form one twin cell.
        cycle = [(0, 1), (1, 2), (0, 2)]
        g = make_graph(n, cycle + [(2, v) for v in range(3, n)])
        report = check_dominating_edge_claims(g, cycle)
        assert report.arrangement_count == 2 * n * math.factorial(n - 2)
        assert not report.claim1.holds and not report.claim2.holds
        if n <= 9:
            assert report == reference_claims(g, cycle)

    def test_hamiltonian_input_pulls_one_leaf(self, monkeypatch):
        # Lemma (i) lists the 20 arrangements of C10 + {0, 5} from the first.
        g = make_graph(10, cycle_graph(10).edges | {(0, 5)})
        pulls = _count_pulls(monkeypatch)
        report = check_dominating_edge_claims(g, cycle_graph(10).edges)
        assert [count for _, count in pulls] == [1]
        assert report.arrangement_count == 20
        assert report == reference_claims(g, cycle_graph(10).edges)

    def test_pendant_cycle_pulls_every_leaf(self, monkeypatch):
        g = pendant_cycle(4, 5)
        pulls = _count_pulls(monkeypatch)
        check_dominating_edge_claims(g, cycle_graph(4).edges)
        (args, count), = pulls
        assert count == sum(1 for _ in _crossing_free_search(*args)) == 216

    @pytest.mark.parametrize("n, edges", [
        (4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),
    ])
    def test_matches_full_walk_under_every_labelling(self, n, edges):
        # With the pendant as vertex 0, the first arrangement walked is a
        # Hamiltonian path that lemma (i) does not apply to.
        for perm in permutations(range(n)):
            g = make_graph(n, [(perm[u], perm[v]) for u, v in edges])
            cycle = [(perm[u], perm[v]) for u, v in edges[:-1]]
            assert check_dominating_edge_claims(g, cycle) == reference_claims(g, cycle)

    def test_two_connected_classes_match_full_walk_at_order_eight(self):
        # Each with its Hamiltonian cycle, the one simple cycle through
        # every vertex; networkx picks the 2-connected classes.
        nx = pytest.importorskip("networkx")
        blocks = 0
        for g in enumerate_connected_outerplanar_graphs(8):
            if not nx.is_biconnected(nx.Graph(list(g.edges))):
                continue
            blocks += 1
            cycle, = (c for c in simple_cycles(g) if len(c) == 8)
            report = check_dominating_edge_claims(g, cycle)
            assert report.arrangement_count == 16
            assert report == reference_claims(g, cycle)
        assert blocks == 75

    @pytest.mark.parametrize("k, p, count", [(4, 5, 864), (5, 4, 288), (5, 5, 640),
                                             (6, 4, 320)])
    def test_pendant_cycles_match_full_walk(self, k, p, count):
        g = pendant_cycle(k, p)
        report = check_dominating_edge_claims(g, cycle_graph(k).edges)
        assert report.arrangement_count == count
        assert not report.claim1.holds and not report.claim2.holds
        assert report == reference_claims(g, cycle_graph(k).edges)

    def test_no_crossing_free_arrangement_holds_vacuously(self):
        report = check_dominating_edge_claims(complete_graph(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert report.arrangement_count == 0
        assert report.both_hold
