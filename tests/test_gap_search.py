from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import complete_bipartite, complete_graph, cycle_graph, oracle_is_outerplanar
from linarr import (
    ValidationError,
    are_isomorphic,
    compute_gap,
    cost,
    enumerate_connected_graphs,
    enumerate_connected_outerplanar_graphs,
    is_planar_arrangement,
    iter_gap_reports,
    make_graph,
    pentagon_with_chord,
    search_gap_graphs,
)
import linarr.gap_search
from linarr.solvers import MAX_ORDER_SEARCH, solve_minla_dp

DIAMOND = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestComputeGap:
    def test_pentagon(self, pentagon):
        report = compute_gap(pentagon)
        assert report.minla_opt == 9
        assert report.planar_opt == 10
        assert report.gap == 1
        assert report.outerplanar

    def test_triangle_has_no_gap(self):
        report = compute_gap(cycle_graph(3))
        assert report.gap == 0
        assert report.minla_opt == report.planar_opt == 4

    @pytest.fixture
    def table_builds(self, monkeypatch):
        built = []
        build = linarr.gap_search._subset_tables

        def counted(g):
            built.append(g)
            return build(g)

        monkeypatch.setattr(linarr.gap_search, "_subset_tables", counted)
        return built

    def test_subset_tables_built_once(self, table_builds):
        # Both solvers run on an outerplanar graph and share one table build.
        compute_gap(cycle_graph(14))
        assert len(table_builds) == 1

    def test_subset_tables_built_once_when_the_search_runs(self, pentagon, table_builds):
        # The pentagon with a chord has a gap, so the crossing-free search
        # runs after the minLA solve and reuses its tables.
        assert compute_gap(pentagon).gap == 1
        assert len(table_builds) == 1

    def test_search_runs_only_when_the_minla_witness_crosses(self, monkeypatch):
        # A class whose smallest minLA optimum has no crossing is settled
        # with gap 0 from that witness; every other class is searched.
        searched = []
        search = linarr.gap_search._twin_sorted_optima

        def counted(g, ahead):
            searched.append(g)
            return search(g, ahead)

        monkeypatch.setattr(linarr.gap_search, "_twin_sorted_optima", counted)
        entries = list(iter_gap_reports(7))
        crossing = [r.graph for _, _, r in entries
                    if not is_planar_arrangement(r.graph, solve_minla_dp(r.graph).best)]
        assert searched == crossing
        settled = [0] * 7
        for order, _, report in entries:
            if report.graph not in crossing:
                assert report.gap == 0 and report.outerplanar
                assert report.planar_witness == report.minla_witness
                settled[order - 1] += 1
        assert settled == [1, 1, 2, 4, 8, 22, 60]
        assert len(searched) == 142
        # compute_gap, with the one-graph tables, gives the same reports.
        assert [compute_gap(r.graph) for _, _, r in entries] == [r for _, _, r in entries]

    def test_gap_zero_with_a_crossing_minla_witness(self):
        # The 4-cycle 1-3-2-4 with a pendant 0 on 4: its smallest minLA
        # optimum crosses, so the search runs and finds the same cost with
        # another witness.
        g = make_graph(5, [(0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
        report = compute_gap(g)
        assert report.minla_opt == 7
        assert report.minla_witness.positions == (1, 3, 4, 5, 2)
        assert not is_planar_arrangement(g, report.minla_witness)
        assert report.planar_opt == 7 and report.gap == 0
        assert report.planar_witness.positions == (1, 3, 5, 4, 2)
        assert is_planar_arrangement(g, report.planar_witness)

    def test_k4_has_no_planar_optimum(self):
        report = compute_gap(complete_graph(4))
        assert report.planar_opt is None
        assert report.gap is None
        assert report.planar_witness is None
        assert not report.outerplanar

    def test_planar_solver_runs_only_on_outerplanar_graphs(self, monkeypatch):
        # K4 and K2,3 are not outerplanar, so the solver's outerplanarity
        # gate answers them before the search starts.
        def no_call(*args, **kwargs):
            raise AssertionError("crossing-free search of a non-outerplanar graph")

        monkeypatch.setattr("linarr.solvers._crossing_free_search", no_call)
        for g in [complete_graph(4), complete_bipartite(2, 3)]:
            report = compute_gap(g)
            assert not report.outerplanar
            assert report.planar_opt is None and report.gap is None

    def test_witnesses_reverify(self, pentagon):
        for g in [pentagon, DIAMOND, cycle_graph(4)]:
            report = compute_gap(g)
            assert cost(g, report.minla_witness) == report.minla_opt
            assert cost(g, report.planar_witness) == report.planar_opt
            assert is_planar_arrangement(g, report.planar_witness)

    def test_squared_path_gap(self):
        # The squared path P_n², with edges i-(i+1) and i-(i+2), is maximal
        # outerplanar, and its gap grows quadratically in n.
        for n in range(4, 18):
            g = make_graph(n, [(i, i + d) for d in (1, 2) for i in range(n - d)])
            report = compute_gap(g)
            assert report.minla_opt == 3 * n - 5, n
            assert report.gap == (n - 2) ** 2 // 4, n


class TestSearch:
    def test_order_three_finds_nothing(self):
        assert search_gap_graphs(3, 1) == []

    def test_order_four_finds_the_diamond(self):
        hits = search_gap_graphs(4, 1)
        assert len(hits) == 1
        assert are_isomorphic(hits[0].graph, DIAMOND)
        assert hits[0].gap == 1

    def test_order_five_contains_pentagon_with_chord(self):
        hits = search_gap_graphs(5, 1)
        assert any(are_isomorphic(r.graph, pentagon_with_chord()) for r in hits)

    def test_reports_reverify(self):
        for report in search_gap_graphs(5, 1):
            again = compute_gap(report.graph)
            assert again.minla_opt == report.minla_opt
            assert again.planar_opt == report.planar_opt
            assert again.gap == report.gap
            assert report.gap is not None and report.gap >= 1

    def test_monotone_containment(self):
        smaller = search_gap_graphs(4, 1)
        larger = search_gap_graphs(5, 1)
        for r in smaller:
            assert any(are_isomorphic(r.graph, s.graph) for s in larger)

    def test_min_gap_filter(self):
        assert all(r.gap >= 2 for r in search_gap_graphs(5, 2))
        assert len(search_gap_graphs(5, 2)) < len(search_gap_graphs(5, 1))

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            search_gap_graphs(0, 1)
        with pytest.raises(ValidationError):
            search_gap_graphs(4, 0)

    def test_order_limit_checked_before_enumeration(self, monkeypatch):
        def no_enumeration(order):
            raise AssertionError("enumeration before order check")

        monkeypatch.setattr("linarr.gap_search.enumerate_connected_outerplanar_graphs",
                            no_enumeration)
        with pytest.raises(ValidationError, match=f"max_order <= {MAX_ORDER_SEARCH}"):
            search_gap_graphs(MAX_ORDER_SEARCH + 1, 1)
        with pytest.raises(ValidationError, match=f"max_order <= {MAX_ORDER_SEARCH}"):
            next(iter_gap_reports(MAX_ORDER_SEARCH + 1))

    @pytest.mark.parametrize("max_order, min_gap", [(3.5, 1), ("3", 1), (3, 1.5)],
                             ids=["float-order", "string-order", "float-gap"])
    def test_non_integer_parameters_rejected_before_enumeration(self, monkeypatch, max_order,
                                                                min_gap):
        def no_enumeration(order):
            raise AssertionError("enumeration before the parameter check")

        monkeypatch.setattr("linarr.gap_search.enumerate_connected_outerplanar_graphs",
                            no_enumeration)
        with pytest.raises(ValidationError, match="must be an integer"):
            search_gap_graphs(max_order, min_gap)
        if min_gap == 1:
            with pytest.raises(ValidationError, match="must be an integer"):
                next(iter_gap_reports(max_order))

    def test_documented_limit(self):
        assert MAX_ORDER_SEARCH == 9


class TestIterReports:
    def test_indices_follow_enumeration(self):
        # Order 4 has six connected classes; K4 is not outerplanar, so the
        # stream and the indices hold five.
        entries = list(iter_gap_reports(4))
        assert [(o, i) for o, i, _ in entries] == [
            (1, 0), (2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2), (4, 3), (4, 4)]
        for order, index, report in entries:
            assert report.graph == list(enumerate_connected_outerplanar_graphs(order))[index]
            assert report.outerplanar and report.planar_opt is not None

    def test_resume_matches_full_run(self):
        full = [(o, i, r.graph) for o, i, r in iter_gap_reports(5)]
        for start in [(4, 2), (5, 7)]:
            resumed = [(o, i, r.graph) for o, i, r in iter_gap_reports(5, start=start)]
            assert resumed == [e for e in full if (e[0], e[1]) >= start]

    @pytest.mark.parametrize("start", [(3, -1), (0, 3), (-2, 0), (1.5, 0), (1, 0.5), (1,), 4],
                             ids=["negative-index", "order-zero", "negative-order",
                                  "float-order", "float-index", "one-part", "not-a-pair"])
    def test_bad_start_rejected_before_enumeration(self, monkeypatch, start):
        def no_enumeration(order):
            raise AssertionError("enumeration before start check")

        monkeypatch.setattr("linarr.gap_search.enumerate_connected_outerplanar_graphs",
                            no_enumeration)
        with pytest.raises(ValidationError, match="start"):
            next(iter_gap_reports(4, start=start))

    def test_start_past_the_end_yields_nothing(self):
        assert list(iter_gap_reports(3, start=(4, 0))) == []
        order_four = list(iter_gap_reports(4, start=(4, 0)))
        for index in (2, 99):  # order 3 has two classes
            assert list(iter_gap_reports(3, start=(3, index))) == []
            assert list(iter_gap_reports(4, start=(3, index))) == order_four

    def test_each_class_is_solved_when_asked_for(self, monkeypatch):
        calls, tabled = [], []
        solve = linarr.gap_search._gap_report
        build = linarr.gap_search._batched_subset_tables

        def counted(g, cut, ahead):
            calls.append(g)
            return solve(g, cut, ahead)

        def kernel(graphs):
            tabled.extend(graphs)
            return build(graphs)

        monkeypatch.setattr(linarr.gap_search, "_gap_report", counted)
        monkeypatch.setattr(linarr.gap_search, "_batched_subset_tables", kernel)
        reports = iter_gap_reports(4, start=(4, 2))
        order, index, report = next(reports)
        assert (order, index) == (4, 2)
        assert calls == [report.graph]
        # No class before the start is tabled.
        assert tabled == list(enumerate_connected_outerplanar_graphs(4))[2:]

    def test_resume_in_small_chunks_matches_full_run(self, monkeypatch):
        # With chunks of 3 classes, starts at a chunk boundary of the
        # uninterrupted run, one before it and one after it: each resumed
        # run starts a chunk at its start and equals the tail of the
        # uninterrupted run in every report field.
        whole = list(iter_gap_reports(7))
        monkeypatch.setattr(linarr.gap_search, "_CHUNK", 3)
        full = list(iter_gap_reports(7))
        assert full == whole and len(full) == 240
        build = linarr.gap_search._batched_subset_tables
        for start in [(7, 0), (7, 2), (7, 3), (7, 4), (7, 170), (7, 171), (6, 44), (6, 45)]:
            first = []

            def kernel(graphs):
                first.append(list(graphs))
                return build(graphs)

            monkeypatch.setattr(linarr.gap_search, "_batched_subset_tables", kernel)
            resumed = list(iter_gap_reports(7, start=start))
            assert resumed == [e for e in full if (e[0], e[1]) >= start], start
            order, index = start
            assert first[0] == [r.graph for o, i, r in full
                                if o == order and index <= i < index + 3], start

    @pytest.mark.parametrize("raw", ["2", "two", "1.5", "", "0", "-3"])
    def test_threads_variable_is_ignored(self, monkeypatch, raw):
        monkeypatch.delenv("LINARR_THREADS", raising=False)
        unset = list(iter_gap_reports(4))
        monkeypatch.setenv("LINARR_THREADS", raw)
        assert list(iter_gap_reports(4)) == unset


def test_import_loads_no_process_machinery():
    src = str(Path(linarr.__file__).resolve().parent.parent)
    code = ("import sys, linarr; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestBookEmbeddingEquivalence:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_planar_opt_exists_iff_outerplanar(self, n):
        # Over every connected class, not only the search's outerplanar
        # stream, so classes without a crossing-free arrangement are seen.
        for g in enumerate_connected_graphs(n):
            report = compute_gap(g)
            assert (report.planar_opt is not None) == oracle_is_outerplanar(g)
