from __future__ import annotations

import os

import pytest

from conftest import complete_bipartite, complete_graph, cycle_graph
from linarr import (
    ValidationError,
    are_isomorphic,
    compute_gap,
    cost,
    is_planar_arrangement,
    iter_gap_reports,
    make_graph,
    pentagon_with_chord,
    search_gap_graphs,
)
import linarr.gap_search
from linarr.gap_search import _thread_count
from linarr.solvers import MAX_ORDER_SEARCH, _subset_tables

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

    def test_subset_tables_built_once(self):
        # Both solvers run on an outerplanar graph and share one table build.
        _subset_tables.cache_clear()
        compute_gap(cycle_graph(14))
        assert _subset_tables.cache_info().misses == 1

    def test_k4_has_no_planar_optimum(self):
        report = compute_gap(complete_graph(4))
        assert report.planar_opt is None
        assert report.gap is None
        assert report.planar_witness is None
        assert not report.outerplanar

    def test_planar_solver_runs_only_on_outerplanar_graphs(self, monkeypatch):
        # K2,3 passes the engine's edge-count rule, so only the
        # outerplanarity gate keeps the solver from searching it.
        def no_call(*args, **kwargs):
            raise AssertionError("crossing-free solve of a non-outerplanar graph")

        monkeypatch.setattr(linarr.gap_search, "solve_planar_minla", no_call)
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

        monkeypatch.setattr("linarr.gap_search.enumerate_connected_graphs", no_enumeration)
        with pytest.raises(ValidationError, match=f"max_order <= {MAX_ORDER_SEARCH}"):
            search_gap_graphs(MAX_ORDER_SEARCH + 1, 1)
        with pytest.raises(ValidationError, match=f"max_order <= {MAX_ORDER_SEARCH}"):
            next(iter_gap_reports(MAX_ORDER_SEARCH + 1))

    def test_documented_limit(self):
        assert MAX_ORDER_SEARCH == 8


class TestIterReports:
    def test_indices_follow_enumeration(self):
        entries = list(iter_gap_reports(3))
        assert [(o, i) for o, i, _ in entries] == [(1, 0), (2, 0), (3, 0), (3, 1)]

    def test_resume_matches_full_run(self):
        full = [(o, i, r.graph) for o, i, r in iter_gap_reports(4)]
        resumed = [(o, i, r.graph) for o, i, r in iter_gap_reports(4, start=(4, 2))]
        assert resumed == [e for e in full if (e[0], e[1]) >= (4, 2)]

    def test_parallel_matches_serial(self, monkeypatch):
        serial = [r.graph for _, _, r in iter_gap_reports(4)]
        monkeypatch.setenv("LINARR_THREADS", "2")
        parallel = [r.graph for _, _, r in iter_gap_reports(4)]
        assert parallel == serial

    def test_one_pool_serves_every_order(self, monkeypatch):
        # A stand-in executor that runs in-process, so no pool is started.
        built = []

        class FakeExecutor:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        serial = list(iter_gap_reports(4))
        monkeypatch.setattr("linarr.gap_search.ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("LINARR_THREADS", "2")
        assert list(iter_gap_reports(4)) == serial
        assert built == [2]


class TestThreadCount:
    # Only the parsing is exercised; no pool is started.
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("LINARR_THREADS", raising=False)
        assert _thread_count() == 1

    @pytest.mark.parametrize("raw", ["two", "1.5", "", "0", "-3"])
    def test_invalid_values_are_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("LINARR_THREADS", raw)
        with pytest.raises(ValidationError, match="LINARR_THREADS"):
            _thread_count()

    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("LINARR_THREADS", "64")
        assert _thread_count() == 3
        monkeypatch.setenv("LINARR_THREADS", "2")
        assert _thread_count() == 2

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setenv("LINARR_THREADS", "4")
        assert _thread_count() == 1


class TestBookEmbeddingEquivalence:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_planar_opt_exists_iff_outerplanar(self, n):
        for _, _, report in iter_gap_reports(n):
            assert (report.planar_opt is not None) == report.outerplanar
