from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

import linarr
import linarr.cli as cli
from conftest import connected_outerplanar
from linarr import (
    Arrangement,
    emit_arc_diagram,
    emit_arrangement,
    emit_graph,
    enumerate_connected_graphs,
    enumerate_connected_outerplanar_graphs,
    parse_arrangement,
    parse_graph,
    run_cli,
    solve_minla_exhaustive,
    solve_planar_minla,
)
from linarr.solvers import (
    MAX_ORDER_CLAIMS,
    MAX_ORDER_DP,
    MAX_ORDER_SEARCH,
    MAX_WITNESSES,
)

PENTAGON_TEXT = "a b\nb c\nc d\nd e\ne a\nb d\n"

# Golden machine-readable report, generated once and pinned.
PENTAGON_GAP_JSON = """\
{
  "command": "gap",
  "gap": 1,
  "minla_opt": 9,
  "minla_witness": "a,e,b,d,c",
  "outerplanar": true,
  "planar_opt": 10,
  "planar_witness": "a,b,c,d,e"
}
"""

# Golden crossing-free report: it pins `explored` and every witness, not
# only the optimum.
PENTAGON_PLANAR_JSON = """\
{
  "command": "planar-minla",
  "explored": 3,
  "optimal_cost": 10,
  "planar_arrangement_exists": true,
  "witness": "a,b,c,d,e",
  "witnesses": [
    "a,b,c,d,e",
    "a,e,d,c,b",
    "e,a,b,c,d"
  ]
}
"""

# sha256 of `linarr search --max-order 7 --json` stdout, the whole gap
# pipeline end to end, taken while the minLA witness was still found by
# fixing one vertex at a time.
SEARCH_ORDER7_SHA256 = "634fae84de553c025fd182bc175664f7a317ad7b664b72aa2b6ced9cbbc509fd"
# The same for `--max-order 8` (579 gap graphs), taken while the gap search
# still collected each order's classes before solving them.
SEARCH_ORDER8_SHA256 = "49f3f8f498973ee6a0702fabff9a39bf802dfe9a74689e748bb79a4f43515c15"

# A star with centre a and leaves b..i: 20,160 crossing-free optima up to
# reversal, every one emitted as a witness.
STAR9_TEXT = "".join(f"a {leaf}\n" for leaf in "bcdefghi")
STAR10_TEXT = "".join(f"a {leaf}\n" for leaf in "bcdefghij")
STAR12_TEXT = "".join(f"a {leaf}\n" for leaf in "bcdefghijkl")
# sha256 of `linarr planar-minla <star> --json` stdout. Retaken when the
# search began to defer tied prefixes and to break mirror symmetry itself:
# the output differs from the one before only in "explored", 86520 -> 20164.
# Retaken again when the search began to place twins in ascending order
# only and the witnesses were expanded from those: the output differs from
# the one before only in "explored", 20164 -> 8.
STAR9_PLANAR_SHA256 = "335ffede8b9e3989b3bb7cc7a50ce1cf8dd2fe7ed2e01e885b743ddea6f00f8c"
# C10 a..j with the chords a-f and g-j: outerplanar and twin-free, so the
# search reaches every optimum itself and none is expanded from twin swaps.
C10_CHORDS_TEXT = "".join(f"{u} {v}\n" for u, v in zip("abcdefghij", "bcdefghija")) + "a f\ng j\n"
# A 7-cycle a..g with the chord a-d: 16 optima up to reversal.
C7_CHORD_TEXT = "a b\nb c\nc d\nd e\ne f\nf g\ng a\na d\n"
# sha256 of `linarr planar-minla <C10 with chords> --json` and of `linarr
# minla <C7 with chord> --solver exhaustive --json` stdout, taken while each
# witness was still emitted through its own `Arrangement.vertex_order()`.
# The second was taken while the exhaustive solver costed all n!
# arrangements, with "explored": 5040; C7_CHORD_EXHAUSTIVE_SHA256 was
# retaken when it began to list the subset DP's tight paths, and the
# output differs from the one before only in "explored", 5040 -> 128.
C10_CHORDS_PLANAR_SHA256 = "588464a419423fdafc9513ec9b2b2e4501ce588efa3f867d605a6cb05fa9e019"
C7_CHORD_PERMUTATIONS_SHA256 = "43330150dffabaf098abad12dd7e912b8041750d6b0160a584f1ca11e74df2a1"
C7_CHORD_EXHAUSTIVE_SHA256 = "c886238cdcc195c99e0a50f2ff7489b20925fcf7e71d626863ae67592038d139"


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.edges"
    path.write_text(PENTAGON_TEXT)
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def answer(text: str, *argv):
    """`linarr ARGV` with text on stdin, in this process and without
    fixtures, as hypothesis tests need: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


class TestGap:
    def test_json_golden(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "gap", pentagon_file, "--json")
        assert code == 0
        assert out == PENTAGON_GAP_JSON

    def test_twelve_star(self, capsys, tmp_path):
        # Too many crossing-free optima to list (TestPlanarMinla), but `gap`
        # needs only the smallest one.
        path = tmp_path / "star12.edges"
        path.write_text(STAR12_TEXT)
        code, out, _ = run(capsys, "gap", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] == 0
        assert payload["planar_witness"] == "b,c,d,e,f,a,g,h,i,j,k,l"

    def test_human_output(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "gap", pentagon_file)
        assert code == 0
        assert "minla optimum: 9" in out
        assert "crossing-free optimum: 10" in out
        assert "gap: 1" in out


class TestMinla:
    @pytest.mark.parametrize("solver", ["dp", "exhaustive"])
    def test_both_solvers(self, capsys, pentagon_file, solver):
        code, out, _ = run(capsys, "minla", pentagon_file, "--solver", solver, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal_cost"] == 9
        assert payload["witness"] == "a,e,b,d,c"

    def test_default_solver_is_subset_dp(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "minla", pentagon_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["solver"] == "subset-dp"
        assert payload["witnesses"] == ["a,e,b,d,c"]
        assert payload["explored"] == 2 ** 5

    def test_exhaustive_json_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "c7.edges"
        path.write_text(C7_CHORD_TEXT)
        code, out, _ = run(capsys, "minla", str(path), "--solver", "exhaustive", "--json")
        assert code == 0
        assert len(json.loads(out)["witnesses"]) == 16
        assert hashlib.sha256(out.encode()).hexdigest() == C7_CHORD_EXHAUSTIVE_SHA256
        before = out.replace('"explored": 128,', '"explored": 5040,')
        assert hashlib.sha256(before.encode()).hexdigest() == C7_CHORD_PERMUTATIONS_SHA256

    @pytest.mark.parametrize("solver, limit", [("dp", MAX_ORDER_DP),
                                               ("exhaustive", MAX_ORDER_DP)])
    def test_order_limit_is_validation_error(self, capsys, tmp_path, solver, limit):
        path = tmp_path / "big.edges"
        path.write_text("".join(f"v{i}\n" for i in range(limit + 1)))
        code, _, err = run(capsys, "minla", str(path), "--solver", solver)
        assert code == 1
        assert "validation error" in err

    @pytest.mark.parametrize("solver, count", [("dp", None), ("exhaustive", 4)])
    def test_human_witness_count_only_when_enumerated(self, capsys, pentagon_file, solver, count):
        code, out, _ = run(capsys, "minla", pentagon_file, "--solver", solver)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("witnesses up to reversal")]
        assert lines == ([] if count is None else [f"witnesses up to reversal: {count}"])

    def test_exhaustive_reports_are_the_solvers(self):
        # Both reports come from the twin-sorted optima: the JSON one
        # expands them, and the human one counts them without expanding.
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                text = emit_graph(g)
                doc = parse_graph(text)
                result = solve_minla_exhaustive(doc.graph)
                witnesses = [emit_arrangement(w, doc.labels) for w in result.witnesses]
                assert answer(text, "minla", "-", "--solver", "exhaustive") == (0, (
                    f"optimal cost: {result.optimal_cost}\n"
                    f"witness: {witnesses[0]}\n"
                    f"witnesses up to reversal: {len(witnesses)}\n"
                    f"explored: {result.explored}\nsolver: exhaustive\n"), ""), g
                _, out, _ = answer(text, "minla", "-", "--solver", "exhaustive", "--json")
                assert json.loads(out)["witnesses"] == witnesses, g

    def test_explored_reported(self, capsys, pentagon_file):
        _, out, _ = run(capsys, "minla", pentagon_file, "--solver", "exhaustive", "--json")
        assert json.loads(out)["explored"] == 2 ** 5

    def test_exhaustive_lists_at_the_order_limit(self, capsys, tmp_path):
        # P17 has one optimum up to reversal. K1,9's 362,880 are listed in
        # test_solvers.py.
        path = tmp_path / "p17.edges"
        path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(MAX_ORDER_DP - 1)))
        code, out, _ = run(capsys, "minla", str(path), "--solver", "exhaustive", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["witnesses"] == [",".join(f"v{i}" for i in range(MAX_ORDER_DP))]
        assert payload["explored"] == 2 ** MAX_ORDER_DP

    def test_exhaustive_refuses_too_many_optima(self, capsys, tmp_path):
        # K10 has 10! optima, 1,814,400 up to reversal.
        path = tmp_path / "k10.edges"
        path.write_text("".join(f"v{u} v{v}\n" for v in range(10) for u in range(v)))
        code, out, err = run(capsys, "minla", str(path), "--solver", "exhaustive", "--json")
        assert code == 1
        assert out == ""
        assert f"lists at most {MAX_WITNESSES:,} optimal arrangements" in err
        assert "1,814,400" in err

    def test_retired_solver_is_a_usage_error(self, capsys, pentagon_file):
        # The prefix-search solver's old choice name, spelled in two parts so
        # that a search of the sources for it finds only the README's note
        # on its removal.
        code, out, err = run(capsys, "minla", pentagon_file, "--solver", "bn" + "b")
        assert code == 2
        assert out == ""
        assert "invalid choice" in err
        assert re.search(r"choose from .*dp.*exhaustive", err)


class TestPlanarMinla:
    def test_pentagon(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "planar-minla", pentagon_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["planar_arrangement_exists"] is True
        assert payload["optimal_cost"] == 10

    def test_json_golden(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "planar-minla", pentagon_file, "--json")
        assert code == 0
        assert out == PENTAGON_PLANAR_JSON

    def test_nine_star_json_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "star9.edges"
        path.write_text(STAR9_TEXT)
        code, out, _ = run(capsys, "planar-minla", str(path), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STAR9_PLANAR_SHA256

    def test_twin_free_json_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "c10.edges"
        path.write_text(C10_CHORDS_TEXT)
        code, out, _ = run(capsys, "planar-minla", str(path), "--json")
        assert code == 0
        assert len(json.loads(out)["witnesses"]) == 7
        assert hashlib.sha256(out.encode()).hexdigest() == C10_CHORDS_PLANAR_SHA256

    def test_order_limit_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("".join(f"v{i}\n" for i in range(MAX_ORDER_DP + 1)))
        code, _, err = run(capsys, "planar-minla", str(path))
        assert code == 1
        assert "validation error" in err

    def test_too_many_witnesses_fail_fast(self, tmp_path):
        # The 12-star has 2 * 11! crossing-free optima, 39,916,800 up to
        # reversal. The request runs in its own interpreter with its address
        # space capped at 1 GiB, so listing them would fail for lack of
        # memory instead of being refused up front.
        path = tmp_path / "star12.edges"
        path.write_text(STAR12_TEXT)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        start = time.perf_counter()
        code, out, err = run_fresh("planar-minla", str(path), "--json", preexec_fn=cap_memory)
        assert time.perf_counter() - start < 10
        assert code == 1
        assert out == ""
        assert f"lists at most {MAX_WITNESSES:,} optimal arrangements" in err
        assert "39,916,800" in err

    @pytest.mark.parametrize("text", [STAR9_TEXT, C10_CHORDS_TEXT])
    def test_json_witnesses_are_the_solvers(self, text):
        self.check_json_witnesses(text)

    @settings(max_examples=60, deadline=None)
    @given(connected_outerplanar())
    def test_json_witnesses_are_the_solvers_on_random_graphs(self, g):
        self.check_json_witnesses(emit_graph(g))

    @staticmethod
    def check_json_witnesses(text):
        doc = parse_graph(text)
        result = solve_planar_minla(doc.graph)
        code, out, _ = answer(text, "planar-minla", "-", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["witnesses"] == [emit_arrangement(w, doc.labels) for w in result.witnesses]
        assert (report["optimal_cost"], report["explored"]) == (result.optimal_cost,
                                                               result.explored)

    @pytest.mark.parametrize("form", [["--json"], []])
    def test_nine_star_builds_at_most_one_arrangement(self, capsys, monkeypatch, tmp_path,
                                                      form):
        # The witnesses stay position tuples from the search to the text.
        built = []
        trusted = Arrangement._trusted.__func__
        checked = Arrangement.__post_init__
        monkeypatch.setattr(Arrangement, "_trusted", classmethod(
            lambda cls, positions: built.append(positions) or trusted(cls, positions)))
        monkeypatch.setattr(Arrangement, "__post_init__",
                            lambda arr: built.append(arr) or checked(arr))
        path = tmp_path / "star9.edges"
        path.write_text(STAR9_TEXT)
        code, out, _ = run(capsys, "planar-minla", str(path), *form)
        assert code == 0
        if form:
            assert hashlib.sha256(out.encode()).hexdigest() == STAR9_PLANAR_SHA256
        else:
            assert "witnesses up to reversal: 20160\n" in out
        assert len(built) <= 1

    def test_human_count_and_witness_are_the_solvers(self):
        # The human report expands no orbit: its witness is the least
        # twin-sorted optimum and its count the orbits' sizes summed.
        for n in range(1, 8):
            for g in enumerate_connected_outerplanar_graphs(n):
                text = emit_graph(g)
                doc = parse_graph(text)
                result = solve_planar_minla(doc.graph)
                assert answer(text, "planar-minla", "-") == (0, (
                    f"optimal cost: {result.optimal_cost}\n"
                    f"witness: {emit_arrangement(result.best, doc.labels)}\n"
                    f"witnesses up to reversal: {len(result.witnesses)}\n"
                    f"explored: {result.explored}\n"), ""), g

    def test_too_many_witnesses_fail_alike_in_both_forms(self, tmp_path):
        # As above, under the same 1 GiB cap: the human form expands nothing,
        # yet refuses the 12-star as the JSON form does.
        path = tmp_path / "star12.edges"
        path.write_text(STAR12_TEXT)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        replies = [run_fresh("planar-minla", str(path), *form, preexec_fn=cap_memory)
                   for form in (["--json"], [])]
        assert replies[0] == replies[1]
        code, out, err = replies[0]
        assert (code, out) == (1, "")
        assert err == ("validation error: the planar-prefix solver lists at most 500,000 "
                       "optimal arrangements, and this graph has 39,916,800; `gap` reports "
                       "the optimum and the smallest of them\n")

    def test_no_planar_arrangement(self, capsys, tmp_path):
        path = tmp_path / "k4.edges"
        path.write_text("a b\na c\na d\nb c\nb d\nc d\n")
        code, out, _ = run(capsys, "planar-minla", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {
            "command": "planar-minla",
            "planar_arrangement_exists": False,
        }


class TestVerify:
    def test_crossing_report(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "verify", pentagon_file, "a,e,b,d,c", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cost"] == 9
        assert payload["planar"] is False
        assert [["a", "b"], ["d", "e"]] in payload["crossings"]

    def test_planar_arrangement(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "verify", pentagon_file, "a,b,c,d,e")
        assert code == 0
        assert "cost: 10" in out
        assert "planar: yes" in out
        assert "crossing pairs: 0" in out


class TestClaims:
    def test_pentagon_cycle(self, capsys, pentagon_file):
        code, out, _ = run(
            capsys, "claims", pentagon_file, "--cycle", "a-b,b-c,c-d,d-e,e-a", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["arrangements_checked"] == 10
        assert payload["claim1"]["holds"] is True
        assert payload["claim2"]["holds"] is True

    def test_invalid_cycle_is_validation_error(self, capsys, pentagon_file):
        code, _, err = run(capsys, "claims", pentagon_file, "--cycle", "a-b,b-c")
        assert code == 1
        assert "validation error" in err

    def test_order_limit_is_validation_error(self, capsys, tmp_path):
        n = MAX_ORDER_CLAIMS + 1
        path = tmp_path / "cycle.edges"
        path.write_text("".join(f"v{i} v{(i + 1) % n}\n" for i in range(n)))
        cycle = ",".join(f"v{i}-v{(i + 1) % n}" for i in range(n))
        code, out, err = run(capsys, "claims", str(path), "--cycle", cycle)
        assert code == 1
        assert out == ""
        assert f"order <= {MAX_ORDER_CLAIMS}, got {n}" in err


class TestSearch:
    def test_search_json(self, capsys):
        code, out, _ = run(capsys, "search", "--max-order", "4", "--min-gap", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["results"][0]["gap"] == 1
        assert payload["results"][0]["order"] == 4

    def test_search_human(self, capsys):
        code, out, _ = run(capsys, "search", "--max-order", "3")
        assert code == 0
        assert "found 0 graph(s)" in out

    def test_order_seven_json_is_pinned(self, capsys):
        code, out, _ = run(capsys, "search", "--max-order", "7", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_ORDER7_SHA256

    def test_order_eight_json_is_pinned(self, capsys):
        code, out, _ = run(capsys, "search", "--max-order", "8", "--json")
        assert code == 0
        assert json.loads(out)["count"] == 579
        assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_ORDER8_SHA256

    def test_order_limit_is_validation_error(self, capsys, monkeypatch):
        def no_enumeration(order):
            raise AssertionError("enumeration before order check")

        monkeypatch.setattr("linarr.gap_search.enumerate_connected_outerplanar_graphs", no_enumeration)
        code, _, err = run(capsys, "search", "--max-order", str(MAX_ORDER_SEARCH + 1))
        assert code == 1
        assert "validation error" in err


class TestRender:
    def test_matches_library_output(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "render", pentagon_file, "a,e,b,d,c", "--format", "dot")
        assert code == 0
        doc = parse_graph(PENTAGON_TEXT)
        arr = parse_arrangement("a,e,b,d,c", doc)
        assert out == emit_arc_diagram(doc.graph, arr, "dot", doc.labels)

    def test_json_wraps_content(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "render", pentagon_file, "a,b,c,d,e", "--format", "svg", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == "svg"
        assert payload["content"].startswith("<?xml")


# Human reports pinned byte for byte: (graph text, arguments after the
# graph file, stdout). Taken before the human text was printed from the
# JSON report's strings.
K23_TEXT = "a c\na d\na e\nb c\nb d\nb e\n"
# A triangle with two pendants on c: both claims fail on the cycle a-b-c.
TRIANGLE_PENDANTS_TEXT = "a b\nb c\nc a\nc d\nc e\n"
CLAIM1 = "claim 1 (each cycle edge contains all other edges or has adjacent endpoints)"
CLAIM2 = "claim 2 (exactly one cycle edge contains all other edges)"
HUMAN_PINS = {
    "minla-dp": (PENTAGON_TEXT, ["minla"],
                 "optimal cost: 9\nwitness: a,e,b,d,c\nexplored: 32\nsolver: subset-dp\n"),
    "minla-exhaustive": (PENTAGON_TEXT, ["minla", "--solver", "exhaustive"],
                         "optimal cost: 9\nwitness: a,e,b,d,c\nwitnesses up to reversal: 4\n"
                         "explored: 32\nsolver: exhaustive\n"),
    "planar-minla-pentagon": (PENTAGON_TEXT, ["planar-minla"],
                              "optimal cost: 10\nwitness: a,b,c,d,e\n"
                              "witnesses up to reversal: 3\nexplored: 3\n"),
    "planar-minla-k23": (K23_TEXT, ["planar-minla"], "no crossing-free arrangement exists\n"),
    "gap-pentagon": (PENTAGON_TEXT, ["gap"],
                     "minla optimum: 9 (witness a,e,b,d,c)\n"
                     "crossing-free optimum: 10 (witness a,b,c,d,e)\ngap: 1\nouterplanar: yes\n"),
    "gap-k23": (K23_TEXT, ["gap"],
                "minla optimum: 10 (witness c,a,d,b,e)\n"
                "crossing-free optimum: none (no crossing-free arrangement)\n"
                "gap: undefined\nouterplanar: no\n"),
    "claims-hold": (PENTAGON_TEXT, ["claims", "--cycle", "a-b,b-c,c-d,d-e,e-a"],
                    f"crossing-free arrangements checked: 10\n{CLAIM1}: holds\n{CLAIM2}: holds\n"),
    "claims-fail": (TRIANGLE_PENDANTS_TEXT, ["claims", "--cycle", "a-b,b-c,c-a"],
                    "crossing-free arrangements checked: 60\n"
                    f"{CLAIM1}: fails at arrangement a,b,c,d,e, edge {{a,c}} "
                    "(cycle edge neither contains all other edges nor has adjacent endpoints)\n"
                    f"{CLAIM2}: fails at arrangement a,b,c,d,e, edge {{a,c}} "
                    "(no cycle edge contains all other edges)\n"),
    "verify-crossing": (PENTAGON_TEXT, ["verify", "a,e,b,d,c"],
                        "cost: 9\nplanar: no\ncrossing pairs: 2\n"
                        "  {a,b} x {d,e}\n  {b,c} x {d,e}\n"),
}


@pytest.mark.parametrize("name", HUMAN_PINS)
def test_human_output_is_pinned(capsys, tmp_path, name):
    text, args, expected = HUMAN_PINS[name]
    path = tmp_path / "graph.edges"
    path.write_text(text)
    code, out, err = run(capsys, args[0], str(path), *args[1:])
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize("argv", [["minla", "-", "--solver", "exhaustive"], ["planar-minla", "-"]],
                         ids=["minla-exhaustive", "planar-minla"])
def test_human_listing_report_builds_no_witness(monkeypatch, argv):
    # The 10-star has 362,880 optima up to reversal under both commands.
    # The human report counts them from the twin-sorted optima and prints
    # the least of those: no orbit is expanded and no Arrangement built.
    def refuse(*args, **kwargs):
        raise AssertionError("the human report built a witness")

    monkeypatch.setattr(cli, "_expand_orbits", refuse)
    monkeypatch.setattr("linarr.solvers._expand_orbits", refuse)
    monkeypatch.setattr(Arrangement, "_trusted", classmethod(refuse))
    code, out, err = answer(STAR10_TEXT, *argv)
    assert (code, err) == (0, "")
    assert "witnesses up to reversal: 362880\n" in out
    assert "witness: b,c,d,e,a,f,g,h,i,j\n" in out


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a a\n")
        code, _, err = run(capsys, "gap", str(path))
        assert code == 2
        assert "parse error" in err

    def test_unknown_label_is_2(self, capsys, pentagon_file):
        code, _, _ = run(capsys, "verify", pentagon_file, "a,e,b,d,x")
        assert code == 2

    def test_validation_error_is_1(self, capsys, pentagon_file):
        code, _, _ = run(capsys, "verify", pentagon_file, "a,e,b,d")
        assert code == 1

    def test_missing_file_is_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gap", str(tmp_path / "nope.edges"))
        assert code == 2

    def test_usage_error_is_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_is_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_boolean_json_order_is_2(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"order": true, "edges": []}')
        code, _, err = run(capsys, "minla", str(path))
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_invalid_utf8_is_2(self, capsys, monkeypatch, tmp_path, source):
        # Both sources are decoded as strict UTF-8, whatever the locale.
        data = b"a b\n\xff c\n"
        if source == "file":
            path = tmp_path / "latin1.edges"
            path.write_bytes(data)
            arg = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
            arg = "-"
        code, out, err = run(capsys, "minla", arg)
        assert code == 2
        assert out == ""
        assert err == "parse error: line 2: input is not valid UTF-8\n"

    def test_stdin_bytes_are_utf8(self, capsys, monkeypatch):
        # The bytes beneath stdin are read, not text decoded by its encoding.
        text = "\u00e9 b\r\nb c\r\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode()), encoding="latin-1"))
        code, out, _ = run(capsys, "minla", "-", "--json")
        assert code == 0
        assert json.loads(out)["witness"] == "\u00e9,b,c"

    def test_unreadable_label_is_2(self, capsys, tmp_path):
        # The witness "a,b,c" could not be read back by `verify`.
        path = tmp_path / "comma.json"
        path.write_text('{"vertices": ["a,b", "c"], "edges": [["a,b", "c"]]}')
        code, out, err = run(capsys, "minla", str(path))
        assert code == 2
        assert out == ""
        assert "'a,b'" in err


class FailingStdout(io.StringIO):
    """A stdout whose every write raises `error`."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


class TestOutputErrors:
    @pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                       OSError(errno.ENOSPC, "No space left on device")])
    def test_failed_write_is_3(self, capsys, monkeypatch, tmp_path, error):
        path = tmp_path / "star9.edges"
        path.write_text(STAR9_TEXT)
        monkeypatch.setattr("sys.stdout", FailingStdout(error))
        code = run_cli(["planar-minla", str(path), "--json"])
        assert code == 3
        assert capsys.readouterr().err == f"cannot write output: {error}\n"

    def test_unread_input_stays_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdout", FailingStdout(BrokenPipeError(errno.EPIPE, "x")))
        assert run_cli(["minla", str(tmp_path / "nope.edges")]) == 2
        assert capsys.readouterr().err.startswith("cannot read input: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk_in_a_fresh_process(self, pentagon_file):
        # The report fits stdout's buffer, so only the flush can fail; the
        # flush at exit then has nothing left to fail on.
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "linarr", "minla", pentagon_file],
                                  env=fresh_env(), stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr == "cannot write output: [Errno 28] No space left on device\n"

    def test_closed_pipe_in_a_fresh_process(self, tmp_path):
        # The 9-star report is far larger than a pipe's buffer, so the write
        # fails once the reader has gone, whenever that happens.
        path = tmp_path / "star9.edges"
        path.write_text(STAR9_TEXT)
        proc = subprocess.Popen([sys.executable, "-m", "linarr", "planar-minla", str(path),
                                 "--json"], env=fresh_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 3
        assert err == "cannot write output: [Errno 32] Broken pipe\n"


def fresh_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(linarr.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_fresh(*argv, preexec_fn=None):
    """`python -m linarr ARGV` in a new interpreter: (exit code, stdout,
    stderr). `preexec_fn` runs in the child before the interpreter starts."""
    proc = subprocess.run([sys.executable, "-m", "linarr", *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=60, preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout, proc.stderr


def test_python_dash_m_entry_point():
    code, out, _ = run_fresh("--help")
    assert code == 0
    assert "usage: linarr" in out


def test_reused_parser_answers_like_a_fresh_process(capsys, monkeypatch, pentagon_file):
    # Help text is wrapped to the terminal width, so fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("frobnicate",),
        ("--help",),
        ("minla", pentagon_file, "--solver", "exhaustive"),
        ("minla", pentagon_file),
        ("planar-minla", pentagon_file),
        ("verify", pentagon_file, "a,e,b,d"),
        ("frobnicate",),
    ]
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    replies = [run(capsys, *argv) for argv in calls]
    assert len(built) == 1
    assert [code for code, _, _ in replies] == [2, 0, 0, 0, 0, 1, 2]
    for argv, reply in zip(calls, replies):
        assert reply == run_fresh(*argv), argv


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, pentagon_file):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "gap", pentagon_file, "--json")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(PENTAGON_TEXT))
        code, out, _ = run(capsys, "gap", "-", "--json")
        assert code == 0
        assert json.loads(out)["gap"] == 1
