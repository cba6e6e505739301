from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import linarr
import linarr.cli as cli
from linarr import emit_arc_diagram, parse_arrangement, parse_graph, run_cli
from linarr.solvers import (
    MAX_ORDER_BNB,
    MAX_ORDER_CLAIMS,
    MAX_ORDER_DP,
    MAX_ORDER_SEARCH,
    MAX_PLANAR_WITNESSES,
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
STAR12_TEXT = "".join(f"a {leaf}\n" for leaf in "bcdefghijkl")
# sha256 of `linarr planar-minla <star> --json` stdout. Retaken when the
# search began to defer tied prefixes and to break mirror symmetry itself:
# the output differs from the one before only in "explored", 86520 -> 20164.
# Retaken again when the search began to place twins in ascending order
# only and the witnesses were expanded from those: the output differs from
# the one before only in "explored", 20164 -> 8.
STAR9_PLANAR_SHA256 = "335ffede8b9e3989b3bb7cc7a50ce1cf8dd2fe7ed2e01e885b743ddea6f00f8c"


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.edges"
    path.write_text(PENTAGON_TEXT)
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    @pytest.mark.parametrize("solver", ["dp", "exhaustive", "bnb"])
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

    @pytest.mark.parametrize("solver, limit", [("dp", MAX_ORDER_DP), ("bnb", MAX_ORDER_BNB)])
    def test_order_limit_is_validation_error(self, capsys, tmp_path, solver, limit):
        path = tmp_path / "big.edges"
        path.write_text("".join(f"v{i}\n" for i in range(limit + 1)))
        code, _, err = run(capsys, "minla", str(path), "--solver", solver)
        assert code == 1
        assert "validation error" in err

    @pytest.mark.parametrize("solver, count", [("dp", None), ("bnb", None), ("exhaustive", 4)])
    def test_human_witness_count_only_when_enumerated(self, capsys, pentagon_file, solver, count):
        code, out, _ = run(capsys, "minla", pentagon_file, "--solver", solver)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("witnesses up to reversal")]
        assert lines == ([] if count is None else [f"witnesses up to reversal: {count}"])

    def test_explored_reported(self, capsys, pentagon_file):
        _, out, _ = run(capsys, "minla", pentagon_file, "--solver", "exhaustive", "--json")
        assert json.loads(out)["explored"] == 120


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
        assert f"lists at most {MAX_PLANAR_WITNESSES:,} optimal arrangements" in err
        assert "39,916,800" in err

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

    def test_unreadable_label_is_2(self, capsys, tmp_path):
        # The witness "a,b,c" could not be read back by `verify`.
        path = tmp_path / "comma.json"
        path.write_text('{"vertices": ["a,b", "c"], "edges": [["a,b", "c"]]}')
        code, out, err = run(capsys, "minla", str(path))
        assert code == 2
        assert out == ""
        assert "'a,b'" in err


def run_fresh(*argv, preexec_fn=None):
    """`python -m linarr ARGV` in a new interpreter: (exit code, stdout,
    stderr). `preexec_fn` runs in the child before the interpreter starts."""
    src = str(Path(linarr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "linarr", *argv], env=env,
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
        ("minla", pentagon_file, "--solver", "bnb"),
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
