"""Command-line interface.

Subcommands: minla, planar-minla, verify, gap, search, claims, render.
Graphs are read from a file path (or '-' for stdin) in edge-list or JSON
format, auto-detected. Every subcommand accepts --json for a stable
machine-readable report. Exit codes: 0 success, 1 validation error,
2 parse/usage error or unreadable input, 3 output error (stdout could not
be written, e.g. a closed pipe or a full disk).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Sequence

from .arrangement import Arrangement, _iter_crossings, cost
from .errors import ParseError, ValidationError
from .gap_search import GapReport, compute_gap, search_gap_graphs
from .graphio import (
    GraphDocument,
    _emit_positions,
    default_labels,
    emit_arrangement,
    parse_arrangement,
    parse_edge_subset,
    parse_graph,
)
from .render import FORMATS, emit_arc_diagram
from .solvers import (
    MAX_ORDER_SEARCH,
    _expand_orbits,
    _planar_optima,
    _swaps,
    check_dominating_edge_claims,
    solve_minla_dp,
    solve_minla_exhaustive,
)


class _UnreadableInput(Exception):
    """The input could not be read; the message is the OSError's. Any other
    OSError that reaches `run_cli` comes from writing stdout."""


def _read_text(path: str) -> str:
    """The input's text, decoded as strict UTF-8 from the file's bytes or
    from stdin's, whatever the locale; a stdin with no byte buffer beneath
    it, an in-memory text stream, is read as text."""
    try:
        if path == "-":
            stream = getattr(sys.stdin, "buffer", None)
            if stream is None:
                return sys.stdin.read()
            data = stream.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise _UnreadableInput(exc) from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("input is not valid UTF-8",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def _load_doc(path: str) -> GraphDocument:
    return parse_graph(_read_text(path))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _solve_payload(optimal_cost: int, witnesses, explored: int, labels) -> dict:
    """The keys minla and planar-minla share, from the witnesses' position
    tuples in order; the best optimum is witnesses[0]."""
    witnesses = _emit_positions(witnesses, labels)
    return {
        "optimal_cost": optimal_cost,
        "witness": witnesses[0],
        "witnesses": witnesses,
        "explored": explored,
    }


def _print_solve(optimal_cost: int, best: tuple[int, ...], count: int | None,
                 explored: int, labels) -> None:
    """The human report: one witness, the best, and the number of witnesses
    up to reversal unless count is None."""
    print(f"optimal cost: {optimal_cost}")
    print(f"witness: {_emit_positions((best,), labels)[0]}")
    if count is not None:
        print(f"witnesses up to reversal: {count}")
    print(f"explored: {explored}")


def _cmd_minla(args: argparse.Namespace) -> int:
    doc = _load_doc(args.graph)
    solve = {"dp": solve_minla_dp, "exhaustive": solve_minla_exhaustive}[args.solver]
    result = solve(doc.graph)
    if args.json:
        report = {"command": "minla", "solver": result.solver_id,
                  **_solve_payload(result.optimal_cost,
                                   (arr.positions for arr in result.witnesses),
                                   result.explored, doc.labels)}
        # The encoder needs only the strings: free the witnesses first.
        del result
        _print_json(report)
    else:
        # Only the exhaustive solver collects every optimum; dp returns
        # one, so a count from it would be wrong.
        count = len(result.witnesses) if args.solver == "exhaustive" else None
        _print_solve(result.optimal_cost, result.best.positions, count, result.explored,
                     doc.labels)
        print(f"solver: {result.solver_id}")
    return 0


def _cmd_planar_minla(args: argparse.Namespace) -> int:
    # The witnesses of `solve_planar_minla`, kept as position tuples from the
    # search to the text: no Arrangement is built for any of them.
    doc = _load_doc(args.graph)
    found = _planar_optima(doc.graph)
    if found is None:
        if args.json:
            _print_json({"command": "planar-minla", "planar_arrangement_exists": False})
        else:
            print("no crossing-free arrangement exists")
        return 0
    optimum, optima, explored, cells = found
    if args.json:
        witnesses = sorted(_expand_orbits(optima, cells))
        report = {"command": "planar-minla", "planar_arrangement_exists": True,
                  **_solve_payload(optimum, witnesses, explored, doc.labels)}
        # The encoder needs only the strings: free the witnesses first.
        del witnesses
        _print_json(report)
    else:
        # Nothing is expanded: the smallest witness is the least twin-sorted
        # optimum, and every orbit has _swaps(cells) members.
        _print_solve(optimum, min(optima), len(optima) * _swaps(cells), explored, doc.labels)
    return 0


def _crossing_pairs(doc: GraphDocument, arr: Arrangement) -> list[tuple[tuple[str, str], tuple[str, str]]]:
    lab = doc.labels
    return [((lab[a], lab[b]), (lab[c], lab[d]))
            for (a, b), (c, d) in _iter_crossings(doc.graph, arr)]


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = _load_doc(args.graph)
    arr = parse_arrangement(args.arrangement, doc)
    total = cost(doc.graph, arr)
    pairs = _crossing_pairs(doc, arr)
    planar = not pairs
    if args.json:
        _print_json({
            "command": "verify",
            "arrangement": emit_arrangement(arr, doc.labels),
            "cost": total,
            "planar": planar,
            "crossings": [[list(a), list(b)] for a, b in pairs],
        })
    else:
        print(f"cost: {total}")
        print(f"planar: {'yes' if planar else 'no'}")
        print(f"crossing pairs: {len(pairs)}")
        for (a1, a2), (b1, b2) in pairs:
            print(f"  {{{a1},{a2}}} x {{{b1},{b2}}}")
    return 0


def _emit_or_none(arr: Arrangement | None, labels) -> str | None:
    return None if arr is None else emit_arrangement(arr, labels)


def _gap_payload(report: GapReport, labels) -> dict:
    return {
        "minla_opt": report.minla_opt,
        "planar_opt": report.planar_opt,
        "gap": report.gap,
        "outerplanar": report.outerplanar,
        "minla_witness": emit_arrangement(report.minla_witness, labels),
        "planar_witness": _emit_or_none(report.planar_witness, labels),
    }


def _cmd_gap(args: argparse.Namespace) -> int:
    doc = _load_doc(args.graph)
    report = _gap_payload(compute_gap(doc.graph), doc.labels)
    if args.json:
        _print_json({"command": "gap", **report})
    else:
        print(f"minla optimum: {report['minla_opt']} (witness {report['minla_witness']})")
        if report["planar_opt"] is None:
            print("crossing-free optimum: none (no crossing-free arrangement)")
            print("gap: undefined")
        else:
            print(f"crossing-free optimum: {report['planar_opt']} "
                  f"(witness {report['planar_witness']})")
            print(f"gap: {report['gap']}")
        print(f"outerplanar: {'yes' if report['outerplanar'] else 'no'}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    reports = search_gap_graphs(args.max_order, args.min_gap)
    if args.json:
        results = [{"order": report.graph.order,
                    "edges": [list(e) for e in report.graph.sorted_edges],
                    **_gap_payload(report, default_labels(report.graph))}
                   for report in reports]
        _print_json({
            "command": "search",
            "max_order": args.max_order,
            "min_gap": args.min_gap,
            "count": len(results),
            "results": results,
        })
    else:
        for report in reports:
            edges = ",".join(f"{u}-{v}" for u, v in report.graph.sorted_edges)
            print(
                f"order={report.graph.order} edges={edges} "
                f"minla={report.minla_opt} planar={report.planar_opt} gap={report.gap}"
            )
        print(f"found {len(reports)} graph(s) with gap >= {args.min_gap}")
    return 0


def _verdict_payload(verdict, labels) -> dict:
    edge = verdict.witness_edge
    return {
        "holds": verdict.holds,
        "witness_arrangement": _emit_or_none(verdict.witness_arrangement, labels),
        "witness_edge": None if edge is None else [labels[edge[0]], labels[edge[1]]],
        "note": verdict.note,
    }


_CLAIM_TEXT = {
    "claim1": "each cycle edge contains all other edges or has adjacent endpoints",
    "claim2": "exactly one cycle edge contains all other edges",
}


def _cmd_claims(args: argparse.Namespace) -> int:
    doc = _load_doc(args.graph)
    cycle = parse_edge_subset(args.cycle, doc)
    report = check_dominating_edge_claims(doc.graph, cycle)
    verdicts = {name: _verdict_payload(getattr(report, name), doc.labels) for name in _CLAIM_TEXT}
    if args.json:
        _print_json({"command": "claims", "arrangements_checked": report.arrangement_count,
                     **verdicts})
    else:
        print(f"crossing-free arrangements checked: {report.arrangement_count}")
        for number, (name, text) in enumerate(_CLAIM_TEXT.items(), 1):
            verdict = verdicts[name]
            head = f"claim {number} ({text})"
            if verdict["holds"]:
                print(f"{head}: holds")
            else:
                u, v = verdict["witness_edge"]
                print(f"{head}: fails at arrangement {verdict['witness_arrangement']}, "
                      f"edge {{{u},{v}}} ({verdict['note']})")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    doc = _load_doc(args.graph)
    arr = parse_arrangement(args.arrangement, doc)
    text = emit_arc_diagram(doc.graph, arr, args.format, doc.labels)
    if args.json:
        _print_json({"command": "render", "format": args.format, "content": text})
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linarr",
        description="Exact minimum linear arrangement tools for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")
        p.set_defaults(func=func)
        return p

    p = add("minla", _cmd_minla, "exact minimum linear arrangement")
    p.add_argument("graph", help="graph file (edge list or JSON), or - for stdin")
    p.add_argument("--solver", choices=["dp", "exhaustive"], default="dp",
                   help="subset DP (default; one witness) or exhaustive (every optimum)")

    p = add("planar-minla", _cmd_planar_minla, "exact minimum over crossing-free arrangements")
    p.add_argument("graph", help="graph file, or - for stdin")

    p = add("verify", _cmd_verify, "cost, planarity verdict and crossing pairs of an arrangement")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("arrangement", help="comma-separated labels in position order, e.g. a,e,b,d,c")

    p = add("gap", _cmd_gap, "both optima and their difference for one graph")
    p.add_argument("graph", help="graph file, or - for stdin")

    p = add("search", _cmd_search, "search small connected graphs for gap witnesses")
    p.add_argument("--max-order", type=int, required=True,
                   help=f"largest vertex count to search, at most {MAX_ORDER_SEARCH}")
    p.add_argument("--min-gap", type=int, default=1, help="smallest gap to report (default 1)")

    p = add("claims", _cmd_claims, "check the dominating-edge claims for a cycle")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--cycle", required=True,
                   help="cycle edges as LABEL-LABEL pairs, e.g. a-b,b-c,c-d,d-e,e-a")

    p = add("render", _cmd_render, "emit an arc diagram of an arrangement")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("arrangement", help="comma-separated labels in position order")
    p.add_argument("--format", choices=FORMATS, required=True)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first run_cli call, not at import, and reused: building
    # costs about 20 times as much as a parse.
    return build_parser()


def run_cli(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        # Flushed here, so that a failed write is reported like any other.
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except _UnreadableInput as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    code = run_cli(sys.argv[1:])
    if code == 3:
        # What stdout still buffers would fail again, with a traceback, in
        # the flush at exit: send it to the null device instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
