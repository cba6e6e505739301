"""The three workloads: input generation, one measured pass, validation.

A pass runs in a fresh interpreter (see run.py). Untraced passes call the
package's entry points exactly as a user would. Traced passes make the
same calls with the layer functions in the calling module's namespace
wrapped by `spans.Tracer`, so the package's own call sites are measured.
Untraced passes interleave calibration slices (see speed.py) and report
their latencies at reference host speed; traced passes run no slices and
report raw wall time.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import oracle
from spans import Tracer, patched
from speed import HostSpeed

DATA = Path(__file__).resolve().parent / "data"
LABELS = [a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "abcdefghijklmnopqrstuvwxyz"]

# Layer functions wrapped in traced passes: (attribute name or prefix + "*",
# layer, kind). Matching by prefix keeps a renamed or added solver of the
# same family attributed to its layer.
SEARCH_LAYERS = [
    ("enumerate_connected_graphs", "graph.enumerate", "stream"),
    ("is_outerplanar", "graph.outerplanar", "call"),
    ("solve_minla*", "solvers.minla", "call"),
    ("solve_planar*", "solvers.planar", "call"),
]
CLI_LAYERS = [
    ("parse_graph", "graphio.parse", "call"),
    ("emit_arrangement", "graphio.emit", "call"),
    ("solve_minla*", "solvers.minla", "call"),
    ("solve_planar*", "solvers.planar", "call"),
]
CLAIMS_LAYERS = [
    ("iter_crossing_free", "solvers.iterate", "stream"),
]
STREAM_COUNTERS = {
    "graph.enumerate": "graph.enumerate_classes",
    "solvers.iterate": "solvers.iterate_arrangements",
}

LAYER_TIMES = ["graph.enumerate", "graph.outerplanar", "solvers.minla", "solvers.planar",
               "solvers.iterate", "solvers.claims", "graphio.parse", "graphio.emit",
               "cli.report"]
DEFECTS = ["solvers.minla_witness_not_smallest", "solvers.witnesses_incomplete"]


def load(name: str) -> dict:
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one pass reports back to the parent process."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    slice_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    defects: dict[str, int] | None = None
    digests: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(asdict(self), failed=len(self.failures), failures=self.failures[:10])


# ---------------------------------------------------------------------------
# Request text
# ---------------------------------------------------------------------------


def render_graph(rng: random.Random, order: int, edges) -> tuple[list[str], str]:
    """Seeded labels and file format; vertex ids keep their order in the text."""
    labels = rng.sample(LABELS, order)
    lines = [(labels[u], labels[v]) if rng.random() < 0.5 else (labels[v], labels[u])
             for u, v in edges]
    rng.shuffle(lines)
    if rng.random() < 0.5:
        text = json.dumps({"vertices": labels, "edges": [list(p) for p in lines]})
    else:
        text = "\n".join(labels + [f"{a} {b}" for a, b in lines]) + "\n"
    return labels, text


class SolveRequest(NamedTuple):
    name: str
    command: str
    text: str
    labels: list[str]
    ref: dict


class ClaimsRequest(NamedTuple):
    name: str
    text: str
    cycle_text: str
    edges: list[tuple[int, int]]
    cycle: list[tuple[int, int]]
    ref: dict


def corpus_requests(seed: int, reference: dict) -> list[SolveRequest]:
    """The four fixed graphs and the whole pool; both commands each."""
    rng = random.Random(seed)
    requests = []
    for entry in reference["fixed"] + reference["pool"]:
        labels, text = render_graph(rng, entry["order"], entry["edges"])
        for command in ("minla", "planar-minla"):
            requests.append(SolveRequest(entry["name"], command, text, labels, entry))
    rng.shuffle(requests)
    return requests


def claims_requests(seed: int, reference: dict) -> list[ClaimsRequest]:
    """Every claims graph under a seeded relabeling, in seeded order."""
    rng = random.Random(seed)
    requests = []
    for entry in reference["graphs"]:
        perm = list(range(entry["order"]))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in entry["edges"]]
        cycle = [(perm[u], perm[v]) for u, v in entry["cycle"]]
        labels, text = render_graph(rng, entry["order"], edges)
        cycle_text = ",".join(f"{labels[u]}-{labels[v]}" for u, v in cycle)
        requests.append(ClaimsRequest(entry["name"], text, cycle_text, edges, cycle, entry))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# Wrapping layer functions
# ---------------------------------------------------------------------------


def _matches(name: str, pattern: str) -> bool:
    return name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern


def _select(module, rules):
    """(name, function, layer, kind) for every public callable a rule names."""
    for name, fn in vars(module).items():
        if name.startswith("_") or not callable(fn) or isinstance(fn, type):
            continue
        for pattern, layer, kind in rules:
            if _matches(name, pattern):
                yield name, fn, layer, kind
                break


def layer_patch(tracer: Tracer, module, rules, on_result=None) -> dict:
    """Span-recording wrappers for the layer functions of `module`."""
    replacements = {}
    for name, fn, layer, kind in _select(module, rules):
        if kind == "stream":
            replacements[name] = tracer.wrap_stream(fn, layer, STREAM_COUNTERS[layer])
        else:
            hook = (lambda a, r, layer=layer: on_result(layer, a, r)) if on_result else None
            replacements[name] = tracer.wrap(fn, layer, hook)
    return replacements


def capture_patch(module, rules, sink: list) -> dict:
    """Clock-free wrappers that keep (layer, graph, result) of each call."""

    def capture(fn, layer):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((layer, args[0], result))
            return result
        return captured

    return {name: capture(fn, layer)
            for name, fn, layer, kind in _select(module, rules) if kind == "call"}


class _JsonProxy:
    """Stands in for the `json` module inside linarr.cli to time report dumps."""

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.wrap(json.dumps, "cli.report")

    def __getattr__(self, name):
        return getattr(json, name)


def solver_counters(tracer: Tracer, results: list):
    """on_result hook: work counters per solver layer, results kept for checks."""

    def record(layer: str, args, result) -> None:
        if layer not in ("solvers.minla", "solvers.planar", "graph.outerplanar"):
            return
        results.append((layer, args[0], result))
        if result is None:
            tracer.count(f"{layer}_none")
            return
        if hasattr(result, "explored"):
            tracer.count(f"{layer}_explored", result.explored)
            tracer.count(f"{layer}_witnesses", len(result.witnesses))

    return record


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    selfs = tracer.self_times()
    layers = {f"{layer}_s": selfs.get(layer, 0.0) for layer in LAYER_TIMES}
    counters = dict(tracer.counters)
    for name in ("graph.enumerate_classes", "graph.outerplanar_calls", "solvers.minla_calls",
                 "solvers.minla_explored", "solvers.minla_witnesses", "solvers.planar_calls",
                 "solvers.planar_explored", "solvers.planar_witnesses", "solvers.planar_none",
                 "solvers.iterate_arrangements", "solvers.claims_arrangements",
                 "graphio.emit_calls", "graphio.bytes_out"):
        layers[name] = counters.get(name, 0)
    explored = layers["solvers.planar_explored"]
    layers["solvers.planar_yield"] = layers["solvers.planar_witnesses"] / explored if explored else 0.0
    layers["trace.unattributed_s"] = wall - sum(layers[f"{layer}_s"] for layer in LAYER_TIMES)
    return layers


# ---------------------------------------------------------------------------
# search-order7
# ---------------------------------------------------------------------------


def run_search(traced: bool) -> Outcome:
    """One call to search_gap_graphs(7, 1), validated class by class.

    Untraced passes still wrap the solver and outerplanarity calls, without
    a clock, to keep each class's result for validation and the defect
    counters; the wrappers cost microseconds in a multi-second call.
    """
    import linarr
    import linarr.gap_search as gap_search

    out = Outcome()
    tracer = Tracer()
    results: list = []
    if traced:
        patch = layer_patch(tracer, gap_search, SEARCH_LAYERS, solver_counters(tracer, results))
    else:
        patch = capture_patch(gap_search, SEARCH_LAYERS, results)
    reports = error = None
    with patched(gap_search, patch), HostSpeed(enabled=not traced) as speed:
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("search"):
                    reports = linarr.search_gap_graphs(7, 1)
            else:
                reports = linarr.search_gap_graphs(7, 1)
        except Exception as exc:  # any failure of the package is a failed request
            error = exc
        end = time.perf_counter()
    out.rss_mb = peak_rss_mb()
    out.wall = speed.work(start, end)
    out.latencies = [speed.scaled(start, end)]
    out.slice_s = speed.slice_median()

    reference = load("search.json")
    out.attempted = len(reference["classes"])
    if error is not None:
        out.failures = [f"search raised {error!r}"] * out.attempted
        return out
    out.failures, out.defects = check_search(reports, results, reference)
    out.digests = [hashlib.sha256(repr(reports).encode()).hexdigest()]
    if traced:
        out.layers = layer_metrics(tracer, out.wall)
    return out


def _graph_key(order: int, edges) -> tuple:
    return order, tuple(tuple(e) for e in sorted(edges))


def check_search(reports, results, reference) -> tuple[list[str], dict[str, int] | None]:
    """Failures (one per class at most) and the two defect counters."""
    classes = {_graph_key(c["order"], c["edges"]): c for c in reference["classes"]}
    bad: dict[tuple, str] = {}

    got = []
    for rep in reports:
        key = _graph_key(rep.graph.order, rep.graph.edges)
        got.append(key)
        ref = classes.get(key)
        if ref is None:
            bad[key] = "reported graph is not a reference class"
            continue
        row = (rep.minla_opt, rep.planar_opt, rep.gap, rep.outerplanar)
        planar = ref["planar_opt"]
        want = (ref["minla_opt"], planar, None if planar is None else planar - ref["minla_opt"],
                ref["outerplanar"])
        if row != want:
            bad[key] = f"row {row} != reference {want}"
        elif not _valid_optimum(rep.minla_witness.positions, ref["edges"], ref["minla_opt"], False):
            bad[key] = "minla witness is not an optimum"
        elif rep.planar_witness is None or not _valid_optimum(
                rep.planar_witness.positions, ref["edges"], planar, True):
            bad[key] = "planar witness is not a crossing-free optimum"
    expected = [_graph_key(r["order"], r["edges"]) for r in reference["gap_rows"]]
    for key in set(expected) - set(got):
        bad[key] = "gap graph missing from the result"
    for key in set(got) - set(expected):
        bad.setdefault(key, "graph reported that is not a gap graph")
    if not bad and got != expected:
        bad[("order",)] = "gap graphs out of enumeration order"

    minla_seen = 0
    not_smallest = incomplete = 0
    for layer, g, result in results:
        key = _graph_key(g.order, g.edges)
        ref = classes.get(key)
        if ref is None:
            bad[key] = f"{layer} called on a graph that is not a reference class"
            continue
        if layer == "solvers.minla":
            minla_seen += 1
            if result.optimal_cost != ref["minla_opt"]:
                bad[key] = "minla optimum differs from the reference"
            elif any(not _valid_optimum(w.positions, ref["edges"], ref["minla_opt"], False)
                     for w in result.witnesses):
                bad[key] = "minla witness is not an optimum"
            not_smallest += list(result.best.positions) != ref["minla_best"]
            incomplete += _distinct_up_to_reversal(w.positions for w in result.witnesses) < ref["minla_count"]
        elif layer == "solvers.planar":
            if (result is None) == ref["outerplanar"] or (
                    result is not None and result.optimal_cost != ref["planar_opt"]):
                bad[key] = "crossing-free result differs from the reference"
        elif layer == "graph.outerplanar" and result != ref["outerplanar"]:
            bad[key] = "outerplanarity verdict differs from the reference"
    defects = None
    if minla_seen == len(classes):
        defects = {DEFECTS[0]: not_smallest, DEFECTS[1]: incomplete}
    return [f"{k}: {v}" for k, v in bad.items()][:len(classes)], defects


def _valid_optimum(positions, edges, optimum, crossing_free: bool) -> bool:
    positions = tuple(positions)
    if sorted(positions) != list(range(1, len(positions) + 1)):
        return False
    if oracle.cost(positions, edges) != optimum:
        return False
    return not crossing_free or oracle.crossing_free(positions, edges)


def _distinct_up_to_reversal(witnesses) -> int:
    seen = set()
    for pos in witnesses:
        pos = tuple(pos)
        mirror = tuple(len(pos) + 1 - p for p in pos)
        seen.add(min(pos, mirror))
    return len(seen)


# ---------------------------------------------------------------------------
# solve-corpus
# ---------------------------------------------------------------------------


def write_corpus(requests: list[SolveRequest], workdir: Path) -> list[list[str]]:
    """One file per distinct graph text; returns each request's argv."""
    paths: dict[str, Path] = {}
    argvs = []
    for req in requests:
        if req.text not in paths:
            path = workdir / f"g{len(paths)}.txt"
            path.write_text(req.text, encoding="utf-8")
            paths[req.text] = path
        argvs.append([req.command, str(paths[req.text]), "--json"])
    return argvs


def run_corpus(requests: list[SolveRequest], argvs: list[list[str]], traced: bool) -> Outcome:
    """Closed loop, one client: each request is one run_cli call, stdout captured."""
    import linarr
    import linarr.cli as cli

    out = Outcome()
    tracer = Tracer()
    patch = {}
    if traced:
        patch = layer_patch(tracer, cli, CLI_LAYERS, solver_counters(tracer, []))
        patch["json"] = _JsonProxy(tracer)
    replies = []
    intervals = []
    with patched(cli, patch), HostSpeed(enabled=not traced) as speed:
        start = time.perf_counter()
        for argv in argvs:
            t0 = time.perf_counter()
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    if traced:
                        with tracer.span("cli"):
                            code = linarr.run_cli(argv)
                    else:
                        code = linarr.run_cli(argv)
                replies.append((code, stdout.getvalue(), stderr.getvalue()))
            except Exception as exc:  # a raising request is a failed request
                replies.append((None, "", repr(exc)))
            intervals.append((t0, time.perf_counter()))
        end = time.perf_counter()
    out.rss_mb = peak_rss_mb()
    out.wall = speed.work(start, end)
    out.latencies = [speed.scaled(a, b) for a, b in intervals]
    out.slice_s = speed.slice_median()

    out.attempted = len(requests)
    defects = {name: 0 for name in DEFECTS}
    for req, (code, stdout, stderr) in zip(requests, replies):
        out.digests.append(hashlib.sha256(stdout.encode()).hexdigest())
        problem = check_solve_reply(req, code, stdout, stderr, defects)
        if problem:
            out.failures.append(f"{req.name} {req.command}: {problem}")
    out.defects = defects
    if traced:
        tracer.counters["graphio.bytes_out"] = sum(len(r[1].encode()) for r in replies)
        out.layers = layer_metrics(tracer, out.wall)
    return out


def check_solve_reply(req: SolveRequest, code, stdout: str, stderr: str,
                      defects: dict[str, int]) -> str | None:
    """None when the reply matches the reference; else what is wrong."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not isinstance(report, dict):
        return "output is not a JSON object"
    ref = req.ref
    edges = ref["edges"]
    index = {label: i for i, label in enumerate(req.labels)}
    if report.get("command") != req.command:
        return "wrong command in report"
    if req.command == "planar-minla":
        if report.get("planar_arrangement_exists") != ref["outerplanar"]:
            return "planar_arrangement_exists differs from the reference"
        if not ref["outerplanar"]:
            extra = set(report) - {"command", "planar_arrangement_exists"}
            return f"unexpected keys {sorted(extra)}" if extra else None
        optimum, crossing_free, count = ref["planar_opt"], True, ref["planar_count"]
    else:
        if not isinstance(report.get("solver"), str):
            return "missing solver id"
        optimum, crossing_free, count = ref["minla_opt"], False, ref["minla_count"]
    if report.get("optimal_cost") != optimum:
        return f"optimal_cost {report.get('optimal_cost')} != reference {optimum}"
    if not isinstance(report.get("explored"), int) or report["explored"] < 1:
        return "explored is not a positive integer"
    try:
        witness = _positions(report["witness"], index)
        witnesses = [_positions(w, index) for w in report["witnesses"]]
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable witness: {exc}"
    for pos in [witness] + witnesses:
        if not _valid_optimum(pos, edges, optimum, crossing_free):
            return "a witness is not a valid optimum"
    distinct = _distinct_up_to_reversal(witnesses)
    if distinct != len(witnesses):
        return "witnesses repeat an arrangement or its reversal"
    if witness not in witnesses:
        return "witness is not among the witnesses"
    if req.command == "planar-minla":
        if distinct != count:
            return f"{distinct} crossing-free witnesses, reference has {count}"
    else:
        # Known branch-and-bound defect (tie pruning): counted, not failed.
        defects[DEFECTS[0]] += list(witness) != ref["minla_best"]
        defects[DEFECTS[1]] += distinct < count
    return None


def _positions(text: str, index: dict[str, int]) -> tuple[int, ...]:
    order = [index[label] for label in text.split(",")]
    if sorted(order) != list(range(len(index))):
        raise ValueError("not a permutation of the vertex labels")
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i + 1
    return tuple(pos)


# ---------------------------------------------------------------------------
# claims-enumerate
# ---------------------------------------------------------------------------


def run_claims(requests: list[ClaimsRequest], traced: bool) -> Outcome:
    """Each request parses its text and checks both claims over every
    crossing-free arrangement."""
    import linarr
    import linarr.solvers as solvers
    from linarr.graphio import parse_edge_subset

    out = Outcome()
    tracer = Tracer()
    patch = layer_patch(tracer, solvers, CLAIMS_LAYERS) if traced else {}
    replies = []
    intervals = []
    with patched(solvers, patch), HostSpeed(enabled=not traced) as speed:
        start = time.perf_counter()
        for req in requests:
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("graphio.parse"):
                        doc = linarr.parse_graph(req.text)
                        cycle = parse_edge_subset(req.cycle_text, doc)
                    with tracer.span("solvers.claims"):
                        report = linarr.check_dominating_edge_claims(doc.graph, cycle)
                    tracer.count("solvers.claims_arrangements", report.arrangement_count)
                else:
                    doc = linarr.parse_graph(req.text)
                    cycle = parse_edge_subset(req.cycle_text, doc)
                    report = linarr.check_dominating_edge_claims(doc.graph, cycle)
                replies.append(report)
            except Exception as exc:  # a raising request is a failed request
                replies.append(exc)
            intervals.append((t0, time.perf_counter()))
        end = time.perf_counter()
    out.rss_mb = peak_rss_mb()
    out.wall = speed.work(start, end)
    out.latencies = [speed.scaled(a, b) for a, b in intervals]
    out.slice_s = speed.slice_median()

    out.attempted = len(requests)
    for req, report in zip(requests, replies):
        problem = check_claims_report(req, report)
        if problem:
            out.failures.append(f"{req.name}: {problem}")
        out.digests.append(hashlib.sha256(repr(report).encode()).hexdigest())
    out.defects = {name: 0 for name in DEFECTS}
    if traced:
        out.layers = layer_metrics(tracer, out.wall)
    return out


def check_claims_report(req: ClaimsRequest, report) -> str | None:
    if isinstance(report, Exception):
        return f"raised {report!r}"
    ref = req.ref
    if report.arrangement_count != ref["arrangements"]:
        return f"{report.arrangement_count} arrangements, reference has {ref['arrangements']}"
    for which, verdict, holds in ((0, report.claim1, ref["claim1"]), (1, report.claim2, ref["claim2"])):
        if verdict.holds != holds:
            return f"claim {which + 1} verdict {verdict.holds} != reference {holds}"
        if not holds:
            if verdict.witness_arrangement is None:
                return f"claim {which + 1} fails without a witness arrangement"
            pos = verdict.witness_arrangement.positions
            if not oracle.crossing_free(pos, req.edges):
                return f"claim {which + 1} witness arrangement has a crossing"
            if not oracle.claim_failures(pos, req.edges, req.cycle)[which]:
                return f"claim {which + 1} witness arrangement does not violate it"
    return None
