"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import io
import json
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

PENTAGON = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])


class CorpusDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        corpus = workloads.load("corpus.json")
        claims = workloads.load("claims.json")
        self.assertEqual(workloads.corpus_requests(7, corpus), workloads.corpus_requests(7, corpus))
        self.assertEqual(workloads.claims_requests(7, claims), workloads.claims_requests(7, claims))

    def test_other_seed_other_inputs(self):
        corpus = workloads.load("corpus.json")
        claims = workloads.load("claims.json")
        self.assertNotEqual(workloads.corpus_requests(7, corpus), workloads.corpus_requests(8, corpus))
        self.assertNotEqual(workloads.claims_requests(7, claims), workloads.claims_requests(8, claims))

    def test_corpus_shape(self):
        requests = workloads.corpus_requests(3, workloads.load("corpus.json"))
        self.assertGreaterEqual(len(requests), 120)
        names = {r.name for r in requests}
        self.assertTrue(set(inputs.ROADMAP_GRAPHS) <= names)

    def test_pool_is_reproducible(self):
        pool = inputs.make_pool()
        stored = workloads.load("corpus.json")["pool"]
        flat = [(key, edges) for key, graphs in pool.items() for edges in graphs]
        self.assertEqual([(e["stratum"], [tuple(x) for x in e["edges"]]) for e in stored],
                         [(k, [tuple(x) for x in g]) for k, g in flat])


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
        spans = [
            Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 4.0, 0),
            Span("c", 2.0, 3.0, 1),
            Span("b", 5.0, 9.0, 0),
        ]
        self.assertEqual(self_times(spans), {"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0})

    def test_repeated_names_add_up(self):
        spans = [Span("x", 0.0, 2.0, None), Span("y", 0.5, 1.0, 0), Span("y", 1.0, 1.5, 0),
                 Span("x", 3.0, 4.0, None)]
        self.assertEqual(self_times(spans), {"x": 2.0, "y": 1.0})

    def test_tracer_nesting_and_streams(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        stream = tracer.wrap_stream(lambda: iter("ab"), "gen", "gen_items")
        with tracer.span("outer"):
            self.assertEqual(list(stream()), ["a", "b"])
        times = tracer.self_times()
        self.assertEqual(tracer.counters["gen_items"], 2)
        self.assertEqual(sum(1 for s in tracer.spans if s.name == "gen"), 3)
        self.assertAlmostEqual(times["outer"] + times["gen"], tracer.spans[0].end - tracer.spans[0].start)


class HostSpeedScaling(unittest.TestCase):
    def test_slices_are_excluded_and_scale_their_neighbours(self):
        host = speed.HostSpeed(window=1)
        ref = speed.REFERENCE_S
        # Slices of ref, 2 ref and ref: the host is at reference speed, then
        # half as fast, then back. Work runs in [1, 5] and [6, 10].
        host.slices = [(0.0, ref), (5.0, 5.0 + 2 * ref), (10.0, 10.0 + ref)]
        self.assertAlmostEqual(host.work(1.0, 10.0), 9.0 - 2 * ref)
        self.assertAlmostEqual(host.scaled(1.0, 4.0), 3.0 / 1.5)
        self.assertAlmostEqual(host.scaled(0.0, 10.0), (5.0 - ref + 5.0 - 2 * ref) / 1.5)

    def test_one_slow_slice_does_not_skew_its_neighbours(self):
        host = speed.HostSpeed(window=2)
        ref = speed.REFERENCE_S
        times = [ref, ref, 5 * ref, ref, ref]
        host.slices = [(float(i), i + t) for i, t in enumerate(times)]
        self.assertAlmostEqual(host.scaled(0.0, 5.0), host.work(0.0, 5.0))

    def test_disabled_reports_plain_differences(self):
        host = speed.HostSpeed(enabled=False)
        with host:
            pass
        self.assertEqual(host.slices, [])
        self.assertEqual((host.work(1.0, 3.5), host.scaled(1.0, 3.5)), (2.5, 2.5))

    def test_timer_interleaves_slices_with_the_block(self):
        with speed.HostSpeed(interval=0.01) as host:
            start = host.clock()
            while host.clock() - start < 0.2:
                pass
            end = host.clock()
        self.assertGreaterEqual(len(host.slices), 4)
        self.assertLess(host.work(start, end), end - start)


def solve_reply(command: str, text: str) -> tuple[int, str]:
    import linarr

    path = HERE.parent / ".bench_build" / "test-graph.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = linarr.run_cli([command, str(path), "--json"])
    path.unlink()
    return code, out.getvalue()


class Validator(unittest.TestCase):
    def setUp(self):
        order, edges = PENTAGON
        self.ref = {"order": order, "edges": [list(e) for e in edges], **oracle.brute_force(order, edges)}
        self.ref["outerplanar"] = self.ref["planar_opt"] is not None
        self.labels = list("abcde")
        self.text = "\n".join(self.labels + [f"{self.labels[u]} {self.labels[v]}" for u, v in edges])

    def check(self, command, stdout, code=0):
        req = workloads.SolveRequest("pentagon", command, self.text, self.labels, self.ref)
        defects = {name: 0 for name in workloads.DEFECTS}
        return workloads.check_solve_reply(req, code, stdout, "", defects), defects

    def test_reference_values(self):
        self.assertEqual((self.ref["minla_opt"], self.ref["planar_opt"]), (9, 10))

    def test_genuine_replies_pass(self):
        for command in ("minla", "planar-minla"):
            code, stdout = solve_reply(command, self.text)
            problem, _ = self.check(command, stdout, code)
            self.assertIsNone(problem, command)

    def test_known_minla_defect_is_counted_not_failed(self):
        _, stdout = solve_reply("minla", self.text)
        problem, defects = self.check("minla", stdout)
        self.assertIsNone(problem)
        self.assertEqual(defects["solvers.witnesses_incomplete"], 1)

    def test_tampered_replies_fail(self):
        _, stdout = solve_reply("planar-minla", self.text)
        good = json.loads(stdout)
        tampered = [
            dict(good, optimal_cost=good["optimal_cost"] - 1),
            dict(good, witness="a,c,b,d,e"),  # costs 11
            dict(good, witnesses=good["witnesses"] + [good["witnesses"][0][::-1]]),
            dict(good, witnesses=good["witnesses"][1:]),
            dict(good, planar_arrangement_exists=False),
            dict(good, explored=0),
        ]
        for report in tampered:
            problem, _ = self.check("planar-minla", json.dumps(report))
            self.assertIsNotNone(problem, report)
        self.assertIsNotNone(self.check("planar-minla", stdout, code=1)[0])
        self.assertIsNotNone(self.check("planar-minla", "not json")[0])

    def test_crossing_witness_fails_planar_check(self):
        # a,b,e,d,c costs 10 like the crossing-free optimum but has a crossing.
        order, edges = PENTAGON
        pos = (1, 2, 5, 4, 3)
        self.assertEqual(oracle.cost(pos, edges), 10)
        self.assertFalse(oracle.crossing_free(pos, edges))
        self.assertFalse(workloads._valid_optimum(pos, edges, 10, True))

    def test_tampered_claims_report_fails(self):
        import dataclasses

        import linarr

        reference = workloads.load("claims.json")
        req = next(r for r in workloads.claims_requests(1, reference) if r.name == "C9")
        doc = linarr.parse_graph(req.text)
        from linarr.graphio import parse_edge_subset
        report = linarr.check_dominating_edge_claims(doc.graph, parse_edge_subset(req.cycle_text, doc))
        self.assertIsNone(workloads.check_claims_report(req, report))
        wrong = dataclasses.replace(report, arrangement_count=report.arrangement_count + 1)
        self.assertIsNotNone(workloads.check_claims_report(req, wrong))
        flipped = dataclasses.replace(report, claim1=dataclasses.replace(report.claim1, holds=False))
        self.assertIsNotNone(workloads.check_claims_report(req, flipped))

    def test_tampered_search_rows_fail(self):
        import dataclasses

        import linarr

        reference = workloads.load("search.json")
        reports = []
        for row in reference["gap_rows"][:3]:
            g = linarr.make_graph(row["order"], row["edges"])
            reports.append(linarr.compute_gap(g))
        cut = dict(reference, gap_rows=reference["gap_rows"][:3])
        failures, _ = workloads.check_search(reports, [], cut)
        self.assertEqual(failures, [])
        reports[1] = dataclasses.replace(reports[1], planar_opt=reports[1].planar_opt + 1)
        failures, _ = workloads.check_search(reports, [], cut)
        self.assertEqual(len(failures), 1)
        failures, _ = workloads.check_search(reports[:1], [], cut)
        self.assertEqual(len(failures), 2)


class Reference(unittest.TestCase):
    def test_sweep_matches_pairwise_definition(self):
        import random
        from itertools import combinations

        rng = random.Random(0)
        for _ in range(2000):
            n = rng.randint(2, 8)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            pos = list(range(1, n + 1))
            rng.shuffle(pos)
            self.assertEqual(oracle.crossing_free(pos, edges), oracle.crossing_free_pairwise(pos, edges))

    def test_search_rows_follow_from_classes(self):
        reference = workloads.load("search.json")
        derived = [
            {"order": c["order"], "edges": c["edges"], "minla_opt": c["minla_opt"],
             "planar_opt": c["planar_opt"], "gap": c["planar_opt"] - c["minla_opt"],
             "outerplanar": c["outerplanar"]}
            for c in reference["classes"]
            if c["planar_opt"] is not None and c["planar_opt"] > c["minla_opt"]
        ]
        self.assertEqual(derived, reference["gap_rows"])
        self.assertEqual(len(reference["gap_rows"]), 107)
        self.assertEqual(len(reference["classes"]), 996)

    def test_cycles_have_2n_crossing_free_arrangements(self):
        for entry in workloads.load("claims.json")["graphs"]:
            if entry["name"] in ("C9", "C10"):
                self.assertEqual(entry["arrangements"], 2 * entry["order"])


class Record(unittest.TestCase):
    def test_per_layer_names_match_the_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        emitted = set(workloads.layer_metrics(Tracer(), 0.0))
        emitted |= {"trace.overhead_s", *workloads.DEFECTS}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, emitted)


if __name__ == "__main__":
    unittest.main()
