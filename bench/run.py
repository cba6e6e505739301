"""linarr benchmark: times the paper's gap search, single-graph solves and
claim enumeration end to end, and layer by layer in a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. Every pass runs in a fresh
interpreter, one at a time, with LINARR_THREADS=1: `_all_graph_reps` is
memoised per process and `Graph` caches adjacency data on the instance, so
a reused process would skip work a user pays for. End-to-end times are at
reference host speed (see speed.py); per-layer times are raw wall time.
The last line of stdout
is the result object; a line starting with "# " before it carries the
sample counts, fail_frac and the witness-defect counters. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "linarr-bench"
WORKLOADS = ("search-order7", "solve-corpus", "claims-enumerate")
SETUP_SAMPLES = 15
# No pass starts after this many seconds, so a run ends well within 180 s.
PASS_START_LIMIT_S = 100.0
PASS_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Child: one pass in a fresh interpreter
# ---------------------------------------------------------------------------


def child(mode: str, workload: str, seed: int) -> dict:
    """Set up, then (unless mode is "setup") run one pass; `ready` marks
    the moment the inputs are ready, on the system-wide monotonic clock."""
    sys.path.insert(0, str(SRC))
    import linarr

    if Path(linarr.__file__).resolve().parent != (SRC / "linarr").resolve():
        raise BenchError(f"imported linarr from {linarr.__file__}, not from {SRC}")
    import workloads

    workdir = None
    try:
        if workload == "search-order7":
            pass_fn = workloads.run_search
            args = ()
        elif workload == "solve-corpus":
            requests = workloads.corpus_requests(seed, workloads.load("corpus.json"))
            workdir = WORKDIR / f"{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            argvs = workloads.write_corpus(requests, workdir)
            pass_fn = workloads.run_corpus
            args = (requests, argvs)
        else:
            requests = workloads.claims_requests(seed, workloads.load("claims.json"))
            pass_fn = workloads.run_claims
            args = (requests,)
        ready = time.monotonic()
        if mode == "setup":
            return {"ready": ready}
        return {"ready": ready, **pass_fn(*args, traced=mode == "traced").as_dict()}
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Parent: spawn passes one after another, aggregate, print
# ---------------------------------------------------------------------------


def spawn(mode: str, workload: str, seed: int, deadline: float, speed: HostSpeed) -> dict:
    """One pass in a fresh interpreter, between two calibration slices of
    this process, which scale its set-up time to reference speed."""
    env = dict(os.environ, LINARR_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed)]
    speed.slice()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not finish in time") from None
    speed.slice()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup"] = speed.scaled(spawned, result["ready"])
    result["setup_raw"] = result["ready"] - spawned
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90, step 10) by inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def untraced(workload: str, seed: int, seconds: int, start: float) -> tuple[dict, list[dict], dict]:
    """Set-up-only interpreters, then measured passes while the next one
    would still end within `seconds` of the start (always at least one)."""
    deadline = start + PASS_TIMEOUT_S
    speed = HostSpeed(clock=time.monotonic, window=1)
    setups = [spawn("setup", workload, seed, deadline, speed) for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    longest = 0.0
    while not passes or (time.monotonic() - start + longest <= seconds
                         and time.monotonic() - start < PASS_START_LIMIT_S):
        began = time.monotonic()
        passes.append(spawn("measure", workload, seed, deadline, speed))
        longest = max(longest, time.monotonic() - began)
    setups += passes
    # Every pass sends the same requests in the same order. Each request's
    # latency is its median over passes, which filters bursts of machine
    # noise that hit one pass; wall_s is one pass as the sum of these.
    per_request = [statistics.median(lat) for lat in zip(*(p["latencies"] for p in passes))]
    metrics = {
        "setup_s": statistics.median(s["setup"] for s in setups),
        "wall_s": sum(per_request),
        "latency_p50_ms": percentile(per_request, 50) * 1e3,
        "latency_p90_ms": percentile(per_request, 90) * 1e3,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    info = {"setup_samples": len(setups), "latency_samples": len(per_request),
            "beyond_p90": sum(x > metrics["latency_p90_ms"] / 1e3 for x in per_request),
            "setup_raw_s": statistics.median(s["setup_raw"] for s in setups),
            "scaled_walls": [sum(p["latencies"]) for p in passes],
            "slice_s": [p["slice_s"] for p in passes]}
    return metrics, passes, info


def traced(workload: str, seed: int, seconds: int, start: float) -> tuple[dict, list[dict], dict]:
    """Pairs of an untraced and a traced pass until both together have run
    for half of `seconds`; per-layer medians over pairs."""
    deadline = start + PASS_TIMEOUT_S
    speed = HostSpeed(clock=time.monotonic, window=1)
    pairs: list[tuple[dict, dict]] = []
    while not pairs or (sum(u["wall"] + t["wall"] for u, t in pairs) < seconds / 2
                        and time.monotonic() - start < PASS_START_LIMIT_S):
        pairs.append((spawn("measure", workload, seed, deadline, speed),
                      spawn("traced", workload, seed, deadline, speed)))
    names = sorted({k for _, t in pairs for k in t["layers"]})
    metrics = {k: statistics.median(t["layers"].get(k, 0.0) for _, t in pairs) for k in names}
    metrics["trace.overhead_s"] = statistics.median(t["wall"] - u["wall"] for u, t in pairs)
    for u, t in pairs:
        if u["digests"] != t["digests"]:
            mismatched = sum(a != b for a, b in zip(u["digests"], t["digests"]))
            t["failed"] += max(1, mismatched)
            t["failures"].append(f"{mismatched} traced replies differ from untraced replies")
    passes = [p for pair in pairs for p in pair]
    defects = next((p["defects"] for p in passes if p["defects"] is not None), None) or {}
    metrics.update(defects)
    return metrics, passes, {"pairs": len(pairs)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.child:
            print(json.dumps(child(args.child, args.workload, args.seed)))
            return 0
        if not (SRC / "linarr" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'linarr'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        start = time.monotonic()
        if args.trace:
            values, passes, info = traced(args.workload, args.seed, args.seconds, start)
            wanted = spec["per_layer"]
        else:
            values, passes, info = untraced(args.workload, args.seed, args.seconds, start)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    defects = next((p["defects"] for p in passes if p["defects"] is not None), None)
    info.update(workload=args.workload, seed=args.seed, passes=len(passes),
                walls=[p["wall"] for p in passes], fail_frac=failed / attempted,
                defects=defects, failures=[f for p in passes for f in p["failures"]][:10])
    print("# " + json.dumps(info))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
