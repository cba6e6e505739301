"""Regenerate the reference data in bench/data/ by brute force.

    python3 bench/make_reference.py [search|corpus|claims ...]

Every optimum, count and verdict comes from a scan over all n!
arrangements (oracle.py), never from the solvers the benchmark times. Two
exceptions are stated where they occur: the connected classes of the
search are the package's own representatives (they define the expected
output), checked here against OEIS A001349 and for pairwise
non-isomorphism; and the crossing-free references of 10-vertex corpus
graphs come from the costed, unpruned `iter_crossing_free` stream.
Takes about ten minutes on one core; sections can run in parallel.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402

DATA = HERE / "data"
CONNECTED_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349
MAX_ORDER = 7


def write(name: str, payload: dict) -> None:
    """One record per line, so diffs stay readable."""
    lines = ["{"]
    keys = list(payload)
    for i, key in enumerate(keys):
        value = payload[key]
        tail = "," if i < len(keys) - 1 else ""
        if isinstance(value, list):
            lines.append(f"  {json.dumps(key)}: [")
            lines.extend("    " + json.dumps(item, sort_keys=True) + ("," if j < len(value) - 1 else "")
                         for j, item in enumerate(value))
            lines.append("  ]" + tail)
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}{tail}")
    lines.append("}")
    (DATA / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def search_reference() -> None:
    from linarr import enumerate_connected_graphs

    classes = []
    for order in range(1, MAX_ORDER + 1):
        reps = [sorted(g.edges) for g in enumerate_connected_graphs(order)]
        if len(reps) != CONNECTED_CLASSES[order]:
            raise SystemExit(f"order {order}: {len(reps)} classes, OEIS says {CONNECTED_CLASSES[order]}")
        keys = set()
        for edges in reps:
            if not inputs.is_connected(order, edges):
                raise SystemExit(f"order {order}: disconnected representative {edges}")
            keys.add(oracle.canonical_key(order, edges))
        if len(keys) != len(reps):
            raise SystemExit(f"order {order}: isomorphic representatives")
        for edges in reps:
            ref = oracle.brute_force(order, edges)
            classes.append({
                "order": order, "edges": [list(e) for e in edges],
                "minla_opt": ref["minla_opt"], "minla_best": ref["minla_best"],
                "minla_count": ref["minla_count"], "planar_opt": ref["planar_opt"],
                "outerplanar": ref["planar_opt"] is not None,
            })
        print(f"search: order {order} done", file=sys.stderr, flush=True)
    rows = [
        {"order": c["order"], "edges": c["edges"], "minla_opt": c["minla_opt"],
         "planar_opt": c["planar_opt"], "gap": c["planar_opt"] - c["minla_opt"],
         "outerplanar": c["outerplanar"]}
        for c in classes
        if c["planar_opt"] is not None and c["planar_opt"] - c["minla_opt"] >= 1
    ]
    write("search.json", {"max_order": MAX_ORDER, "min_gap": 1,
                          "gap_rows": rows, "classes": classes})


def planar_by_stream(order: int, edges) -> tuple[int | None, int]:
    """Crossing-free optimum and its count up to reversal, from the unpruned stream."""
    from linarr import iter_crossing_free, make_graph

    best, count = None, 0
    for arr in iter_crossing_free(make_graph(order, edges)):
        c = oracle.cost(arr.positions, edges)
        if best is None or c < best:
            best, count = c, 1
        elif c == best:
            count += 1
    return best, count // 2


def graph_reference(order: int, edges) -> dict:
    if order <= 9:
        ref = oracle.brute_force(order, edges)
    else:
        ref = oracle.brute_force(order, edges, with_planar=False)
        ref["planar_opt"], ref["planar_count"] = planar_by_stream(order, edges)
    ref["outerplanar"] = ref["planar_opt"] is not None
    return {"order": order, "edges": [list(e) for e in edges], **ref}


def corpus_reference() -> None:
    fixed = []
    for name, (order, edges) in inputs.ROADMAP_GRAPHS.items():
        fixed.append({"name": name, **graph_reference(order, edges)})
        print(f"corpus: {name} done", file=sys.stderr, flush=True)
    pool = []
    for key, graphs in inputs.make_pool().items():
        order = int(key.split("-")[0][1:])
        for i, edges in enumerate(graphs):
            pool.append({"name": f"{key}-{i}", "stratum": key, **graph_reference(order, edges)})
        print(f"corpus: stratum {key} done", file=sys.stderr, flush=True)
    write("corpus.json", {"fixed": fixed, "pool": pool})


def claims_reference() -> None:
    graphs = []
    for name, (order, edges, cycle) in inputs.CLAIMS_GRAPHS.items():
        count = 0
        c1_holds = c2_holds = True
        for pos in permutations(range(1, order + 1)):
            if not oracle.crossing_free(pos, edges):
                continue
            count += 1
            c1_fails, c2_fails = oracle.claim_failures(pos, edges, cycle)
            c1_holds &= not c1_fails
            c2_holds &= not c2_fails
        graphs.append({"name": name, "order": order, "edges": [list(e) for e in edges],
                       "cycle": [list(e) for e in cycle], "arrangements": count,
                       "claim1": c1_holds, "claim2": c2_holds})
        print(f"claims: {name} done ({count} arrangements)", file=sys.stderr, flush=True)
    write("claims.json", {"graphs": graphs})


SECTIONS = {"search": search_reference, "corpus": corpus_reference, "claims": claims_reference}

if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for section in sys.argv[1:] or list(SECTIONS):
        start = time.perf_counter()
        SECTIONS[section]()
        print(f"{section}: {time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)
