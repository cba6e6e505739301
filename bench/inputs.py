"""Input definitions shared by the harness and the reference generator.

Graphs are given as (order, edge list) over vertex ids 0..order-1. The
harness turns them into request text; the seed only chooses labels, file
formats, edge and request order and, for claims, a relabeling.
"""

from __future__ import annotations

import random
from itertools import combinations


def cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


# The four fixed graphs of the solve corpus: dense (minLA-bound), chorded
# cycle and tree (crossing-free-solve-bound), star (20,160 tied planar
# optima, output-bound).
ROADMAP_GRAPHS: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "K9": (9, list(combinations(range(9), 2))),
    "C10-2chords": (10, cycle(10) + [(0, 5), (1, 4)]),
    "bintree10": (10, [((i - 1) // 2, i) for i in range(1, 10)]),
    "star9": (9, [(0, i) for i in range(1, 9)]),
}


def _pendants(k: int, p: int) -> tuple[int, list[tuple[int, int]]]:
    return k + p, cycle(k) + [(i % k, k + i) for i in range(p)]


# Claims inputs: (order, edges, Hamiltonian cycle of the core).
CLAIMS_GRAPHS: dict[str, tuple[int, list[tuple[int, int]], list[tuple[int, int]]]] = {
    "C9": (9, cycle(9), cycle(9)),
    "C10": (10, cycle(10), cycle(10)),
    "C10-chord05": (10, cycle(10) + [(0, 5)], cycle(10)),
    "C10-chord03": (10, cycle(10) + [(0, 3)], cycle(10)),
    "C10-chords05-69": (10, cycle(10) + [(0, 5), (6, 9)], cycle(10)),
    "C10-chords02-47": (10, cycle(10) + [(0, 2), (4, 7)], cycle(10)),
    "C4-5pendants": (*_pendants(4, 5), cycle(4)),
    "C5-4pendants": (*_pendants(5, 4), cycle(5)),
    "C5-5pendants": (*_pendants(5, 5), cycle(5)),
    "C6-4pendants": (*_pendants(6, 4), cycle(6)),
}

# Random connected graphs for the solve corpus, stored with their reference
# values in data/corpus.json: POOL_PER_STRATUM graphs in each (order, edge
# density) stratum, drawn once from POOL_SEED. Every run uses all of them,
# so the run seed changes the request text and order but not the work.
POOL_STRATA: list[tuple[int, float]] = [
    (8, 0.25), (8, 0.4), (8, 0.6), (9, 0.25), (9, 0.4), (9, 0.6),
]
POOL_PER_STRATUM = 24
POOL_SEED = 1409_1005


def stratum_key(order: int, density: float) -> str:
    return f"n{order}-p{density}"


def make_pool() -> dict[str, list[list[tuple[int, int]]]]:
    """Draw the pool: distinct connected G(n, p) samples per stratum."""
    rng = random.Random(POOL_SEED)
    pool: dict[str, list[list[tuple[int, int]]]] = {}
    for order, density in POOL_STRATA:
        seen: set[tuple[tuple[int, int], ...]] = set()
        graphs = []
        while len(graphs) < POOL_PER_STRATUM:
            edges = tuple(e for e in combinations(range(order), 2) if rng.random() < density)
            if edges in seen or not is_connected(order, edges):
                continue
            seen.add(edges)
            graphs.append(list(edges))
        pool[stratum_key(order, density)] = graphs
    return pool


def is_connected(order: int, edges) -> bool:
    adj: list[set[int]] = [set() for _ in range(order)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == order
