"""Definition-level checks that use nothing from the package.

Positions are tuples indexed by vertex id with values 1..n. These checks
back both the reference generator and the run-time validator.
"""

from __future__ import annotations

from itertools import combinations, permutations


def cost(pos, edges) -> int:
    return sum(abs(pos[u] - pos[v]) for u, v in edges)


def crossing_free(pos, edges) -> bool:
    """True iff no two edge intervals properly interleave (sweep with a stack)."""
    spans = sorted((pos[u], -pos[v]) if pos[u] < pos[v] else (pos[v], -pos[u])
                   for u, v in edges)
    stack: list[int] = []
    for lo, neg_hi in spans:
        hi = -neg_hi
        while stack and stack[-1] <= lo:
            stack.pop()
        if stack and hi > stack[-1]:
            return False
        stack.append(hi)
    return True


def crossing_free_pairwise(pos, edges) -> bool:
    """The same predicate by the definition, for cross-checking the sweep."""
    spans = [tuple(sorted((pos[u], pos[v]))) for u, v in edges]
    return not any(a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1
                   for (a1, b1), (a2, b2) in combinations(spans, 2))


def canonical_key(order: int, edges) -> tuple:
    """Smallest sorted edge tuple over all relabelings (n! scan)."""
    best = None
    for perm in permutations(range(order)):
        key = tuple(sorted((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
                           for u, v in edges))
        if best is None or key < best:
            best = key
    return best


def claim_failures(pos, edges, cycle) -> tuple[bool, bool]:
    """(claim 1 fails, claim 2 fails) on one crossing-free arrangement.

    Claim 1: every cycle edge contains every other edge's interval or has
    adjacent endpoints. Claim 2: exactly one cycle edge contains all others.
    """
    spans = {}
    for u, v in edges:
        e = (min(u, v), max(u, v))
        spans[e] = (min(pos[u], pos[v]), max(pos[u], pos[v]))
    dominators = 0
    c1_fails = False
    for u, v in cycle:
        e = (min(u, v), max(u, v))
        lo, hi = spans[e]
        if all(lo <= flo and fhi <= hi for f, (flo, fhi) in spans.items() if f != e):
            dominators += 1
        elif hi - lo != 1:
            c1_fails = True
    return c1_fails, dominators != 1


def brute_force(order: int, edges, with_planar: bool = True) -> dict:
    """Both optima by a scan over all n! arrangements.

    Returns the minLA optimum, its lexicographically smallest witness and
    its number of optima up to reversal, plus (when `with_planar`) the
    crossing-free optimum and its count, or None when no crossing-free
    arrangement exists.
    """
    if order <= 1:
        only = tuple(range(1, order + 1))
        return {"minla_opt": 0, "minla_best": list(only), "minla_count": 1,
                "planar_opt": 0, "planar_count": 1}
    best = pbest = None
    best_pos = None
    count = pcount = 0
    for pos in permutations(range(1, order + 1)):
        c = sum(abs(pos[u] - pos[v]) for u, v in edges)
        if best is None or c < best:
            best, best_pos, count = c, pos, 1
        elif c == best:
            count += 1
        if with_planar and (pbest is None or c <= pbest) and crossing_free(pos, edges):
            if pbest is None or c < pbest:
                pbest, pcount = c, 1
            else:
                pcount += 1
    out = {"minla_opt": best, "minla_best": list(best_pos), "minla_count": count // 2}
    if with_planar:
        out["planar_opt"] = pbest
        out["planar_count"] = pcount // 2 if pbest is not None else 0
    return out
