"""Exact solvers for the minimum linear arrangement problem and its
crossing-free variant, plus a mechanical checker for the structural claims
about dominating cycle edges in crossing-free arrangements.

The default minLA solver is a dynamic program over vertex subsets; the
exhaustive and branch-and-bound solvers enumerate arrangements of vertices
onto positions 1..n, the latter pruning prefixes, and are kept as
references. The crossing-free solver and `iter_crossing_free` share one
prefix search, which drops a prefix as soon as some edge, placed or still
to come, must cross. Two more exact rules drop prefixes that no
crossing-free arrangement extends. The edge-count rule answers a graph
with more than 2n - 3 edges with nothing. The cut-vertex pocket rule
(rule (d) in ROADMAP.md): while some placed vertex has an unplaced
neighbour, a vertex v with no placed neighbour is placed only if an
unplaced neighbour b of the last such vertex t cuts v off from every
placed vertex. Proof: let b be the neighbour of t placed first
after t. The edge (t, b) is then the innermost edge over v's position,
and every vertex from v up to b has all its neighbours in that range, so
v's component of G - b is unplaced. A 2-connected graph has no cut
vertex, so there every vertex after the first has a placed neighbour when
it is placed. The solver also drops prefixes by the subset DP's exact
cost-to-go, expands a prefix that only ties the best cost once the
optimum is known, and it answers a graph that is not outerplanar, which
has no crossing-free arrangement, with None from the linear-time
outerplanarity test before it builds any table. Twins, vertices with the
same neighbours apart from each other, can swap without changing cost or
crossings, so the solver searches one twin-sorted optimum per orbit of
such swaps and expands the orbits only when it lists the witnesses;
`compute_gap` needs only the smallest optimum and never expands them.
Each solver has a maximum order (`MAX_ORDER_*`) above which it raises
ValidationError instead of running for hours; the crossing-free solver
builds the subset DP's tables and shares its limit, and it refuses to list
more than MAX_PLANAR_WITNESSES optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from typing import Iterator, Sequence

from .arrangement import Arrangement
from .errors import ValidationError
from .graph import Edge, Graph, _twin_masks, is_outerplanar, normalize_edge

SOLVER_EXHAUSTIVE = "exhaustive"
SOLVER_BNB = "branch-and-bound"
SOLVER_DP = "subset-dp"
SOLVER_PLANAR = "planar-prefix"

# Largest order each solver accepts. At order 10 the enumerating
# solvers already take 15 s (exhaustive, P10) to 43 s (branch-and-bound,
# K10); the subset DP takes 0.62-0.69 s for K17, its worst case. Times are
# for one Xeon core under CPython 3.11. The crossing-free solver uses
# MAX_ORDER_DP, since it builds the same 2**n tables. The gap search
# builds and solves only the connected outerplanar classes (OEIS
# A111563): 3,783 at order 9, built in about 4 s, with the whole search
# taking about 10 s; order 10 has 20,074. The claim checker walks every
# crossing-free arrangement with no bound to prune them, so its time
# follows their number. A triangle with pendants on one vertex has
# 2n(n - 2)! of them, and checking it takes 0.5 s at order 9, 6.5-6.7 s
# at order 10 and 48 s at order 11 (7,983,360 arrangements).
MAX_ORDER_EXHAUSTIVE = 10
MAX_ORDER_BNB = 10
MAX_ORDER_DP = 17
MAX_ORDER_SEARCH = 9
MAX_ORDER_CLAIMS = 10
# Most optima the crossing-free solver lists. The count is known before any
# witness is built, so a graph above it is refused at once. The 10-star's
# 362,880 optima up to reversal take 1.6 s and 167 MB of peak RSS as one
# `planar-minla --json` request on one Xeon core under CPython 3.11, and as
# many on 12 vertices with 3-letter labels 2.0 s and 199 MB; so a request
# under the cap stays within about 300 MB and 3 s. The 11-star has
# 1,814,400 optima up to reversal and the 12-star 39,916,800.
MAX_PLANAR_WITNESSES = 500_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    `witnesses` holds optimal arrangements sorted by position sequence
    (the subset DP returns only the smallest); when `deduped_reversals` is
    set, each mirror pair is collapsed to its lexicographically smaller
    member. For the enumerating solvers, `explored` counts the complete
    arrangements whose cost was evaluated, which makes pruned and unpruned
    solvers directly comparable; for the subset DP it counts the subset
    states evaluated, 2**n. The crossing-free solver reaches only the
    twin-sorted optima, one per orbit of twin swaps, and expands them into
    the witnesses afterwards, so its `explored` counts the twin-sorted
    complete arrangements reached and may be far below the number of
    witnesses. It drops the larger member of each mirror pair inside its
    search, so its `explored` is smaller with `deduped_reversals`; the
    other solvers count the same in both modes.
    """

    optimal_cost: int
    witnesses: tuple[Arrangement, ...]
    explored: int
    solver_id: str
    deduped_reversals: bool = False

    @property
    def best(self) -> Arrangement:
        """The lexicographically smallest optimal arrangement."""
        return self.witnesses[0]


def _finalize(optimal_cost: int, position_tuples: list[tuple[int, ...]], explored: int,
              solver_id: str, dedup_reversals: bool) -> SolveResult:
    # Arrangements order by their one field, so sorting the raw tuples gives
    # the same order; only the tuples kept become Arrangements.
    kept = sorted(position_tuples)
    if dedup_reversals:
        mirror = (len(kept[0]) + 1).__sub__
        skip: set[tuple[int, ...]] = set()
        unique = []
        for p in kept:
            if p not in skip:
                unique.append(p)
                skip.add(tuple(map(mirror, p)))
        kept = unique
    return SolveResult(optimal_cost, tuple(map(Arrangement._trusted, kept)), explored, solver_id,
                       dedup_reversals)


def _check_order(g: Graph, limit: int, solver_id: str) -> None:
    if g.order > limit:
        raise ValidationError(
            f"the {solver_id} solver accepts graphs of order <= {limit}, got {g.order}"
        )


def solve_minla_exhaustive(g: Graph, dedup_reversals: bool = False) -> SolveResult:
    """Minimize total edge length over all n! arrangements; collect every optimum."""
    _check_order(g, MAX_ORDER_EXHAUSTIVE, SOLVER_EXHAUSTIVE)
    n = g.order
    edges = g.sorted_edges
    best: int | None = None
    witnesses: list[tuple[int, ...]] = []
    explored = 0
    pos = [0] * n
    for perm in permutations(range(n)):
        for i, v in enumerate(perm):
            pos[v] = i + 1
        c = sum(abs(pos[u] - pos[v]) for u, v in edges)
        explored += 1
        if best is None or c < best:
            best = c
            witnesses = [tuple(pos)]
        elif c == best:
            witnesses.append(tuple(pos))
    assert best is not None
    return _finalize(best, witnesses, explored, SOLVER_EXHAUSTIVE, dedup_reversals)


def solve_minla_bnb(g: Graph, dedup_reversals: bool = False) -> SolveResult:
    """Branch-and-bound minimization, agreeing with the exhaustive solver.

    Vertices are placed left to right. A prefix is abandoned when
    placed cost
    + for each edge with one placed endpoint: distance from that endpoint
      to the first unused position
    + the number of fully unplaced edges
    reaches the incumbent; the bound never overestimates a completion.
    """
    _check_order(g, MAX_ORDER_BNB, SOLVER_BNB)
    n = g.order
    edges = g.sorted_edges
    nbrs = g.neighbors
    incumbent: int | None = None
    witnesses: list[tuple[int, ...]] = []
    explored = 0
    pos = [0] * n

    def bound(k: int, placed_cost: int) -> int:
        b = placed_cost
        nxt = k + 1
        for u, v in edges:
            pu, pv = pos[u], pos[v]
            if pu and pv:
                continue
            if pu:
                b += nxt - pu
            elif pv:
                b += nxt - pv
            else:
                b += 1
        return b

    def rec(k: int, placed_cost: int) -> None:
        nonlocal incumbent, explored
        if k == n:
            explored += 1
            if incumbent is None or placed_cost < incumbent:
                incumbent = placed_cost
                witnesses.clear()
                witnesses.append(tuple(pos))
            return
        p = k + 1
        for v in range(n):
            if pos[v]:
                continue
            newcost = placed_cost + sum(p - pos[u] for u in nbrs[v] if pos[u])
            pos[v] = p
            if incumbent is None or bound(p, newcost) < incumbent:
                rec(p, newcost)
            pos[v] = 0

    rec(0, 0)
    assert incumbent is not None
    return _finalize(incumbent, witnesses, explored, SOLVER_BNB, dedup_reversals)


@lru_cache(maxsize=1)
def _subset_tables(g: Graph) -> tuple[list[int], list[int]]:
    """The subset DP's tables over vertex-set masks: cut[S] = |δ(S)|, and
    ahead[S], the least sum of prefix cuts over the orderings of S, cut[S]
    included. By reversal symmetry ahead[V - S] is the exact cost-to-go
    from a placed set S: the least sum of cut[T] over the prefixes T ⊇ S
    that a completion of S passes through.

    The tables of the last graph are cached, so `compute_gap`'s minLA and
    crossing-free solves build them once. Callers share the cached lists:
    they may read them or copy them (`[::-1]`), never change them.
    """
    size = 1 << g.order
    cut = [0] * size
    for v, nbrs in enumerate(g.neighbor_masks):
        bit, deg = 1 << v, nbrs.bit_count()
        for rest in range(bit):
            cut[bit | rest] = cut[rest] + deg - 2 * (nbrs & rest).bit_count()
    ahead = [0] * size
    for s in range(1, size):
        low = s & -s
        best = ahead[s ^ low]
        m = s ^ low
        while m:
            low = m & -m
            m ^= low
            c = ahead[s ^ low]
            if c < best:
                best = c
        ahead[s] = best + cut[s]
    return cut, ahead


def solve_minla_dp(g: Graph, dedup_reversals: bool = False) -> SolveResult:
    """Exact minLA as a shortest path over vertex subsets, O(2**n * n).

    An arrangement's cost is the sum of its prefix cut sizes |δ(S_k)|,
    S_k being the vertices at positions 1..k (Díaz, Petit & Serna, "A
    survey of graph layout problems", ACM Comput. Surv. 34(3), 2002).
    Three tables over subset masks: cut[S]; ahead[S] = F[S] + cut[S], F
    being the best prefix cost of reaching S; and the cost-to-go H[S],
    which by reversal symmetry is ahead[V - S]. The optimum is F[V], and a
    move S -> S+v is tight, i.e. lies on some optimal arrangement, iff
    F[S] + cut[S] + H[S+v] == F[V]. The optimal arrangements are exactly
    the paths of tight moves from the empty set to V.

    `witnesses` holds a single arrangement: the lexicographically smallest
    optimum by position tuple, i.e. the exhaustive solver's `best` with or
    without `dedup_reversals`. Read a position tuple as the digits of a
    number in base n + 1, vertex 0 most significant: every position is at
    most n, so the digits never carry, and comparing the numbers compares
    the tuples. The move S -> S+v puts v at position |S| + 1, so it adds
    (|S| + 1) * (n + 1)**(n - 1 - v), and the smallest total over the
    tight paths is the smallest position tuple. One backward pass takes
    that minimum. `explored` is the number of subset states, 2**n.
    """
    _check_order(g, MAX_ORDER_DP, SOLVER_DP)
    n = g.order
    full = (1 << n) - 1
    size = full + 1
    cut, ahead = _subset_tables(g)
    opt = ahead[full]
    togo = ahead[::-1]
    weight = [(n + 1) ** (n - 1 - v) for v in range(n)]
    # lex[S]: the least weighted sum over the tight moves that complete S,
    # with lex[V] = 0. States on no optimal path are skipped: a tight move
    # from a state on one lands on another, a superset that the descending
    # sweep has already filled.
    lex = [0] * size
    for s in range(full - 1, -1, -1):
        if ahead[s] - cut[s] + togo[s] != opt:
            continue
        need = opt - ahead[s]
        k = s.bit_count() + 1
        best = math.inf
        m = full ^ s
        while m:
            low = m & -m
            m ^= low
            t = s | low
            if togo[t] == need:
                c = lex[t] + k * weight[low.bit_length() - 1]
                if c < best:
                    best = c
        lex[s] = best
    pos = tuple(lex[0] // w % (n + 1) for w in weight)
    return SolveResult(opt, (Arrangement._trusted(pos),), size, SOLVER_DP, dedup_reversals)


def _components(nbrs: tuple[int, ...], within: int) -> list[int]:
    """The connected components, as masks, of the subgraph induced by `within`."""
    pieces = []
    while within:
        comp = todo = within & -within
        while todo:
            low = todo & -todo
            todo ^= low
            new = nbrs[low.bit_length() - 1] & within & ~comp
            comp |= new
            todo |= new
        within ^= comp
        pieces.append(comp)
    return pieces


def _crossing_free_search(g: Graph, bounded: bool = False, dedup_reversals: bool = False,
                          cells: Sequence[int] = ()) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Depth-first prefix search over crossing-free arrangements.

    Vertices are placed left to right, each position trying the unplaced
    vertices in ascending index, and every complete arrangement reached is
    yielded as (cost, positions). An "open" vertex is a placed one with an
    unplaced neighbour, kept on a stack in position order. A vertex may be
    placed iff its placed neighbours are exactly the top of that stack and
    all of them but the deepest close, i.e. have no other unplaced
    neighbour: the new edges then cover only vertices whose edges are all
    placed, so no placed or future edge can cross them. An open vertex
    leaves the stack only by closing.

    Two more rules drop prefixes that no crossing-free arrangement
    extends, so they change nothing that is yielded. Other such prefixes
    are pushed and die a few levels later, when no candidate fits the
    stack.

    Edge-count rule: a graph with a crossing-free arrangement has a
        one-page book embedding, so it is outerplanar (Bernhart & Kainen,
        "The book thickness of a graph", JCTB 27, 1979) and has at most
        2n - 3 edges when n >= 2. A denser graph yields nothing.
    Pocket rule: while the stack is non-empty, with t on top, a
        vertex v with no placed neighbour may be placed only if some
        unplaced neighbour b of t cuts v off from every placed vertex,
        i.e. v's component of G - b holds no placed vertex (b != v, as v
        has no placed neighbour). Take b to be the neighbour of t placed
        first after t. The vertices placed after t are closed, so (t, b)
        is the innermost edge over the gap in front of v. A vertex x from
        v up to b with a neighbour y outside that range is impossible: y
        left of t, or right of b, makes x-y cross (t, b); y = t makes x a
        neighbour of t placed before b; y placed after t is closed, yet x
        is unplaced. So v's component of G - b lies in the unplaced range
        from v to b. In a 2-connected graph G - b is connected and holds
        t, so after the first vertex no vertex without a placed neighbour
        is placed. The rule is applied to the candidate mask when a level
        is pushed, and only when some unplaced vertex has no placed
        neighbour; the components of each G - b are built on first use.

    Cost is the running sum of prefix cuts. When `bounded`, the subset
    DP's exact cost-to-go togo[S] = ahead[V - S] is built (after the
    edge-count rule, so a graph it rejects builds no tables), and a
    prefix is dropped when its cost plus togo exceeds the best cost
    yielded so far. A prefix whose bound equals that incumbent is not
    expanded but deferred: its parent level, with only that candidate
    left to try, and a copy of the positions go on a list of resume
    points, which a leaf that lowers the incumbent empties. Leaves that
    tie are yielded at once. When the depth-first pass ends, the
    incumbent is the optimum, so the surviving resume points are exactly
    the deferred prefixes whose bound equals it; they are expanded with
    ties allowed. No prefix is thus expanded on a tie that later proves
    non-optimal, and every optimum is yielded. Unbounded, the stream
    holds every crossing-free arrangement.

    With `dedup_reversals`, a prefix of (n + 1) // 2 vertices is dropped
    unless it holds vertex 0 and, for odd n with vertex 0 in the middle,
    vertex 1. A position tuple p precedes its mirror n + 1 - p iff vertex
    0 lies left of the middle, or in it with vertex 1 to its left; so of
    each mirror pair only the smaller member is yielded. The optima are
    closed under reversal, so the bounded search still finds the optimum
    and yields the smaller member of every optimal pair.

    Twin rule: `cells` are disjoint vertex masks, each of twins
    (`_twin_masks`) and none holding vertex 0 or 1, and a member of a
    cell is placed only after every lower member of its cell. So the
    search yields only twin-sorted arrangements, in which each cell's
    members stand in ascending order left to right. Swapping two twins
    keeps the set of edge intervals, so cost and crossings too: the
    crossing-free arrangements and the optima are closed under any
    permutation inside a cell, and each orbit of those permutations holds
    exactly one twin-sorted member, its lexicographically smallest. Every
    prefix of a twin-sorted arrangement is twin-sorted, so the bound, the
    tie deferral and the pocket rule stay exact on the restricted search,
    and it reaches the optimum. The permutations fix the positions of
    vertices 0 and 1, which are all the mirror break reads, so the break
    keeps or drops whole orbits. The rule is checked on each candidate
    next to the bound, so the unbounded stream, which passes no cells,
    never tests it; callers expand each yielded arrangement into its
    orbit.

    The search runs in one generator frame over an explicit stack of
    levels, one per placed prefix. A level holds the candidates still to
    try as a mask (tried lowest bit first), the placed set, the prefix's
    cut and cost, its open-vertex stack, and two facts read off that
    stack: segs[d], the top d entries as a mask, and run, how many
    entries from the top down have a single unplaced neighbour. A
    candidate that completes the arrangement is yielded at once, after
    it updates the incumbent, and is never pushed; so each leaf leaves
    the generator once, and the incumbent a candidate is checked against
    is the one in force when it is tried. Order 0 yields one empty
    arrangement: the empty prefix is already complete.
    """
    n = g.order
    if n >= 2 and g.size > 2 * n - 3:
        return iter(())
    togo = _subset_tables(g)[1][::-1] if bounded else None
    nbrs = g.neighbor_masks
    adj = g.neighbors
    full = (1 << n) - 1
    # The mirror break's prefix size (-1: no break), and the middle
    # position, which for odd n also needs vertex 1 placed.
    half = (n + 1) // 2 if dedup_reversals else -1
    middle = half if n & 1 else 0
    # split[b]: the components of G - b as masks, for the pocket rule;
    # each is built the first time b is a later neighbour of the top of
    # the stack.
    split: list[list[int] | None] = [None] * n
    # lower[v]: the members of v's twin cell below v, for the twin rule.
    lower = [0] * n
    for c in cells:
        for v in range(n):
            if c >> v & 1:
                lower[v] = c & ((1 << v) - 1)

    def walk() -> Iterator[tuple[int, tuple[int, ...]]]:
        if not full:
            yield 0, ()
            return
        # Never reset: the path to a leaf has overwritten every entry.
        pos = [0] * n
        incumbent = math.inf
        # Resume points of the prefixes deferred on a tie, while `deferring`.
        ties = []
        deferring = True
        levels = []
        # The current level, unpacked; `levels` holds its ancestors.
        m, placed, free, cut, spent, stack, depth, segs, run = full, 0, full, 0, 0, (), 0, (0,), 0
        while True:
            if not m:
                if levels:
                    m, placed, free, cut, spent, stack, depth, segs, run = levels.pop()
                elif ties:
                    deferring = False
                    (m, placed, free, cut, spent, stack, depth, segs, run), pos = ties.pop()
                else:
                    return
                continue
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            nb = nbrs[v] & placed
            k = nb.bit_count()
            s = placed | bit
            if togo is not None:
                if lower[v] & free:
                    continue  # the twin rule
                bound = spent + togo[s]
                if bound >= incumbent:
                    if bound > incumbent:
                        continue
                    if deferring and s != full:
                        ties.append(((bit, placed, free, cut, spent, stack, depth, segs, run),
                                     pos[:]))
                        continue
            # Stack entries that stay under v: the top k - 1 close now, and
            # the deepest neighbour stays while it has other unplaced ones.
            keep = depth
            if k:
                if nb != segs[k] or k - 1 > run:
                    continue
                keep -= k
                if nbrs[stack[keep]] & free != bit:
                    keep += 1
            top = stack[:keep]
            if nbrs[v] & free:
                top += (v,)
            new_cut = cut + nbrs[v].bit_count() - 2 * k
            pos[v] = p = placed.bit_count() + 1
            new_spent = spent + new_cut
            if s == full:
                if new_spent < incumbent:
                    incumbent = new_spent
                    ties.clear()
                yield new_spent, tuple(pos)
                continue
            if p == half and (not s & 1 or pos[0] == middle and not s & 2):
                continue  # the mirror break
            levels.append((m, placed, free, cut, spent, stack, depth, segs, run))
            placed, free, cut, spent, stack = s, free ^ bit, new_cut, new_spent, top
            depth = len(stack)
            segs = [0]
            reach = 0
            for u in reversed(stack):
                segs.append(segs[-1] | 1 << u)
                reach |= nbrs[u]
            run = 0
            while run < depth and (nbrs[stack[~run]] & free).bit_count() == 1:
                run += 1
            if not stack:
                m = free
                continue
            # A vertex with a placed neighbour has an open one, so it needs
            # the top t of the stack among its neighbours. The others, free
            # & ~reach, need a pocket: a component of G - b, for an
            # unplaced neighbour b of t, with no placed vertex.
            t = stack[-1]
            m = nbrs[t] & free
            if free & ~reach:
                for b in adj[t]:
                    if free >> b & 1:
                        pieces = split[b]
                        if pieces is None:
                            pieces = split[b] = _components(nbrs, full ^ 1 << b)
                        for c in pieces:
                            if not c & placed:
                                m |= c

    return walk()


def _twin_sorted_optima(g: Graph, dedup_reversals: bool
                        ) -> tuple[int, list[tuple[int, ...]], int, list[int]] | None:
    """The crossing-free optimum up to twin swaps, or None if g has none.

    Returns (optimum, the twin-sorted optima as position tuples, explored,
    the twin cells the search was restricted by). Each optimum stands for
    its orbit under the permutations inside the cells; the orbit's smallest
    member is the twin-sorted one, so the smallest optimum is the least of
    them. Checks the order limit, and answers a graph that is not
    outerplanar before any table is built.
    """
    _check_order(g, MAX_ORDER_DP, SOLVER_PLANAR)
    if not is_outerplanar(g):
        return None
    cells = [c for c in dict.fromkeys(m & ~3 for m in _twin_masks(g.neighbor_masks))
             if c.bit_count() > 1]
    incumbent: int | None = None
    optima: list[tuple[int, ...]] = []
    explored = 0
    for c, positions in _crossing_free_search(g, True, dedup_reversals, cells):
        explored += 1
        if incumbent is None or c < incumbent:
            incumbent = c
            optima = []
        optima.append(positions)
    if incumbent is None:
        return None
    return incumbent, optima, explored, cells


def _expand_orbits(optima: list[tuple[int, ...]], cells: list[int], total: int
                   ) -> list[tuple[int, ...]]:
    """Every permutation inside the cells of every twin-sorted optimum,
    `total` position tuples in all, in no particular order.

    The list is allocated once and expanded in place, one cell at a time:
    entry i becomes entries i * k! .. (i + 1) * k! - 1, filled from the
    last entry down so that no entry is overwritten before it is read.
    """
    out: list = [None] * total
    out[:len(optima)] = optima
    count = len(optima)
    n = len(optima[0])
    for cell in cells:
        members = [v for v in range(n) if cell >> v & 1]
        rest = [v for v in range(n) if not cell >> v & 1]
        # A witness is put(fixed + perm): fixed holds the positions of the
        # vertices outside the cell, perm those of the members in order.
        at = {v: i for i, v in enumerate(rest + members)}
        take, slots = itemgetter(*rest), itemgetter(*members)
        put = itemgetter(*map(at.get, range(n)))
        width = math.factorial(len(members))
        for i in range(count - 1, -1, -1):
            p = out[i]
            fixed = take(p)
            j = i * width
            for perm in permutations(slots(p)):
                out[j] = put(fixed + perm)
                j += 1
        count *= width
    return out


def solve_planar_minla(g: Graph, dedup_reversals: bool = False) -> SolveResult | None:
    """Minimize total edge length over crossing-free arrangements only.

    Returns None when the graph admits no crossing-free arrangement. The
    witness set contains every crossing-free optimum, or with
    `dedup_reversals` the smaller member of each mirror pair of them, so it
    doubles as the planar-optima enumerator. The search yields only those,
    and of them only the twin-sorted ones: it defers prefixes that tie the
    incumbent until the optimum is known, with `dedup_reversals` it drops
    the larger half of the mirror pairs itself, and it places twins
    (vertices with the same neighbours apart from each other, vertices 0
    and 1 excepted) in ascending order only. Each twin-sorted optimum is
    then expanded into every permutation inside its twin cells. `explored`
    counts the twin-sorted complete arrangements the pruned search
    reaches, so it is smaller with `dedup_reversals`. More than
    MAX_PLANAR_WITNESSES witnesses raise ValidationError before any is
    built; `compute_gap` needs only the smallest and answers such graphs.
    The search is pruned by the subset DP's tables, so it shares that
    solver's order limit. A graph has a crossing-free arrangement iff it is
    outerplanar, so every other graph gets None from the linear-time
    `is_outerplanar` before any table is built or any prefix searched.
    """
    found = _twin_sorted_optima(g, dedup_reversals)
    if found is None:
        return None
    optimum, optima, explored, cells = found
    total = len(optima)
    for cell in cells:
        total *= math.factorial(cell.bit_count())
    if total > MAX_PLANAR_WITNESSES:
        raise ValidationError(
            f"the {SOLVER_PLANAR} solver lists at most {MAX_PLANAR_WITNESSES:,} optimal "
            f"arrangements, and this graph has {total:,}; `gap` reports the optimum "
            "and the smallest of them"
        )
    witnesses = _expand_orbits(optima, cells, total) if cells else optima
    witnesses.sort()
    return SolveResult(optimum, tuple(map(Arrangement._trusted, witnesses)), explored,
                       SOLVER_PLANAR, dedup_reversals)


def enumerate_planar_optima(g: Graph) -> list[Arrangement] | None:
    """All crossing-free optima, deduplicated up to reversal; None if none
    exist. More than MAX_PLANAR_WITNESSES raise ValidationError."""
    result = solve_planar_minla(g, dedup_reversals=True)
    if result is None:
        return None
    return list(result.witnesses)


def iter_crossing_free(g: Graph) -> Iterator[Arrangement]:
    """Yield every crossing-free arrangement of g exactly once, in ascending
    lexicographic order of `vertex_order()`.

    Callers may rely on that order: the claim checker's witnesses are the
    first failures in it. The stream is lazy and builds no tables.
    """
    for _, positions in _crossing_free_search(g):
        yield Arrangement._trusted(positions)


# ---------------------------------------------------------------------------
# Claim checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome of one structural claim; failures carry a concrete witness."""

    holds: bool
    witness_arrangement: Arrangement | None = None
    witness_edge: Edge | None = None
    note: str = ""


@dataclass(frozen=True)
class ClaimReport:
    """Verdicts for the two dominating-edge claims, aggregated over every
    crossing-free arrangement examined."""

    arrangement_count: int
    claim1: ClaimVerdict
    claim2: ClaimVerdict

    @property
    def both_hold(self) -> bool:
        return self.claim1.holds and self.claim2.holds


def _validate_cycle(g: Graph, cycle_edges) -> tuple[Edge, ...]:
    edges = tuple(sorted(normalize_edge(e) for e in cycle_edges))
    if len(set(edges)) != len(edges):
        raise ValidationError("cycle edge set contains duplicates")
    for e in edges:
        if e not in g.edges:
            raise ValidationError(f"cycle edge {e} is not an edge of the graph")
    if len(edges) < 3:
        raise ValidationError("a simple cycle needs at least 3 edges")
    degree: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(d != 2 for d in degree.values()):
        raise ValidationError("cycle edges must touch every incident vertex exactly twice")
    if len(degree) != len(edges):
        raise ValidationError("cycle edges do not form a single simple cycle")
    # Walk the cycle to rule out two disjoint cycles of equal total size.
    start = min(degree)
    prev, cur = None, start
    steps = 0
    while True:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        prev, cur = cur, nxt
        steps += 1
        if cur == start:
            break
    if steps != len(edges):
        raise ValidationError("cycle edges do not form a single simple cycle")
    return edges


def check_dominating_edge_claims(g: Graph, cycle_edges) -> ClaimReport:
    """Check the two dominating-edge claims over all crossing-free arrangements.

    Claim 1: every cycle edge either has an interval containing every other
    edge's interval, or its endpoints sit at adjacent positions.
    Claim 2: exactly one cycle edge has an interval containing every other
    edge's interval. (Per the domination predicate's convention, "e contains
    all others" means every other edge dominates into e's interval.)
    Graphs above MAX_ORDER_CLAIMS raise ValidationError before any search.
    """
    if g.order > MAX_ORDER_CLAIMS:
        raise ValidationError(
            f"the claim checker accepts graphs of order <= {MAX_ORDER_CLAIMS}, got {g.order}"
        )
    cyc = _validate_cycle(g, cycle_edges)
    # A cycle edge contains every other edge's interval iff its interval is
    # the hull of the vertices that have edges. Distinct edges never share
    # an interval, so at most one cycle edge does. With no isolated vertex
    # that hull is (1, n) in every arrangement.
    ends = {v for e in g.sorted_edges for v in e}
    full = (1, g.order) if len(ends) == g.order else None
    count = 0
    c1 = ClaimVerdict(True)
    c2 = ClaimVerdict(True)
    for arr in iter_crossing_free(g):
        count += 1
        pos = arr.positions
        hull = full
        if hull is None:
            at = list(map(pos.__getitem__, ends))
            hull = (min(at), max(at))
        dominated = False
        failing_edge = None
        for e in cyc:
            pu, pv = pos[e[0]], pos[e[1]]
            span = (pu, pv) if pu < pv else (pv, pu)
            if span == hull:
                dominated = True
            elif span[1] - span[0] != 1 and failing_edge is None:
                failing_edge = e
        if failing_edge is not None and c1.holds:
            c1 = ClaimVerdict(
                False, arr, failing_edge,
                "cycle edge neither contains all other edges nor has adjacent endpoints",
            )
        if not dominated and c2.holds:
            edge = failing_edge if failing_edge is not None else cyc[0]
            c2 = ClaimVerdict(False, arr, edge, "no cycle edge contains all other edges")
    return ClaimReport(count, c1, c2)
