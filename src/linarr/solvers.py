"""Exact solvers for the minimum linear arrangement problem and its
crossing-free variant, plus a mechanical checker for the structural claims
about dominating cycle edges in crossing-free arrangements.

The minLA solvers share one dynamic program over vertex subsets:
`solve_minla_dp` returns the smallest optimum, and `solve_minla_exhaustive`
lists every optimum, the DP's paths of tight moves. The crossing-free
solver, `iter_crossing_free` and the claim checker share one prefix
search, which drops a prefix as soon as some edge, placed or still to
come, must cross, and by one more exact rule, on cut-vertex pockets; the
claim checker's walk adds a third, the nesting rule
(`_crossing_free_search` states and proves all three). A graph that is not
outerplanar has no crossing-free arrangement, so each of the three
answers it from the linear-time outerplanarity test before any search:
the solver with None, the stream with nothing, the claim checker with 0
arrangements, on which both claims hold vacuously. The solver also drops
prefixes by the subset DP's exact cost-to-go, and expands a prefix that
only ties the best cost once the optimum is known. Twins, vertices with
the same neighbours apart from each other, can swap without changing
cost or crossings, so both listing solvers find one twin-sorted optimum
per orbit of such swaps, and of each mirror pair only the smaller member:
the crossing-free one by its search, the minLA one by walking the tight
moves under the same two rules. Both check the count against
MAX_WITNESSES before any witness is built, and `_listing` expands both;
`compute_gap` needs only the smallest optimum and does not. Both costs
are invariant under reversal, so every solver lists its optima up to
reversal: of each mirror pair only the member that precedes its mirror,
and `reverse` gives the other. The claim checker walks the same search
without the bound: one arrangement per orbit of mirroring and of swaps
of twins off the cycle, on which both verdicts are constant, and it
counts every member of each orbit. When the first arrangement it reaches
has a Hamiltonian cycle for its vertex order, the graph is 2-connected
and the checker lists the rest of its arrangements outright instead.
Each solver has a maximum order (`MAX_ORDER_*`) above which it raises
ValidationError instead of running for hours; all but the claim checker
build the subset DP's tables and share its limit, and the two listing
solvers refuse to list more than MAX_WITNESSES optima. The gap search
builds those tables for many classes of one order in one packed pass
(`_batched_subset_tables`) and hands each class's tables to both solves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, permutations
from operator import itemgetter
from typing import Iterator, Sequence

from .arrangement import Arrangement
from .errors import ValidationError
from .graph import (Edge, Graph, _bits_of, _components, _twin_masks, is_outerplanar,
                    normalize_edge)

SOLVER_EXHAUSTIVE = "exhaustive"
SOLVER_DP = "subset-dp"
SOLVER_PLANAR = "planar-prefix"

# Largest order each solver accepts. The subset DP takes 0.62-0.69 s for
# K17, its worst case, and both listing solvers use MAX_ORDER_DP, since
# they build the same 2**n tables. The gap search builds and solves only
# the connected outerplanar classes (OEIS A111563): 3,783 at order 9,
# built in about 0.8 s, with the whole search taking about 2.7 s; order 10
# has 20,074, built in about 5 s, whose gaps take about 14 s more (CPU time
# on a shared 2-CPU host under CPython 3.11.7). The claim checker examines
# one crossing-free arrangement per orbit of mirroring and twin swaps, so
# its time follows the number of orbits. A triangle with pendants on one
# vertex has 2n(n - 2)! arrangements in n(n - 2) orbits, and checking it
# takes 2.1 ms at order 10 (806,400 arrangements) and 2.8 ms at order 11.
# Inputs with few twins gain little more than the mirror half: a
# triangle, an edge, a 4-path and an isolated vertex (order 10, 138,240
# arrangements in 34,560 orbits) take 0.51 s, so the limit stays at 10.
# Other times are CPU time on one Xeon core under CPython 3.11.
MAX_ORDER_DP = 17
MAX_ORDER_SEARCH = 9
MAX_ORDER_CLAIMS = 10
# Most optima up to reversal that either listing solver lists. The count is
# known before any witness is built, so a graph above it is refused at once.
# Below it, the 10-star's 362,880 optima take 0.7 s and 94 MB of peak RSS
# as a `planar-minla --json` or `minla --solver exhaustive --json` request
# (wall time, CPython 3.11.7, a shared 2-CPU host); the human reports list
# none of them. The 11-star has 1,814,400 crossing-free optima up to
# reversal, as K10 has minLA optima, and K17 has 17!/2.
MAX_WITNESSES = 500_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    `witnesses` holds the optimal arrangements up to reversal, sorted by
    position sequence: of each mirror pair only the member that precedes
    its mirror, and `reverse` gives the other (the subset DP returns only
    the smallest). Both listing solvers find only the twin-sorted optima
    up to reversal, one per orbit of twin swaps and mirroring, and expand
    them into the witnesses afterwards. For both minLA solvers, `explored`
    counts the subset states of their shared tables, 2**n. The
    crossing-free solver's `explored` counts the twin-sorted complete
    arrangements its search reaches, and may be far below the number of
    witnesses.
    """

    optimal_cost: int
    witnesses: tuple[Arrangement, ...]
    explored: int
    solver_id: str

    @property
    def best(self) -> Arrangement:
        """The lexicographically smallest optimal arrangement."""
        return self.witnesses[0]


def _check_order(g: Graph, limit: int, solver_id: str) -> None:
    if g.order > limit:
        raise ValidationError(
            f"the {solver_id} solver accepts graphs of order <= {limit}, got {g.order}"
        )


def _check_witnesses(total: int, solver_id: str) -> None:
    """Refuse a listing of more than MAX_WITNESSES optima up to reversal."""
    if total > MAX_WITNESSES:
        raise ValidationError(f"the {solver_id} solver lists at most {MAX_WITNESSES:,} optimal "
                              f"arrangements, and this graph has {total:,}; `gap` reports "
                              "the optimum and the smallest of them")


def _subset_tables(g: Graph) -> tuple[list[int], list[int]]:
    """The subset DP's tables over vertex-set masks: cut[S] = |δ(S)|, and
    ahead[S], the least sum of prefix cuts over the orderings of S, cut[S]
    included. By reversal symmetry ahead[V - S] is the exact cost-to-go
    from a placed set S: the least sum of cut[T] over the prefixes T ⊇ S
    that a completion of S passes through.

    Nothing is cached: `compute_gap` builds the tables once and hands them
    to both of its solves, and the gap search builds them a chunk of
    classes at a time (`_batched_subset_tables`).
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


def _batched_subset_tables(graphs: Sequence[Graph]) -> Iterator[tuple[list[int], list[int]]]:
    """`_subset_tables` of each of a non-empty list of graphs of one order,
    built in one pass, in the order of the list.

    Each table entry is one Python int that packs a 16-bit lane per graph,
    so one interpreted step serves every graph. For cut, each vertex v adds
    the packed 0/1 lanes of its edges to lower vertices over the subsets
    below v's bit, lowest bit first, which counts |N(v) ∩ S| per lane; then
    cut[S + v] = cut[S] + deg(v) - 2|N(v) ∩ S|. Every lane of that sum and
    difference is a cut size, so it is non-negative and the plain int
    arithmetic never carries or borrows across lanes. For ahead, the
    minimum over the predecessors is taken lane by lane: with H the top bit
    of every lane, t = ((a | H) - b) & H keeps that bit in each lane where
    a >= b, M = t - (t >> 15) sets the 15 bits below it, and
    a ^ ((a ^ b) & M) is the lane-wise minimum. That needs every entry
    below 2**15: an entry is a sum of at most n prefix cuts, each at most
    m, and n·m <= 17·136 = 2,312 up to MAX_ORDER_DP. Each table is unpacked
    through `int.to_bytes` into one memoryview of 16-bit entries, in native
    byte order, so that graph j has entry j of every state on either byte
    order, and each graph's lists are a strided slice of it, taken when
    that graph's tables are asked for.

    On one graph this is 2.1-2.7 times slower than `_subset_tables` (cycles
    and complete graphs of orders 9 to 17), so only the gap search's class
    stream uses it.
    """
    count = len(graphs)
    n = graphs[0].order
    width = 2 * count
    # The packed 0/1 adjacency: entry (v * n + u) * count + j of `flags`,
    # in native byte order, is 1 iff graph j has the edge u-v.
    flags = bytearray(width * n * n)
    entries = memoryview(flags).cast("H")
    for j, g in enumerate(graphs):
        for u, v in g.sorted_edges:
            entries[(u * n + v) * count + j] = entries[(v * n + u) * count + j] = 1
    size = 1 << n
    cut = [0] * size
    for v in range(n):
        row = [int.from_bytes(flags[at:at + width], sys.byteorder)
               for at in range(v * n * width, (v + 1) * n * width, width)]
        bit, deg = 1 << v, sum(row)
        inside = [0] * bit
        cut[bit] = deg
        for rest in range(1, bit):
            low = rest & -rest
            inside[rest] = x = inside[rest ^ low] + row[low.bit_length() - 1]
            cut[bit | rest] = cut[rest] + deg - 2 * x
    high = int.from_bytes(b"\0\x80" * count, "little")
    ahead = [0] * size
    for s in range(1, size):
        low = s & -s
        m = s ^ low
        best = ahead[m]
        while m:
            low = m & -m
            m ^= low
            a = ahead[s ^ low]
            t = ((a | high) - best) & high
            best = a ^ ((a ^ best) & (t - (t >> 15)))
        ahead[s] = best + cut[s]
    cut_view, ahead_view = (
        memoryview(b"".join(x.to_bytes(width, sys.byteorder) for x in table)).cast("H")
        for table in (cut, ahead))
    return ((cut_view[j::count].tolist(), ahead_view[j::count].tolist()) for j in range(count))


def solve_minla_dp(g: Graph) -> SolveResult:
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
    optimum by position tuple, i.e. `solve_minla_exhaustive`'s `best`,
    which precedes its mirror. Read a position tuple as the digits of a
    number in base n + 1, vertex 0 most significant: every position is at
    most n, so the digits never carry, and comparing the numbers compares
    the tuples. The move S -> S+v puts v at position |S| + 1, so it adds
    (|S| + 1) * (n + 1)**(n - 1 - v), and the smallest total over the
    tight paths is the smallest position tuple. One backward pass takes
    that minimum. `explored` is the number of subset states, 2**n.
    """
    _check_order(g, MAX_ORDER_DP, SOLVER_DP)
    return _minla_dp(g, *_subset_tables(g))


def _minla_dp(g: Graph, cut: Sequence[int], ahead: Sequence[int]) -> SolveResult:
    """`solve_minla_dp` from the graph's subset tables (`_subset_tables`)."""
    n = g.order
    full = (1 << n) - 1
    size = full + 1
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
    return SolveResult(opt, (Arrangement._trusted(pos),), size, SOLVER_DP)


def solve_minla_exhaustive(g: Graph) -> SolveResult:
    """Every minLA optimum up to reversal, in ascending position-tuple
    order: the paths of tight moves of `solve_minla_dp`'s tables. More
    than MAX_WITNESSES raise ValidationError before any is built.
    `explored` is 2**n.
    """
    return _listing(_minla_optima(g), SOLVER_EXHAUSTIVE)


def _minla_optima(g: Graph) -> tuple[int, list[tuple[int, ...]], int, list[int]]:
    """`solve_minla_exhaustive`'s optima in the shape of `_twin_sorted_optima`:
    (optimum, the twin-sorted optima that precede their mirrors, as
    position tuples, 2**n, the twin cells), which `_listing` expands.

    They are the paths of tight moves from the empty set, walked level by
    level under the twin rule and the mirror break of
    `_crossing_free_search`, whose proofs hold here too: swapping twins
    keeps every edge interval. From a state on such a path the move
    S -> S + v is tight iff togo[S + v] == opt - ahead[S], and it reaches
    another such state. The first walk counts the paths into each state,
    so their number times _swaps(cells) is checked against MAX_WITNESSES
    before any optimum is built; the second extends the prefixes ending in
    each state, each kept as its position tuple read as a number in base
    256, vertex 0 most significant, which `int.to_bytes` reads back.
    """
    _check_order(g, MAX_ORDER_DP, SOLVER_EXHAUSTIVE)
    n = g.order
    ahead = _subset_tables(g)[1]
    cells = _twin_cells_off(g, 3)
    full = (1 << n) - 1
    opt = ahead[full]
    togo = ahead[::-1]
    half = (n + 1) // 2
    # A move from S to S + v keeps the twin rule iff S & mask == low: v is
    # unplaced, and the lower members of its cell are placed.
    moves = [(1 << v | low, low, 1 << v) for v, low in enumerate(_twin_lower(cells, n))]
    for counting in (True, False):
        level = {0: 1 if counting else [0]}
        for k in range(1, n + 1):
            reached: dict = {}
            for s, value in level.items():
                need = opt - ahead[s]
                for v, (mask, low, b) in enumerate(moves):
                    if s & mask != low or togo[s | b] != need or k == half < n and (
                            not (s | b) & 1 or n & 1 and v == 0 and not s & 2):
                        continue
                    if counting:
                        reached[s | b] = reached.get(s | b, 0) + value
                    else:
                        digit = k << 8 * (n - 1 - v)
                        reached.setdefault(s | b, []).extend(map(digit.__add__, value))
            level = reached
        if counting:
            _check_witnesses(level[full] * _swaps(cells), SOLVER_EXHAUSTIVE)
    return opt, [tuple(x.to_bytes(n, "big")) for x in level[full]], full + 1, cells


def _listing(found: tuple[int, list[tuple[int, ...]], int, list[int]],
             solver_id: str) -> SolveResult:
    """The SolveResult of a listing solver from its twin-sorted optima
    (`_minla_optima`, `_planar_optima`), whose count is already checked:
    every permutation inside the cells of each, sorted. Without expanding,
    the smallest witness is `min(optima)` and their count
    `len(optima) * _swaps(cells)`."""
    optimum, optima, explored, cells = found
    witnesses = sorted(_expand_orbits(optima, cells))
    return SolveResult(optimum, tuple(map(Arrangement._trusted, witnesses)), explored, solver_id)


def _crossing_free_search(g: Graph, cells: Sequence[int] | None = None,
                          togo: Sequence[int] | None = None
                          ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Depth-first prefix search over crossing-free arrangements.

    With no other argument this is the stream of every crossing-free
    arrangement. Given twin `cells`, it applies the mirror break and the
    twin rule below and yields one twin-sorted arrangement per orbit of
    twin swaps and mirroring, the one that precedes its mirror. Given
    also the cost-to-go table `togo`, it is the optimum search: it
    applies the bound and the tie deferral, and yields every such optimum
    next to costlier arrangements reached before the optimum is known.

    Vertices are placed left to right, each position trying the unplaced
    vertices in ascending index, and every complete arrangement reached is
    yielded as (cost, positions). An "open" vertex is a placed one with an
    unplaced neighbour, kept on a stack in position order. A vertex may be
    placed iff its placed neighbours are exactly the top of that stack and
    all of them but the deepest close, i.e. have no other unplaced
    neighbour: the new edges then cover only vertices whose edges are all
    placed, so no placed or future edge can cross them. An open vertex
    leaves the stack only by closing.

    Callers pass an outerplanar graph, as only those have a crossing-free
    arrangement (Bernhart & Kainen, "The book thickness of a graph", JCTB
    27, 1979); the search itself does not test it. Two more rules drop
    prefixes that no crossing-free arrangement extends, so they change
    nothing that is yielded: the pocket rule always, and the nesting rule
    in the claims walk only. Other such prefixes are pushed and die a few
    levels later, when no candidate fits the stack.

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

    Nesting rule, given `cells` but not `togo` (the claims walk): take
        open entries s_i below s_j below the new top v. If one component
        K of G[unplaced] holds an unplaced neighbour a of s_i and one c of
        v, every unplaced neighbour b of s_j must lie in K, or the prefix
        is dropped. All three lie right of v, and the edges (s_i, a),
        (s_j, b) and (v, c) avoid crossing only if c <= b <= a in
        position. With b outside K, c < b < a, and the path from c to a
        inside K avoids b, so one of its edges steps over b and crosses
        (s_j, b). The rule is tested on the triples that end at a vertex
        v placed with unplaced neighbours over two or more open entries,
        before the prefix is pushed; older triples are not tested again,
        and the components of each G[unplaced] are built on first use.
        The stream and the optimum search leave the rule out: there it
        tests more prefixes than it cuts, and it made the stream over the
        777 connected order-8 classes 1.5% slower, and the order-7 gap
        solves 7%.

    Cost is the running sum of prefix cuts. The optimum search is given
    the subset DP's exact cost-to-go togo[S] = ahead[V - S]. A prefix is
    dropped when its cost plus togo exceeds the best cost yielded so far.
    A prefix whose bound equals that incumbent is not expanded but
    deferred: its parent level, with only that candidate left to try, and
    a copy of the positions go on a list of resume points, which a leaf
    that lowers the incumbent empties. Leaves that tie are yielded at once.
    When the depth-first pass ends, the incumbent is the optimum, so the
    surviving resume points are exactly the deferred prefixes whose bound
    equals it; they are expanded with ties allowed. No prefix is thus
    expanded on a tie that later proves non-optimal, and every optimum is
    yielded.

    Mirror break: given `cells`, the search drops a prefix of (n + 1) // 2
    vertices unless it holds vertex 0 and, for odd n with vertex 0 in the
    middle, vertex 1. A position tuple p precedes its mirror n + 1 - p iff
    vertex 0 lies left of the middle, or in it with vertex 1 to its left;
    so of each mirror pair only the smaller member is yielded. The
    crossing-free arrangements and the optima are closed under reversal,
    so the optimum search still finds the optimum and yields the smaller
    member of every optimal pair.
    At order 0 or 1 the break never fires, since its prefix is already
    complete, and the one arrangement is its own mirror.

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
    keeps or drops whole orbits, and from order 2 on each orbit of twin
    swaps and mirroring has 2 * prod(|cell|!) members, one of them
    yielded. Callers expand each yielded arrangement into its orbit.

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
    nbrs = g.neighbor_masks
    full = (1 << n) - 1
    # The mirror break's prefix size (-1: no break), and the middle
    # position, which for odd n also needs vertex 1 placed.
    half = -1 if cells is None else (n + 1) // 2
    middle = half if n & 1 else 0
    nest = cells is not None and togo is None
    parts: dict[int, list[int]] = {}
    # split[b]: the components of G - b as masks, for the pocket rule;
    # each is built the first time b is a later neighbour of the top of
    # the stack.
    split: list[list[int] | None] = [None] * n
    lower = _twin_lower(cells or (), n)

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
            if lower[v] & free:
                continue  # the twin rule
            nb = nbrs[v] & placed
            k = nb.bit_count()
            s = placed | bit
            if togo is not None:
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
                if nest and keep > 1 and _breaks_nesting(nbrs, top, free ^ bit, parts):
                    continue  # the nesting rule
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
            seg = reach = 0
            for u in reversed(stack):
                seg |= 1 << u
                segs.append(seg)
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
            m = later = nbrs[stack[-1]] & free
            if free & ~reach:
                while later:
                    low = later & -later
                    later ^= low
                    b = low.bit_length() - 1
                    pieces = split[b]
                    if pieces is None:
                        pieces = split[b] = _components(nbrs, full ^ low)
                    for c in pieces:
                        if not c & placed:
                            m |= c

    return walk()


def _breaks_nesting(nbrs: Sequence[int], stack: tuple[int, ...], free: int,
                    parts: dict[int, list[int]]) -> bool:
    """Whether the nesting rule (`_crossing_free_search`) drops a prefix
    whose open-vertex stack ends in `stack`, with `free` the unplaced set:
    some component K of G[free] holds an unplaced neighbour of the top and
    one of a deeper entry, and an entry between them has an unplaced
    neighbour outside K. `parts` caches the components of each G[free]."""
    pieces = parts.get(free)
    if pieces is None:
        pieces = parts[free] = _components(nbrs, free)
    if len(pieces) == 1:
        return False
    reach = nbrs[stack[-1]]
    for comp in pieces:
        if not comp & reach:
            continue
        above = 0
        for u in stack[-2::-1]:
            later = nbrs[u] & free
            if later & comp and above & ~comp:
                return True
            above |= later
    return False


def _twin_cells_off(g: Graph, fixed: int) -> list[int]:
    """The twin cells (`_twin_masks`) of g without the vertices in the mask
    `fixed`, as masks; only cells left with two or more members."""
    return [c for c in dict.fromkeys(m & ~fixed for m in _twin_masks(g.neighbor_masks))
            if c.bit_count() > 1]


def _twin_lower(cells: Sequence[int], n: int) -> list[int]:
    """lower[v]: the members of v's twin cell below v, for the twin rule."""
    lower = [0] * n
    for c in cells:
        for v in _bits_of(c):
            lower[v] = c & ((1 << v) - 1)
    return lower


def _swaps(cells: Sequence[int]) -> int:
    """prod(|cell|!): the number of permutations inside the twin cells."""
    return math.prod(math.factorial(c.bit_count()) for c in cells)


def _twin_sorted_optima(g: Graph, ahead: Sequence[int]
                        ) -> tuple[int, list[tuple[int, ...]], int, list[int]]:
    """The crossing-free optimum of an outerplanar graph up to twin swaps
    and reversal, searched with the cost-to-go from its subset table
    `ahead` (`_subset_tables`).

    Returns (optimum, the twin-sorted optima that precede their mirrors, as
    position tuples, explored, the twin cells the search was restricted
    by). Each optimum stands for its orbit under the permutations inside
    the cells; the orbit's smallest member is the twin-sorted one, and the
    smaller member of a mirror pair is kept, so the smallest optimum is the
    least of them. The callers check the order limit and outerplanarity,
    or, as the gap search's class stream does, build outerplanar graphs
    only; such a graph has crossing-free optima, and the search reaches
    the orbit of each.
    """
    cells = _twin_cells_off(g, 3)
    incumbent = math.inf
    optima: list[tuple[int, ...]] = []
    explored = 0
    for c, positions in _crossing_free_search(g, cells, ahead[::-1]):
        explored += 1
        if c < incumbent:
            incumbent = c
            optima = []
        optima.append(positions)
    return incumbent, optima, explored, cells


def _expand_orbits(optima: list[tuple[int, ...]], cells: list[int]) -> list[tuple[int, ...]]:
    """Every permutation inside the cells of every twin-sorted optimum, in
    no particular order; one cell is expanded at a time."""
    n = len(optima[0])
    for cell in cells:
        members = _bits_of(cell)
        rest = _bits_of(((1 << n) - 1) ^ cell)
        # A witness is put(fixed + perm): fixed holds the positions of the
        # vertices outside the cell, perm those of the members in order.
        at = {v: i for i, v in enumerate(rest + members)}
        take, slots = itemgetter(*rest), itemgetter(*members)
        put = itemgetter(*map(at.get, range(n)))
        optima = [put(fixed + perm) for p in optima for fixed in (take(p),)
                  for perm in permutations(slots(p))]
    return optima


def _planar_optima(g: Graph) -> tuple[int, list[tuple[int, ...]], int, list[int]] | None:
    """`_twin_sorted_optima` of g as `solve_planar_minla` lists them, or None
    if g is not outerplanar: the order limit is checked first, and more than
    MAX_WITNESSES optima in all raise ValidationError before any is
    expanded. `_listing` lists them.
    """
    _check_order(g, MAX_ORDER_DP, SOLVER_PLANAR)
    if not is_outerplanar(g):
        return None
    optimum, optima, explored, cells = _twin_sorted_optima(g, _subset_tables(g)[1])
    _check_witnesses(len(optima) * _swaps(cells), SOLVER_PLANAR)
    return optimum, optima, explored, cells


def solve_planar_minla(g: Graph) -> SolveResult | None:
    """Minimize total edge length over crossing-free arrangements only.

    Returns None when the graph admits no crossing-free arrangement. The
    witness set contains every crossing-free optimum up to reversal, the
    member of each mirror pair that precedes its mirror (`reverse` gives
    the other). The search (`_twin_sorted_optima`) defers prefixes that tie
    the incumbent until the optimum is known, and yields only the
    twin-sorted optima that precede their mirrors, which `_listing` expands.
    `explored` counts the twin-sorted complete arrangements it reaches.
    More than MAX_WITNESSES witnesses raise ValidationError before any is
    built; `compute_gap` needs only the smallest and answers such graphs.
    The search is pruned by the subset DP's tables, so it shares that
    solver's order limit. A graph has a crossing-free arrangement iff it is
    outerplanar, so every other graph gets None from the linear-time
    `is_outerplanar` before any table is built or any prefix searched.
    """
    found = _planar_optima(g)
    return None if found is None else _listing(found, SOLVER_PLANAR)


def iter_crossing_free(g: Graph) -> Iterator[Arrangement]:
    """Yield every crossing-free arrangement of g exactly once, in ascending
    lexicographic order of `vertex_order()`.

    Callers may rely on that order: the claim checker examines one
    arrangement per orbit of mirroring and twin swaps, and reports as
    witnesses the first failures in it. The stream is lazy and builds no
    tables. A graph that is not outerplanar yields nothing after the
    linear-time `is_outerplanar` test.
    """
    if not is_outerplanar(g):
        return
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
    """Verdicts for the two dominating-edge claims over every crossing-free
    arrangement. `arrangement_count` counts them all, though the checker
    examines one per orbit of mirroring and twin swaps; it is 0 when the
    graph has none, and both claims then hold vacuously."""

    arrangement_count: int
    claim1: ClaimVerdict
    claim2: ClaimVerdict

    @property
    def both_hold(self) -> bool:
        return self.claim1.holds and self.claim2.holds


def _validate_cycle(g: Graph, cycle_edges) -> tuple[Edge, ...]:
    try:
        pairs = iter(cycle_edges)
    except TypeError:
        raise ValidationError(
            f"cycle edges must be an iterable of vertex pairs, got {cycle_edges!r}") from None
    edges = tuple(sorted(map(normalize_edge, pairs)))
    if len(set(edges)) != len(edges):
        raise ValidationError("cycle edge set contains duplicates")
    for e in edges:
        if e not in g.edges:
            raise ValidationError(f"cycle edge {e} is not an edge of the graph")
    if len(edges) < 3:
        raise ValidationError("a simple cycle needs at least 3 edges")
    nbrs = [0] * g.order
    touched = 0
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
        touched |= 1 << u | 1 << v
    if any(m.bit_count() not in (0, 2) for m in nbrs):
        raise ValidationError("cycle edges must touch every incident vertex exactly twice")
    # With degree 2 at every vertex they touch the edges form disjoint
    # cycles, so they form one iff the touched vertices are connected.
    if len(_components(nbrs, touched)) != 1:
        raise ValidationError("cycle edges do not form a single simple cycle")
    return edges


def _least_in_orbit(positions: tuple[int, ...], cells: list[list[int]]) -> list[int]:
    """The smallest vertex order in the orbit of a twin-sorted arrangement
    under the permutations inside `cells` (each ascending) and reversal.
    Its twin-sorted member is the least on each side of the mirror, so the
    answer is the smaller of its own order and its twin-sorted reverse."""
    order = [0] * len(positions)
    for v, p in enumerate(positions):
        order[p - 1] = v
    back = order[::-1]
    for members in cells:
        slots = [i for i, v in enumerate(back) if v in members]
        for i, v in zip(slots, members):
            back[i] = v
    return min(order, back)


def check_dominating_edge_claims(g: Graph, cycle_edges) -> ClaimReport:
    """Check the two dominating-edge claims over all crossing-free arrangements.

    Claim 1: every cycle edge either has an interval containing every other
    edge's interval, or its endpoints sit at adjacent positions.
    Claim 2: exactly one cycle edge has an interval containing every other
    edge's interval. (Per the domination predicate's convention, "e contains
    all others" means every other edge dominates into e's interval.)
    A graph that is not outerplanar has no crossing-free arrangement: once
    the cycle is validated, `is_outerplanar` answers it with 0 arrangements,
    and both claims then hold vacuously. A failing claim's witness is its
    first failure in ascending `vertex_order()`, as `iter_crossing_free` walks.
    Graphs above MAX_ORDER_CLAIMS raise ValidationError before any search.

    Only one arrangement per orbit of twin swaps and mirroring is examined,
    with twin cells that leave out the cycle's vertices and vertices 0 and 1
    (`_crossing_free_search`). Both verdicts are constant on an orbit: a
    swap keeps every cycle edge's interval and the hull of the vertices
    that have edges, and reversal keeps containment and adjacency. Every
    orbit has 2 * prod(|cell|!) members, which `arrangement_count` adds up,
    and a failing orbit's least member (`_least_in_orbit`) stands for it.
    The walk applies the nesting rule (`_crossing_free_search`).

    Lemma (i) answers 2-connected inputs from the walk's first leaf. If its
    vertex order is a Hamiltonian cycle (consecutive vertices adjacent, and
    the two ends too), G is 2-connected. A crossing-free arrangement of
    such a graph puts adjacent vertices at consecutive positions and at the
    two ends: for the innermost edge (a, b) over the gap after position i,
    no vertex from a to i has an edge leaving that span, so a is a cut
    vertex unless a = i. The graph's one Hamiltonian cycle is its outer
    face (Sysło, Discrete Math. 26, 1979), and whether two chords cross
    depends only on the cyclic order of their ends, so the arrangements
    are exactly the leaf's 2n rotations and reflections. No twin cell is
    left: from order 5 on, twins with three common neighbours span K2,3,
    with two they give a K4 minor or close the cycle at order 4, and with
    fewer they are cut off; up to order 4 the cycle and vertices 0 and 1
    leave one vertex at most. So the checker examines the leaf's n
    rotations, one per mirror pair, and searches no further. Otherwise it
    walks on from that leaf.
    """
    if g.order > MAX_ORDER_CLAIMS:
        raise ValidationError(
            f"the claim checker accepts graphs of order <= {MAX_ORDER_CLAIMS}, got {g.order}"
        )
    cyc = _validate_cycle(g, cycle_edges)
    if not is_outerplanar(g):
        return ClaimReport(0, ClaimVerdict(True), ClaimVerdict(True))
    # A cycle edge contains every other edge's interval iff its interval is
    # the hull of the vertices that have edges. Distinct edges never share
    # an interval, so at most one cycle edge does. With no isolated vertex
    # that hull is (1, n) in every arrangement.
    ends = {v for e in g.sorted_edges for v in e}
    full = (1, g.order) if len(ends) == g.order else None
    fixed = 3
    for u, v in cyc:
        fixed |= 1 << u | 1 << v
    cells = _twin_cells_off(g, fixed)
    orbit = 2 * _swaps(cells)
    members = list(map(_bits_of, cells))
    walk = (pos for _, pos in _crossing_free_search(g, cells))
    first = next(walk)
    n = g.order
    nbrs = g.neighbor_masks
    order = sorted(range(n), key=first.__getitem__)
    if all(nbrs[u] >> v & 1 for u, v in zip(order, order[1:] + order[:1])):
        # Lemma (i): the rotations of a Hamiltonian cycle, one per mirror pair.
        leaves = [tuple((p - k - 1) % n + 1 for p in first) for k in range(n)]
    else:
        leaves = chain((first,), walk)
    count = 0
    # The first failure of each claim so far, as (vertex order, edge).
    first1 = first2 = None
    for pos in leaves:
        count += orbit
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
        if failing_edge is None and dominated:
            continue
        least = _least_in_orbit(pos, members)
        if failing_edge is not None and (first1 is None or least < first1[0]):
            first1 = least, failing_edge
        if not dominated and (first2 is None or least < first2[0]):
            first2 = least, failing_edge if failing_edge is not None else cyc[0]
    c1 = c2 = ClaimVerdict(True)
    if first1 is not None:
        c1 = ClaimVerdict(
            False, Arrangement.from_vertex_order(first1[0]), first1[1],
            "cycle edge neither contains all other edges nor has adjacent endpoints",
        )
    if first2 is not None:
        c2 = ClaimVerdict(False, Arrangement.from_vertex_order(first2[0]), first2[1],
                          "no cycle edge contains all other edges")
    return ClaimReport(count, c1, c2)
