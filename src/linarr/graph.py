"""Undirected simple graphs on small vertex sets.

Vertices are the integers 0..order-1; edges are unordered pairs stored as
sorted tuples. The module also provides exact isomorphism testing,
enumeration of connected graphs up to isomorphism, and linear-time
outerplanarity recognition.

Isomorphism rests on one backtracking search for the minimum adjacency key
over vertex orderings. Unrestricted, it gives the canonical form. Restricted
to orderings that follow a colour refinement of the graph, it gives a
complete invariant that is much cheaper to compute: `are_isomorphic`
compares these invariants, and enumeration uses them to recognise repeated
classes, so the unrestricted search runs once per class. Enumeration adds
one vertex to each smaller representative and, before keying, skips the
extensions that twin cells or a minimum-degree argument show to be covered
by another extension. Everything here is exact; enumeration is intended
for orders up to 8 (12,346 classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

Edge = tuple[int, int]


def normalize_edge(e: Iterable[int]) -> Edge:
    """Return the edge as a sorted (u, v) tuple, rejecting self-loops."""
    u, v = e
    u, v = int(u), int(v)
    if u == v:
        raise ValidationError(f"self-loop on vertex {u} is not a valid edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An immutable simple graph: a vertex count plus a set of unordered edges."""

    order: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValidationError(f"graph order must be nonnegative, got {self.order}")
        norm = set()
        for e in self.edges:
            u, v = normalize_edge(e)
            if v >= self.order or u < 0:
                raise ValidationError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{self.order - 1}"
                )
            norm.add((u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency as one bitmask per vertex."""
        masks = [0] * self.order
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.sorted_edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in adj)

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(ns) for ns in self.neighbors))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={sorted(self.edges)})"


def make_graph(order: int, edges: Iterable[Iterable[int]] = ()) -> Graph:
    """Build a validated graph; duplicate edges collapse, self-loops raise."""
    return Graph(order, frozenset(normalize_edge(e) for e in edges))


def pentagon_with_chord() -> Graph:
    """The 5-cycle 0-1-2-3-4-0 plus the chord {1, 3}.

    This is the canonical gap example: its best unconstrained arrangement
    costs 9 while its best crossing-free arrangement costs 10. Conventional
    labels a..e map to vertices 0..4.
    """
    return make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (vacuously for order 0)."""
    if g.order <= 1:
        return True
    masks = g.neighbor_masks
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        m = masks[v] & ~seen
        while m:
            w = (m & -m).bit_length() - 1
            seen |= 1 << w
            frontier.append(w)
            m &= m - 1
    return seen == (1 << g.order) - 1


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test.

    After the cheap order, size and degree-sequence checks, compares the
    two graphs' colour-refined keys (`_iso_key`), which are equal iff the
    graphs are isomorphic.
    """
    if g1.order != g2.order or g1.size != g2.size:
        return False
    if g1.degree_sequence != g2.degree_sequence:
        return False
    return _iso_key(g1) == _iso_key(g2)


# ---------------------------------------------------------------------------
# Canonical forms and enumeration up to isomorphism
# ---------------------------------------------------------------------------
#
# The canonical key of a graph is the minimum, over all vertex orderings, of
# the adjacency bits read in prefix order: placing vertices one by one, each
# new vertex appends its adjacency bits to the already-placed ones. Any fixed
# linearization of the adjacency matrix works; this one lets the backtracking
# search prune an ordering as soon as its prefix exceeds the best known.


def _are_twins(adj: Sequence[int], v: int, w: int) -> bool:
    """True when v and w have the same neighbours apart from each other.

    Swapping two such twins is then an automorphism of the graph.
    """
    return adj[v] & ~(1 << w) == adj[w] & ~(1 << v)


def _twin_cells(adj: Sequence[int]) -> list[list[int]]:
    """Split the vertices into twin cells, each ascending, by first vertex.

    Twinship is an equivalence: a twin pair is either adjacent (equal
    closed neighbourhoods) or not (equal open ones), and an adjacent pair
    u, v with a non-adjacent pair v, w is impossible, since u in N(v) =
    N(w) puts w in N(u) - {v} = N(v) - {u}. So any permutation inside a
    cell is an automorphism.
    """
    cells: list[list[int]] = []
    for v in range(len(adj)):
        for cell in cells:
            if _are_twins(adj, cell[0], v):
                cell.append(v)
                break
        else:
            cells.append([v])
    return cells


def _min_key(g: Graph, colour: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Minimum prefix-bits key over the vertex orderings that list vertices
    by ascending colour; returns (bits, an ordering achieving them).

    Two exact prunings apply at each level. Every key has the same length,
    so a candidate whose bits against the placed prefix exceed another
    candidate's loses whatever follows: only the minimal ones are tried.
    And a candidate whose neighbourhood equals a tried one's, ignoring the
    edge between them, is skipped: swapping two such twins is an
    automorphism that fixes the prefix, so their subtrees hold equal keys.
    """
    n = g.order
    adj = g.neighbor_masks
    level_colour = sorted(colour)
    total_bits = n * (n - 1) // 2
    best_bits: int | None = None
    best_order: tuple[int, ...] = ()
    order: list[int] = []

    def rec(unplaced: list[int], prefix: int, bits: list[int]) -> None:
        # bits[v]: v's adjacency to the placed prefix, first-placed vertex
        # as the most significant bit.
        nonlocal best_bits, best_order
        level = len(order)
        if level == n:
            if best_bits is None or prefix < best_bits:
                best_bits, best_order = prefix, tuple(order)
            return
        c = level_colour[level]
        low = min(bits[v] for v in unplaced if colour[v] == c)
        prefix = (prefix << level) | low
        if best_bits is not None:
            placed_bits = (level + 1) * level // 2
            if prefix > best_bits >> (total_bits - placed_bits):
                return
        tried: list[int] = []
        for v in unplaced:
            if colour[v] != c or bits[v] != low:
                continue
            if any(_are_twins(adj, v, w) for w in tried):
                continue
            tried.append(v)
            order.append(v)
            rec([u for u in unplaced if u != v], prefix,
                [(b << 1) | (m >> v & 1) for b, m in zip(bits, adj)])
            order.pop()

    rec(list(range(n)), 0, [0] * n)
    assert best_bits is not None
    return best_bits, best_order


def _canonical_order(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Return (canonical bits, vertex ordering achieving them)."""
    return _min_key(g, [0] * g.order)


def _refined_colours(g: Graph) -> list[int]:
    """Colour refinement (1-WL) from a uniform colouring, to a stable partition.

    The first round colours each vertex by its degree, every later round by
    its colour and its number of neighbours in each colour. Colours are
    named by the rank of these signatures, so the result does not depend on
    vertex labels: an isomorphism carries one graph's colouring onto the
    other's.
    """
    masks = g.neighbor_masks
    sigs: list = [m.bit_count() for m in masks]
    while True:
        names = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colour = [names[sig] for sig in sigs]
        cells = [0] * len(names)
        for v, c in enumerate(colour):
            cells[c] |= 1 << v
        sigs = [(c, *[(m & cell).bit_count() for cell in cells])
                for c, m in zip(colour, masks)]
        if len(set(sigs)) == len(names):
            return colour


def _iso_key(g: Graph) -> tuple[tuple[int, ...], int]:
    """A complete invariant: equal for two graphs iff they are isomorphic.

    The sorted refined colours plus the minimum key over colour-respecting
    orderings. Both parts are label-independent, and the bits spell out the
    adjacency matrix under one ordering, so equal keys mean isomorphic
    graphs. The colour cells are small, so the search is cheap.
    """
    colour = _refined_colours(g)
    return tuple(sorted(colour)), _min_key(g, colour)[0]


def canonical_form(g: Graph) -> Graph:
    """Relabel g onto its canonical vertex ordering; equal across isomorphs."""
    _, order = _canonical_order(g)
    pos = {v: i for i, v in enumerate(order)}
    return Graph(g.order, frozenset((pos[u], pos[v]) for u, v in g.edges))


@lru_cache(maxsize=None)
def _all_graph_reps(order: int) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class of all simple graphs.

    Every graph G of this order is P+S for a smaller representative P: P
    plus a new vertex joined to the set S of P's vertices. Two exact rules
    skip, before keying, extensions that another extension already covers:

    (i) Twin cells: S meets each twin cell of P (`_twin_cells`) in the
        lowest-index vertices of that cell. Proof: a permutation σ inside
        a cell is an automorphism of P, so P+S ≅ P+σ(S) and only
        |S ∩ cell| matters.
    (ii) Minimum degree: no old vertex ends with degree < |S|. Proof:
        deleting a minimum-degree vertex u of G leaves a graph ≅ some P,
        so G ≅ P+S with |S| = deg(u) <= every other degree; ties are
        kept. The σ of rule (i) only permutes these degrees, so the two
        rules compose.

    Every surviving extension is keyed by `_iso_key`; the canonical search
    runs once per new class. A representative depends only on its
    canonical bits, so the rules change the work, not the output.
    """
    if order == 0:
        return (Graph(0),)
    reps: dict[int, Graph] = {}
    seen: set[tuple[tuple[int, ...], int]] = set()
    new = order - 1
    for parent in _all_graph_reps(new):
        adj = parent.neighbor_masks
        degree = [m.bit_count() for m in adj]
        lowest = [[sum(1 << v for v in cell[:k]) for k in range(len(cell) + 1)]
                  for cell in _twin_cells(adj)]
        for parts in product(*lowest):
            nbrs = sum(parts)
            size = nbrs.bit_count()
            if any(d + (nbrs >> i & 1) < size for i, d in enumerate(degree)):
                continue
            extra = frozenset((i, new) for i in range(new) if nbrs >> i & 1)
            g = Graph(order, parent.edges | extra)
            key = _iso_key(g)
            if key in seen:
                continue
            seen.add(key)
            bits, vertex_order = _canonical_order(g)
            pos = {v: i for i, v in enumerate(vertex_order)}
            reps[bits] = Graph(order, frozenset((pos[u], pos[v]) for u, v in g.edges))
    return tuple(g for _, g in sorted(reps.items(), key=lambda kv: (len(kv[1].edges), kv[0])))


def enumerate_connected_graphs(order: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected graphs.

    Deterministic across runs: representatives are canonically labeled and
    ordered by (edge count, canonical key). Intended scale is order <= 8
    (11,117 classes); order 9 has 261,080 connected classes.
    """
    if order < 1:
        raise ValidationError(f"enumeration needs order >= 1, got {order}")
    for g in _all_graph_reps(order):
        if is_connected(g):
            yield g


def is_outerplanar(g: Graph) -> bool:
    """True iff g can be drawn in the plane with every vertex on the outer face.

    Equivalently, g admits a crossing-free linear arrangement; the two
    characterizations are cross-checked in the test suite. The test is the
    degree-2 elimination of S. L. Mitchell (IPL 9(5), 1979). Every current
    edge carries a label: 0 free, 1 must lie on the outer face, 2 must be a
    bridge. A vertex of degree <= 1 is removed. A degree-2 vertex v with
    neighbours u, w is removed too: if uw is not an edge, the path u-v-w
    becomes a new edge uw, which lies on the outer face as v did; if uw is
    an edge, the triangle uvw is a face on one more side of uw, which fails
    when any of its edges must be a bridge. g is outerplanar iff every
    vertex is removed.
    """
    n = g.order
    adj = list(g.neighbor_masks)
    label = dict.fromkeys(g.edges, 0)
    todo = [v for v in range(n) if adj[v].bit_count() <= 2]
    gone = 0
    while todo:
        v = todo.pop()
        m = adj[v]
        if gone >> v & 1 or m.bit_count() > 2:
            continue
        # The lowest and the highest neighbour, of at most two.
        ends = [(m & -m).bit_length() - 1, m.bit_length() - 1][:m.bit_count()]
        sides = [label.pop((u, v) if u < v else (v, u)) for u in ends]
        if len(ends) == 2:
            u, w = ends
            if adj[u] >> w & 1:
                if max(*sides, label[u, w]) == 2:
                    return False
                label[u, w] += 1
            else:
                label[u, w] = max(*sides, 1)
                adj[u] |= 1 << w
                adj[w] |= 1 << u
        for u in ends:
            adj[u] &= ~(1 << v)
            if adj[u].bit_count() <= 2:
                todo.append(u)
        gone |= 1 << v
    return gone == (1 << n) - 1
