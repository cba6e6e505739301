"""Undirected simple graphs on small vertex sets.

Vertices are the integers 0..order-1; edges are unordered pairs stored as
sorted tuples. The module also provides exact isomorphism testing,
enumeration of connected graphs up to isomorphism, and linear-time
outerplanarity recognition.

Isomorphism rests on one search for the minimum adjacency key over vertex
orderings, run on neighbour masks. Unrestricted, it gives the canonical
key, whose bits spell the canonical form's adjacency row by row: the
search returns the key alone, and a key decodes into the canonical form's
neighbour masks (`_key_masks`). Restricted to orderings that follow a
colour refinement of the graph, it gives a complete invariant that is
much cheaper to compute on larger graphs, and `are_isomorphic` compares
these invariants. The search is set-first: a minimum key starts with a
maximum independent set of the lowest colour class, whose rows are zero
in any order, so the search places each such set at once as one
unordered cell and orders it lazily, splitting it by each later vertex's
neighbours. It runs level by level, expands only the partial orderings
whose rows so far are the least, and applies a split to each later row
in place, in the split cell's segment alone (`_min_key` gives the
proofs).

Enumeration builds the connected classes alone: it joins a new vertex to
a nonempty set of each smaller connected representative, so every
extension is connected, and reaches every connected class because the
vertex it undoes is a least-degree vertex that is not a cut vertex.
Before keying, it skips the extensions that twin cells, that degree
argument or a comparison of neighbour degrees show to be covered by
another extension. It keys each extension on its masks and keeps every
order as its sorted keys (`_key_level`): a parent's masks are decoded
from its key, and a `Graph` is built, unchecked (`Graph._trusted`), only
for a class that the stream yields. The same engine can keep only
outerplanar graphs, extending outerplanar representatives alone by at
most two edges, since every connected outerplanar graph has a non-cut
vertex of degree at most 2; that stream feeds the gap search. The
disconnected classes, which only tests and checks ask for
(`_all_graph_reps`), are composed from the connected ones. Everything
here is exact; enumeration of all graphs is intended for orders up to 8
(12,346 classes), of outerplanar ones up to 9 (5,291 classes).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

Edge = tuple[int, int]

# Bound once: `Graph._trusted` runs once per decoded representative.
_new = object.__new__
_set = object.__setattr__


def normalize_edge(e: Iterable[int]) -> Edge:
    """Return the edge as a sorted (u, v) tuple, rejecting anything that is
    not a pair, self-loops and endpoints that are not integers
    (`operator.index`), such as 1.7 or "2"."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise ValidationError(f"edge {e!r} is not a pair of vertices") from None
    try:
        u, v = index(u), index(v)
    except TypeError:
        raise ValidationError(
            f"edge ({u!r}, {v!r}) has an endpoint that is not an integer") from None
    if u == v:
        raise ValidationError(f"self-loop on vertex {u} is not a valid edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An immutable simple graph: a vertex count plus a set of unordered edges.

    `edges` may be given as any iterable of vertex pairs; each is checked and
    stored once as a sorted tuple, and duplicates collapse.
    """

    order: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "order", index(self.order))
        except TypeError:
            raise ValidationError(f"graph order must be an integer, got {self.order!r}") from None
        if self.order < 0:
            raise ValidationError(f"graph order must be nonnegative, got {self.order}")
        try:
            pairs = iter(self.edges)
        except TypeError:
            raise ValidationError(
                f"graph edges must be an iterable of vertex pairs, got {self.edges!r}") from None
        norm = set()
        for e in pairs:
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
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.neighbor_masks))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={sorted(self.edges)})"

    @classmethod
    def _trusted(cls, masks: Sequence[int]) -> Graph:
        """Build the graph whose neighbour masks are `masks`, already known
        to be symmetric and loop-free, skipping the checks; the masks, and
        the sorted edges read off them, are stored as cached. Keys decode
        into graphs this way (`_graph_from_key`)."""
        edges = tuple((u, v) for u, m in enumerate(masks)
                      for v in range(u + 1, m.bit_length()) if m >> v & 1)
        g = _new(cls)
        _set(g, "order", len(masks))
        _set(g, "edges", frozenset(edges))
        _set(g, "sorted_edges", edges)
        _set(g, "neighbor_masks", tuple(masks))
        return g


def make_graph(order: int, edges: Iterable[Iterable[int]] = ()) -> Graph:
    """Build a validated graph; duplicate edges collapse, self-loops raise.

    `Graph` normalises and checks each pair itself, so the raw pairs are
    handed over as they are.
    """
    return Graph(order, edges)


def pentagon_with_chord() -> Graph:
    """The 5-cycle 0-1-2-3-4-0 plus the chord {1, 3}.

    This is the canonical gap example: its best unconstrained arrangement
    costs 9 while its best crossing-free arrangement costs 10. Conventional
    labels a..e map to vertices 0..4.
    """
    return make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])


def is_connected(g: Graph) -> bool:
    """True when g has at most one connected component (vacuously for order 0)."""
    return len(_components(g.neighbor_masks, (1 << g.order) - 1)) <= 1


def _components(nbrs: Sequence[int], within: int) -> list[int]:
    """The connected components, as masks, of the subgraph induced by `within`
    in the graph with neighbour masks `nbrs`, by lowest vertex."""
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
# linearization of the adjacency matrix works; this one lets the search
# drop an ordering as soon as its prefix exceeds another's.


def _twin_masks(adj: Sequence[int]) -> list[int]:
    """For each vertex, the bitmask of its twin cell.

    Two vertices are twins when they have the same neighbours apart from
    each other, so swapping them is an automorphism. Twinship is an
    equivalence: a twin pair is either adjacent (equal closed
    neighbourhoods) or not (equal open ones), and an adjacent pair u, v
    with a non-adjacent pair v, w is impossible, since u in N(v) = N(w)
    puts w in N(u) - {v} = N(v) - {u}. So any permutation inside a cell is
    an automorphism, and a vertex's cell is the union of the vertices with
    its open neighbourhood and those with its closed one.
    """
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, a in enumerate(adj):
        by_open[a] = by_open.get(a, 0) | 1 << v
        closed = a | 1 << v
        by_closed[closed] = by_closed.get(closed, 0) | 1 << v
    return [by_open[a] | by_closed[a | 1 << v] for v, a in enumerate(adj)]


def _twin_cells(adj: Sequence[int]) -> list[list[int]]:
    """Split the vertices into twin cells (`_twin_masks`), each ascending,
    by first vertex."""
    return [_bits_of(mask) for mask in dict.fromkeys(_twin_masks(adj))]


def _min_key(adj: Sequence[int], colour: Sequence[int]) -> int:
    """Minimum prefix-bits key over the vertex orderings that list vertices
    by ascending colour, for the graph with neighbour masks `adj`. The key
    spells the graph relabelled onto a minimising ordering
    (`_graph_from_key`), so no ordering is kept.

    The search is set-first. Let C0 be the lowest colour class (all vertices
    for the canonical key) and alpha the size of a maximum independent set
    of G[C0]; the first |C0| positions of every ordering hold C0.

    (a) Every minimum key begins with a maximum independent set I of G[C0].
        Proof: rows 1..a-1 are zero iff the first a vertices are
        independent. If only the first a < alpha are, row a has a one bit,
        so a one lies within the first a(a+1)/2 bits. An ordering that
        starts with alpha independent vertices of C0 has alpha(alpha-1)/2
        >= a(a+1)/2 leading zeros, so it is smaller. The search enumerates
        these sets I (`_maximum_independent_sets`), not their alpha!
        orderings.
    (b) I stays an ordered list of cells, ordered lazily. The rows of I are
        zero in every internal order, so only the rows of later vertices
        depend on it, and only through the cells. Against ordered cells, a
        candidate u's least row puts its neighbours last in each cell: cell
        c gives a segment of |c| bits, zeros then ones, 2^m - 1 for
        m = |N(u) & c|. Placing u splits each cell into its non-neighbours,
        then its neighbours, and appends u as a singleton. Proof that this
        is exact: every row placed so far is constant on each cell, so all
        the orderings that agree with the cells share the placed bits, and
        those are the least any ordering of I gives them. The next row
        decides among these orderings first, and its least value over them
        is reached exactly on the orderings that agree with u's split. So
        every ordering that agrees with the final cells reaches the same
        key, the minimum. Once every cell is a single vertex, the order of
        I is fixed and the rows are plain prefix bits.
        A split is applied to each later row in place. When the placed
        vertex splits c into far = c - N(v), then near = c & N(v), the
        segment of c changes and no other does: from 2^m - 1 to
        (2^m0 - 1) << |near| | 2^m1 - 1, with m0 and m1 the row's vertex's
        neighbours in far and in near. The difference,
        (2^m0 - 1)(2^|near| - 2^m1), is added at the segment's offset, the
        width of the later cells and of the vertices placed after I. It is
        zero when the vertex has no neighbour in far, and one step may
        split several cells, each at its own offset.

    The search is level-synchronous: it places one vertex per level in
    every node of a frontier at once, and every node of the frontier has
    placed the same rows. Two exact prunings apply at each level. Every key
    has the same length, and a row is read in full before any later bit,
    so a node or a candidate whose row exceeds the least row over the whole
    frontier cannot reach the minimum: only the nodes and candidates with
    that least row are expanded, and it becomes the level's row of the key.
    And a candidate in the twin cell of a tried one (`_twin_masks`) is
    skipped: swapping two twins is an automorphism that fixes everything
    placed, so their subtrees hold equal keys. For the same reason only
    sets I that meet each twin cell in its lowest vertices are enumerated:
    a permutation inside a twin cell maps any other I to one of these and
    keeps every key.
    """
    n = len(adj)
    if n == 0:
        return 0
    twins = _twin_masks(adj)
    # Unplaced vertices stay sorted by (colour, vertex), so the candidates
    # at a level, the unplaced vertices of its colour, are a prefix of them:
    # ends[level] counts the vertices whose colour is at most the level's.
    start = sorted(range(n), key=colour.__getitem__)
    level_colour = [colour[v] for v in start]
    ends = [bisect_right(level_colour, c) for c in level_colour]
    first = 0
    for v in start[:ends[0]]:
        first |= 1 << v
    sets = _maximum_independent_sets(adj, first, twins)
    alpha = sets[0].bit_count()
    if alpha == n:
        # An edgeless graph: every row is zero.
        return 0
    # A node is (cells, unplaced, rows, least). cells: the ordered cells of
    # I, emptied once each holds one vertex. rows[i]: unplaced[i]'s least
    # row against the placed vertices, first-placed as the most significant
    # bit. k counts a level's candidates, least is their least row in the
    # node, and low the least over the frontier; every row is below 1 << n.
    # Under the uniform colouring every unplaced vertex is a candidate.
    k = ends[alpha] - alpha
    low = 1 << n
    frontier = []
    for independent in sets:
        rest = [v for v in start if not independent >> v & 1]
        rows = [(1 << (adj[u] & independent).bit_count()) - 1 for u in rest]
        least = min(rows if k == len(rest) else rows[:k])
        frontier.append(([independent], rest, rows, least))
        low = min(low, least)
    key = 0
    for level in range(alpha, n - 1):
        key = (key << level) | low
        next_k = ends[level + 1] - level - 1
        next_low = 1 << n
        children = []
        for cells, unplaced, rows, least in frontier:
            if least != low:
                continue
            tried = 0
            for i in range(k):
                v = unplaced[i]
                if rows[i] != low or twins[v] & tried:
                    continue
                tried |= 1 << v
                av = adj[v]
                rest = unplaced[:i] + unplaced[i + 1:]
                rest_rows = [(b << 1) | (av >> u & 1) for u, b in zip(unplaced, rows)]
                del rest_rows[i]
                child_cells = cells
                if cells:
                    # Update the rows in place per split cell, by (b); the
                    # level + 1 - alpha vertices placed after I, v
                    # included, lie below every cell's segment.
                    split = []
                    offset = level + 1
                    for c in cells:
                        offset -= c.bit_count()
                        near = c & av
                        if not near or near == c:
                            split.append(c)
                            continue
                        far = c ^ near
                        split += (far, near)
                        top = 1 << near.bit_count()
                        for j, u in enumerate(rest):
                            m0 = (adj[u] & far).bit_count()
                            if m0:
                                rest_rows[j] += ((1 << m0) - 1) * (
                                    top - (1 << (adj[u] & near).bit_count())) << offset
                    # Once every cell is one vertex, the order of I is fixed.
                    child_cells = split if len(split) < alpha else []
                least = min(rest_rows if next_k == len(rest) else rest_rows[:next_k])
                children.append((child_cells, rest, rest_rows, least))
                next_low = min(next_low, least)
        frontier, k, low = children, next_k, next_low
    return (key << (n - 1)) | low


def _maximum_independent_sets(adj: Sequence[int], free: int,
                               twins: Sequence[int]) -> list[int]:
    """The maximum independent sets inside the vertex mask `free`, as
    bitmasks, that meet each twin cell (`twins[v]`, the mask of v's cell)
    in its lowest vertices.

    Branches on the lowest free vertex: take it, or drop it together with
    the rest of its twin cell, and cuts a branch that cannot reach the
    largest size found so far. Taking is tried first, so an independent
    `free` is found at once and the bound cuts every dropping branch.
    """
    found: list[int] = []
    best = 0
    stack = [(0, free)]
    while stack:
        chosen, free = stack.pop()
        size = chosen.bit_count()
        if size + free.bit_count() < best:
            continue
        if not free:
            if size > best:
                best, found = size, []
            found.append(chosen)
            continue
        bit = free & -free
        v = bit.bit_length() - 1
        stack.append((chosen, free & ~twins[v]))
        stack.append((chosen | bit, free & ~adj[v] & ~bit))
    return found


def _bits_of(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _canonical_key(g: Graph) -> int:
    """The canonical bits: the minimum key over all vertex orderings."""
    return _min_key(g.neighbor_masks, [0] * g.order)


def _key_masks(order: int, key: int) -> list[int]:
    """Decode a key of `_min_key` into the neighbour masks of the graph on
    the ordering it was read under. Read from the most significant end, bit
    i(i-1)/2 + j is the edge (j, i), for j < i, so row i is the key's i
    bits above the rows of the later vertices, vertex 0 first."""
    masks = [0] * order
    for i in range(order - 1, 0, -1):
        row = key & ((1 << i) - 1)
        key >>= i
        while row:
            j = i - (row & -row).bit_length()
            row &= row - 1
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def _graph_from_key(order: int, key: int) -> Graph:
    """The graph a key of `_min_key` spells (`_key_masks`)."""
    return Graph._trusted(_key_masks(order, key))


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
    return tuple(sorted(colour)), _min_key(g.neighbor_masks, colour)


def canonical_form(g: Graph) -> Graph:
    """Relabel g onto its canonical vertex ordering; equal across isomorphs."""
    return _graph_from_key(g.order, _canonical_key(g))


def _all_graph_reps(order: int, outerplanar: bool = False) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class of all simple
    graphs, or, with `outerplanar`, of the outerplanar ones only, sorted by
    edge count, the key's popcount, then canonical key.

    The connected classes are the key level (`_key_level`). Every other
    class is the disjoint union of a multiset of two or more connected
    classes whose orders sum to `order`, one multiset per class; a union of
    outerplanar graphs is outerplanar, and so is each component of one. Each
    union is keyed here (`_min_key`), not cached: only tests and checks
    call this.
    """
    keys = list(_key_level(order, outerplanar))
    uniform = [0] * order
    for parts in _partitions(order, order - 1) if order > 1 else ():
        sizes = sorted(set(parts), reverse=True)
        for picked in product(*[combinations_with_replacement(
                _key_level(size, outerplanar), parts.count(size)) for size in sizes]):
            masks: list[int] = []
            for size, part_keys in zip(sizes, picked):
                for key in part_keys:
                    offset = len(masks)
                    masks += [m << offset for m in _key_masks(size, key)]
            keys.append(_min_key(masks, uniform))
    keys.sort(key=lambda key: (key.bit_count(), key))
    return tuple(_graph_from_key(order, key) for key in keys)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most `largest`, each as a
    non-increasing tuple."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def _key_level(order: int, outerplanar: bool) -> tuple[int, ...]:
    """The canonical keys (`_min_key`) of the isomorphism classes of
    connected simple graphs of this order, or, with `outerplanar`, of the
    connected outerplanar ones only: one key per class, each spelling the
    class's canonical representative (`_key_masks`).

    Every connected graph G of order n >= 2 is P+S for a connected
    representative P of order n - 1: P plus a new vertex joined to a
    nonempty set S of P's vertices. Take for the new vertex a vertex u of G
    that is not a cut vertex; G has one, a leaf of a spanning tree, and
    G - u is connected. Every P+S with S nonempty is connected, so no
    disconnected graph is ever keyed. Exact rules skip, before keying,
    extensions that another extension already covers. They read only P's
    neighbour masks and S, before P+S is built.

    Cut vertices are read off P (`_cut_pieces`): for each vertex x, the
    components, or pieces, of P - x. In P+S the new vertex is never a cut
    vertex, and an old vertex x is one exactly when S - {x} misses a piece
    of P - x: P+S - x is P - x plus the new vertex joined to S - {x}, which
    is connected iff that set meets every piece, or P - x is empty. So
    S = {x} makes x a cut vertex of P+S once P has two vertices or more.

    (i) Twin cells: S meets each twin cell of P (`_twin_cells`) in the
        lowest-index vertices of that cell. Proof: a permutation σ inside
        a cell is an automorphism of P, so P+S ≅ P+σ(S) and only
        |S ∩ cell| matters.
    (ii') Least non-cut degree: no old vertex that is not a cut vertex of
        P+S ends with degree < |S|. Proof: deleting a least-degree non-cut
        vertex u of G leaves a connected graph ≅ some P, so G ≅ P+S with
        |S| = deg(u) <= the degree of every other non-cut vertex; ties are
        kept. The σ of rule (i) extends to an isomorphism P+S ≅ P+σ(S)
        that fixes the new vertex, and it keeps every degree and whether a
        vertex cuts, so the two rules compose. A non-cut vertex v of P
        stays one in P+S unless S = {v}, so |S| <= 1 + the least degree of
        a non-cut vertex of P.
    (iv') Neighbour degrees, the cheap-invariant step of canonical
        augmentation (McKay, J. Algorithms 26, 1998): let inv(u) be the
        sorted degrees, in G = P+S, of u's neighbours. No old non-cut
        vertex of degree |S| in G has a larger inv than the new vertex.
        Proof: choose u* among the least-degree non-cut vertices of G with
        the largest inv. Then G - u* is connected and ≅ some P, and G ≅ P+S
        by an isomorphism that maps u* to the new vertex; rule (i)'s σ
        extends to P+S ≅ P+σ(S) fixing the new vertex. Both keep degree,
        inv and cut status, so the new vertex of P+σ(S) has the least
        degree of the non-cut vertices and, among the non-cut vertices of
        that degree, the largest inv: it passes rules (ii') and (iv'). The
        invs are compared only when an old non-cut vertex ties the new
        one's degree.

    With `outerplanar`, only outerplanar representatives are extended, and
    an extension is dropped before keying unless it is outerplanar. This
    reaches every connected outerplanar G: deleting a vertex keeps a graph
    outerplanar, so the P ≅ G - u* of rules (ii') and (iv') is itself a
    connected outerplanar representative, and rule (i)'s P+σ(S) ≅ P+S is
    outerplanar iff P+S is. One more rule holds there:

    (iii) Degree 2: |S| <= 2. Proof: a connected outerplanar G with two
        vertices or more has a non-cut vertex of degree at most 2. A leaf
        block B of G, or G itself if it has no cut vertex, holds at most
        one cut vertex of G. If B is an edge, its other end has degree 1.
        Otherwise B is 2-connected and outerplanar, a Hamiltonian cycle
        with non-crossing chords, and has two vertices of degree 2 in B;
        one of them is not the cut vertex, so it lies in B alone and has
        degree 2 in G. Rule (ii') leaves the new vertex with the least
        degree of the non-cut vertices of P+S, so an outerplanar P+S has
        |S| <= 2. With |S| = 1, P+S adds a pendant vertex to the
        outerplanar P and is outerplanar without a test; only |S| = 2 runs
        the outerplanarity elimination (`_outerplanar_masks`).

    Every surviving extension is keyed by its canonical bits, a complete
    invariant, read off its neighbour masks (`_min_key`): P's masks,
    decoded from P's key (`_key_masks`), with the new vertex's bit added on
    S, and S appended. No `Graph` is built for a parent or an extension: a
    level is kept as its keys alone, sorted by edge count, the key's
    popcount, then key, and only the stream decodes the classes it yields
    into graphs (`_connected_reps`). A representative depends only on its
    canonical bits, so the rules change the work, not the output: the
    outerplanar representatives are exactly the outerplanar members of the
    full list, in the same order.
    """
    if order <= 1:
        return (0,)
    keys: set[int] = set()
    new = order - 1
    bit = 1 << new
    uniform = [0] * order
    for parent in _key_level(new, outerplanar):
        adj = _key_masks(new, parent)
        degree = [m.bit_count() for m in adj]
        pieces = _cut_pieces(adj)
        cut = sum(1 << x for x, parts in enumerate(pieces) if len(parts) > 1)
        # Rule (ii') bounds |S| by the least non-cut degree plus one, rule
        # (iii) by 2.
        cap = min(d for x, d in enumerate(degree) if not cut >> x & 1) + 1
        if outerplanar:
            cap = min(cap, 2)
        # below[k]: the old vertices of degree < k.
        below = [sum(1 << v for v, d in enumerate(degree) if d < k) for k in range(cap + 2)]
        for nbrs in _lowest_subsets(_twin_cells(adj), cap):
            size = nbrs.bit_count()
            # The old vertices that end with degree < |S| must all be cut
            # vertices of P+S. A non-cut vertex of P among them has degree
            # |S| - 1 and lies outside S, so it stays non-cut.
            low = below[size - 1] | below[size] & ~nbrs
            if low and (low & ~cut or not all(
                    any(not part & nbrs for part in pieces[x]) for x in _bits_of(low))):
                continue
            # The old vertices that end with the new vertex's degree: those
            # of degree |S| - 1 in S and those of degree |S| not; rule (iv')
            # compares the ones that are not cut vertices of P+S. S = {x}
            # would need deg(x) = 0 in a connected P of two vertices or
            # more, so only P's cut vertices can be cut vertices of P+S.
            ties = (below[size + 1] & ~nbrs | below[size] & nbrs) & ~low
            for x in _bits_of(ties & cut):
                if not all(part & nbrs for part in pieces[x]):
                    ties ^= 1 << x
            if ties and not _accepts(adj, degree, nbrs, ties):
                continue
            masks = [m | bit if nbrs >> v & 1 else m for v, m in enumerate(adj)]
            masks.append(nbrs)
            if outerplanar and size == 2 and not _outerplanar_masks(masks):
                continue
            keys.add(_min_key(masks, uniform))
    return tuple(sorted(keys, key=lambda key: (key.bit_count(), key)))


def _cut_pieces(adj: Sequence[int]) -> list[list[int]]:
    """For each vertex x of the graph with neighbour masks `adj`, the
    components of the graph without x (`_components`), as masks. In a
    connected graph, x is a cut vertex iff it has two pieces or more."""
    everyone = (1 << len(adj)) - 1
    return [_components(adj, everyone ^ 1 << x) for x in range(len(adj))]


def _lowest_subsets(cells: Sequence[Sequence[int]], cap: int) -> list[int]:
    """The nonempty vertex masks of at most `cap` vertices that meet each
    cell in its lowest vertices."""
    found = [0]
    for cell in cells:
        prefixes = [0]
        for v in cell[:cap]:
            prefixes.append(prefixes[-1] | 1 << v)
        found = [s | p for s in found for p in prefixes[:cap - s.bit_count() + 1]]
    # Every cell's empty prefix comes first, so the empty set is found[0].
    return found[1:]


def _accepts(adj: Sequence[int], degree: Sequence[int], nbrs: int, ties: int) -> bool:
    """Rule (iv'): no old vertex in `ties`, the non-cut vertices that end
    with the new vertex's degree, has a larger neighbour-degree list than
    the new vertex of P+S, where P has neighbour masks `adj` and degrees
    `degree`, and S is the mask `nbrs`."""
    grown = [d + (nbrs >> v & 1) for v, d in enumerate(degree)]
    size = nbrs.bit_count()
    mine = sorted(grown[v] for v in _bits_of(nbrs))
    for u in _bits_of(ties):
        theirs = [grown[w] for w in _bits_of(adj[u])]
        if nbrs >> u & 1:
            theirs.append(size)
        if sorted(theirs) > mine:
            return False
    return True


def enumerate_connected_graphs(order: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected graphs.

    Deterministic across runs: representatives are canonically labeled and
    ordered by (edge count, canonical key). Intended scale is order <= 8
    (11,117 classes); order 9 has 261,080 connected classes.
    """
    return _connected_reps(order, False)


def enumerate_connected_outerplanar_graphs(order: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected
    outerplanar graphs.

    The same representatives, in the same (edge count, canonical key)
    order, as filtering `enumerate_connected_graphs` with `is_outerplanar`,
    but only outerplanar graphs are built and keyed: 777 classes at order
    8 and 3,783 at order 9 (OEIS A111563), of 11,117 and 261,080 connected
    classes.
    """
    return _connected_reps(order, True)


def _connected_reps(order: int, outerplanar: bool) -> Iterator[Graph]:
    """Check the order at once; the key level is built when the returned
    stream is first advanced, and each of its keys is decoded into a
    graph."""
    try:
        order = index(order)
    except TypeError:
        raise ValidationError(f"enumeration needs an integer order, got {order!r}") from None
    if order < 1:
        raise ValidationError(f"enumeration needs order >= 1, got {order}")

    def stream() -> Iterator[Graph]:
        for key in _key_level(order, outerplanar):
            yield _graph_from_key(order, key)

    return stream()


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
    return _outerplanar_masks(g.neighbor_masks)


def _outerplanar_masks(adj: Sequence[int]) -> bool:
    """`is_outerplanar` for the graph with neighbour masks `adj`.

    The edge labels are kept as masks too: w is in one[v] when the edge vw
    is labelled at least 1, and in two[v] when it is labelled 2. Labels only
    grow, and a removed vertex never gains an edge again, so its bits in
    the masks of its neighbours may stay.
    """
    n = len(adj)
    adj = list(adj)
    one = [0] * n
    two = [0] * n
    todo = [v for v in range(n) if adj[v].bit_count() <= 2]
    gone = 0
    while todo:
        v = todo.pop()
        m = adj[v]
        if gone >> v & 1 or m.bit_count() > 2:
            continue
        if m & (m - 1):
            u, w = (m & -m).bit_length() - 1, m.bit_length() - 1
            bu, bw = 1 << u, 1 << w
            if adj[u] & bw:
                # A triangle: uw's label goes up by one.
                if two[v] & m or two[u] & bw:
                    return False
                to_two = one[u] & bw
            else:
                # A new edge uw, labelled 2 if a side was, else 1.
                to_two = two[v] & m
                adj[u] |= bw
                adj[w] |= bu
            one[u] |= bw
            one[w] |= bu
            if to_two:
                two[u] |= bw
                two[w] |= bu
        bv = 1 << v
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            adj[u] &= ~bv
            if adj[u].bit_count() <= 2:
                todo.append(u)
        gone |= bv
    return gone == (1 << n) - 1
