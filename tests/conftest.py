"""Shared fixtures, independent brute-force oracles, and hypothesis strategies.

The oracle functions below deliberately avoid the package's solvers and
predicates: they re-derive costs, crossings and optima straight from the
definitions, so tests can compare the two code paths. `reference_claims`
is a reference of another kind: the claim checker's full walk over the
package's own `iter_crossing_free`; so is `reference_parse_edge_list`, the
edge-list parser that finds every token's column and checks every token.
"""

from __future__ import annotations

import re
import string
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from linarr import (
    Arrangement,
    ClaimReport,
    ClaimVerdict,
    Graph,
    ParseError,
    iter_crossing_free,
    make_graph,
    pentagon_with_chord,
)
from linarr.graphio import FORMAT_EDGE_LIST, GraphDocument, _check_label

LETTERS = "abcdefghij"


def arr_of(letters: str) -> Arrangement:
    """Build an arrangement from a letter sequence read left to right."""
    return Arrangement.from_vertex_order([LETTERS.index(c) for c in letters])


def letters_of(arr: Arrangement) -> str:
    return "".join(LETTERS[v] for v in arr.vertex_order())


@pytest.fixture
def pentagon() -> Graph:
    return pentagon_with_chord()


# ---------------------------------------------------------------------------
# Definition-level oracles
# ---------------------------------------------------------------------------


def oracle_cost(pos: tuple[int, ...], edges) -> int:
    return sum(abs(pos[u] - pos[v]) for u, v in edges)


def oracle_is_crossing_free(pos: tuple[int, ...], edges) -> bool:
    spans = [tuple(sorted((pos[u], pos[v]))) for u, v in edges]
    for (a1, b1), (a2, b2) in combinations(spans, 2):
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            return False
    return True


def oracle_positions(n: int):
    """All position tuples indexed by vertex, i.e. all arrangements."""
    for perm in permutations(range(n)):
        pos = [0] * n
        for i, v in enumerate(perm):
            pos[v] = i + 1
        yield tuple(pos)


def oracle_minla(g: Graph) -> tuple[int, set[tuple[int, ...]]]:
    best: int | None = None
    witnesses: set[tuple[int, ...]] = set()
    for pos in oracle_positions(g.order):
        c = oracle_cost(pos, g.edges)
        if best is None or c < best:
            best, witnesses = c, {pos}
        elif c == best:
            witnesses.add(pos)
    return best if best is not None else 0, witnesses


def up_to_reversal(optima) -> list[tuple[int, ...]]:
    """The position tuples among `optima` that precede their mirrors, sorted:
    the solvers' witness lists, given every optimum."""
    return sorted(p for p in optima if p <= tuple(len(p) + 1 - x for x in p))


def oracle_planar_minla(g: Graph) -> tuple[int | None, set[tuple[int, ...]]]:
    best: int | None = None
    witnesses: set[tuple[int, ...]] = set()
    for pos in oracle_positions(g.order):
        if not oracle_is_crossing_free(pos, g.edges):
            continue
        c = oracle_cost(pos, g.edges)
        if best is None or c < best:
            best, witnesses = c, {pos}
        elif c == best:
            witnesses.add(pos)
    return best, witnesses


def oracle_crossing_free_set(g: Graph) -> set[tuple[int, ...]]:
    return {
        pos for pos in oracle_positions(g.order)
        if oracle_is_crossing_free(pos, g.edges)
    }


def oracle_claims(g: Graph, cycle_edges):
    """The dominating-edge claims by pairwise interval containment.

    Walks the crossing-free arrangements in ascending `vertex_order()` and
    returns (count, claim 1, claim 2), each claim being (holds, witness
    positions, witness edge) taken at its first failure, with the cycle
    edges tried in sorted order.
    """
    cyc = sorted(tuple(sorted(e)) for e in cycle_edges)
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    walk = sorted(oracle_crossing_free_set(g),
                  key=lambda pos: sorted(range(g.order), key=pos.__getitem__))
    claim1 = claim2 = (True, None, None)
    for pos in walk:
        span = {e: tuple(sorted((pos[e[0]], pos[e[1]]))) for e in edges}
        dominators = [e for e in cyc if all(
            span[e][0] <= span[f][0] and span[f][1] <= span[e][1] for f in edges if f != e)]
        failing = [e for e in cyc if e not in dominators and span[e][1] - span[e][0] != 1]
        if failing and claim1[0]:
            claim1 = (False, pos, failing[0])
        if len(dominators) != 1 and claim2[0]:
            edge = dominators[1] if dominators else (failing or cyc)[0]
            claim2 = (False, pos, edge)
    return len(walk), claim1, claim2


def reference_claims(g: Graph, cycle_edges) -> ClaimReport:
    """The dominating-edge claims by a full walk of `iter_crossing_free`.

    It examines every crossing-free arrangement in stream order with the
    checker's own hull test, and takes each claim's witness at its first
    failure; the checker examines one arrangement per orbit of twin swaps
    and mirroring, and its report must equal this one.
    """
    cyc = sorted(tuple(sorted(e)) for e in cycle_edges)
    ends = {v for e in g.edges for v in e}
    count = 0
    claim1 = claim2 = ClaimVerdict(True)
    for arr in iter_crossing_free(g):
        count += 1
        pos = arr.positions
        at = [pos[v] for v in ends]
        hull = (min(at), max(at))
        dominated = False
        failing_edge = None
        for e in cyc:
            span = tuple(sorted((pos[e[0]], pos[e[1]])))
            if span == hull:
                dominated = True
            elif span[1] - span[0] != 1 and failing_edge is None:
                failing_edge = e
        if failing_edge is not None and claim1.holds:
            claim1 = ClaimVerdict(
                False, arr, failing_edge,
                "cycle edge neither contains all other edges nor has adjacent endpoints",
            )
        if not dominated and claim2.holds:
            edge = failing_edge if failing_edge is not None else cyc[0]
            claim2 = ClaimVerdict(False, arr, edge, "no cycle edge contains all other edges")
    return ClaimReport(count, claim1, claim2)


_TOKEN = re.compile(r"\S+")


def reference_parse_edge_list(text: str) -> GraphDocument:
    """An edge-list text parsed token by token: every token is found with
    its column by a regular expression and checked, on every line.
    `graphio._parse_edge_list` must return the same document, or raise the
    same error with the same message, line and column."""
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def vertex(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        tokens = list(_TOKEN.finditer(body))
        if not tokens:
            continue
        if len(tokens) > 2:
            raise ParseError(
                f"expected at most two labels per line, got {len(tokens)}",
                line=lineno, column=tokens[2].start() + 1,
            )
        for token in tokens:
            _check_label(token.group(), lineno, token.start() + 1)
        if len(tokens) == 1:
            vertex(tokens[0].group())
            continue
        a, b = tokens[0].group(), tokens[1].group()
        if a == b:
            raise ParseError(
                f"self-loop on {a!r} is not a valid edge",
                line=lineno, column=tokens[1].start() + 1,
            )
        edges.append((vertex(a), vertex(b)))
    return GraphDocument(make_graph(len(labels), edges), tuple(labels), FORMAT_EDGE_LIST)


def simple_cycles(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge lists of the simple cycles of g, each found once."""
    masks = g.neighbor_masks
    found = []

    def extend(path: list[int]) -> None:
        start, last = path[0], path[-1]
        for w in range(start + 1, g.order):
            if not masks[last] >> w & 1 or w in path:
                continue
            path.append(w)
            # Close through the start; path[1] < w lists each cycle in one direction.
            if len(path) >= 3 and masks[w] >> start & 1 and path[1] < w:
                found.append([tuple(sorted(p)) for p in zip(path, path[1:] + path[:1])])
            extend(path)
            path.pop()

    for s in range(g.order):
        extend([s])
    return found


def oracle_key(g: Graph, order) -> int:
    """The prefix-bits key of g under a vertex ordering: each vertex in turn
    appends one bit per earlier vertex, 1 for an edge, earliest first."""
    return _oracle_key(_oracle_matrix(g), order)


def oracle_min_key(g: Graph, colour) -> int:
    """The least `oracle_key` over every ordering that lists the vertices by
    ascending colour, by brute force over the orderings of each colour
    class (all n! of them for a uniform colouring)."""
    matrix = _oracle_matrix(g)
    classes = [[v for v in range(g.order) if colour[v] == c] for c in sorted(set(colour))]
    return min(_oracle_key(matrix, [v for part in parts for v in part])
               for parts in product(*(permutations(cls) for cls in classes)))


def _oracle_matrix(g: Graph) -> list[list[int]]:
    matrix = [[0] * g.order for _ in range(g.order)]
    for u, v in g.edges:
        matrix[u][v] = matrix[v][u] = 1
    return matrix


def _oracle_key(matrix, order) -> int:
    key = 0
    for i, v in enumerate(order):
        row = matrix[v]
        for w in order[:i]:
            key = key << 1 | row[w]
    return key


def oracle_is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _oracle_paths(masks, cur: int, target: int, blocked: int, internal: int):
    """Yield the internal-vertex mask of each simple cur->target path.

    Intermediate vertices must avoid `blocked`; `internal` accumulates the
    vertices used so far on this path.
    """
    m = masks[cur]
    if m >> target & 1:
        yield internal
    m &= ~blocked
    while m:
        w = (m & -m).bit_length() - 1
        m &= m - 1
        if w == target:
            continue
        yield from _oracle_paths(masks, w, target, blocked | 1 << w, internal | 1 << w)


def _oracle_link_pairs(masks, pairs: list[tuple[int, int]], blocked: int,
                       need_internal: bool) -> bool:
    """Can all (s, t) pairs be joined by internally disjoint paths?"""
    if not pairs:
        return True
    s, t = pairs[0]
    for internal in _oracle_paths(masks, s, t, blocked, 0):
        if need_internal and internal == 0:
            continue
        if _oracle_link_pairs(masks, pairs[1:], blocked | internal, need_internal):
            return True
    return False


def _oracle_has_k4_minor(g: Graph) -> bool:
    n = g.order
    if n < 4 or g.size < 6:
        return False
    masks = g.neighbor_masks
    # Quick subgraph check: four mutually adjacent vertices.
    for quad in combinations(range(n), 4):
        if all(masks[u] >> v & 1 for u, v in combinations(quad, 2)):
            return True
    for branch in combinations(range(n), 4):
        blocked = 0
        for v in branch:
            blocked |= 1 << v
        pairs = list(combinations(branch, 2))
        if _oracle_link_pairs(masks, pairs, blocked, need_internal=False):
            return True
    return False


def _oracle_has_k23_minor(g: Graph) -> bool:
    n = g.order
    if n < 5 or g.size < 6:
        return False
    masks = g.neighbor_masks
    # Quick subgraph check: two vertices with three common neighbors.
    for u, v in combinations(range(n), 2):
        if bin(masks[u] & masks[v] & ~(1 << u | 1 << v)).count("1") >= 3:
            return True
    for s, t in combinations(range(n), 2):
        pairs = [(s, t), (s, t), (s, t)]
        if _oracle_link_pairs(masks, pairs, 1 << s | 1 << t, need_internal=True):
            return True
    return False


def oracle_is_outerplanar(g: Graph) -> bool:
    """True iff g contains neither a K4 minor nor a K2,3 minor.

    Both forbidden graphs have maximum degree 3, so minor containment
    coincides with topological containment; the search therefore looks for
    subdivisions directly: branch vertices joined by internally disjoint
    paths. Exponential, so meant for orders up to about 10.
    """
    return not _oracle_has_k4_minor(g) and not _oracle_has_k23_minor(g)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, min_order: int = 1, max_order: int = 7) -> Graph:
    n = draw(st.integers(min_order, max_order))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return make_graph(n, edges)


@st.composite
def graph_and_arrangement(draw, min_order: int = 1,
                          max_order: int = 7) -> tuple[Graph, Arrangement]:
    g = draw(graphs(min_order, max_order))
    perm = draw(st.permutations(list(range(g.order))))
    return g, Arrangement.from_vertex_order(perm)


@st.composite
def arrangement_and_edge_pair(draw, min_order: int = 3, max_order: int = 7):
    """An arrangement plus two distinct vertex pairs usable as edges."""
    n = draw(st.integers(min_order, max_order))
    pairs = list(combinations(range(n), 2))
    e1 = draw(st.sampled_from(pairs))
    e2 = draw(st.sampled_from([p for p in pairs if p != e1]))
    perm = draw(st.permutations(list(range(n))))
    return Arrangement.from_vertex_order(perm), e1, e2


@st.composite
def labeled_graphs(draw, max_order: int = 7) -> tuple[Graph, tuple[str, ...]]:
    g = draw(graphs(1, max_order))
    alphabet = string.ascii_lowercase + string.digits
    labels = draw(
        st.lists(
            st.text(alphabet, min_size=1, max_size=3),
            min_size=g.order, max_size=g.order, unique=True,
        )
    )
    return g, tuple(labels)


# Frequently used small graphs.


@st.composite
def connected_outerplanar(draw, max_order: int = 10):
    """A connected graph with a crossing-free arrangement: a tree grown in
    position order, each vertex joined to an earlier one that no edge spans,
    and then chords that cross no edge."""
    n = draw(st.integers(1, max_order))
    order = draw(st.permutations(range(n)))
    spans: list[tuple[int, int]] = []
    for i in range(1, n):
        free = [j for j in range(i) if not any(a < j < b for a, b in spans)]
        spans.append((draw(st.sampled_from(free)), i))
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        a, b = min(a, b), max(a, b)
        if b - a > 1 and (a, b) not in spans and not any(
                a < c < b < d or c < a < d < b for c, d in spans):
            spans.append((a, b))
    return make_graph(n, [(order[a], order[b]) for a, b in spans])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return make_graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
