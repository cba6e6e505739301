from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    oracle_is_connected,
    oracle_is_outerplanar,
    oracle_key,
    oracle_min_key,
    path_graph,
)
from linarr import (
    ValidationError,
    are_isomorphic,
    canonical_form,
    enumerate_connected_graphs,
    enumerate_connected_outerplanar_graphs,
    is_connected,
    is_outerplanar,
    iter_crossing_free,
    make_graph,
    pentagon_with_chord,
)
import linarr.graph
from linarr.graph import (
    _all_graph_reps,
    _canonical_key,
    _components,
    _cut_pieces,
    _graph_from_key,
    _iso_key,
    _key_level,
    _key_masks,
    _maximum_independent_sets,
    _min_key,
    _outerplanar_masks,
    _refined_colours,
    _twin_cells,
    _twin_masks,
)


def relabeled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return make_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges])


def to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges)
    return h


def triangulated_polygon(n, rng):
    """Edges of a random triangulation of the polygon 0, 1, ..., n-1."""
    edges = {(i, i + 1) for i in range(n - 1)}
    sides = [(0, n - 1)]
    while sides:
        a, b = sides.pop()
        edges.add((a, b))
        if b - a > 1:
            k = rng.randint(a + 1, b - 1)
            sides += [(a, k), (k, b)]
    return edges


def circulant(n, steps):
    """Vertex i joined to i + s mod n for each step s."""
    return make_graph(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def petersen_graph():
    """Outer 5-cycle 0..4, spokes i-(i+5), inner pentagram 5..9."""
    return make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def hypercube(d):
    """Vertices 0..2^d-1, joined when they differ in one bit."""
    return make_graph(1 << d, [(v, v ^ 1 << b) for v in range(1 << d) for b in range(d)])


# sha256 of repr([g.sorted_edges for g in _all_graph_reps(n)]) for n = 1..7.
REPS_SHA256 = [
    "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    "2c3d6db69bdab62f45d2f552b42b208efbaaf3a0c03399cc7cfbd286286e59ab",
    "665eed67b583c3588b9ce6020ad07ce06946c9a333774e77d50cc172d6180f27",
    "e9a1bc4e12bfb23014de54e68302d72e18f41600087a6e97bd5485a9d1b55a08",
    "7157727bb5f7f40cd0683cdf05e8c53ac6af3e0b9b6be5f2b5d3a6562ec12a72",
    "16d51cc21da9eac4228b8b651b532284453282a5566cc1cdcd148d2cfc93ec2e",
    "07921b8ffb19a990ef1f6b355b1d3377d1e01dea4b9489dc06e541d2cbc2463a",
]

# sha256 of repr([g.sorted_edges for g in _all_graph_reps(9, True)]), taken
# before the canonical search became set-first.
OUTERPLANAR_REPS9_SHA256 = "7bd654d46dc203569079f566cd62645e49249c79f99cc7d901828a27d16f052c"


def min_key_cases():
    """Every representative up to order 6, a seeded relabeling of each, and
    30 seeded random graphs of order 7."""
    rng = random.Random(15)
    graphs = [g for n in range(7) for g in _all_graph_reps(n)]
    graphs += [relabeled(g, rng) for g in graphs]
    pairs = list(combinations(range(7), 2))
    graphs += [make_graph(7, [e for e in pairs if rng.random() < 0.5]) for _ in range(30)]
    return graphs


def most_cells_split(g, colour, key):
    """The most cells of I that one placed vertex splits, on the minimising
    ordering that `key`, g's `_min_key` under `colour`, spells. Every
    ordering that reaches the key splits the cells alike, so the search
    made such a split on its way to the key."""
    adj = g.neighbor_masks
    first = sum(1 << v for v in range(g.order) if colour[v] == min(colour))
    alpha = _maximum_independent_sets(adj, first, _twin_masks(adj))[0].bit_count()
    spelt = _key_masks(g.order, key)
    cells = [(1 << alpha) - 1]
    most = 0
    for placed in spelt[alpha:]:
        split = [part for c in cells for part in (c & ~placed, c & placed) if part]
        most = max(most, len(split) - len(cells))
        cells = split
    return most


class TestMakeGraph:
    def test_pentagon_fixture(self, pentagon):
        assert pentagon.order == 5
        assert pentagon.size == 6
        assert pentagon.edges == frozenset(
            {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)}
        )

    def test_empty_graph(self):
        g = make_graph(0, [])
        assert g.order == 0
        assert g.size == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            make_graph(3, [(0, 0)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            make_graph(3, [(0, 3)])
        with pytest.raises(ValidationError):
            make_graph(3, [(-1, 2)])

    def test_duplicate_edges_collapse(self):
        g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.size == 1

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            make_graph(-1, [])

    def test_raw_pairs_and_error_texts(self):
        # Lists, reversed pairs and duplicates are accepted, and the errors
        # keep their text.
        g = make_graph(4, [[2, 0], [0, 2], (3, 1), [1, 3]])
        assert g.edges == frozenset({(0, 2), (1, 3)})
        assert g.sorted_edges == ((0, 2), (1, 3))
        with pytest.raises(ValidationError, match=r"^self-loop on vertex 2 is not a valid edge$"):
            make_graph(3, [[0, 1], [2, 2]])
        with pytest.raises(ValidationError,
                           match=r"^edge \(1, 3\) has an endpoint outside 0\.\.2$"):
            make_graph(3, [[3, 1]])

    def test_non_integer_endpoint_rejected(self):
        # A float is not truncated and a numeric string is not parsed.
        with pytest.raises(ValidationError,
                           match=r"^edge \(0, 1\.7\) has an endpoint that is not an integer$"):
            make_graph(3, [(0, 1.7)])
        with pytest.raises(ValidationError,
                           match=r"^edge \('0', '2'\) has an endpoint that is not an integer$"):
            make_graph(3, [("0", "2")])

    def test_edge_that_is_not_a_pair_rejected(self):
        for edge, text in [((0, 1, 2), r"\(0, 1, 2\)"), (5, "5"), ((0,), r"\(0,\)")]:
            with pytest.raises(ValidationError, match=rf"^edge {text} is not a pair of vertices$"):
                make_graph(3, [edge])

    def test_non_integer_order_rejected(self):
        for order in (2.5, "3", None):
            with pytest.raises(ValidationError,
                               match=r"^graph order must be an integer, got "):
                linarr.graph.Graph(order)

    @pytest.mark.parametrize("build", [lambda: make_graph(3, 5),
                                       lambda: linarr.graph.Graph(3, None)],
                             ids=["make_graph", "Graph"])
    def test_edges_that_are_not_iterable_rejected(self, build):
        with pytest.raises(ValidationError,
                           match=r"^graph edges must be an iterable of vertex pairs, got "):
            build()

    def test_adjacency_views(self, pentagon):
        # The neighbour masks are the one adjacency view; the sorted
        # neighbour tuples are gone.
        assert pentagon.neighbor_masks == (0b10010, 0b01101, 0b01010, 0b10110, 0b01001)
        assert pentagon.degree_sequence == (2, 2, 2, 3, 3)
        assert not hasattr(pentagon, "neighbors")


class TestIsConnected:
    def test_matches_oracle_on_every_labelled_graph(self):
        # Orders 0 and 1 and the disconnected graphs reach is_connected
        # nowhere else: enumeration hands it only representatives.
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                assert is_connected(make_graph(n, edges)) == oracle_is_connected(n, edges), \
                    (n, edges)


class TestIsomorphism:
    def test_identity(self, pentagon):
        assert are_isomorphic(pentagon, pentagon)

    def test_cyclic_shift(self, pentagon):
        shifted = make_graph(5, [((u + 1) % 5, (v + 1) % 5) for u, v in pentagon.edges])
        assert are_isomorphic(pentagon, shifted)

    def test_path_vs_triangle(self):
        assert not are_isomorphic(path_graph(3), cycle_graph(3))

    def test_order_mismatch_is_false(self):
        assert not are_isomorphic(path_graph(3), path_graph(4))

    def test_same_degree_sequence_not_isomorphic(self):
        # C6 vs two triangles: both 2-regular on six vertices.
        two_triangles = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not are_isomorphic(cycle_graph(6), two_triangles)

    def test_equivalence_relation_on_sample(self, pentagon):
        rng = random.Random(7)
        base = [pentagon, path_graph(4), cycle_graph(5), complete_graph(4)]
        variants = []
        for g in base:
            perm = list(range(g.order))
            rng.shuffle(perm)
            variants.append(
                make_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges])
            )
        sample = base + variants
        for g in sample:
            assert are_isomorphic(g, g)
        for g1 in sample:
            for g2 in sample:
                assert are_isomorphic(g1, g2) == are_isomorphic(g2, g1)
        for g1 in sample:
            for g2 in sample:
                for g3 in sample:
                    if are_isomorphic(g1, g2) and are_isomorphic(g2, g3):
                        assert are_isomorphic(g1, g3)

    def test_canonical_form_identifies_isomorphs(self, pentagon):
        shifted = make_graph(5, [((u + 2) % 5, (v + 2) % 5) for u, v in pentagon.edges])
        assert canonical_form(pentagon) == canonical_form(shifted)
        assert are_isomorphic(canonical_form(pentagon), pentagon)

    @pytest.mark.parametrize("n", range(6))
    def test_matches_networkx_on_every_pair(self, n):
        # Every class representative of order n and a relabeling of each.
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        reps = _all_graph_reps(n)
        pool = list(reps) + [relabeled(g, rng) for g in reps]
        nx_pool = [to_networkx(nx, g) for g in pool]
        for (g1, h1), (g2, h2) in combinations(zip(pool, nx_pool), 2):
            assert are_isomorphic(g1, g2) == nx.is_isomorphic(h1, h2), (g1, g2)

    def test_random_relabelings_of_every_class(self):
        rng = random.Random(11)
        for n in range(7):
            for g in _all_graph_reps(n):
                for _ in range(3):
                    h = relabeled(g, rng)
                    assert are_isomorphic(g, h)
                    assert canonical_form(h) == g

    def test_iso_key_is_a_complete_invariant_on_every_class(self):
        # Enumeration keys by canonical bits alone, so only this test and
        # `are_isomorphic` exercise `_iso_key`: it must tell apart every two
        # classes of order <= 8 (the order-8 key level is cached, and other
        # tests in this module reuse it) and survive a relabelling of every
        # order-7 class.
        for n in range(9):
            reps = _all_graph_reps(n)
            assert len({_iso_key(g) for g in reps}) == len(reps), n
        rng = random.Random(17)
        for g in _all_graph_reps(7):
            assert _iso_key(relabeled(g, rng)) == _iso_key(g)

    def test_regular_graphs_with_equal_colourings(self):
        # Colour refinement leaves every regular graph one colour class, so
        # only the search over orderings can tell these apart.
        prism = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                               (0, 3), (1, 4), (2, 5)])
        k33 = make_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        cube = make_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)])
        c8_chords = make_graph(8, [(i, (i + 1) % 8) for i in range(8)]
                               + [(i, i + 4) for i in range(4)])
        assert not are_isomorphic(prism, k33)
        assert not are_isomorphic(cube, c8_chords)
        assert are_isomorphic(cube, relabeled(cube, random.Random(3)))


class TestEnumeration:
    def test_order_one(self):
        graphs = list(enumerate_connected_graphs(1))
        assert len(graphs) == 1
        assert graphs[0].order == 1

    def test_order_three_classes(self):
        graphs = list(enumerate_connected_graphs(3))
        assert len(graphs) == 2
        assert any(are_isomorphic(g, path_graph(3)) for g in graphs)
        assert any(are_isomorphic(g, cycle_graph(3)) for g in graphs)

    def test_order_four_count(self):
        assert len(list(enumerate_connected_graphs(4))) == 6

    def test_matches_labeled_enumeration_oracle(self):
        # Brute force every labeled graph and dedup with networkx, so the
        # enumeration is not checked against its own key.
        nx = pytest.importorskip("networkx")
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            classes: list = []
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                if not oracle_is_connected(n, edges):
                    continue
                h = to_networkx(nx, make_graph(n, edges))
                if not any(nx.is_isomorphic(h, c) for c in classes):
                    classes.append(h)
            yielded = [to_networkx(nx, g) for g in enumerate_connected_graphs(n)]
            assert len(yielded) == len(classes)
            for g in yielded:
                assert sum(1 for c in classes if nx.is_isomorphic(g, c)) == 1

    def test_connected_class_counts(self):
        # OEIS A001349.
        counts = [len(list(enumerate_connected_graphs(n))) for n in range(1, 8)]
        assert counts == [1, 1, 2, 6, 21, 112, 853]

    def test_all_graph_class_counts(self):
        # OEIS A000088.
        counts = [len(_all_graph_reps(n)) for n in range(1, 8)]
        assert counts == [1, 2, 4, 11, 34, 156, 1044]

    def test_extensions_keyed_per_order(self, monkeypatch):
        # Each level holds the connected classes alone, built from connected
        # parents only, so no disconnected graph is ever keyed. The
        # twin-cell, least non-cut degree and neighbour-degree rules leave
        # these one-vertex extensions to key (1,408 up to order 7).
        keyed = [0] * 9
        disconnected = []
        min_key = linarr.graph._min_key

        def counting(adj, colour):
            keyed[len(adj)] += 1
            if len(_components(adj, (1 << len(adj)) - 1)) != 1:
                disconnected.append(adj)
            return min_key(adj, colour)

        # Each key level is rebuilt uncached from the cached level below it,
        # so the order-8 level other tests share stays in the cache.
        _key_level(7, False)
        monkeypatch.setattr(linarr.graph, "_min_key", counting)
        for n in range(1, 9):
            _key_level.__wrapped__(n, False)
        assert keyed[1:] == [0, 1, 2, 6, 25, 148, 1226, 14914]
        assert disconnected == []

    def test_cut_vertex_below_the_least_non_cut_degree(self, monkeypatch):
        # P: two K5s joined through a path vertex x = 10 of degree 2. G: P
        # plus a vertex joined to the four vertices of one K5 that miss x.
        # That vertex is G's least-degree non-cut vertex with the largest
        # inv, so G must be keyed from P, though |S| = 4 exceeds P's least
        # degree plus one and x ends below |S|: x stays a cut vertex, so
        # neither rule (ii') nor its cap may count it. No parent of the
        # orders the other tests build has such a cut vertex.
        k5 = list(combinations(range(5), 2))
        p = make_graph(11, k5 + [(u + 5, v + 5) for u, v in k5] + [(0, 10), (5, 10)])
        g = make_graph(12, p.edges | {(v, 11) for v in range(1, 5)})
        monkeypatch.setattr(linarr.graph, "_key_level", lambda n, op: (_canonical_key(p),))
        assert _canonical_key(g) in _key_level.__wrapped__(12, False)

    def test_outerplanar_stream_filters_the_full_enumeration(self):
        # Same representatives in the same order, element for element. The
        # order-8 key level is cached by other tests in this module.
        for n in range(1, 9):
            expected = [g for g in enumerate_connected_graphs(n) if is_outerplanar(g)]
            assert list(enumerate_connected_outerplanar_graphs(n)) == expected, n

    def test_outerplanar_class_counts(self):
        # Connected: OEIS A111563.
        connected = [len(list(enumerate_connected_outerplanar_graphs(n))) for n in range(1, 9)]
        assert connected == [1, 1, 2, 5, 13, 46, 172, 777]
        assert [len(_all_graph_reps(n, True)) for n in range(1, 9)] == [
            1, 2, 4, 10, 25, 80, 277, 1150]

    def test_outerplanar_extensions_keyed_per_order(self, monkeypatch):
        # Only connected outerplanar extensions of connected outerplanar
        # representatives are keyed: 348 up to order 7, against 1,408 for
        # the full enumeration.
        keyed = [0] * 9
        disconnected = []
        min_key = linarr.graph._min_key

        def counting(adj, colour):
            keyed[len(adj)] += 1
            if len(_components(adj, (1 << len(adj)) - 1)) != 1:
                disconnected.append(adj)
            return min_key(adj, colour)

        _key_level(7, True)
        monkeypatch.setattr(linarr.graph, "_min_key", counting)
        for n in range(1, 9):
            _key_level.__wrapped__(n, True)
        assert keyed[1:] == [0, 1, 2, 5, 16, 69, 255, 1013]
        assert disconnected == []

    def test_outerplanar_stream_builds_a_graph_per_representative(self, monkeypatch):
        # Levels are kept as keys, and extensions are tested and keyed on
        # neighbour masks. With the lower levels cached, the order-7 level
        # is built afresh: its 142 extensions with |S| = 2 each run the
        # elimination once, and the only graphs built are the 172 classes
        # the stream yields, each decoded without validation.
        decoded = []
        validated = []
        eliminations = []
        Graph = linarr.graph.Graph
        trusted = Graph._trusted.__func__
        post_init = Graph.__post_init__
        key_level = _key_level
        outerplanar = linarr.graph._outerplanar_masks

        def counting_outerplanar(adj):
            eliminations.append(len(adj))
            return outerplanar(adj)

        key_level(6, True)
        monkeypatch.setattr(linarr.graph, "_key_level", lambda n, op: (
            key_level.__wrapped__(n, op) if n == 7 else key_level(n, op)))
        monkeypatch.setattr(Graph, "_trusted", classmethod(
            lambda cls, masks: decoded.append(len(masks)) or trusted(cls, masks)))
        monkeypatch.setattr(Graph, "__post_init__",
                            lambda g: validated.append(g) or post_init(g))
        monkeypatch.setattr(linarr.graph, "_outerplanar_masks", counting_outerplanar)
        stream = enumerate_connected_outerplanar_graphs(7)
        assert decoded == eliminations == []
        graphs = list(stream)
        assert len(graphs) == 172
        assert decoded == [7] * 172
        assert validated == []
        assert eliminations == [7] * 142

    def test_outerplanar_stream_holds_random_outerplanar_graphs(self):
        # Independent of the rules that prune the stream: the canonical form
        # of any outerplanar graph, here a relabelled random subgraph of a
        # triangulated polygon, must be one of its order's representatives.
        # Each order's representatives are composed once.
        reps = {n: set(_all_graph_reps(n, True)) for n in range(5, 10)}
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(5, 9)
            edges = [e for e in sorted(triangulated_polygon(n, rng)) if rng.random() < 0.8]
            g = relabeled(make_graph(n, edges), rng)
            assert canonical_form(g) in reps[n], g

    def test_outerplanar_representatives_have_a_vertex_of_degree_two(self):
        # The fact behind the outerplanar stream's cap |S| <= 2: every
        # outerplanar class has a vertex of degree at most 2, and every
        # connected one of order >= 2 has one that is not a cut vertex.
        for n in range(1, 9):
            for g in _all_graph_reps(n, True):
                assert min(m.bit_count() for m in g.neighbor_masks) <= 2, g
        for n in range(2, 10):
            everyone = (1 << n) - 1
            for g in enumerate_connected_outerplanar_graphs(n):
                masks = g.neighbor_masks
                assert any(masks[v].bit_count() <= 2
                           and len(_components(masks, everyone ^ 1 << v)) == 1
                           for v in range(n)), g

    def test_order_nine_outerplanar_stream_is_pinned(self):
        # 3,783 connected classes: OEIS A111563.
        reps = _all_graph_reps(9, True)
        edges = [g.sorted_edges for g in reps]
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == OUTERPLANAR_REPS9_SHA256
        assert sum(map(is_connected, reps)) == 3783

    def test_order_nine_sample_is_pairwise_non_isomorphic(self):
        nx = pytest.importorskip("networkx")
        sample = random.Random(9).sample(_all_graph_reps(9, True), 200)
        nx_sample = [to_networkx(nx, g) for g in sample]
        for (g1, h1), (g2, h2) in combinations(zip(sample, nx_sample), 2):
            assert not nx.is_isomorphic(h1, h2), (g1, g2)

    def test_representatives_are_pinned(self):
        # bench/data/search.json relies on these exact representatives and
        # their order; the digests were taken before the enumeration was
        # sped up.
        for n, digest in enumerate(REPS_SHA256):
            edges = [g.sorted_edges for g in _all_graph_reps(n + 1)]
            assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest, n + 1

    def test_yields_are_connected(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                assert is_connected(g)

    def test_deterministic_order(self):
        first = list(enumerate_connected_graphs(5))
        second = list(enumerate_connected_graphs(5))
        assert first == second

    def test_rejects_order_zero(self):
        with pytest.raises(ValidationError):
            list(enumerate_connected_graphs(0))

    @pytest.mark.parametrize("enumerate_", [enumerate_connected_graphs,
                                            enumerate_connected_outerplanar_graphs])
    def test_rejects_non_integer_order(self, enumerate_):
        for order in ("3", 2.5, None):
            with pytest.raises(ValidationError,
                               match=r"^enumeration needs an integer order, got "):
                list(enumerate_(order))

    @pytest.mark.parametrize("enumerate_", [enumerate_connected_graphs,
                                            enumerate_connected_outerplanar_graphs])
    @pytest.mark.parametrize("order", [0, "3"])
    def test_order_is_checked_at_the_call(self, enumerate_, order):
        # The call itself raises, before the stream is advanced.
        with pytest.raises(ValidationError, match=r"^enumeration needs "):
            enumerate_(order)

    def test_representatives_are_built_when_advanced(self, monkeypatch):
        # The stream asks for its key level only when first advanced, and
        # yields that level's classes, the connected ones of the full list,
        # in its order.
        expected = [g for g in _all_graph_reps(4, True) if is_connected(g)]
        built = []
        key_level = _key_level
        monkeypatch.setattr(linarr.graph, "_key_level",
                            lambda *args: built.append(args) or key_level(*args))
        stream = enumerate_connected_outerplanar_graphs(4)
        assert built == []
        assert list(stream) == expected
        assert built == [(4, True)]
        assert [_graph_from_key(4, key) for key in key_level(4, True)] == expected


class TestMinKey:
    """The set-first key search against brute force over all orderings."""

    @pytest.mark.parametrize("refined", [False, True], ids=["canonical", "refined"])
    def test_matches_brute_force(self, refined):
        for g in min_key_cases():
            colour = _refined_colours(g) if refined else [0] * g.order
            bits = _min_key(g.neighbor_masks, colour)
            assert bits == oracle_min_key(g, colour), g
            if not refined:
                assert _canonical_key(g) == bits, g
            # The key decodes to g relabelled onto a minimising ordering.
            assert oracle_key(_graph_from_key(g.order, bits), range(g.order)) == bits, g

    def test_multi_cell_splits_match_brute_force(self):
        # When one placed vertex splits two or more cells of I, the row of
        # each later vertex changes in two or more segments. Uniform colours:
        # seeded random graphs of orders 7 and 8. Refined colours: an 8-cycle
        # alternating between four independent vertices of degree 2 and four
        # of degree 3 matched in pairs, seeded and relabelled; refinement
        # keeps the two degree classes, and the second vertex placed after I
        # splits both cells the first one made.
        rng = random.Random(37)
        cases = []
        for order, count in [(7, 60), (8, 30)]:
            pairs = list(combinations(range(order), 2))
            for _ in range(count):
                p = rng.uniform(0.2, 0.5)
                g = make_graph(order, [e for e in pairs if rng.random() < p])
                cases.append((g, [0] * order))
        for _ in range(12):
            ring = rng.sample(range(4), 4)
            x = rng.sample(range(4, 8), 4)
            cycle = [v for pair in zip(ring, x) for v in pair]
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            edges += [(x[0], x[2]), (x[1], x[3])] if rng.random() < 0.5 else \
                [(x[0], x[1]), (x[2], x[3])]
            g = relabeled(make_graph(8, edges), rng)
            cases.append((g, _refined_colours(g)))
        seen = {False: 0, True: 0}
        for g, colour in cases:
            key = _min_key(g.neighbor_masks, colour)
            if most_cells_split(g, colour, key) >= 2:
                assert key == oracle_min_key(g, colour), (g, colour)
                seen[len(set(colour)) > 1] += 1
        assert seen[False] >= 10 and seen[True] >= 10, seen

    @pytest.mark.parametrize("g, key", [
        (cycle_graph(12), 0x628a14140600),
        (petersen_graph(), 0x1a98934990),
        (hypercube(4), 0xf332a8d22582a819807800),
        (complete_bipartite(4, 4), 0x3fde78),
        (circulant(13, [1, 5]), 0x1222d1c22b2a590cc0),
    ], ids=["C12", "Petersen", "Q4", "K4,4", "C13(1,5)"])
    def test_symmetric_graphs_are_pinned(self, g, key):
        # Vertex-transitive graphs too large for the brute-force oracle, on
        # which many partial orderings tie level after level. The keys were
        # taken from the depth-first search that the level-synchronous one
        # replaced. Refinement leaves a regular graph's colouring uniform.
        rng = random.Random(g.order)
        assert _canonical_key(g) == key
        assert _canonical_key(relabeled(g, rng)) == key
        assert _iso_key(relabeled(g, rng)) == ((0,) * g.order, key)

    def test_trusted_decoder_matches_the_validating_constructor(self):
        # Every class of both streams to order 8. The edges are read off the
        # key bit by bit, independently of `_key_masks`: bit i(i-1)/2 + j
        # from the most significant end is the edge (j, i).
        for outerplanar in (False, True):
            for n in range(9):
                top = n * (n - 1) // 2 - 1
                for key in _key_level(n, outerplanar):
                    g = _graph_from_key(n, key)
                    h = linarr.graph.Graph(n, [
                        (j, i) for i in range(1, n) for j in range(i)
                        if key >> (top - i * (i - 1) // 2 - j) & 1])
                    assert g == h and repr(g) == repr(h) and hash(g) == hash(h), h
                    assert vars(g)["neighbor_masks"] == h.neighbor_masks, h
                    assert vars(g)["sorted_edges"] == h.sorted_edges, h

    def test_maximum_independent_sets_up_to_twins(self):
        # The returned sets are maximum independent sets that meet each twin
        # cell in its lowest vertices, and they cover every maximum
        # independent set up to permutations inside twin cells: exactly one
        # returned set meets each cell in as many vertices.
        for n in range(1, 7):
            for g in _all_graph_reps(n):
                adj = g.neighbor_masks
                cells = _twin_cells(adj)
                independent = [m for m in range(1 << n)
                               if not any(m >> v & 1 and adj[v] & m for v in range(n))]
                alpha = max(m.bit_count() for m in independent)
                found = _maximum_independent_sets(adj, (1 << n) - 1, _twin_masks(adj))

                def profile(m):
                    return tuple(sum(m >> v & 1 for v in cell) for cell in cells)

                for m in found:
                    assert m in independent and m.bit_count() == alpha, g
                    for cell, k in zip(cells, profile(m)):
                        assert all(m >> v & 1 for v in cell[:k]), g
                assert sorted(map(profile, found)) == sorted(
                    {profile(m) for m in independent if m.bit_count() == alpha}), g


class TestCutPieces:
    def test_matches_networkx(self):
        # Every connected class to order 7 and seeded random connected
        # graphs of orders 2..12: the vertices with two pieces or more are
        # networkx's articulation points, and each vertex's pieces are the
        # components of the graph without it.
        nx = pytest.importorskip("networkx")
        rng = random.Random(41)
        graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
        for _ in range(300):
            n = rng.randint(2, 12)
            p = rng.uniform(0, 0.4)
            tree = [(rng.randrange(v), v) for v in range(1, n)]
            extra = [e for e in combinations(range(n), 2) if rng.random() < p]
            graphs.append(relabeled(make_graph(n, tree + extra), rng))
        cuts = 0
        for g in graphs:
            h = to_networkx(nx, g)
            pieces = _cut_pieces(g.neighbor_masks)
            assert {x for x, parts in enumerate(pieces) if len(parts) > 1} == set(
                nx.articulation_points(h)), g
            for x, parts in enumerate(pieces):
                rest = h.subgraph(v for v in range(g.order) if v != x)
                assert sorted(parts) == sorted(sum(1 << v for v in comp)
                                               for comp in nx.connected_components(rest)), (g, x)
            cuts += any(len(parts) > 1 for parts in pieces)
        assert 0 < cuts < len(graphs)


class TestTwinCells:
    @pytest.mark.parametrize("g, cells", [
        (complete_bipartite(1, 3), [[0], [1, 2, 3]]),
        (complete_graph(4), [[0, 1, 2, 3]]),
        (path_graph(4), [[0], [1], [2], [3]]),
        (cycle_graph(4), [[0, 2], [1, 3]]),
    ], ids=["K1,3", "K4", "P4", "C4"])
    def test_cells(self, g, cells):
        assert _twin_cells(g.neighbor_masks) == cells

    def test_swapping_twins_is_an_automorphism(self):
        for n in range(1, 7):
            for g in _all_graph_reps(n):
                for cell in _twin_cells(g.neighbor_masks):
                    for v, w in combinations(cell, 2):
                        swap = {v: w, w: v}
                        assert make_graph(n, [(swap.get(a, a), swap.get(b, b))
                                              for a, b in g.edges]) == g


class TestOuterplanarity:
    def test_one_page_embedding_equivalence_at_order_seven(self):
        # Bernhart & Kainen (1979): g has a crossing-free arrangement iff g
        # is outerplanar iff g plus a vertex joined to all of g is planar.
        nx = pytest.importorskip("networkx")
        for g in enumerate_connected_graphs(7):
            apex = to_networkx(nx, g)
            apex.add_edges_from((g.order, v) for v in range(g.order))
            one_page = next(iter_crossing_free(g), None) is not None
            assert is_outerplanar(g) == one_page == nx.check_planarity(apex)[0], g

    def test_matches_minor_oracle_on_every_graph_to_order_eight(self):
        # All 13,598 graphs of orders 1..8, disconnected ones included.
        for n in range(1, 9):
            for g in _all_graph_reps(n):
                assert is_outerplanar(g) == oracle_is_outerplanar(g), g

    def test_random_families_up_to_order_forty(self):
        # Subgraphs of polygon triangulations are outerplanar; one added
        # non-edge may or may not keep them so, as apex planarity decides.
        nx = pytest.importorskip("networkx")
        rng = random.Random(2024)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(4, 40)
            g = relabeled(make_graph(n, [
                e for e in triangulated_polygon(n, rng) if rng.random() < 0.7
            ]), rng)
            assert is_outerplanar(g), g
            u, w = rng.choice([e for e in combinations(range(n), 2) if e not in g.edges])
            h = make_graph(n, g.edges | {(u, w)})
            apex = to_networkx(nx, h)
            apex.add_edges_from((n, v) for v in range(n))
            verdict = nx.check_planarity(apex)[0]
            assert is_outerplanar(h) == verdict, h
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_mask_elimination_matches_minor_oracle_on_random_graphs(self):
        # The elimination on neighbour masks, as the outerplanar stream runs
        # it, on graphs of orders 5..10 dense enough to give both verdicts.
        rng = random.Random(31)
        verdicts = []
        for _ in range(300):
            n = rng.randint(5, 10)
            p = rng.uniform(0.2, 0.5)
            g = make_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            verdict = oracle_is_outerplanar(g)
            assert _outerplanar_masks(g.neighbor_masks) == verdict, g
            verdicts.append(verdict)
        assert 50 < sum(verdicts) < 250

    @pytest.mark.parametrize("edges, expected", [
        # K2,3 plus the edge between its hubs: three triangles on one edge.
        ([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)], False),
        # A fan: a hub joined to every vertex of a path.
        ([(0, i) for i in range(1, 6)] + [(i, i + 1) for i in range(1, 5)], True),
        # Two triangles joined by a bridge.
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)], True),
    ], ids=["k23-plus-hub-edge", "fan", "bridged-triangles"])
    def test_edge_label_rules(self, edges, expected):
        g = make_graph(1 + max(v for e in edges for v in e), edges)
        assert is_outerplanar(g) == expected
        rng = random.Random(7)
        for _ in range(20):
            assert is_outerplanar(relabeled(g, rng)) == expected

    def test_pentagon_with_chord(self, pentagon):
        assert is_outerplanar(pentagon)

    def test_k4(self):
        assert not is_outerplanar(complete_graph(4))

    def test_k23(self):
        assert not is_outerplanar(complete_bipartite(2, 3))

    def test_paths_cycles_trees(self):
        assert is_outerplanar(path_graph(6))
        assert is_outerplanar(cycle_graph(7))
        star = make_graph(6, [(0, i) for i in range(1, 6)])
        assert is_outerplanar(star)

    def test_diamond(self):
        assert is_outerplanar(make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))

    def test_wheel_has_k4_minor_but_no_k4_subgraph(self):
        wheel = make_graph(
            5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
        )
        assert not any(
            all(e in wheel.edges for e in combinations(q, 2))
            for q in combinations(range(5), 4)
        )
        assert not is_outerplanar(wheel)

    def test_prism_needs_contractions(self):
        prism = make_graph(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        )
        assert not is_outerplanar(prism)

    def test_subdivided_k23(self):
        # K2,3 with one edge subdivided: still contains the minor.
        g = make_graph(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (5, 4)])
        assert not is_outerplanar(g)

    def test_disconnected_components(self):
        ok = make_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert is_outerplanar(ok)
        bad = make_graph(
            7,
            [(0, 1), (1, 2), (2, 0)]
            + [(3 + a, 3 + b) for a, b in combinations(range(4), 2)],
        )
        assert not is_outerplanar(bad)
