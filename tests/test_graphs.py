"""Families, structural queries, and the graph6 codec (cross-checked against
networkx's independent implementation of the format)."""

import pickle
import random
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramat.graphs import (
    Graph,
    binary_graph,
    complement,
    complete,
    complete_bipartite,
    connected_components,
    crown,
    cube,
    cycle,
    degree,
    distance,
    folded_cube,
    girth,
    graph6_decode,
    graph6_encode,
    is_bipartite,
    is_connected,
    is_neighborhood_distinguishable,
    kneser,
    kneser_vertices,
    path,
    read_graph6_lines,
    subgraph,
)

from support import are_isomorphic, random_graph


class TestFamilies:
    def test_path_cycle_complete(self):
        assert path(1).n == 1 and path(1).edge_count() == 0
        assert path(5).edge_count() == 4
        assert cycle(5).edge_count() == 5
        assert complete(6).edge_count() == 15
        assert complete_bipartite(3, 4).edge_count() == 12

    def test_parameter_validation(self):
        for bad in (lambda: path(0), lambda: cycle(2), lambda: crown(7),
                    lambda: crown(2), lambda: kneser(2, 3),
                    lambda: binary_graph(1), lambda: folded_cube(1)):
            with pytest.raises(ValueError):
                bad()

    def test_cube(self):
        q3 = cube(3)
        assert q3.n == 8
        assert all(degree(q3, v) == 3 for v in q3.vertices())
        assert girth(q3) == 4

    def test_crown_is_cube3_on_8_vertices(self):
        assert are_isomorphic(crown(8), cube(3))

    def test_crown_structure(self):
        g = crown(10)
        # adjacent vertices share no neighbors; distance-2 pairs share n-2
        for u, v in g.edges():
            assert g.closed_mask(u) & g.closed_mask(v) == 1 << u - 1 | 1 << v - 1
        for u, v in combinations(g.vertices(), 2):
            if distance(g, u, v) == 2:
                assert (g.closed_mask(u) & g.closed_mask(v)).bit_count() == 5 - 2

    def test_kneser_petersen(self):
        g = kneser(5, 2)
        assert g.n == 10
        assert all(degree(g, v) == 3 for v in g.vertices())
        assert girth(g) == 5

    def test_kneser_degree_formula(self):
        for n, k in ((5, 2), (6, 2), (7, 3), (8, 2)):
            g = kneser(n, k)
            want = comb(n - k, k)
            assert all(degree(g, v) == want for v in g.vertices())

    def test_kneser_vertex_order_colex(self):
        assert kneser_vertices(4, 2) == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)
        ]

    def test_folded_cube(self):
        fc = folded_cube(5)
        assert fc.n == 16
        assert all(degree(fc, v) == 5 for v in fc.vertices())
        assert girth(fc) == 4
        assert are_isomorphic(folded_cube(3), complete(4))

    def test_binary_graph_blocks(self):
        g = binary_graph(8)
        assert g.n == 11
        # both blocks are cliques
        for u, v in combinations(range(1, 9), 2):
            assert g.has_edge(u, v)
        for u, v in combinations(range(9, 12), 2):
            assert g.has_edge(u, v)
        # vertex for the number 0 has no cross edges
        assert all(not g.has_edge(1, b) for b in range(9, 12))
        # number 2 (binary 1) touches exactly the low bit
        assert g.has_edge(2, 9)
        assert not g.has_edge(2, 10)

    def test_binary_graph_smallest_is_path(self):
        assert are_isomorphic(binary_graph(2), path(3))

    def test_complement(self):
        g = complement(complete(4))
        assert g.edge_count() == 0
        assert complement(g).edge_count() == 6
        c5 = cycle(5)
        assert are_isomorphic(complement(c5), c5)

    def test_generators_simple_and_symmetric(self):
        graphs = [
            path(6), cycle(7), complete(5), complete_bipartite(2, 3),
            cube(4), folded_cube(4), crown(12), kneser(6, 2),
            binary_graph(10), complement(kneser(5, 2)),
        ]
        for g in graphs:
            for v in range(g.n):
                assert not g.adj[v] >> v & 1
                for w in range(g.n):
                    assert bool(g.adj[v] >> w & 1) == bool(g.adj[w] >> v & 1)


class TestQueries:
    def test_closed_neighborhood(self):
        assert complete(3).closed_mask(1) == 0b111
        assert path(3).closed_mask(1) & path(3).closed_mask(3) == 0b010

    def test_girth(self):
        assert girth(path(5)) is None
        assert girth(cycle(3)) == 3
        assert girth(cycle(9)) == 9
        assert girth(cube(3)) == 4
        assert girth(complete(4)) == 3
        assert girth(complete_bipartite(2, 3)) == 4

    def test_girth_matches_bruteforce(self):
        def brute_girth(g):
            best = None
            for size in range(3, g.n + 1):
                for verts in combinations(range(1, g.n + 1), size):
                    # cycle on verts in some order: check all rotations
                    from itertools import permutations

                    for perm in permutations(verts[1:]):
                        order = (verts[0],) + perm
                        if all(
                            g.has_edge(order[i], order[(i + 1) % size])
                            for i in range(size)
                        ):
                            return size
            return best

        rng = random.Random(1)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 7), rng.random())
            assert girth(g) == brute_girth(g)

    def test_bipartite(self):
        assert is_bipartite(crown(10)) == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))
        assert is_bipartite(cycle(5)) is None
        assert is_bipartite(cube(4)) is not None
        parts = is_bipartite(path(4))
        assert parts == ((1, 3), (2, 4))

    def test_connectivity(self):
        assert is_connected(cycle(5))
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert not is_connected(g)
        assert connected_components(g) == [(1, 2), (3, 4)]

    def test_distance(self):
        assert distance(path(6), 1, 6) == 5
        assert distance(cycle(6), 1, 4) == 3
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert distance(g, 1, 3) is None

    def test_neighborhood_distinguishable(self):
        assert not is_neighborhood_distinguishable(complete(3))
        assert is_neighborhood_distinguishable(path(4))
        assert is_neighborhood_distinguishable(cube(3))

    def test_subgraph(self):
        g = subgraph(cycle(5), (1, 2, 3))
        assert g.edges() == [(1, 2), (2, 3)]
        assert subgraph(cycle(5), iter((3, 1, 2))).edges() == [(1, 3), (2, 3)]

    def test_subgraph_refuses_repeated_or_out_of_range_vertices(self):
        for verts in ((1, 2, 1), (0, 2), (1, 6)):
            with pytest.raises(ValueError):
                subgraph(cycle(5), verts)


class TestGraph6:
    def test_known_kernel_witness_strings_decode(self):
        g = graph6_decode("I?otQji\\O")
        assert g.n == 10
        assert is_connected(g)
        g2 = graph6_decode("ICQrThix_")
        assert g2.n == 10

    def test_round_trip_known_strings(self):
        for s in ("I?otQji\\O", "ICQrThix_", "H?zTb_{", "HCOfFz~"):
            assert graph6_encode(graph6_decode(s)) == s

    def test_header_stripped(self):
        assert graph6_decode(">>graph6<<C~") == complete(4)

    def test_k3_round_trip(self):
        assert graph6_decode(graph6_encode(complete(3))) == complete(3)

    def test_against_networkx(self):
        rng = random.Random(2)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 30), rng.random())
            mine = graph6_encode(g)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from((u - 1, v - 1) for u, v in g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert mine == theirs
            back = nx.from_graph6_bytes(mine.encode())
            assert set(back.edges()) == {
                (u - 1, v - 1) for u, v in g.edges()
            }

    def test_long_header(self):
        g = path(70)
        s = graph6_encode(g)
        assert s.startswith(chr(126))
        assert graph6_decode(s) == g
        h = nx.path_graph(70)
        assert s == nx.to_graph6_bytes(h, header=False).decode().strip()

    @given(st.integers(1, 16), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_random(self, n, rnd):
        g = random_graph(rnd, n, 0.4)
        assert graph6_decode(graph6_encode(g)) == g

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            graph6_decode("")
        with pytest.raises(ValueError):
            graph6_decode("C")  # truncated body for n=4
        with pytest.raises(ValueError):
            graph6_decode("B\x1f")  # non-printable byte
        with pytest.raises(ValueError):
            graph6_decode("A ")  # byte 32 < 63
        # nonzero trailing bits: n=2 needs 1 bit; 6-bit group 000001 is bad
        with pytest.raises(ValueError):
            graph6_decode("A@")

    def test_trailing_bits_strictness(self):
        # 'A_' encodes K2: size byte 'A' (n=2), body '_' = 63+32 -> bit 1
        assert graph6_decode("A_") == complete(2)

    def test_read_lines_reports_errors(self):
        lines = ["C~", "", ">>graph6<<", "notgraph6!!", "A_"]
        out = list(read_graph6_lines(lines))
        assert isinstance(out[0][1], Graph)
        assert out[0][0] == 1
        assert isinstance(out[1][1], ValueError)
        assert out[1][0] == 4
        assert isinstance(out[2][1], Graph)


class TestGraphBasics:
    def test_rejects_asymmetric_and_loops(self):
        with pytest.raises(ValueError):
            Graph(2, (1, 0))  # 1 adj to 0... asymmetric mask
        with pytest.raises(ValueError):
            Graph(2, (2, 0))
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_float_masks_are_refused(self):
        with pytest.raises(TypeError):
            Graph(2, [2.0, 1.0])
        with pytest.raises(TypeError):
            Graph(2, [2.5, 1])
        assert Graph(2, [2, True]) == complete(2)

    def test_immutability_and_equality(self):
        g = complete(3)
        with pytest.raises(AttributeError):
            g.n = 4
        assert g == complete(3)
        assert g != complete(4)
        assert hash(g) == hash(complete(3))

    def test_pickle_round_trip(self):
        g = kneser(7, 2)
        back = pickle.loads(pickle.dumps(g))
        assert back == g
        assert hash(back) == hash(g)
        with pytest.raises(AttributeError):
            back.n = 4
