"""Product constructors: vertex counts, edge identities, degree formulas,
and the Kronecker relationship with activation matrices."""

import random
from functools import reduce

import pytest

from ramat.graphs import (
    complete,
    crown,
    cube,
    cycle,
    degree,
    is_connected,
    connected_components,
    path,
)
from ramat.intlin import IntMatrix
from ramat.products import (
    cartesian,
    disjoint_union,
    join,
    prism,
    pyramid,
    strong,
    tensor,
)

from support import activation_rows, are_isomorphic, random_graph, ref_kronecker


class TestCartesian:
    def test_k2_square_is_c4(self):
        assert are_isomorphic(cartesian(complete(2), complete(2)), cycle(4))

    def test_cube_recursion(self):
        assert are_isomorphic(cartesian(cube(2), complete(2)), cube(3))
        assert are_isomorphic(reduce(cartesian, [complete(2)] * 4), cube(4))

    def test_degrees_add(self):
        a, b = cycle(5), path(4)
        g = cartesian(a, b)
        for u in a.vertices():
            for i in b.vertices():
                idx = (u - 1) * b.n + i
                assert degree(g, idx) == degree(a, u) + degree(b, i)

    def test_edge_count(self):
        rng = random.Random(1)
        for _ in range(40):
            a = random_graph(rng, rng.randint(1, 6), 0.5)
            b = random_graph(rng, rng.randint(1, 6), 0.5)
            g = cartesian(a, b)
            assert g.n == a.n * b.n
            assert g.edge_count() == a.n * b.edge_count() + b.n * a.edge_count()


class TestTensor:
    def test_k2_times_kn_is_crown(self):
        for n in range(3, 7):
            assert are_isomorphic(tensor(complete(2), complete(n)), crown(2 * n))

    def test_degrees_multiply(self):
        a, b = cycle(5), complete(3)
        g = tensor(a, b)
        for u in a.vertices():
            for i in b.vertices():
                idx = (u - 1) * b.n + i
                assert degree(g, idx) == degree(a, u) * degree(b, i)

    def test_two_bipartite_factors_disconnect(self):
        for a, b in ((path(3), path(4)), (cycle(4), cycle(6)),
                     (complete(2), crown(10))):
            g = tensor(a, b)
            assert len(connected_components(g)) == 2

    def test_connected_unless_both_bipartite(self):
        cases = [
            (cycle(5), path(3)), (complete(3), complete(4)),
            (cycle(3), cycle(4)),
        ]
        for a, b in cases:
            assert is_connected(tensor(a, b))

    def test_edge_count(self):
        rng = random.Random(2)
        for _ in range(40):
            a = random_graph(rng, rng.randint(1, 6), 0.5)
            b = random_graph(rng, rng.randint(1, 6), 0.5)
            g = tensor(a, b)
            assert g.n == a.n * b.n
            assert g.edge_count() == 2 * a.edge_count() * b.edge_count()


class TestStrong:
    def test_k2_strong_k2_is_k4(self):
        assert are_isomorphic(strong(complete(2), complete(2)), complete(4))

    def test_edges_partition_into_cartesian_and_tensor(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_graph(rng, rng.randint(1, 5), 0.5)
            b = random_graph(rng, rng.randint(1, 5), 0.5)
            c = set(cartesian(a, b).edges())
            t = set(tensor(a, b).edges())
            s = set(strong(a, b).edges())
            assert c | t == s
            assert not c & t

    def test_closed_neighborhoods_are_products(self):
        a, b = cycle(4), path(3)
        g = strong(a, b)
        for u in a.vertices():
            for i in b.vertices():
                idx = (u - 1) * b.n + i
                want = {
                    (x - 1) * b.n + y
                    for x in a.vertices() if x == u or a.has_edge(u, x)
                    for y in b.vertices() if y == i or b.has_edge(i, y)
                }
                got = {
                    w + 1 for w in range(g.n) if g.closed_mask(idx) >> w & 1
                }
                assert got == want

    def test_activation_matrix_is_kronecker(self):
        rng = random.Random(4)
        for _ in range(30):
            a = random_graph(rng, rng.randint(1, 5), 0.5)
            b = random_graph(rng, rng.randint(1, 5), 0.5)
            am = IntMatrix(activation_rows(strong(a, b)))
            k = ref_kronecker(activation_rows(a), activation_rows(b))
            assert am == IntMatrix(k)


class TestJoinPyramidPrism:
    def test_pyramid_apex_first(self):
        g = pyramid(crown(8))
        assert g.n == 9
        assert degree(g, 1) == 8
        assert are_isomorphic(pyramid(cycle(3)), complete(4))

    def test_prism_is_cartesian_with_k2(self):
        assert prism(complete(3)) == cartesian(complete(3), complete(2))

    def test_join_edges(self):
        g = join(complete(2), complete(2))
        assert are_isomorphic(g, complete(4))
        g2 = join(path(2), path(3))
        assert g2.edge_count() == 1 + 2 + 6

    def test_disjoint_union(self):
        g = disjoint_union([complete(2), complete(2)])
        assert g.n == 4
        assert g.edge_count() == 2
        assert connected_components(g) == [(1, 2), (3, 4)]
        with pytest.raises(ValueError):
            disjoint_union([])

    def test_pyramid_over_bipartite_girth(self):
        # joining an apex to a girth-4 graph creates triangles
        from ramat.graphs import girth

        assert girth(pyramid(crown(8))) == 3
