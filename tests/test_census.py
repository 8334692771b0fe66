"""Finite-search facts over the exhaustive small-graph corpus."""

from ramat import intlin, ra_core
from ramat.graphs import complete, crown, cube, girth, graph6_decode, kneser, subgraph
from ramat.ra_core import classify, elementary_divisors, is_ra

from support import are_isomorphic, connected_8_vertex_file, connected_graphs_up_to_iso


def test_girth4_non_ra_unique_and_is_the_cube():
    # below 8 vertices every connected girth-4 graph is RA; on 8 vertices
    # exactly one is not, and it is the 3-cube
    for n in range(4, 8):
        for g in connected_graphs_up_to_iso(n):
            if girth(g) == 4:
                assert classify(g).status == "RA"
    non_ra = []
    for line in connected_8_vertex_file().read_text().splitlines():
        g = graph6_decode(line)
        if girth(g) == 4:
            if not all(d == 1 for d in elementary_divisors(g).divisors):
                non_ra.append(g)
    assert len(non_ra) == 1
    assert are_isomorphic(non_ra[0], cube(3))
    assert classify(non_ra[0]).status == "1/2-RA"


def test_seven_or_fewer_vertices_distinguishable_implies_ra():
    # on up to 6 vertices (kept small for speed): every connected,
    # neighborhood-distinguishable graph is RA
    from ramat.graphs import is_neighborhood_distinguishable

    for n in range(1, 7):
        for g in connected_graphs_up_to_iso(n):
            if is_neighborhood_distinguishable(g):
                assert classify(g).status == "RA", (n, g.adj)


def test_twin_graphs_answer_like_their_twin_quotient():
    # closed twins give equal RA columns: a graph with them has its twin
    # quotient h's divisors followed by one zero per vertex past the first
    # of its class.  h is the subgraph on the first vertex of each class.
    # The 3 675 such graphs of the corpus are its nbhd-indistinguishable
    # batch row, and every non-RA graph but the cube
    twins = twin_free_non_ra = 0
    for line in connected_8_vertex_file().read_text().split():
        g = graph6_decode(line)
        closed = [g.closed_mask(v) for v in g.vertices()]
        firsts = [v for v in g.vertices() if closed.index(closed[v - 1]) == v - 1]
        if len(firsts) == g.n:
            twin_free_non_ra += not is_ra(g)
            continue
        twins += 1
        h = subgraph(g, firsts)
        sh = elementary_divisors(h)
        sf = elementary_divisors(g)
        assert sf.divisors == sh.divisors + (0,) * (g.n - h.n), line
        assert sf.nullity == g.n - h.n + sh.nullity, line
        assert classify(g).status == "general" and not is_ra(g)
    assert twins == 3675 and twin_free_non_ra == 1


def test_girth5_and_up_always_ra_on_corpus():
    for n in range(3, 8):
        for g in connected_graphs_up_to_iso(n):
            gi = girth(g)
            if gi is None or gi >= 5:
                if g.n >= 3:
                    assert classify(g).status == "RA"


def peeled_columns(g):
    return intlin._peel(ra_core._ra_masks(g))[0].bit_count()


def test_girth5_and_trees_peel_to_an_empty_core():
    # the first paper's proof route: from 3 vertices on, a tree or a graph
    # of girth >= 5 is RA because singleton rows peel every column.  K2 is
    # the exception below 3 vertices: its only row is {1,2}
    graphs = [g for n in range(3, 8) for g in connected_graphs_up_to_iso(n)]
    graphs += [graph6_decode(line)
               for line in connected_8_vertex_file().read_text().split()]
    checked = 0
    for g in graphs:
        gi = girth(g)
        if gi is None or gi >= 5:
            checked += 1
            assert peeled_columns(g) == g.n, g.adj
    assert checked == 80  # 47 of them on 8 vertices
    assert peeled_columns(complete(1)) == 1
    assert peeled_columns(complete(2)) == 0


def test_ra_graphs_peel_every_column_up_to_8_vertices():
    # singletons and rows one column apart peel every column of every RA
    # connected graph on 3 to 8 vertices; a graph that peels every column
    # is RA, as e_w is in the lattice for each column w
    for n in range(3, 8):
        for g in connected_graphs_up_to_iso(n):
            assert (peeled_columns(g) == g.n) == is_ra(g), g.adj
    full = 0
    for line in connected_8_vertex_file().read_text().split():
        g = graph6_decode(line)
        ra = is_ra(g)
        assert (peeled_columns(g) == g.n) == ra, line
        full += ra
    assert full == 7441


def test_vertex_transitive_families_peel_no_column():
    for g in (cube(3), crown(10), kneser(6, 2)):
        assert peeled_columns(g) == 0


def test_half_ra_parity_rule_on_all_8_vertex_neighborly_graphs():
    # neighborly graphs split RA vs 1/2-RA by pure parity: all degrees odd
    # and every vertex pair sharing an even number of common neighbors
    from itertools import combinations

    from ramat.graphs import degree
    from ramat.ra_core import is_neighborly

    for line in connected_8_vertex_file().read_text().splitlines():
        g = graph6_decode(line)
        if not is_neighborly(g):
            continue
        c = classify(g)
        # 2*e_v is in the lattice exactly when v's axis multiple divides 2;
        # test_ra_core pins the axis multiples against the textbook oracle
        doubled = any(a in (1, 2) for a in c.axis_multiples)
        small = c.status in ("RA", "1/2-RA")
        assert doubled == small
        if small:
            odd_deg = all(degree(g, v) % 2 for v in g.vertices())
            even_common = all(
                (g.adj[u - 1] & g.adj[v - 1]).bit_count() % 2 == 0
                for u, v in combinations(g.vertices(), 2)
            )
            assert (c.status == "1/2-RA") == (odd_deg and even_common)
