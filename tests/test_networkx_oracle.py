"""Families, the graph6 codec, structural queries and products checked
against networkx, an independent implementation: every family over a range
of parameters, the codec on random graphs past the 62-vertex short header,
every labeled graph on at most 5 vertices, random graphs on at most 12, and
random product pairs.  The record's girth and bipartite fields (the second
is read off the first) are checked with the structural queries."""

import math
import random
from itertools import combinations

import networkx as nx

from ramat.graphs import (
    Graph,
    binary_graph,
    complete,
    complete_bipartite,
    connected_components,
    crown,
    cube,
    cycle,
    distance,
    folded_cube,
    girth,
    graph6_decode,
    graph6_encode,
    is_bipartite,
    is_connected,
    kneser,
    path,
)
from ramat.products import cartesian, strong, tensor
from ramat.ra_core import RAClassification, _record

from support import random_graph


# the record's graph fields do not read the verdict
NO_VERDICT = RAClassification("general", None, (), 0, ())


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


def from_nx(h: nx.Graph, order) -> Graph:
    """The graph on 1..n whose vertex i is ``order[i - 1]`` of ``h``."""
    index = {x: i for i, x in enumerate(order, start=1)}
    assert len(index) == h.number_of_nodes()
    return Graph.from_edges(len(order), ((index[x], index[y]) for x, y in h.edges))


def checked(g: Graph) -> Graph:
    """``g``, once the public constructor has checked its masks: the
    builders skip that check."""
    assert Graph(g.n, g.adj) == g
    return g


def bit_label(x) -> int:
    # from dimension 2 on, networkx names a hypercube vertex by its bit
    # tuple, most significant first
    return sum(b << i for i, b in enumerate(reversed(x)))


def test_families_match_networkx():
    for n in range(1, 30):
        assert checked(path(n)) == from_nx(nx.path_graph(n), range(n))
        assert checked(complete(n)) == from_nx(nx.complete_graph(n), range(n))
    for n in range(3, 30):
        assert checked(cycle(n)) == from_nx(nx.cycle_graph(n), range(n))
    for m in range(1, 7):
        for n in range(1, 7):
            want = from_nx(nx.complete_bipartite_graph(m, n), range(m + n))
            assert checked(complete_bipartite(m, n)) == want
    for d in range(2, 8):
        h = nx.hypercube_graph(d)
        assert checked(cube(d)) == from_nx(h, sorted(h, key=bit_label))
    for n in range(1, 10):
        for k in range(1, n + 1):
            if n < 2 * k:  # networkx wants n >= 2k; below it the graph is empty
                assert checked(kneser(n, k)).edge_count() == 0
                continue
            h = nx.kneser_graph(n, k)  # nodes are k-sets of range(n)
            colex = sorted(h, key=lambda s: sorted(s, reverse=True))
            assert checked(kneser(n, k)) == from_nx(h, colex)


def test_derived_families_match_networkx():
    for half in range(2, 16):
        # crown: K_{h,h} minus the matching i -- h + i
        h = nx.complete_bipartite_graph(half, half)
        h.remove_edges_from((i, half + i) for i in range(half))
        assert checked(crown(2 * half)) == from_nx(h, range(2 * half))
    for d in range(3, 9):
        # folded cube: the (d-1)-cube plus each vertex's antipode
        h = nx.hypercube_graph(d - 1)
        h.add_edges_from((x, tuple(1 - b for b in x)) for x in list(h))
        assert checked(folded_cube(d)) == from_nx(h, sorted(h, key=bit_label))
    for n in range(2, 40):
        # binary graph: a clique on the numbers 0..n-1, a clique on the bit
        # positions, and number k joined to position i when bit i of k is set
        r = (n - 1).bit_length()
        h = nx.disjoint_union(nx.complete_graph(n), nx.complete_graph(r))
        h.add_edges_from((k, n + i) for k in range(n) for i in range(r) if k >> i & 1)
        assert checked(binary_graph(n)) == from_nx(h, range(n + r))


def test_graph6_matches_networkx():
    rng = random.Random(13)
    for trial in range(150):
        n = rng.randint(1, 40) if trial % 2 else rng.randint(60, 100)
        g = random_graph(rng, n, rng.random())
        h = to_nx(g)
        theirs = nx.to_graph6_bytes(h, nodes=sorted(h), header=False).decode().strip()
        ours = graph6_encode(g)
        assert ours == theirs
        assert checked(graph6_decode(theirs)) == g
        assert from_nx(nx.from_graph6_bytes(ours.encode()), range(n)) == g


def labeled_graphs(max_n: int):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def check_structure(g: Graph) -> None:
    h = to_nx(g)
    theirs = nx.girth(h)
    assert girth(g) == (None if theirs == math.inf else theirs)
    rec = _record(g, NO_VERDICT, True)  # bipartite is read off the girth
    assert rec["girth"] == girth(g)
    assert rec["bipartite"] == nx.is_bipartite(h)
    comps = sorted(tuple(sorted(c)) for c in nx.connected_components(h))
    assert connected_components(g) == comps
    assert is_connected(g) == nx.is_connected(h)
    parts = is_bipartite(g)
    assert (parts is not None) == nx.is_bipartite(h)
    if parts is not None:
        part0, part1 = parts
        assert sorted(part0 + part1) == list(g.vertices())
        assert all((u in part0) != (v in part0) for u, v in g.edges())
        assert all(comp[0] in part0 for comp in comps)
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    for u in g.vertices():
        for v in g.vertices():
            assert distance(g, u, v) == lengths[u].get(v)


def test_structure_on_every_labeled_graph_up_to_5_vertices():
    for g in labeled_graphs(5):
        check_structure(g)


def test_structure_on_random_graphs():
    rng = random.Random(11)
    for _ in range(200):
        check_structure(random_graph(rng, rng.randint(1, 12), rng.random()))


def test_structure_on_random_triangle_free_graphs():
    # girth 4 ends the search at the first root that closes a 4-cycle; past
    # it the roots must still find longer cycles, or none
    rng = random.Random(13)
    girths = set()
    for _ in range(300):
        n = rng.randint(4, 16)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        adj = [0] * n
        for u, v in pairs[:rng.randint(0, 2 * n)]:
            if not adj[u] & adj[v]:  # the edge closes no triangle
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        g = Graph(n, adj)
        check_structure(g)
        girths.add(girth(g))
    assert {None, 4, 5, 6} <= girths


def test_triangle_away_from_vertex_1_and_odd_cycle_at_girth_4():
    # a triangle on 4, 5, 6 at the end of a path from vertex 1, whose own
    # edges close none; and girth 4 beside an odd 5-cycle, which only the
    # 2-colouring sees
    for g in (Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]),
              Graph.from_edges(7, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5),
                                   (5, 6), (6, 7), (7, 3)])):
        check_structure(g)


def test_products_match_networkx():
    rng = random.Random(12)
    ours_theirs = ((cartesian, nx.cartesian_product), (tensor, nx.tensor_product),
                   (strong, nx.strong_product))
    for _ in range(100):
        a = random_graph(rng, rng.randint(1, 6), rng.random())
        b = random_graph(rng, rng.randint(1, 6), rng.random())
        label = {(u, i): (u - 1) * b.n + i for u in a.vertices() for i in b.vertices()}
        for ours, theirs in ours_theirs:
            h = nx.relabel_nodes(theirs(to_nx(a), to_nx(b)), label)
            assert sorted(h.nodes) == list(range(1, a.n * b.n + 1))
            want = sorted(tuple(sorted(e)) for e in h.edges)
            assert checked(ours(a, b)).edges() == want
