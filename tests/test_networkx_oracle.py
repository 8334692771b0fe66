"""Structural queries and products checked against networkx, an
independent implementation: every labeled graph on at most 5 vertices,
random graphs on at most 12, and random product pairs."""

import math
import random
from itertools import combinations

import networkx as nx

from ramat.graphs import (
    Graph,
    connected_components,
    distance,
    girth,
    is_bipartite,
    is_connected,
)
from ramat.products import cartesian, strong, tensor

from support import random_graph


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


def labeled_graphs(max_n: int):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def check_structure(g: Graph) -> None:
    h = to_nx(g)
    theirs = nx.girth(h)
    assert girth(g) == (None if theirs == math.inf else theirs)
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
            assert ours(a, b).edges() == want
