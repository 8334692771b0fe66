"""Graph products and combinations.

All binary products number the result lexicographically with the first
factor major: vertex (u, i) of a product of ``a`` and ``b`` becomes index
``(u - 1) * b.n + i``.  This ordering makes the activation matrix of a
strong product equal, index for index, to the Kronecker product of the
factors' activation matrices.
"""

from __future__ import annotations

from functools import reduce

from .graphs import Graph

__all__ = [
    "cartesian",
    "tensor",
    "strong",
    "join",
    "pyramid",
    "prism",
    "disjoint_union",
    "tensor_all",
]


def _pair_index(a: Graph, b: Graph, u: int, i: int) -> int:
    return (u - 1) * b.n + i


def cartesian(a: Graph, b: Graph) -> Graph:
    """Edges where the endpoints agree in one coordinate and are adjacent in
    the other."""
    edges = []
    for u in a.vertices():
        for i in b.vertices():
            x = _pair_index(a, b, u, i)
            for j in b.vertices():
                if i < j and b.has_edge(i, j):
                    edges.append((x, _pair_index(a, b, u, j)))
            for v in a.vertices():
                if u < v and a.has_edge(u, v):
                    edges.append((x, _pair_index(a, b, v, i)))
    return Graph.from_edges(a.n * b.n, edges)


def tensor(a: Graph, b: Graph) -> Graph:
    """Edges where the endpoints are adjacent in both coordinates."""
    edges = []
    for u, v in a.edges():
        for i, j in b.edges():
            edges.append((_pair_index(a, b, u, i), _pair_index(a, b, v, j)))
            edges.append((_pair_index(a, b, u, j), _pair_index(a, b, v, i)))
    return Graph.from_edges(a.n * b.n, edges)


def strong(a: Graph, b: Graph) -> Graph:
    """Union of the cartesian and tensor edge sets."""
    c = cartesian(a, b)
    t = tensor(a, b)
    adj = [x | y for x, y in zip(c.adj, t.adj)]
    return Graph(a.n * b.n, adj)


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    edges = list(a.edges())
    edges += [(a.n + u, a.n + v) for u, v in b.edges()]
    edges += [(u, a.n + i) for u in a.vertices() for i in b.vertices()]
    return Graph.from_edges(a.n + b.n, edges)


def pyramid(a: Graph) -> Graph:
    """Join with a single apex vertex; the apex is vertex 1 of the result."""
    edges = [(1, 1 + v) for v in a.vertices()]
    edges += [(1 + u, 1 + v) for u, v in a.edges()]
    return Graph.from_edges(a.n + 1, edges)


def prism(a: Graph) -> Graph:
    """Cartesian product with a single edge."""
    from .graphs import complete

    return cartesian(a, complete(2))


def disjoint_union(parts) -> Graph:
    parts = list(parts)
    if not parts:
        raise ValueError("disjoint union of nothing")
    edges = []
    offset = 0
    for g in parts:
        edges += [(offset + u, offset + v) for u, v in g.edges()]
        offset += g.n
    return Graph.from_edges(offset, edges)


def tensor_all(factors) -> Graph:
    return reduce(tensor, factors)
