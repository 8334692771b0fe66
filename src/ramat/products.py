"""Graph products and combinations, built on adjacency bitmasks.

All binary products number the result lexicographically with the first
factor major: vertex (u, i) of a product of ``a`` and ``b`` becomes index
``(u - 1) * b.n + i``.  In that order a product vertex's neighbourhood mask
is a Kronecker product of its factors' masks, and the activation matrix of
a strong product equals, index for index, the Kronecker product of the
factors' activation matrices.  Joins and unions shift masks into place.
"""

from __future__ import annotations

from functools import reduce

from .graphs import Graph, _bits, complete

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


def _kron(x: int, y: int, width: int) -> int:
    """Kronecker product of two bit vectors: bit u * width + i is set when
    bit u of ``x`` and bit i of ``y`` are."""
    out = 0
    for u in _bits(x):
        out |= y << (u * width)
    return out


def cartesian(a: Graph, b: Graph) -> Graph:
    """Edges where the endpoints agree in one coordinate and are adjacent in
    the other."""
    w = b.n
    return Graph(a.n * w, [
        _kron(1 << u, y, w) | _kron(x, 1 << i, w)
        for u, x in enumerate(a.adj) for i, y in enumerate(b.adj)
    ])


def tensor(a: Graph, b: Graph) -> Graph:
    """Edges where the endpoints are adjacent in both coordinates."""
    w = b.n
    return Graph(a.n * w, [_kron(x, y, w) for x in a.adj for y in b.adj])


def strong(a: Graph, b: Graph) -> Graph:
    """Union of the cartesian and tensor edge sets: the closed
    neighbourhoods multiply, less the vertex itself."""
    w = b.n
    return Graph(a.n * w, [
        _kron(x | 1 << u, y | 1 << i, w) ^ 1 << (u * w + i)
        for u, x in enumerate(a.adj) for i, y in enumerate(b.adj)
    ])


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    left, right = (1 << a.n) - 1, ((1 << b.n) - 1) << a.n
    return Graph(a.n + b.n, [x | right for x in a.adj] + [y << a.n | left for y in b.adj])


def pyramid(a: Graph) -> Graph:
    """Join with a single apex vertex; the apex is vertex 1 of the result."""
    return Graph(a.n + 1, [(1 << a.n + 1) - 2] + [x << 1 | 1 for x in a.adj])


def prism(a: Graph) -> Graph:
    """Cartesian product with a single edge."""
    return cartesian(a, complete(2))


def disjoint_union(parts) -> Graph:
    adj = []
    for g in parts:
        offset = len(adj)
        adj += [x << offset for x in g.adj]
    if not adj:
        raise ValueError("disjoint union of nothing")
    return Graph(len(adj), adj)


def tensor_all(factors) -> Graph:
    return reduce(tensor, factors)
