"""Finite simple graphs: families, structural queries, and graph6 text I/O.

Vertices are numbered 1..n in every public API.  Adjacency is held as one
bitmask per vertex (bit ``j`` set means adjacent to vertex ``j+1``), which
makes closed-neighborhood intersections single AND operations.  The
structural queries run on masks too: one breadth-first search yields each
distance layer as a vertex bitmask, and girth, bipartiteness, components
and distances are read off those layers.  Vertex sets returned to callers
are frozensets or sorted tuples of 1-based indices.
"""

from __future__ import annotations

import operator
from itertools import combinations

__all__ = [
    "Graph",
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "cube",
    "folded_cube",
    "crown",
    "kneser",
    "complement",
    "binary_graph",
    "degree",
    "girth",
    "is_bipartite",
    "is_connected",
    "connected_components",
    "distance",
    "is_neighborhood_distinguishable",
    "graph6_decode",
    "graph6_encode",
    "read_graph6_lines",
]


class Graph:
    """Immutable finite simple graph on vertices 1..n."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = tuple(map(operator.index, adj))
        if len(adj) != n:
            raise ValueError("adjacency length must equal n")
        full = (1 << n) - 1
        for i, a in enumerate(adj):
            if a & ~full:
                raise ValueError("adjacency bit out of range")
            if a >> i & 1:
                raise ValueError("self-loop")
            if any(not adj[j] >> i & 1 for j in _bits(a)):
                raise ValueError("adjacency not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from 1-based endpoint pairs; duplicates collapse."""
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return cls(n, adj)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"

    def __reduce__(self):
        return Graph, (self.n, self.adj)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list:
        return [(u + 1, v + 1) for u, a in enumerate(self.adj)
                for v in _bits(a) if v > u]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u - 1] >> (v - 1) & 1)

    def neighbors(self, v: int):
        return frozenset(w + 1 for w in _bits(self.adj[v - 1]))

    def closed_mask(self, v: int) -> int:
        return self.adj[v - 1] | (1 << (v - 1))


def _bits(mask: int):
    """The 0-based positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _layers(g: Graph, root: int):
    """Breadth-first search from the 0-based vertex ``root``: yield each
    distance layer as a vertex bitmask, the root's own layer first."""
    seen = layer = 1 << root
    while layer:
        yield layer
        reach = 0
        for v in _bits(layer):
            reach |= g.adj[v]
        layer = reach & ~seen
        seen |= layer


# ---------------------------------------------------------------------------
# families


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return Graph.from_edges(n, edges)


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, combinations(range(1, n + 1), 2))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete bipartite needs m, n >= 1")
    edges = [(i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return Graph.from_edges(m + n, edges)


def cube(d: int) -> Graph:
    """Hypercube on 2**d vertices; vertex k+1 carries the bit label k."""
    if d < 0:
        raise ValueError("cube needs d >= 0")
    n = 1 << d
    edges = []
    for x in range(n):
        for b in range(d):
            y = x ^ (1 << b)
            if x < y:
                edges.append((x + 1, y + 1))
    return Graph.from_edges(n, edges)


def folded_cube(d: int) -> Graph:
    """Cube of dimension d-1 plus edges between complementary labels."""
    if d < 2:
        raise ValueError("folded cube needs d >= 2")
    base = cube(d - 1)
    n = base.n
    full = n - 1
    edges = base.edges()
    for x in range(n):
        y = x ^ full
        if x < y:
            edges.append((x + 1, y + 1))
    return Graph.from_edges(n, edges)


def crown(num_vertices: int) -> Graph:
    """Crown graph: complete bipartite minus a perfect matching.

    Vertices 1..n are one side, n+1..2n the other; i is adjacent to n+j
    exactly when i != j.
    """
    if num_vertices % 2 or num_vertices < 4:
        raise ValueError("crown needs an even vertex count >= 4")
    half = num_vertices // 2
    edges = [
        (i, half + j)
        for i in range(1, half + 1)
        for j in range(1, half + 1)
        if i != j
    ]
    return Graph.from_edges(num_vertices, edges)


def kneser_vertices(n: int, k: int) -> list:
    """The k-subsets of {1..n} in colexicographic order."""
    return sorted(combinations(range(1, n + 1), k), key=lambda c: c[::-1])


def kneser(n: int, k: int) -> Graph:
    """Kneser graph: k-subsets of {1..n}, adjacent when disjoint."""
    if not (n >= k >= 1):
        raise ValueError("kneser needs n >= k >= 1")
    verts = kneser_vertices(n, k)
    sets = [frozenset(v) for v in verts]
    m = len(verts)
    edges = [
        (i + 1, j + 1)
        for i in range(m)
        for j in range(i + 1, m)
        if not sets[i] & sets[j]
    ]
    return Graph.from_edges(m, edges)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = [(full & ~a) & ~(1 << i) for i, a in enumerate(g.adj)]
    return Graph(g.n, adj)


def binary_graph(n: int) -> Graph:
    """Two cliques (n numbers, r = ceil(log2 n) bit positions) joined by the
    binary digits of 0..n-1: number vertex k is adjacent to bit vertex i when
    bit i-1 (least significant first) of k-1 is set.
    """
    if n < 2:
        raise ValueError("binary graph needs n >= 2")
    r = (n - 1).bit_length()
    total = n + r
    edges = list(combinations(range(1, n + 1), 2))
    edges += list(combinations(range(n + 1, total + 1), 2))
    for k in range(1, n + 1):
        value = k - 1
        for i in range(1, r + 1):
            if value >> (i - 1) & 1:
                edges.append((k, n + i))
    return Graph.from_edges(total, edges)


# ---------------------------------------------------------------------------
# structural queries


def degree(g: Graph, v: int) -> int:
    return g.adj[v - 1].bit_count()


def girth(g: Graph):
    """Length of a shortest cycle, or None for forests.

    From each root, layer d closes a cycle of length at most 2d when one of
    its vertices has two neighbours in layer d - 1, and of length at most
    2d + 1 when it holds an edge; the root on a shortest cycle finds its
    length exactly.
    """
    best = None
    for root in range(g.n):
        prev = 0
        for d, layer in enumerate(_layers(g, root)):
            if best is not None and 2 * d >= best:
                break
            if any((g.adj[v] & prev).bit_count() > 1 for v in _bits(layer)):
                best = 2 * d
                break
            if any(g.adj[v] & layer for v in _bits(layer)):
                best = 2 * d + 1
                break
            prev = layer
        if best == 3:
            break
    return best


def is_bipartite(g: Graph):
    """2-coloring as (part0, part1) vertex tuples, or None if an odd cycle
    exists.  Part0 holds the even layers of each component, counted from its
    smallest vertex, so that vertex always lands in part0.
    """
    parts = [0, 0]
    rest = (1 << g.n) - 1
    while rest:
        for d, layer in enumerate(_layers(g, (rest & -rest).bit_length() - 1)):
            parts[d & 1] |= layer
        rest &= ~(parts[0] | parts[1])
    if any(g.adj[v] & part for part in parts for v in _bits(part)):
        return None
    return tuple(tuple(v + 1 for v in _bits(part)) for part in parts)


def connected_components(g: Graph) -> list:
    """Vertex tuples, each sorted, in the order of their smallest vertex."""
    comps = []
    rest = (1 << g.n) - 1
    while rest:
        comp = 0
        for layer in _layers(g, (rest & -rest).bit_length() - 1):
            comp |= layer
        rest &= ~comp
        comps.append(tuple(v + 1 for v in _bits(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def distance(g: Graph, u: int, v: int):
    """BFS distance, or None when u and v are in different components."""
    target = 1 << (v - 1)
    for d, layer in enumerate(_layers(g, u - 1)):
        if layer & target:
            return d
    return None


def is_neighborhood_distinguishable(g: Graph) -> bool:
    """True when no two vertices share the same closed neighborhood."""
    masks = {g.closed_mask(v) for v in g.vertices()}
    return len(masks) == g.n


# ---------------------------------------------------------------------------
# graph6

_G6_HEADER = ">>graph6<<"
_G6_MAX_N = 1 << 18


def graph6_decode(text: str) -> Graph:
    """Decode one graph6 string (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise ValueError("empty graph6 string")
    data = s.encode("ascii", errors="strict")
    for b in data:
        if not 63 <= b <= 126:
            raise ValueError(f"graph6 byte {b} outside printable range 63..126")
    if data[0] != 126:
        n = data[0] - 63
        body = data[1:]
    else:
        if len(data) < 4:
            raise ValueError("truncated graph6 size header")
        if data[1] == 126:
            raise ValueError("graph6 sizes beyond 2^18 vertices not supported")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    if n < 1 or n > _G6_MAX_N:
        raise ValueError(f"graph6 vertex count {n} out of supported range")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise ValueError(
            f"graph6 body length {len(body)} does not match {nbytes} for n={n}"
        )
    adj = [0] * n
    bits = []
    for byte in body:
        group = byte - 63
        bits.extend(group >> shift & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero trailing bits in graph6 body")
    # upper triangle column-major: (0,1), (0,2), (1,2), (0,3), ...
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return Graph(n, adj)


def graph6_encode(g: Graph) -> str:
    """Encode in standard graph6 with the shortest size header."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError("graph too large for graph6 encoding here")
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    body = []
    for start in range(0, len(bits), 6):
        group = 0
        chunk = bits[start:start + 6]
        chunk += [0] * (6 - len(chunk))
        for b in chunk:
            group = group << 1 | b
        body.append(group + 63)
    return bytes(head + body).decode("ascii")


def read_graph6_lines(lines):
    """Yield (line_number, Graph or error) from an iterable of text lines.

    Blank lines and '>>graph6<<' headers are skipped; parse failures are
    yielded as (line_number, ValueError) so callers can keep going.
    """
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s == _G6_HEADER:
            continue
        try:
            yield lineno, graph6_decode(s)
        except ValueError as exc:
            yield lineno, exc


def subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph; vertex order follows the given 1-based sequence."""
    verts = list(vertices)
    index = {v - 1: i for i, v in enumerate(verts)}
    if len(index) < len(verts) or not all(0 <= v < g.n for v in index):
        raise ValueError("subgraph vertices must be distinct and within 1..n")
    adj = [sum(1 << index[w] for w in _bits(g.adj[v]) if w in index) for v in index]
    return Graph(len(index), adj)
