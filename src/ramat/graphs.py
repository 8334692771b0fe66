"""Finite simple graphs: families, structural queries, and graph6 text I/O.

Vertices are numbered 1..n in every public API.  Adjacency is held as one
bitmask per vertex (bit ``j`` set means adjacent to vertex ``j+1``), which
makes closed-neighborhood intersections single AND operations.  The
family builders write each vertex's mask from a formula, and the graph6
codec works on ints: a graph's body is translated into one bit string of
the upper triangle and parsed once, and its columns are read off the int
as masks; the lines of a chunk with one size header of at most 31
vertices are decoded together, one lane per line in each int
(``_graph6_chunk``); encoding packs each column's mask into the int and
formats it once.  No library code goes through an edge list.  The structural
queries run on masks too: girth 3 is an edge whose ends share a
neighbour, and otherwise one breadth-first search yields each distance
layer as a vertex bitmask, and girth, bipartiteness, components and
distances are read off those layers.  Vertex sets returned to callers are
frozensets or sorted tuples of 1-based indices.

Every graph built from parameters or graph6 has at most ``MAX_VERTICES``
vertices: its builder checks the count after its own parameter checks and
raises ``ValueError`` past that budget before it builds anything.
"""

from __future__ import annotations

import operator
import sys
from array import array
from binascii import b2a_base64
from collections import deque
from itertools import combinations, repeat
from math import comb

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


MAX_VERTICES = 1024  # the largest named graph in use, Kn(15,3), has 455


def _check_vertices(what: str, n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"{what} is past the budget of {MAX_VERTICES} vertices")


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
    def _of_masks(cls, n: int, adj) -> "Graph":
        """The graph with these masks, unchecked: for builders whose masks
        are in range, loop-free and symmetric by construction.  The public
        constructor, ``from_edges`` and unpickling check every bit."""
        g = object.__new__(cls)
        _set_n(g, n)
        _set_adj(g, tuple(adj))
        return g

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


# the slots' own setters, which bypass Graph.__setattr__
_set_n, _set_adj = Graph.n.__set__, Graph.adj.__set__


def _bits(mask: int):
    """The 0-based positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _layers(g: Graph, root: int):
    """Breadth-first search from the 0-based vertex ``root``: yield each
    distance layer as a vertex bitmask, the root's own layer first."""
    adj = g.adj
    seen = layer = 1 << root
    while layer:
        yield layer
        reach, rest = 0, layer
        while rest:
            low = rest & -rest
            reach |= adj[low.bit_length() - 1]
            rest ^= low
        layer = reach & ~seen
        seen |= layer


# ---------------------------------------------------------------------------
# families


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    _check_vertices(f"path({n})", n)
    full = (1 << n) - 1
    return Graph._of_masks(n, [(2 << i | 1 << i >> 1) & full for i in range(n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_vertices(f"cycle({n})", n)
    return Graph._of_masks(n, [1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    _check_vertices(f"complete({n})", n)
    full = (1 << n) - 1
    return Graph._of_masks(n, [full ^ 1 << i for i in range(n)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete bipartite needs m, n >= 1")
    _check_vertices(f"complete_bipartite({m}, {n})", m + n)
    left, right = (1 << m) - 1, ((1 << n) - 1) << m
    return Graph._of_masks(m + n, [right] * m + [left] * n)


def cube(d: int) -> Graph:
    """Hypercube on 2**d vertices; vertex k+1 carries the bit label k."""
    if d < 0:
        raise ValueError("cube needs d >= 0")
    _check_vertices(f"cube({d})", 1 << min(d, 64))
    return Graph._of_masks(1 << d, [sum(1 << (x ^ 1 << b) for b in range(d))
                                    for x in range(1 << d)])


def folded_cube(d: int) -> Graph:
    """Cube of dimension d-1 plus edges between complementary labels."""
    if d < 2:
        raise ValueError("folded cube needs d >= 2")
    _check_vertices(f"folded_cube({d})", 1 << min(d - 1, 64))
    top = (1 << d - 1) - 1
    return Graph._of_masks(top + 1, [a | 1 << (x ^ top)
                                     for x, a in enumerate(cube(d - 1).adj)])


def crown(num_vertices: int) -> Graph:
    """Crown graph: complete bipartite minus a perfect matching.

    Vertices 1..n are one side, n+1..2n the other; i is adjacent to n+j
    exactly when i != j.
    """
    if num_vertices % 2 or num_vertices < 4:
        raise ValueError("crown needs an even vertex count >= 4")
    _check_vertices(f"crown({num_vertices})", num_vertices)
    half = num_vertices // 2
    other = [(1 << half) - 1 ^ 1 << i for i in range(half)]
    return Graph._of_masks(num_vertices, [x << half for x in other] + other)


def kneser_vertices(n: int, k: int) -> list:
    """The k-subsets of {1..n} in colexicographic order."""
    return sorted(combinations(range(1, n + 1), k), key=lambda c: c[::-1])


def kneser(n: int, k: int) -> Graph:
    """Kneser graph: k-subsets of {1..n}, adjacent when disjoint."""
    if not (n >= k >= 1):
        raise ValueError("kneser needs n >= k >= 1")
    # C(n, k) >= n for k < n: a past-budget n is refused with no binomial
    _check_vertices(f"kneser({n}, {k})", n if n > MAX_VERTICES else comb(n, k))
    # as element bitmasks, colex order is increasing numeric order
    sets = sorted(sum(1 << e for e in c) for c in combinations(range(n), k))
    return Graph._of_masks(len(sets), [
        sum(1 << j for j, t in enumerate(sets) if not s & t) for s in sets])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._of_masks(g.n, [full ^ a ^ 1 << i for i, a in enumerate(g.adj)])


def binary_graph(n: int) -> Graph:
    """Two cliques (n numbers, r = ceil(log2 n) bit positions) joined by the
    binary digits of 0..n-1: number vertex k is adjacent to bit vertex i when
    bit i-1 (least significant first) of k-1 is set.
    """
    if n < 2:
        raise ValueError("binary graph needs n >= 2")
    r = (n - 1).bit_length()
    _check_vertices(f"binary_graph({n})", n + r)
    numbers, digits = (1 << n) - 1, ((1 << r) - 1) << n
    adj = [numbers ^ 1 << k | k << n for k in range(n)]
    adj += [digits ^ 1 << n + i | sum(1 << k for k in range(n) if k >> i & 1)
            for i in range(r)]
    return Graph._of_masks(n + r, adj)


# ---------------------------------------------------------------------------
# structural queries


def degree(g: Graph, v: int) -> int:
    return g.adj[v - 1].bit_count()


def girth(g: Graph):
    """Length of a shortest cycle, or None for forests.

    A triangle is an edge uv whose ends share a neighbour, so one pass over
    the edges finds girth 3.  Past that, from each root, layer d closes a
    cycle of length at most 2d when one of its vertices has two neighbours
    in layer d - 1, and of length at most 2d + 1 when it holds an edge; the
    root on a shortest cycle finds its length exactly.
    """
    adj = g.adj
    for u, a in enumerate(adj):
        later = a & -(2 << u)  # the neighbours past u
        while later:
            low = later & -later
            if adj[low.bit_length() - 1] & a:
                return 3
            later ^= low
    best = None
    for root in range(g.n):
        prev = 0
        for d, layer in enumerate(_layers(g, root)):
            if best is not None and 2 * d >= best:
                break
            if any((adj[v] & prev).bit_count() > 1 for v in _bits(layer)):
                if d == 2:  # with no triangle, no cycle is shorter than 4
                    return 4
                best = 2 * d
                break
            if any(adj[v] & layer for v in _bits(layer)):
                best = 2 * d + 1
                break
            prev = layer
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


def _component(g: Graph, root: int) -> int:
    """The vertex mask of the component of the 0-based vertex ``root``."""
    comp = 0
    for layer in _layers(g, root):
        comp |= layer
    return comp


def connected_components(g: Graph) -> list:
    """Vertex tuples, each sorted, in the order of their smallest vertex."""
    comps = []
    rest = (1 << g.n) - 1
    while rest:
        comp = _component(g, (rest & -rest).bit_length() - 1)
        rest &= ~comp
        comps.append(tuple(v + 1 for v in _bits(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return _component(g, 0) == (1 << g.n) - 1


def distance(g: Graph, u: int, v: int):
    """BFS distance, or None when u and v are in different components."""
    target = 1 << (v - 1)
    for d, layer in enumerate(_layers(g, u - 1)):
        if layer & target:
            return d
    return None


def _closed_classes(g: Graph) -> dict:
    """The classes of closed twins, vertices with the same closed
    neighbourhood: each distinct N[v], as a vertex mask, maps to the mask
    of the vertices whose closed neighbourhood it is, in order of their
    first member.  A twin-free graph has n classes, keyed by N[1], ...,
    N[n] in turn."""
    classes = {}
    for v, a in enumerate(g.adj):
        m = a | 1 << v
        classes[m] = classes.get(m, 0) | 1 << v
    return classes


def is_neighborhood_distinguishable(g: Graph) -> bool:
    """True when no two vertices share the same closed neighborhood: the
    graph has no closed twins."""
    return len(_closed_classes(g)) == g.n


# ---------------------------------------------------------------------------
# graph6

_G6_HEADER = ">>graph6<<"
# the whitespace stripped off either end of a graph6 line: line ends, and
# the spaces and tabs around it; any other byte outside 63..126 is refused
_G6_SPACE = " \t\r\n"
_G6_MAX_N = 1 << 18
_G6_PRINTABLE = bytes(range(63, 127))
# each printable byte onto its 6 bits
_G6_VALUES = bytes.maketrans(_G6_PRINTABLE, bytes(range(64)))
# each body character as its 6 bits, most significant first
_G6_BITS = {63 + k: f"{k:06b}" for k in range(64)}
# the base64 alphabet, whose k-th character stands for the 6 bits of k, onto
# the graph6 characters 63 + k
_BASE64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    _G6_PRINTABLE)


def _check_printable(data: bytes) -> None:
    bad = data.translate(None, _G6_PRINTABLE)
    if bad:
        raise ValueError(f"graph6 byte {bad[0]} outside printable range 63..126")


def graph6_decode(text: str) -> Graph:
    """Decode one graph6 string (optionally prefixed with '>>graph6<<').

    A vertex count past MAX_VERTICES is refused from the size header, before
    any pass over the body."""
    s = text.strip(_G6_SPACE)
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip(_G6_SPACE)
    if not s:
        raise ValueError("empty graph6 string")
    data = s.encode("ascii")
    if data[0] != 126:
        if not 63 <= data[0] <= 126:
            _check_printable(data[:1])
        n = data[0] - 63
        start = 1
    else:
        _check_printable(data[:4])
        if len(data) < 4:
            raise ValueError("truncated graph6 size header")
        if data[1] == 126:
            raise ValueError("graph6 sizes beyond 2^18 vertices not supported")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        # a one-byte header's n is at most 62, within the budget
        _check_vertices(f"a graph6 input of {n} vertices", n)
        start = 4
    if n < 1:
        raise ValueError(f"graph6 vertex count {n} out of supported range")
    body = data[start:]
    _check_printable(body)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise ValueError(
            f"graph6 body length {len(body)} does not match {nbytes} for n={n}"
        )
    # the padding, fewer than 6 bits, is the low end of the last byte
    if (data[-1] - 63) & (1 << -nbits % 6) - 1:
        raise ValueError("nonzero trailing bits in graph6 body")
    # 6 bits per byte, most significant first, hold the upper triangle column
    # by column; read in reverse, bit i + j(j-1)/2 of one int is row i of
    # column j, so each column is one mask (n = 1 has no bits)
    x = int(s[start:].translate(_G6_BITS)[nbits - 1::-1] or "0", 2)
    adj = [0] * n
    for j in range(1, n):
        adj[j] = col = x & (1 << j) - 1
        x >>= j
        bit = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    return Graph._of_masks(n, adj)


def graph6_encode(g: Graph) -> str:
    """Encode in standard graph6 with the shortest size header."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError("graph too large for graph6 encoding here")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    # the upper triangle as one int, row i of column j at bit i + j(j-1)/2;
    # its bits in reverse, padded to whole bytes of whole 6-bit groups, are
    # the body's bits in order, which base64 cuts into characters
    x = nbits = 0
    for j, a in enumerate(g.adj):
        x |= (a & (1 << j) - 1) << nbits
        nbits += j
    width = -(-nbits // 24) * 24
    body = int(format(x, f"0{width}b")[::-1], 2).to_bytes(width // 8, "big")
    body = b2a_base64(body, newline=False)[:-(-nbits // 6)]
    return (head + body.translate(_BASE64_TO_G6)).decode("ascii")


# The largest n whose graph6 lines ``_graph6_chunk`` decodes into lanes,
# which ``ra_core._lane_verdicts`` peels.  Per graph, in one process
# (Python 3.11, 2-core Xeon), over 1 024 random connected graphs (three in
# ten with a planted closed twin), decoding in lanes, the lanes' verdicts
# and the ``_verdict`` of the lanes they leave took 4.7 us at n = 8 and
# 44 us at n = 31 for edge density 0.3, and 10 and 270 us for density
# 0.8, against 28, 288, 64 and 2 077 us for ``graph6_decode`` and
# ``_verdict`` of every graph.  Past 31 a lane needs 64 bits, and a
# chunk's rows at n = 63 would hold 8 MB, against 1 MB at 31.
_LANES_MAX_N = 31


def _lane_code(n: int) -> str:
    """The array typecode of one lane for graphs on n <= 31 vertices: the
    narrowest unsigned item of at least n + 1 bits, 8, 16 or 32."""
    return next(c for c in "BHIL" if 8 * array(c).itemsize > n)


def _lane_ones(code: str, count: int) -> int:
    """The int with 1 in each of ``count`` lanes of typecode ``code``."""
    return int.from_bytes((b"\1" + bytes(array(code).itemsize - 1)) * count,
                          "little")


def _lane_items(x: int, code: str, count: int) -> array:
    """The ``count`` lanes of the int x as an array of typecode ``code``:
    lane k is bits k*w .. k*w + w - 1 of x, w the item's width."""
    items = array(code, x.to_bytes(count * array(code).itemsize, "little"))
    if sys.byteorder == "big":
        items.byteswap()
    return items


def _graph6_chunk(texts: list):
    """(graphs, lanes) of a list of stripped graph6 lines: graphs[i] is
    the Graph of texts[i], or the ValueError ``graph6_decode`` raises for
    it, and lanes maps each n of the lines decoded together to (picked,
    adj): picked their indices in ``texts``, and adj[v] the int whose
    lane k, of ``_lane_code(n)``'s width, is the mask of the neighbours
    of vertex v in the graph of texts[picked[k]].

    The lines with the same one-byte size header n <= ``_LANES_MAX_N``
    and the right length are decoded together, unless one is not ASCII,
    holds a byte outside 63..126 or has a nonzero padding bit: then each
    such line is left out.  Byte p of every body makes one lane int, each
    edge bit of which is moved to its two vertices' ints; the graphs are
    read off those.  Every other line goes through ``graph6_decode`` on
    its own, so its graph or its error is the one that gives."""
    out = [None] * len(texts)
    heads = list(map(operator.itemgetter(0), texts))
    lanes = {}
    for head in dict.fromkeys(heads):
        n = ord(head) - 63
        if not 1 <= n <= _LANES_MAX_N:
            continue
        picked = [i for i, h in enumerate(heads) if h == head]
        nbits = n * (n - 1) // 2
        size = 2 + (nbits - 1) // 6  # the header and the body
        # the last body byte with its padding bits, fewer than 6, all zero
        last = bytes(range(63, 127, 1 << -nbits % 6))
        group = list(map(texts.__getitem__, picked))
        data = "".join(group)
        # the lines are no longer than size and add up to size each
        fits = (data.isascii() and len(data) == size * len(group)
                and max(map(len, group)) == size)
        if fits:
            data = data.encode()
            fits = not (data.translate(None, _G6_PRINTABLE)
                        or data[size - 1::size].translate(None, last))
        if not fits:
            picked = [i for i in picked if _lane_fits(texts[i], size, last)]
            if not picked:
                continue
            data = "".join(map(texts.__getitem__, picked)).encode()
        code, count = _lane_code(n), len(picked)
        adj = _lane_decode(data.translate(_G6_VALUES), n, size, code, count)
        lanes[n] = picked, adj
        # Graph._of_masks of each lane's masks, a map at a time
        made = list(map(object.__new__, repeat(Graph, count)))
        deque(map(_set_n, made, repeat(n)), 0)
        deque(map(_set_adj, made, zip(*(_lane_items(a, code, count) for a in adj))), 0)
        for i, g in zip(picked, made):
            out[i] = g
    for i, g in enumerate(out):
        if g is None:
            try:
                out[i] = graph6_decode(texts[i])
            except ValueError as exc:
                out[i] = exc
    return out, lanes


def _lane_fits(s: str, size: int, last: bytes) -> bool:
    """Whether the line s, with a one-byte header, decodes in its lane
    group: ``size`` characters long, ASCII, within 63..126, and with its
    last character in ``last``."""
    return (len(s) == size and s.isascii() and ord(s[-1]) in last
            and not s.encode().translate(None, _G6_PRINTABLE))


def _lane_decode(values: bytes, n: int, size: int, code: str, count: int) -> list:
    """The lane ints of the vertices of ``count`` graphs on n vertices
    from their graph6 lines' 6-bit values, each line ``size`` bytes long
    with the header first.  Bit b of the int of line byte p >= 1 is edge
    6(p - 1) + 5 - b of the upper triangle, column by column, in every
    lane at once: edge (i, j) moves it to bit j of vertex i's int and bit
    i of j's."""
    q, one = array(code).itemsize, _lane_ones(code, count)
    adj = [0] * n
    i, j = 0, 1
    for p in range(1, size):
        col = values[p::size]
        if q > 1:  # each lane is q bytes, the value its lowest
            col, wide = bytearray(count * q), col
            col[::q] = wide
        x = int.from_bytes(col, "little")
        for b in range(5, -1, -1):
            if j == n:  # the padding
                break
            e = x & one << b
            if e:
                adj[i] |= e << j - b if j >= b else e >> b - j
                adj[j] |= e << i - b if i >= b else e >> b - i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return adj


def _graph6_lines(lines):
    """Yield (line_number, text) for each graph6 line of an iterable of text
    lines, stripped of graph6 whitespace (space, tab, CR, LF); blank lines
    and '>>graph6<<' headers are skipped."""
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip(_G6_SPACE)
        if s and s != _G6_HEADER:
            yield lineno, s


def read_graph6_lines(lines):
    """Yield (line_number, Graph or error) from an iterable of text lines.

    Blank lines and '>>graph6<<' headers are skipped; parse failures are
    yielded as (line_number, ValueError) so callers can keep going.
    """
    for lineno, s in _graph6_lines(lines):
        try:
            yield lineno, graph6_decode(s)
        except ValueError as exc:
            yield lineno, exc


def subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph; vertex order follows the given 1-based sequence."""
    verts = list(vertices)
    index = {v - 1: i for i, v in enumerate(verts)}
    if not index:
        raise ValueError("graph needs at least one vertex")
    if len(index) < len(verts) or not all(0 <= v < g.n for v in index):
        raise ValueError("subgraph vertices must be distinct and within 1..n")
    adj = [sum(1 << index[w] for w in _bits(g.adj[v]) if w in index) for v in index]
    return Graph._of_masks(len(index), adj)
