"""Independent oracles and corpus helpers for the test suite.

The normal-form oracles here deliberately share no code with the library:
a first-nonzero-pivot textbook Smith reduction, a textbook Hermite form
with the lattice membership and axis multiples read off it, for small
matrices divisor chains obtained from gcds of k x k minors, and a peel of
0/1 rows that compares every pair of rows, or the pairs it is given.
Disagreement with the library on any input is a test failure.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd
from pathlib import Path

from ramat.graphs import Graph, is_connected

DATA_DIR = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Smith-form oracles


def ref_smith_divisors(rows) -> list:
    """Naive textbook Smith reduction: first nonzero pivot, Euclidean row
    and column clearing, then the add-a-row divisibility repair."""
    mat = [list(map(int, r)) for r in rows]
    m, n = len(mat), len(mat[0])
    out = []
    s = 0
    while s < min(m, n):
        piv = None
        for i in range(s, m):
            for j in range(s, n):
                if mat[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        mat[s], mat[i0] = mat[i0], mat[s]
        for row in mat:
            row[s], row[j0] = row[j0], row[s]
        while True:
            for i in range(s + 1, m):
                while mat[i][s]:
                    q = mat[i][s] // mat[s][s]
                    for k in range(n):
                        mat[i][k] -= q * mat[s][k]
                    if mat[i][s]:
                        mat[s], mat[i] = mat[i], mat[s]
            for j in range(s + 1, n):
                while mat[s][j]:
                    q = mat[s][j] // mat[s][s]
                    for i in range(m):
                        mat[i][j] -= q * mat[i][s]
                    if mat[s][j]:
                        for i in range(m):
                            mat[i][s], mat[i][j] = mat[i][j], mat[i][s]
            if all(mat[i][s] == 0 for i in range(s + 1, m)) and all(
                mat[s][j] == 0 for j in range(s + 1, n)
            ):
                break
        if mat[s][s] < 0:
            mat[s] = [-x for x in mat[s]]
        p = mat[s][s]
        repair = None
        for i in range(s + 1, m):
            for j in range(s + 1, n):
                if mat[i][j] % p:
                    repair = i
                    break
            if repair is not None:
                break
        if repair is not None:
            for k in range(n):
                mat[s][k] += mat[repair][k]
            continue
        out.append(p)
        s += 1
    out += [0] * (min(m, n) - len(out))
    return out


def determinantal_divisors(rows) -> list:
    """Divisor chain from gcds of k x k minors; independent of any
    elimination.  Only sensible for small matrices."""
    mat = [list(map(int, r)) for r in rows]
    m, n = len(mat), len(mat[0])

    def det(sub):
        k = len(sub)
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            term = sub[0][j] * det(minor)
            total += term if j % 2 == 0 else -term
        return total

    chain = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows_idx in combinations(range(m), k):
            for cols_idx in combinations(range(n), k):
                sub = [[mat[i][j] for j in cols_idx] for i in rows_idx]
                g = gcd(g, det(sub))
        if g == 0:
            break
        chain.append(g // prev)
        prev = g
    chain += [0] * (min(m, n) - len(chain))
    return chain


def ref_hermite(rows) -> tuple:
    """Textbook row-style Hermite form: (rows, pivot columns), the pivot
    columns 1-based.

    Column by column, Euclid's algorithm on the rows below the last pivot
    leaves one row with a nonzero entry there; that row is made positive at
    its pivot and reduces the rows above it into [0, pivot).  Zero rows are
    dropped, so a rank-0 matrix gives ((), ()).
    """
    mat = [list(map(int, r)) for r in rows]
    m, n = len(mat), len(mat[0])
    top = 0  # rows above top are pivot rows
    pivots = []
    for col in range(n):
        while True:
            live = [i for i in range(top, m) if mat[i][col]]
            if not live:
                break
            best = min(live, key=lambda i: abs(mat[i][col]))
            mat[top], mat[best] = mat[best], mat[top]
            p = mat[top][col]
            for i in range(top + 1, m):
                q = mat[i][col] // p
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
            if all(mat[i][col] == 0 for i in range(top + 1, m)):
                break
        if top == m or mat[top][col] == 0:
            continue
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
        p = mat[top][col]
        for i in range(top):
            q = mat[i][col] // p
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
        pivots.append(col + 1)
        top += 1
    return tuple(tuple(r) for r in mat[:top]), tuple(pivots)


def ref_contains(rows, v) -> bool:
    """v is in the row lattice exactly when the textbook Hermite basis
    reduces it to zero: at each pivot in turn, the pivot divides v's entry
    there and that multiple of the pivot row is taken off."""
    basis, pivots = ref_hermite(rows)
    v = list(v)
    for row, j in zip(basis, pivots):
        q, r = divmod(v[j - 1], row[j - 1])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def ref_axis_multiple(rows, i: int) -> int:
    """Smallest a > 0 with a*e_i in the row lattice (i 1-based), or 0.
    With column i moved last, the lattice meets the axis of i in the
    multiples of the last row exactly when that row pivots in the last
    column: it is then (0, ..., 0, a)."""
    n = len(rows[0])
    order = [j for j in range(n) if j != i - 1] + [i - 1]
    basis, pivots = ref_hermite([[r[j] for j in order] for r in rows])
    return basis[-1][-1] if pivots and pivots[-1] == n else 0


def plain_peel(masks, pairs=True) -> int:
    """The columns a peel takes off 0/1 rows (ints, bit j at column j), as
    a mask.  With the columns taken so far cleared in every row, a column
    w is taken when some row is {w}, or, with ``pairs``, when two rows
    differ in w alone; every pair of rows is compared, until a full scan
    takes nothing.  ``pairs`` may instead be a list of index pairs (i, j):
    then only masks[i] and masks[j] are compared, for each.  Clearing more
    columns keeps every such row or pair, so the columns taken do not
    depend on the order."""
    peeled, grew = 0, True
    while grew:
        grew = False
        rows = [m & ~peeled for m in masks]
        if pairs is True or pairs is False:
            kept = set(rows) | {0}
            compared = [(s, r) for s in kept for r in (kept if pairs else (0,))]
        else:
            compared = [(s, 0) for s in rows] + [(rows[i], rows[j]) for i, j in pairs]
        for s, r in compared:
            d = s ^ r
            if d and not d & (d - 1):
                peeled |= d
                grew = True
    return peeled


def lane_expectation(g: Graph):
    """(reps, single, full) of g for the lanes: the mask of the first
    member of each class of closed twins (vertices with one closed
    neighbourhood), that of the vertices alone in their class, and whether
    the peel of the RA rows kept to reps takes all of reps by singletons
    and by the pairs (N[u], N[u] & N[v]) of the kept rows, u != v."""
    n = g.n
    closed = [g.closed_mask(v) for v in g.vertices()]
    reps = single = 0
    for v, m in enumerate(closed):
        if m not in closed[:v]:
            reps |= 1 << v
        if closed.count(m) == 1:
            single |= 1 << v
    rows = [m & reps for m in closed]
    where = {}
    for u, v in combinations(range(n), 2):
        where[u, v] = where[v, u] = len(rows)
        rows.append(rows[u] & rows[v])
    pairs = [(u, where[u, v]) for u in range(n) for v in range(n) if u != v]
    return reps, single, plain_peel(rows, pairs) == reps


def ra_row_masks(g: Graph) -> list:
    """The distinct nonzero RA rows of g as vertex masks: each N[v] and
    each N[u] & N[v], in no particular order."""
    closed = [g.closed_mask(v) for v in g.vertices()]
    return [m for m in {*closed, *(a & b for a, b in combinations(closed, 2))}
            if m]


def ref_kronecker(a, b) -> list:
    """Kronecker product of two row lists in lexicographic (a-major) index
    order: row (i, k) holds a[i][j] * b[k][l] at column (j, l)."""
    return [tuple(x * y for x in ra for y in rb) for ra in a for rb in b]


def random_int_matrix(rng: random.Random, rows: int, cols: int, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_permutation_matrix(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


# ---------------------------------------------------------------------------
# graphs


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def with_closed_twins(rng: random.Random, g: Graph) -> Graph:
    """g with up to two vertices made closed twins of others: each such b
    takes the closed neighbourhood of a random vertex a, so N[b] = N[a]."""
    adj = list(g.adj)
    for _ in range(rng.randint(0, 2) if g.n > 1 else 0):
        a, b = rng.sample(range(g.n), 2)
        adj = [m & ~(1 << b) for m in adj]
        adj[b] = (adj[a] | 1 << a) & ~(1 << b)
        adj = [m | 1 << b if adj[b] >> u & 1 else m for u, m in enumerate(adj)]
    return Graph(g.n, adj)


def textbook_graph6(text: str) -> Graph:
    """A well-formed graph6 string read as McKay's format describes it: a
    size of one byte, or '~' and three bytes, each byte 63 plus 6 bits, then
    the upper triangle of the adjacency matrix column by column, 6 bits per
    byte, most significant first, with zero padding."""
    values = [ord(c) - 63 for c in text]
    if values[0] == 63:
        n = values[1] << 12 | values[2] << 6 | values[3]
        body = values[4:]
    else:
        n, body = values[0], values[1:]
    bits = [x >> (5 - t) & 1 for x in body for t in range(6)]
    pairs = [(i, j) for j in range(1, n + 1) for i in range(1, j)]
    assert len(body) == (len(pairs) + 5) // 6 and not any(bits[len(pairs):])
    return Graph.from_edges(n, [p for p, bit in zip(pairs, bits) if bit])


def activation_rows(g: Graph) -> list:
    """Adjacency plus identity: row v is the bit vector of N[v]."""
    return [[g.closed_mask(v) >> j & 1 for j in range(g.n)] for v in g.vertices()]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test with degree pruning (fine to ~10
    vertices)."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    n = g.n
    deg_g = [g.adj[v].bit_count() for v in range(n)]
    deg_h = [h.adj[v].bit_count() for v in range(n)]
    if sorted(deg_g) != sorted(deg_h):
        return False
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg_g[v] != deg_h[w]:
                continue
            ok = True
            for u in range(v):
                if bool(g.adj[v] >> u & 1) != bool(h.adj[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def _graph_invariant(g: Graph):
    """Cheap isomorphism invariant used to bucket candidates before pairwise
    matching."""
    n = g.n
    deg = [g.adj[v].bit_count() for v in range(n)]
    per_vertex = sorted(
        (
            deg[v],
            tuple(sorted(deg[w] for w in range(n) if g.adj[v] >> w & 1)),
            (g.adj[v] | 1 << v).bit_count(),
        )
        for v in range(n)
    )
    triangles = sum(
        (g.adj[u] & g.adj[v]).bit_count()
        for u in range(n)
        for v in range(u + 1, n)
        if g.adj[u] >> v & 1
    )
    return (n, g.edge_count(), triangles, tuple(per_vertex))


# Graphs on n unlabeled vertices, 1 <= n <= 8 (OEIS A000088).
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_GRAPH_COUNTS = {8: 11117}


def all_graphs_up_to_iso(n: int) -> list:
    """All graphs on n vertices up to isomorphism, by vertex extension with
    invariant buckets and pairwise matching.  Counts are asserted against
    the known sequence at every level."""
    levels = [[Graph(1, (0,))]]
    for size in range(2, n + 1):
        buckets: dict = {}
        for base in levels[-1]:
            for mask in range(1 << (size - 1)):
                adj = [a | ((mask >> v & 1) << (size - 1)) for v, a in enumerate(base.adj)]
                adj.append(mask)
                g = Graph(size, adj)
                key = _graph_invariant(g)
                bucket = buckets.setdefault(key, [])
                if not any(are_isomorphic(g, other) for other in bucket):
                    bucket.append(g)
        level = [g for bucket in buckets.values() for g in bucket]
        if GRAPH_COUNTS.get(size) is not None:
            assert len(level) == GRAPH_COUNTS[size], (
                f"enumeration of {size}-vertex graphs found {len(level)}"
            )
        levels.append(level)
    return levels[n - 1]


def connected_graphs_up_to_iso(n: int) -> list:
    return [g for g in all_graphs_up_to_iso(n) if is_connected(g)]


def connected_8_vertex_file() -> Path:
    """Path of the graph6 corpus of all connected 8-vertex graphs, building
    and caching it on first use."""
    from ramat.graphs import graph6_encode

    DATA_DIR.mkdir(exist_ok=True)
    path = DATA_DIR / "connected8.g6"
    if path.exists():
        return path
    graphs = connected_graphs_up_to_iso(8)
    assert len(graphs) == CONNECTED_GRAPH_COUNTS[8]
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(graph6_encode(g) + "\n")
    return path
