"""RA matrices, elementary divisors, and RA classification.

For a graph on vertices 1..n, the RA matrix stacks the bit vector of every
closed neighborhood N[v] with every pairwise intersection N[u] & N[v]; its
integer row lattice decides how freely single-vertex commutator placements
can be achieved, so the classification below is all about the elementary
divisors of that lattice.

A graph's RA rows, as vertex masks, go to ``intlin._echelon_basis``, which
peels them before any insert: a singleton row {w} puts e_w in the lattice,
so column w becomes a unit pivot and bit w is cleared in every row, until
no singleton is left; then two rows s and s - e_w put e_w in it too, and
the singletons go on, until neither rule finds a column.  Only the rows
left are inserted, so a peel that takes every column builds the identity
basis of Z^n, an RA lattice, with no insert.  (A tree on 3 or more
vertices and a graph of girth >= 5 peel every column by singletons alone,
and so does every connected RA graph on 3 to 8 vertices.)  The packed
echelon basis is over the n vertex columns, closed twins u, v (N[u] =
N[v], two equal RA columns) included, and every answer but the Hermite
basis is read off one presentation of Z^n/L, an ``intlin._Quotient`` in
the same n columns, through its methods alone: the divisor chain
(``smith_form``), the axis multiples, whether e_u +- e_v lies in the
lattice (``contains``) and the kernel mod p.  The graph is RA exactly when
every column is a unit pivot, so that the presentation is empty, and then
it answers (1, ..., 1), "both" and [].
The CLI's ``analyze`` and ``batch`` decode the graph6 lines of a chunk
with at most ``graphs._LANES_MAX_N`` vertices straight into lanes
(``graphs._graph6_chunk``): one big int per vertex, one lane per graph,
holding the vertex's neighbours.  ``_lane_verdicts`` peels those graphs
all at once.  It needs no quotient graph: every RA row is a union of
classes of closed twins (``graphs._closed_classes``; if w is in N[v] and
N[u] = N[w], then v is in N[u], so u is in N[v]; and an intersection of
unions of classes is one), so a row kept to the first member of each
class loses nothing, and the kept rows are the rows of the twin quotient,
one vertex per class, with first members for its vertices.  Singleton
rounds run on every lane; the lanes they leave undecided are gathered
into new ints, where the difference rule runs on the pairs (N[u],
N[u] & N[v]), alternating with singleton rounds until neither finds a
column.  A lane whose peel takes every first member has its verdict: on
the 8-vertex corpus, every graph but crown(8), the 3-cube, which is not
RA.  Any other graph, and every library call, builds the graph's lattice.
``ra_lattice`` derives the canonical Hermite basis on each call and does
not keep it.  The latest graph's basis and presentation are kept, so
calls on one graph (``classify``, a neighborly predictor, ``pair_sign``,
``kernel_mod_p``) share one echelon build and one presentation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, starmap
from operator import and_

from .graphs import (
    Graph,
    _lane_code,
    _lane_items,
    _lane_ones,
    connected_components,
    girth,
    is_bipartite,
    is_connected,
    subgraph,
)
from . import intlin
from .intlin import (
    HermiteForm,
    IntMatrix,
    SmithForm,
    _check_modulus,
    _form_of,
)

__all__ = [
    "RAMatrix",
    "RAClassification",
    "ra_matrix",
    "ra_lattice",
    "elementary_divisors",
    "classify",
    "is_ra",
    "classification_record",
    "pair_sign",
    "kernel_mod_p",
    "is_neighborly",
    "is_positively_neighborly",
    "is_negatively_neighborly",
]


@dataclass(frozen=True)
class RAMatrix:
    """Deduplicated row stack: the distinct closed neighborhoods N[v], then
    the new nonzero pair intersections N[u] & N[v] (u < v), each in order of
    first appearance.  Zero rows and repeats are dropped; neither changes
    the row lattice.
    """

    matrix: IntMatrix


@dataclass(frozen=True)
class RAClassification:
    """Verdict for one connected graph.

    status is "RA", "1/k-RA" (k >= 2), or "general".  divisors always has
    length n (zeros last); axis_multiples[v-1] is the least positive a with
    a*e_v in the row lattice (0 if none).

    "1/k-RA" demands more than the divisor shape [1,...,1,k]: every column
    arrangement of the RA matrix must Hermite-reduce to a diagonal whose
    entries are n-1 ones and one k.  For a full-rank lattice the quotient
    Z^n/L is cyclic of order k and the arrangement placing any coordinate
    set last realizes the subgroup it generates, so the quantifier holds
    exactly when every coordinate image has order 1 or k, i.e. every axis
    multiple is 1 or k.  (The apex of a pyramid really does have multiple 1
    while the graph is 1/k-RA, so multiples need not be uniform.)
    nonuniform_axis marks the remaining conceivable case, a proper divisor
    1 < a < k as some axis multiple, which the definition rejects; it can
    only arise for composite k and no such graph is known, so we report it
    as general rather than assume it cannot occur.
    """

    status: str
    mu: int | None
    divisors: tuple
    nullity: int
    axis_multiples: tuple
    nonuniform_axis: bool = False


def _ra_masks(g: Graph) -> list:
    """The RA rows as vertex masks: the distinct nonzero masks of N[v], then
    of N[u] & N[v] (u < v), in first-seen order."""
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    # a dict keeps first-seen order
    rows = dict.fromkeys(chain(closed, starmap(and_, combinations(closed, 2))))
    rows.pop(0, None)
    return list(rows)


def ra_matrix(g: Graph) -> RAMatrix:
    n = g.n
    data = [[m >> j & 1 for j in range(n)] for m in _ra_masks(g)]
    return RAMatrix(matrix=IntMatrix(data))


# The latest graph's lattice L, kept so that calls on one graph share one
# echelon build of its RA masks over its n columns and one presentation of
# Z^n/L, which is empty exactly when the graph is RA.  Exact: Graph
# compares by (n, adj), and neither object is ever changed.
_latest_basis = lru_cache(maxsize=1)(
    lambda g: intlin._echelon_basis(_ra_masks(g), g.n))
_latest_quotient = lru_cache(maxsize=1)(
    lambda g: intlin._Quotient(_latest_basis(g)))


def _lane_verdicts(n: int, adj: list, count: int, connected: bool = False) -> list:
    """The verdict of each of ``count`` graphs on n <= 31 vertices that
    the lanes decide, else None: ``_verdict(g)`` with no lattice built,
    from the lane ints adj of ``graphs._graph6_chunk``.  A lane that peels
    all its representatives is decided: RA when it has no twins; else its
    twin quotient is RA, so its divisors are 1s and a 0 per vertex past
    the first of its class, and a vertex has axis multiple 1 when it is
    alone in its class and 0 when it has a twin.  With ``connected``, the
    lane of a disconnected graph goes no further than the singleton
    rounds, for a caller that reads no verdict of such a graph."""
    everyone, ones = (1 << n) - 1, (1,) * n
    ra = RAClassification("RA", 1, ones, 0, ones)
    twins: dict = {}  # (reps, single) -> the verdict of a lane with twins
    out = []
    for done, reps, single in zip(*_lane_peel(adj, n, count, connected)):
        c = None
        if done and reps == everyone:
            c = ra
        elif done:
            c = twins.get((reps, single))
            if c is None:
                k = reps.bit_count()
                c = twins[reps, single] = RAClassification(
                    "general", None, ones[:k] + (0,) * (n - k), n - k,
                    tuple(single >> v & 1 for v in range(n)))
        out.append(c)
    return out


def _lane_peel(adj: list, n: int, count: int, connected: bool = False):
    """(done, reps, single) for ``count`` graphs on n <= 31 vertices, each
    an array with one item per graph: done is nonzero when the peel of
    the lanes takes every representative, reps is the mask of the first
    member of each class of closed twins, in the order of
    ``graphs._closed_classes``, and single the mask of the vertices alone
    in their class.

    The graphs are peeled together, one lane of ``graphs._lane_code(n)``'s
    width, at least n + 1 bits, per graph in each big int (broadword
    computing, Knuth, TAOCP 4A, 7.1.3): bit u of lane k of adj[v] is edge
    uv of graph k.  A lane test reads the guard bit n: x + (2^n - 1) sets
    it exactly when the lane's x is not 0, and never carries into the next
    lane.  A vertex is a first member when its N[v] differs from every
    earlier one, and the RA rows kept to those representatives are the
    twin quotient's rows.  Singleton rounds run on every lane; the lanes
    they leave undecided are gathered into new ints, where difference
    rounds (``_lane_differences``) alternate with singleton rounds until
    neither finds a column.  With ``connected``, the rows of a lane whose
    graph is not connected (``_lane_connected``) are cleared before the
    difference rounds, so the singletons decide it or nothing does."""
    code = _lane_code(n)
    one = _lane_ones(code, count)
    low, top = one * ((1 << n) - 1), one << n  # bits 0..n-1, and bit n
    closed = [a | one << v for v, a in enumerate(adj)]
    # guard bits: v has no equal earlier N[u], and v has no twin at all
    first, alone = [top] * n, [top] * n
    for u, v in combinations(range(n), 2):
        differ = ((closed[u] ^ closed[v]) + low) & top
        first[v] &= differ
        alone[u] &= differ
        alone[v] &= differ
    # the flag of v moves from the guard bit to bit v
    reps = sum(f >> n - v for v, f in enumerate(first))
    single = sum(f >> n - v for v, f in enumerate(alone))
    peeled, _ = _lane_singletons(_lane_rows([m & reps for m in closed]), n, one)
    done = _lane_items(top & ~((peeled ^ reps) + low), code, count)
    left = [k for k, d in enumerate(done) if not d]
    if left:
        live = reps & ~peeled  # the columns each lane has left
        if len(left) < count:  # gather the undecided lanes
            closed = [_lane_pick(m, code, count, left) for m in closed]
            live = _lane_pick(live, code, count, left)
            one = _lane_ones(code, len(left))
        rows = [m & live for m in closed]  # all zero at the peeled columns
        if connected:  # a disconnected graph's lane peels nothing more
            keep = _lane_connected(closed, n, one)
            rows = [r & keep for r in rows]
        peeled = _lane_differences(rows, n, one)
        decided = _lane_items(
            one << n & ~((peeled ^ live) + one * ((1 << n) - 1)), code, len(left))
        for k, d in zip(left, decided):
            done[k] = d
    return done, _lane_items(reps, code, count), _lane_items(single, code, count)


def _lane_connected(closed: list, n: int, one: int) -> int:
    """The int whose lanes are 2^n - 1 where the closed rows ``closed``
    are a connected graph's and 0 elsewhere: the vertices reached from
    vertex 0 grow by the N[v] of each v reached, in every lane at once,
    until none grows."""
    low = one * ((1 << n) - 1)
    reach = one
    while True:
        # N[v] in the lanes where v is reached: bit v spread over 0..n-1
        grown = 0
        for v, c in enumerate(closed):
            grown |= c & (reach >> v & one) * ((1 << n) - 1)
        if grown == reach:
            f = one << n & ~((reach ^ low) + low)
            return f - (f >> n)
        reach = grown


def _lane_rows(closed: list) -> list:
    """The RA rows of the lanes: the closed rows, then their pairwise
    intersections."""
    return closed + list(starmap(and_, combinations(closed, 2)))


def _lane_singletons(rows: list, n: int, one: int):
    """(peeled, rows): the columns that singleton rounds take off the lane
    rows, and the nonzero rows left, cleared at those columns."""
    low, top = one * ((1 << n) - 1), one << n
    peeled = 0
    while True:
        units = 0
        for r in rows:
            # guard bit of the lanes where r & (r - 1) = 0: r is a
            # singleton there, or 0 and adds nothing; (r | top) - one
            # borrows from the guard, never from the next lane
            f = top & ~((r & (r | top) - one) + low)
            units |= r & f - (f >> n)
        if not units:
            return peeled, rows
        peeled |= units
        rows = [x for r in rows if (x := r & ~units)]


def _lane_differences(closed: list, n: int, one: int) -> int:
    """The columns taken off the lane rows of the closed rows ``closed``,
    already peeled by singletons, by difference rounds, each followed by
    singleton rounds, until a difference round finds none.  A difference
    round is ``intlin._peel``'s rule on the pairs (N[u], N[u] & N[v]): a
    lane where they differ in one column w puts e_w in the lattice."""
    low, top = one * ((1 << n) - 1), one << n
    rows, peeled = _lane_rows(closed), 0
    while True:
        units = 0
        outside = [c ^ low for c in closed]  # the complements, lane by lane
        for u, v in permutations(range(n), 2):
            d = closed[u] & outside[v]
            f = top & ~((d & (d | top) - one) + low)
            units |= d & f - (f >> n)
        if not units:
            return peeled
        more, rows = _lane_singletons(
            [x for r in rows if (x := r & ~units)], n, one)
        peeled |= units | more
        closed = [c & ~peeled for c in closed]


def _lane_pick(x: int, code: str, count: int, picked: list) -> int:
    """The int of the lanes ``picked`` of x, in that order."""
    q = array(code).itemsize
    data = x.to_bytes(count * q, "little")
    return int.from_bytes(b"".join([data[k * q:k * q + q] for k in picked]),
                          "little")


def ra_lattice(g: Graph) -> HermiteForm:
    """Hermite basis of the integer row lattice of the RA matrix, derived
    from the graph's lattice on each call."""
    return _form_of(_latest_basis(g))


def elementary_divisors(g: Graph) -> SmithForm:
    """Smith divisors of the RA matrix, padded with zeros to length n."""
    return _latest_quotient(g).smith_form(g.n, g.n)


def is_ra(g: Graph) -> bool:
    """Whether the RA row lattice is all of Z^n, that is every elementary
    divisor is 1, without a Smith form."""
    return not _latest_quotient(g).q


def classify(g: Graph):
    """Classify a connected graph; a disconnected one yields a list with one
    verdict per component (component order follows smallest vertex)."""
    comps = connected_components(g)
    if len(comps) > 1:
        return [_verdict(subgraph(g, comp)) for comp in comps]
    return _verdict(g)


def _verdict(g: Graph) -> RAClassification:
    """``classify`` of a graph already known to be connected."""
    quo = _latest_quotient(g)
    if not quo.q:  # Z^n/L = 0
        ones = (1,) * g.n
        return RAClassification("RA", 1, ones, 0, ones)
    sf = quo.smith_form(g.n, g.n)
    divisors, axis = sf.divisors, quo.axis_multiples()
    status, mu, nonuniform = "general", None, False
    if sf.nullity == 0 and all(d == 1 for d in divisors[:-1]):
        k = divisors[-1]
        if all(a in (1, k) for a in axis):
            status, mu = f"1/{k}-RA", k
        else:
            nonuniform = True
    return RAClassification(
        status=status,
        mu=mu,
        divisors=divisors,
        nullity=sf.nullity,
        axis_multiples=axis,
        nonuniform_axis=nonuniform,
    )


def classification_record(g: Graph, c: RAClassification | None = None) -> dict:
    """JSON-ready record; the field set is part of the external contract."""
    if c is None:
        c = classify(g)
        if isinstance(c, list):
            raise ValueError("pass per-component classifications explicitly")
    return _record(g, c, is_connected(g))


def _record(g: Graph, c: RAClassification, connected: bool) -> dict:
    """``classification_record`` with the connectivity already known."""
    gi = girth(g)
    return {
        "n": g.n,
        "girth": gi,
        # a forest is bipartite and an odd girth is an odd cycle: only an
        # even girth leaves the question to a 2-colouring
        "bipartite": gi is None or not gi & 1 and is_bipartite(g) is not None,
        "connected": connected,
        "divisors": list(c.divisors),
        "nullity": c.nullity,
        "status": c.status,
        "mu": c.mu,
        "axis_multiples": list(c.axis_multiples),
    }


def pair_sign(g: Graph, u: int, v: int) -> str:
    """Membership of e_u + e_v and e_u - e_v in the RA row lattice:
    "positive", "negative", "both", or "none"."""
    if u == v:
        raise ValueError("pair sign needs two distinct vertices")
    n = g.n
    for w in (u, v):
        if not 1 <= w <= n:
            raise IndexError(f"vertex {w} out of range 1..{n}")
    quo = _latest_quotient(g)
    pos = quo.contains(u - 1, v - 1, 1)
    neg = quo.contains(u - 1, v - 1, -1)
    if pos and neg:
        return "both"
    if pos:
        return "positive"
    if neg:
        return "negative"
    return "none"


def kernel_mod_p(g: Graph, p: int) -> list:
    """Basis of the right kernel of the RA matrix over Z/pZ, the vectors
    ``kernel_basis_mod_p`` gives for it, read off the lattice.  p is
    checked before any lattice work."""
    _check_modulus(p)
    return _latest_quotient(g).kernel_mod_p(p)


def is_neighborly(g: Graph) -> bool:
    """Every edge is signed (positive or negative)."""
    return all(pair_sign(g, u, v) != "none" for u, v in g.edges())


def is_positively_neighborly(g: Graph) -> bool:
    return all(pair_sign(g, u, v) in ("positive", "both") for u, v in g.edges())


def is_negatively_neighborly(g: Graph) -> bool:
    return all(pair_sign(g, u, v) in ("negative", "both") for u, v in g.edges())
