"""RA matrices, elementary divisors, and RA classification.

For a graph on vertices 1..n, the RA matrix stacks the bit vector of every
closed neighborhood N[v] with every pairwise intersection N[u] & N[v]; its
integer row lattice decides how freely single-vertex commutator placements
can be achieved, so the classification below is all about the elementary
divisors of that lattice.

``ra_lattice`` keeps the latest graph's lattice, so consecutive calls on one
graph (``classify``, a neighborly predictor, ``pair_sign``) share one
echelon build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    Graph,
    connected_components,
    girth,
    is_bipartite,
    is_connected,
    subgraph,
)
from .intlin import (
    IntMatrix,
    RowLattice,
    SmithForm,
    lattice_contains,
    lattice_smith_form,
    minimal_axis_multiple,
    row_lattice,
)

__all__ = [
    "RAMatrix",
    "RAClassification",
    "ra_matrix",
    "ra_lattice",
    "elementary_divisors",
    "classify",
    "classification_record",
    "pair_sign",
    "is_neighborly",
    "is_positively_neighborly",
    "is_negatively_neighborly",
]


@dataclass(frozen=True)
class RAMatrix:
    """Deduplicated row stack of N[v] and N[u] & N[v] vectors.

    ``provenance[k]`` is ``(v,)`` when row k first arose as a closed
    neighborhood and ``(u, v)`` (u < v) when it first arose as a pair
    intersection.  Zero rows and repeats are dropped; neither changes the
    row lattice.
    """

    matrix: IntMatrix
    provenance: tuple


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


def ra_matrix(g: Graph) -> RAMatrix:
    n = g.n
    masks = [g.closed_mask(v) for v in g.vertices()]
    rows = []
    provenance = []
    seen = set()
    for v in range(1, n + 1):
        m = masks[v - 1]
        if m not in seen:
            seen.add(m)
            rows.append(m)
            provenance.append((v,))
    for u in range(1, n + 1):
        mu_ = masks[u - 1]
        for v in range(u + 1, n + 1):
            m = mu_ & masks[v - 1]
            if m and m not in seen:
                seen.add(m)
                rows.append(m)
                provenance.append((u, v))
    data = [[m >> j & 1 for j in range(n)] for m in rows]
    return RAMatrix(matrix=IntMatrix(data), provenance=tuple(provenance))


def ra_lattice(g: Graph) -> RowLattice:
    """Integer row lattice of the RA matrix, held as its Hermite basis.

    This is the one echelon build per graph: divisors, nullity, axis
    multiples and pair signs are all read off it.  The latest graph's
    lattice is kept, so consecutive calls on one graph share one build.
    """
    return _latest_lattice(g)


@lru_cache(maxsize=1)
def _latest_lattice(g: Graph) -> RowLattice:
    # exact: Graph compares by (n, adj), and the lattice is immutable
    return row_lattice(ra_matrix(g).matrix)


def elementary_divisors(g: Graph) -> SmithForm:
    """Smith divisors of the RA matrix, padded with zeros to length n."""
    return lattice_smith_form(ra_lattice(g), g.n)


def classify(g: Graph):
    """Classify a connected graph; a disconnected one yields a list with one
    verdict per component (component order follows smallest vertex)."""
    comps = connected_components(g)
    if len(comps) > 1:
        return [classify(subgraph(g, comp)) for comp in comps]
    n = g.n
    lat = ra_lattice(g)
    sf = lattice_smith_form(lat, n)
    divisors = sf.divisors
    axis = tuple(minimal_axis_multiple(lat, i) for i in range(1, n + 1))
    status, mu, nonuniform = "general", None, False
    if all(d == 1 for d in divisors):
        status, mu = "RA", 1
    elif sf.nullity == 0 and all(d == 1 for d in divisors[:-1]):
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
    return {
        "n": g.n,
        "girth": girth(g),
        "bipartite": is_bipartite(g) is not None,
        "connected": is_connected(g),
        "divisors": list(c.divisors),
        "nullity": c.nullity,
        "status": c.status,
        "mu": c.mu,
        "axis_multiples": list(c.axis_multiples),
    }


def pair_sign_from_lattice(lat: RowLattice, u: int, v: int) -> str:
    n = lat.ambient_dim
    plus = [0] * n
    plus[u - 1] += 1
    plus[v - 1] += 1
    minus = [0] * n
    minus[u - 1] += 1
    minus[v - 1] -= 1
    pos = lattice_contains(lat, plus)
    neg = lattice_contains(lat, minus)
    if pos and neg:
        return "both"
    if pos:
        return "positive"
    if neg:
        return "negative"
    return "none"


def pair_sign(g: Graph, u: int, v: int) -> str:
    """Membership of e_u + e_v and e_u - e_v in the RA row lattice:
    "positive", "negative", "both", or "none"."""
    if u == v:
        raise ValueError("pair sign needs two distinct vertices")
    return pair_sign_from_lattice(ra_lattice(g), u, v)


def is_neighborly(g: Graph) -> bool:
    """Every edge is signed (positive or negative)."""
    return all(pair_sign(g, u, v) != "none" for u, v in g.edges())


def is_positively_neighborly(g: Graph) -> bool:
    return all(pair_sign(g, u, v) in ("positive", "both") for u, v in g.edges())


def is_negatively_neighborly(g: Graph) -> bool:
    return all(pair_sign(g, u, v) in ("negative", "both") for u, v in g.edges())
