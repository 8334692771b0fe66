"""RA matrices, elementary divisors, and RA classification.

For a graph on vertices 1..n, the RA matrix stacks the bit vector of every
closed neighborhood N[v] with every pairwise intersection N[u] & N[v]; its
integer row lattice decides how freely single-vertex commutator placements
can be achieved, so the classification below is all about the elementary
divisors of that lattice.

A graph's lattice is one packed echelon basis over its n vertex columns,
built by ``intlin._echelon_basis`` from the RA rows as vertex masks.  The
engine peels the masks first: a singleton row {w} puts e_w in the lattice,
so column w becomes a unit pivot and bit w is cleared in every row, until no
singleton is left; then two rows s and s - e_w put e_w in it too, and the
singletons go on, until neither rule finds a column.  (A tree on 3 or more
vertices and a graph of girth >= 5 peel every column by singletons alone,
and every connected RA graph on 3 to 8 vertices peels every column, so
each is RA with no row inserted.)

Every answer but the Hermite basis is read off one presentation of Z^n/L,
an ``intlin._Quotient`` in the same n columns, through its methods alone:
the divisor chain (``smith_form``), the axis multiples, whether e_u +- e_v
lies in the lattice (``contains``) and the kernel mod p.  The graph is RA
exactly when every column is a unit pivot; ``is_ra``, ``classify`` and
``pair_sign`` read that off the pivots and make no presentation, while
``elementary_divisors`` and ``kernel_mod_p`` read the empty presentation
of an RA lattice, which answers (1, ..., 1) and [].
``ra_lattice`` derives the canonical Hermite basis on each call and does
not keep it.  The latest graph's lattice is kept, so calls on one graph
(``classify``, a neighborly predictor, ``pair_sign``, ``kernel_mod_p``)
share one echelon build and at most one presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, starmap
from operator import and_

from .graphs import (
    Graph,
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
    masks = [a | 1 << v for v, a in enumerate(g.adj)]
    # a dict keeps first-seen order
    rows = dict.fromkeys(chain(masks, starmap(and_, combinations(masks, 2))))
    rows.pop(0, None)
    return list(rows)


def ra_matrix(g: Graph) -> RAMatrix:
    n = g.n
    data = [[m >> j & 1 for j in range(n)] for m in _ra_masks(g)]
    return RAMatrix(matrix=IntMatrix(data))


class _Lattice:
    """One graph's RA row lattice: ``basis``, the packed Hermite basis (an
    ``intlin._Echelon``) over the graph's n vertex columns, and ``ra``,
    whether every pivot is 1.  Every answer but the Hermite basis is read
    off ``quotient()``.
    """

    __slots__ = ("basis", "ra", "_quotient")

    def __init__(self, g: Graph):
        n = g.n
        basis = self.basis = intlin._echelon_basis(_ra_masks(g), n)
        # RA exactly when Q is empty: every column is a unit pivot
        self.ra = list(basis.pivots.values()).count(1) == n
        self._quotient = None

    def quotient(self) -> intlin._Quotient:
        """The ``intlin._Quotient`` of the basis, made once.  An RA
        lattice's is empty (Z^n/L = 0), and answers like any other."""
        if self._quotient is None:
            self._quotient = intlin._Quotient(self.basis)
        return self._quotient


# exact: Graph compares by (n, adj), and the lattice is never changed
_latest_lattice = lru_cache(maxsize=1)(_Lattice)


def ra_lattice(g: Graph) -> HermiteForm:
    """Hermite basis of the integer row lattice of the RA matrix, derived
    from the graph's lattice on each call."""
    return _form_of(_latest_lattice(g).basis)


def elementary_divisors(g: Graph) -> SmithForm:
    """Smith divisors of the RA matrix, padded with zeros to length n."""
    return _latest_lattice(g).quotient().smith_form(g.n, g.n)


def is_ra(g: Graph) -> bool:
    """Whether the RA row lattice is all of Z^n, that is every elementary
    divisor is 1, without a Smith form."""
    return _latest_lattice(g).ra


def classify(g: Graph):
    """Classify a connected graph; a disconnected one yields a list with one
    verdict per component (component order follows smallest vertex)."""
    comps = connected_components(g)
    if len(comps) > 1:
        return [_verdict(subgraph(g, comp)) for comp in comps]
    return _verdict(g)


def _verdict(g: Graph) -> RAClassification:
    """``classify`` of a graph already known to be connected."""
    lat = _latest_lattice(g)
    if lat.ra:
        ones = (1,) * g.n
        return RAClassification("RA", 1, ones, 0, ones)
    q = lat.quotient()
    sf = q.smith_form(g.n, g.n)
    divisors, axis = sf.divisors, q.axis_multiples()
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
    lat = _latest_lattice(g)
    if lat.ra:
        return "both"
    q = lat.quotient()
    pos = q.contains(u - 1, v - 1, 1)
    neg = q.contains(u - 1, v - 1, -1)
    if pos and neg:
        return "both"
    if pos:
        return "positive"
    if neg:
        return "negative"
    return "none"


def kernel_mod_p(g: Graph, p: int) -> list:
    """Basis of the right kernel of the RA matrix over Z/pZ, the vectors
    ``kernel_basis_mod_p`` gives for it, read off the quotient.  p is
    checked before any lattice work."""
    _check_modulus(p)
    return _latest_lattice(g).quotient().kernel_mod_p(p)


def is_neighborly(g: Graph) -> bool:
    """Every edge is signed (positive or negative)."""
    return all(pair_sign(g, u, v) != "none" for u, v in g.edges())


def is_positively_neighborly(g: Graph) -> bool:
    return all(pair_sign(g, u, v) in ("positive", "both") for u, v in g.edges())


def is_negatively_neighborly(g: Graph) -> bool:
    return all(pair_sign(g, u, v) in ("negative", "both") for u, v in g.edges())
