"""Closed-form predictors for the single nontrivial elementary divisor.

Each predictor checks the structural hypotheses of one constructive result
(neighborly partitions, girth-4, cartesian / prism / tensor products,
tensor powers of complete graphs) and, when they hold, returns the
predicted divisor as a gcd of degree and neighborhood-intersection
statistics.  Predictors never guess: a failed hypothesis yields an
inapplicable result carrying the reason.

The second half of the module constructs kernel vectors for Kneser graphs,
the nullity sequence z(n) of the binary graphs (recurrence and closed form,
always cross-asserted), and the pyramid-over-crowns graph realizing any
prescribed divisor chain and nullity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd, lcm

from .graphs import (
    Graph,
    binary_graph,
    complete,
    crown,
    degree,
    girth,
    is_bipartite,
    is_connected,
    kneser_vertices,
)
from .intlin import _is_prime, gcd_all
from .products import disjoint_union, pyramid
from .ra_core import elementary_divisors, pair_sign_from_lattice, ra_lattice

__all__ = [
    "MuPrediction",
    "mu_neighborly",
    "mu_negatively_neighborly",
    "mu_girth4",
    "mu_cartesian",
    "mu_prism",
    "mu_tensor",
    "mu_tensor_completes",
    "mu_tensor_scaled",
    "mu_kneser_tensor_k2",
    "kneser_prism_params",
    "kneser_prism_conditions",
    "strong_product_divisors",
    "divisor_prime_profile",
    "kneser_kernel_vector",
    "kneser_kernel_span_dim",
    "z",
    "z_minimal_n",
    "construct_prescribed",
]


@dataclass(frozen=True)
class MuPrediction:
    applicable: bool
    mu: int | None
    theorem_id: str
    ingredients: dict = field(default_factory=dict)
    reason: str | None = None


def _inapplicable(theorem_id: str, reason: str) -> MuPrediction:
    return MuPrediction(
        applicable=False, mu=None, theorem_id=theorem_id, reason=reason
    )


def _closed_masks(g: Graph):
    return [g.closed_mask(v) for v in g.vertices()]


def _open_common(g: Graph, u: int, v: int) -> int:
    return (g.adj[u - 1] & g.adj[v - 1]).bit_count()


def _closed_common(g: Graph, u: int, v: int) -> int:
    return (g.closed_mask(u) & g.closed_mask(v)).bit_count()


def _all_pairs_even_common(g: Graph) -> bool:
    return all(
        _open_common(g, u, v) % 2 == 0
        for u, v in combinations(g.vertices(), 2)
    )


def _parity_half_ra(g: Graph) -> bool:
    """The neighborly 1/2-vs-RA split: all degrees odd and every vertex pair
    with an even number of common neighbors."""
    if any(degree(g, v) % 2 == 0 for v in g.vertices()):
        return False
    return _all_pairs_even_common(g)


def mu_neighborly(g: Graph, parts) -> MuPrediction:
    """Partition-based divisor: same-part pairs must be negative, cross-part
    pairs positive; then mu = gcd(delta, kappa) over signed neighborhood
    counts relative to the partition."""
    tid = "neighborly"
    u_set, v_set = (frozenset(p) for p in parts)
    if u_set & v_set or u_set | v_set != set(g.vertices()):
        return _inapplicable(tid, "parts do not partition the vertex set")
    lat = ra_lattice(g)
    for a, b in combinations(g.vertices(), 2):
        sign = pair_sign_from_lattice(lat, a, b)
        same = (a in u_set) == (b in u_set)
        want = "negative" if same else "positive"
        if sign != want and sign != "both":
            return _inapplicable(
                tid, f"pair ({a},{b}) is {sign}, needs {want}"
            )
    u_mask = sum(1 << (v - 1) for v in u_set)
    v_mask = sum(1 << (v - 1) for v in v_set)
    masks = _closed_masks(g)
    delta = gcd_all(
        (m & u_mask).bit_count() - (m & v_mask).bit_count() for m in masks
    )
    kappa = gcd_all(
        ((mu_ & mv) & u_mask).bit_count() - ((mu_ & mv) & v_mask).bit_count()
        for mu_, mv in combinations(masks, 2)
    )
    if delta == 0 and kappa == 0:
        return _inapplicable(tid, "delta and kappa are both zero")
    return MuPrediction(
        applicable=True,
        mu=gcd(delta, kappa),
        theorem_id=tid,
        ingredients={"delta": delta, "kappa": kappa},
    )


def mu_negatively_neighborly(g: Graph) -> MuPrediction:
    """Every-edge-negative case: delta over deg+1, kappa over closed pairwise
    intersections."""
    tid = "negatively-neighborly"
    if not is_connected(g):
        return _inapplicable(tid, "graph is not connected")
    lat = ra_lattice(g)
    for a, b in g.edges():
        if pair_sign_from_lattice(lat, a, b) not in ("negative", "both"):
            return _inapplicable(tid, f"edge ({a},{b}) is not negative")
    delta = gcd_all(degree(g, v) + 1 for v in g.vertices())
    kappa = gcd_all(
        _closed_common(g, u, v) for u, v in combinations(g.vertices(), 2)
    )
    return MuPrediction(
        applicable=True,
        mu=gcd(delta, kappa),
        theorem_id=tid,
        ingredients={"delta": delta, "kappa": kappa},
    )


def mu_girth4(g: Graph) -> MuPrediction:
    """Connected girth-4 graphs: parity rule when non-bipartite, gcd of
    (deg - 1) and distance-2 intersection sizes when bipartite."""
    tid = "girth4"
    if not is_connected(g):
        return _inapplicable(tid, "graph is not connected")
    if girth(g) != 4:
        return _inapplicable(tid, "girth is not 4")
    parts = is_bipartite(g)
    if parts is None:
        mu = 2 if _parity_half_ra(g) else 1
        return MuPrediction(
            applicable=True, mu=mu, theorem_id=tid,
            ingredients={"bipartite": False},
        )
    delta = gcd_all(degree(g, v) - 1 for v in g.vertices())
    kappa = _bipartite_kappa(g)
    return MuPrediction(
        applicable=True,
        mu=gcd(delta, kappa),
        theorem_id=tid,
        ingredients={"delta": delta, "kappa": kappa, "bipartite": True},
    )


def _bipartite_kappa(g: Graph) -> int:
    """gcd of the closed common neighbourhoods of the distance-2 pairs of a
    bipartite graph, as the gcd of the open ones over all pairs: adjacent
    pairs share no neighbour, non-adjacent pairs have equal closed and open
    intersections, and pairs farther apart add a 0."""
    return gcd_all(
        _open_common(g, u, v) for u, v in combinations(g.vertices(), 2)
    )


def mu_cartesian(a: Graph, b: Graph) -> MuPrediction:
    """Cartesian products are always neighborly; the divisor splits on the
    bipartiteness pattern of the factors."""
    tid = "cartesian"
    if not (is_connected(a) and is_connected(b)):
        return _inapplicable(tid, "factors must be connected")
    bip_a = is_bipartite(a) is not None
    bip_b = is_bipartite(b) is not None
    if bip_a == bip_b:
        deg_a = {degree(a, v) % 2 for v in a.vertices()}
        deg_b = {degree(b, v) % 2 for v in b.vertices()}
        opposite = deg_a == {1} and deg_b == {0} or deg_a == {0} and deg_b == {1}
        even_common = _all_pairs_even_common(a) and _all_pairs_even_common(b)
        mu = 2 if opposite and even_common else 1
        return MuPrediction(
            applicable=True, mu=mu, theorem_id=tid,
            ingredients={"case": "same-bipartiteness"},
        )
    if bip_a:
        a, b = b, a  # a non-bipartite, b bipartite from here on
    delta = gcd_all(
        1 + degree(a, u) - degree(b, i)
        for u in a.vertices()
        for i in b.vertices()
    )
    kappa1 = gcd_all(
        _closed_common(a, u, v) for u, v in combinations(a.vertices(), 2)
    )
    kappa2 = _bipartite_kappa(b)
    return MuPrediction(
        applicable=True,
        mu=gcd_all((delta, kappa1, kappa2)),
        theorem_id=tid,
        ingredients={"delta": delta, "kappa1": kappa1, "kappa2": kappa2},
    )


def mu_prism(g: Graph) -> MuPrediction:
    """Prism over a connected non-bipartite graph: gcd of degrees and of
    closed pairwise intersections (pairs of distinct vertices)."""
    tid = "prism"
    if not is_connected(g):
        return _inapplicable(tid, "graph is not connected")
    if is_bipartite(g) is not None:
        return _inapplicable(tid, "base graph is bipartite")
    delta = gcd_all(degree(g, v) for v in g.vertices())
    kappa = gcd_all(
        _closed_common(g, u, v) for u, v in combinations(g.vertices(), 2)
    )
    return MuPrediction(
        applicable=True,
        mu=gcd(delta, kappa),
        theorem_id=tid,
        ingredients={"delta": delta, "kappa": kappa},
    )


def _is_complete(g: Graph) -> bool:
    return g.edge_count() == g.n * (g.n - 1) // 2


def _tensor_delta_kappa(a: Graph, b: Graph, blocks):
    """(delta, kappa) of a tensor product over (vertices of a, vertices of b)
    blocks: delta is the gcd of deg(u) * deg(l) - 1 over each block, kappa
    the gcd of common-neighbor products over the pairs (u, v) x (l1, l2) of
    a block other than u = v and l1 = l2 together."""
    deltas = []
    kappas = []
    for va, vb in blocks:
        deltas.extend(degree(a, v) * degree(b, lam) - 1 for v in va for lam in vb)
        for u in va:
            for v in va:
                g_common = _open_common(a, u, v) if u != v else degree(a, u)
                for l1 in vb:
                    for l2 in vb:
                        if u == v and l1 == l2:
                            continue
                        lam_common = (
                            _open_common(b, l1, l2) if l1 != l2 else degree(b, l1)
                        )
                        kappas.append(g_common * lam_common)
    return gcd_all(deltas), gcd_all(kappas)


def _tensor_one_bipartite(nonbip: Graph, bip: Graph, parts) -> MuPrediction:
    verts = nonbip.vertices()
    delta, kappa = _tensor_delta_kappa(nonbip, bip, [(verts, part) for part in parts])
    return MuPrediction(
        applicable=True,
        mu=gcd(delta, kappa),
        theorem_id="tensor-bipartite",
        ingredients={"delta": delta, "kappa": kappa},
    )


def _tensor_two_bipartite(a: Graph, b: Graph, parts_a, parts_b):
    """Both factors bipartite: the product splits into two components; one
    prediction per component, pairing parts directly then crosswise."""
    preds = []
    for flip in (0, 1):
        delta, kappa = _tensor_delta_kappa(
            a, b, [(parts_a[i], parts_b[i ^ flip]) for i in (0, 1)]
        )
        preds.append(
            MuPrediction(
                applicable=True,
                mu=gcd(delta, kappa),
                theorem_id="tensor-2bipartite",
                ingredients={"delta": delta, "kappa": kappa, "component": flip + 1},
            )
        )
    return tuple(preds)


def _has_triangle_free_edge(g: Graph) -> bool:
    return any(g.adj[u - 1] & g.adj[v - 1] == 0 for u, v in g.edges())


def mu_tensor(a: Graph, b: Graph):
    """Tensor-product divisor, dispatching on bipartiteness.

    One bipartite factor gives a single prediction; two give a pair (one per
    component of the disconnected product).  For two non-bipartite factors a
    complete factor or a triangle-free edge in each factor pins the result
    to RA-or-1/2.  The product's parity test is read off the factors: degrees
    and open common-neighbor counts (with c(u, u) = deg u) multiply, so every
    product vertex has odd degree and every product pair an even count
    exactly when both factors pass the test.
    """
    if not (is_connected(a) and is_connected(b)):
        return _inapplicable("tensor", "factors must be connected")
    parts_a = is_bipartite(a)
    parts_b = is_bipartite(b)
    if parts_a is not None and parts_b is not None:
        return _tensor_two_bipartite(a, b, parts_a, parts_b)
    if parts_b is not None:
        return _tensor_one_bipartite(a, b, parts_b)
    if parts_a is not None:
        return _tensor_one_bipartite(b, a, parts_a)
    # both non-bipartite
    if _is_complete(b) and b.n >= 3:
        gam, m = a, b.n
    elif _is_complete(a) and a.n >= 3:
        gam, m = b, a.n
    else:
        if _has_triangle_free_edge(a) and _has_triangle_free_edge(b):
            mu = 2 if _parity_half_ra(a) and _parity_half_ra(b) else 1
            return MuPrediction(
                applicable=True, mu=mu, theorem_id="tensor-nonbipartite",
            )
        return _inapplicable(
            "tensor",
            "both factors non-bipartite and some factor has every edge in a triangle",
        )
    tid = "tensor-complete"
    odd_degrees = all(degree(gam, v) % 2 == 1 for v in gam.vertices())
    even_closed = all(
        _closed_common(gam, u, v) % 2 == 0
        for u, v in combinations(gam.vertices(), 2)
    )
    mu = 2 if (m % 2 == 0 and odd_degrees and even_closed) else 1
    return MuPrediction(
        applicable=True, mu=mu, theorem_id=tid, ingredients={"m": m},
    )


def mu_tensor_completes(sizes) -> MuPrediction:
    """Tensor product of complete graphs K_{m_1} x ... x K_{m_n}."""
    tid = "tensor-completes"
    ms = sorted(int(m) for m in sizes)
    if len(ms) < 2 or ms[0] < 2 or ms[1] < 3:
        return _inapplicable(
            tid, "needs at least two factors, all >= 2, second smallest >= 3"
        )
    if ms[0] == 2:
        mu = gcd_all(m - 2 for m in ms[1:])
        return MuPrediction(
            applicable=True, mu=mu, theorem_id=tid, ingredients={"case": "a"},
        )
    mu = 2 if all(m % 2 == 0 for m in ms) else 1
    return MuPrediction(
        applicable=True, mu=mu, theorem_id=tid, ingredients={"case": "b"},
    )


def mu_tensor_scaled(lam: Graph, nu: int) -> MuPrediction:
    """Scaling a bipartite girth-4 graph by a complete factor K_{nu+2}."""
    tid = "tensor-scaled"
    if nu < 1:
        return _inapplicable(tid, "nu must be >= 1")
    if not is_connected(lam):
        return _inapplicable(tid, "base graph is not connected")
    if is_bipartite(lam) is None or girth(lam) != 4:
        return _inapplicable(tid, "base graph must be bipartite with girth 4")
    base = mu_girth4(lam)
    if not base.applicable:
        return _inapplicable(tid, base.reason or "base prediction failed")
    return MuPrediction(
        applicable=True,
        mu=gcd(base.mu, nu),
        theorem_id=tid,
        ingredients={"base_mu": base.mu, "nu": nu},
    )


def mu_kneser_tensor_k2(n: int, k: int) -> int:
    """Divisor of Kn(n,k) x K_2 in closed form: n'/gcd(lcm(1..k), n')."""
    if n <= 2 * k:
        raise ValueError("needs n > 2k")
    np_ = n - 2 * k
    return np_ // gcd(lcm(*range(1, k + 1)), np_)


def kneser_prism_params(a: int, b: int):
    """Parameter family (n, k) whose Kneser prisms have divisor 3."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    k = 3 ** a + 1 + 2 * b
    n = 3 ** (a + 1) + 2 * k - 1
    return n, k


def _comb_mod3(m: int, k: int) -> int:
    """C(m, k) mod 3 for m >= 0 by Lucas' theorem: the product of C(m_i, k_i)
    over the base-3 digits, 0 as soon as some k_i > m_i."""
    if not 0 <= k <= m:
        return 0
    r = 1
    while k:
        m, mi = divmod(m, 3)
        k, ki = divmod(k, 3)
        if ki > mi:
            return 0
        r = r * comb(mi, ki) % 3
    return r


def kneser_prism_conditions(n: int, k: int) -> bool:
    """Binomial tests mod 3: C(n-2k+j, k) = 0 for j = 1..k and
    C(n-2k, k) = 1."""
    if any(_comb_mod3(n - 2 * k + j, k) for j in range(1, k + 1)):
        return False
    return _comb_mod3(n - 2 * k, k) == 1


def strong_product_divisors(a: Graph, b: Graph):
    """Multiset of pairwise divisor products {d_i * e_j}, sorted.

    Only equal as a *prime* multiset to the directly computed divisors of
    the strong product, not divisor by divisor; compare through
    divisor_prime_profile.
    """
    da = elementary_divisors(a).divisors
    db = elementary_divisors(b).divisors
    return tuple(sorted(x * y for x in da for y in db))


def _prime_factors(x: int):
    out = []
    d = 2
    while d * d <= x:
        while x % d == 0:
            out.append(d)
            x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def divisor_prime_profile(divisors):
    """(zero count, sorted multiset of prime factors of the nonzero part);
    two divisor chains agree up to prime rearrangement iff these match."""
    zeros = sum(1 for d in divisors if d == 0)
    primes = []
    for d in divisors:
        if d > 1:
            primes.extend(_prime_factors(d))
    return zeros, tuple(sorted(primes))


def kneser_kernel_vector(n: int, p: int, x) -> tuple:
    """Vector over the Kneser vertex order with entry |x & v| mod p."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n <= p:
        raise ValueError("needs n > p")
    xs = frozenset(x)
    if len(xs) != p or not xs <= set(range(1, n + 1)):
        raise ValueError("x must be a p-subset of 1..n")
    return tuple(len(xs & set(v)) % p for v in kneser_vertices(n, p))


def kneser_kernel_span_dim(n: int, p: int) -> int:
    """Dimension of the span of all kernel vectors mod p: n-2 when p | n,
    n-1 otherwise."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n <= p:
        raise ValueError("needs n > p")
    return n - 2 if n % p == 0 else n - 1


def _z_recurrence(n: int) -> int:
    return sum(1 for m in range(2, n) if m.bit_count() >= 3)


def _z_closed(n: int) -> int:
    r = (n - 1).bit_length()
    m = n - (1 << (r - 1))
    return n - 1 - r - comb(r - 1, 2) - (m - 1).bit_length()


def z(n: int) -> int:
    """Nullity of the RA matrix of the binary graph on n numbers.

    Both the step recurrence (counting integers below n with at least three
    binary ones) and the closed form are evaluated and must agree.
    """
    if n < 2:
        raise ValueError("z is defined for n >= 2")
    a = _z_recurrence(n)
    b = _z_closed(n)
    if a != b:
        raise AssertionError(f"z({n}): recurrence {a} != closed form {b}")
    return a


def z_minimal_n(r: int) -> int:
    """Smallest n with z(n) = r (z steps by 0 or 1, so it hits every r)."""
    if r < 0:
        raise ValueError("nullity must be nonnegative")
    n = 2
    acc = 0
    while acc < r:
        acc += 1 if n.bit_count() >= 3 else 0
        n += 1
    return n


def construct_prescribed(divisors, nullity: int = 0) -> Graph:
    """Graph whose RA matrix has exactly the given nontrivial divisors and
    nullity: the pyramid over a disjoint union of crown graphs (one per
    divisor) and, for positive nullity, the smallest binary graph with that
    kernel dimension.

    With no divisors a single vertex joins the union: a vertex pair from two
    components shares only the apex, so e_apex is a row of the RA matrix.
    Over the binary graph alone it need not be in the row lattice, and the
    nullity then comes out one too high (r = 1, 3, 4, 5, 10, 11, 12).
    """
    ds = [int(d) for d in divisors]
    if nullity < 0:
        raise ValueError("nullity must be nonnegative")
    if not ds and nullity == 0:
        raise ValueError("nothing to construct: no divisors and zero nullity")
    if any(d < 2 for d in ds):
        raise ValueError("divisors must be >= 2")
    for x, y in zip(ds, ds[1:]):
        if y % x:
            raise ValueError(f"broken divisibility chain: {x} does not divide {y}")
    parts = [crown(2 * d + 4) for d in ds]
    if nullity > 0:
        parts.append(binary_graph(z_minimal_n(nullity)))
    if not ds:
        parts.append(complete(1))
    return pyramid(disjoint_union(parts))
