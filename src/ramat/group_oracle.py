"""Desk-scale finite-group engine for verifying graph-power claims directly.

Groups are multiplication tables over element indices; all laws are checked
at construction.  Graph powers, matrix powers, and bracket subgroups are
enumerated by breadth-first closure over generator tuples, with a hard
element budget: a closure that might not fit is refused up front, and
partial enumerations are never returned.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from dataclasses import dataclass
from math import lcm

from .graphs import Graph
from .intlin import IntMatrix, _is_prime

__all__ = [
    "FiniteGroup",
    "BudgetExceededError",
    "heisenberg",
    "dihedral",
    "commutator_subgroup",
    "graph_power",
    "matrix_power",
    "is_G_RA",
    "comm_b",
    "tuple_subgroup_order_histogram",
    "enumerated_commutator_order",
    "oracle_record",
]

DEFAULT_CAP = 10 ** 7


class BudgetExceededError(RuntimeError):
    """The requested closure could exceed the element budget."""


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    order: int
    table: tuple  # order x order element indices
    identity: int
    inverse: tuple
    generators: tuple
    labels: tuple

    @classmethod
    def from_table(cls, name, table, generators, labels=None) -> "FiniteGroup":
        table = tuple(tuple(map(operator.index, row)) for row in table)
        order = len(table)
        if any(len(row) != order for row in table):
            raise ValueError("multiplication table must be square")
        if not set().union(*table) <= set(range(order)):
            raise ValueError("table entry out of range")
        identity = None
        for e in range(order):
            if all(table[e][x] == x == table[x][e] for x in range(order)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        # in a group the right inverse is unique and is also the left one
        inverse = []
        for a, row in enumerate(table):
            b = row.index(identity) if identity in row else None
            if b is None or table[b][a] != identity:
                raise ValueError(f"element {a} has no inverse")
            inverse.append(b)
        generators = tuple(generators)
        if any(not 0 <= s < order for s in generators):
            raise ValueError("generator out of range")
        if labels is None:
            labels = tuple(str(i) for i in range(order))
        group = cls(
            name=name,
            order=order,
            table=table,
            identity=identity,
            inverse=tuple(inverse),
            generators=generators,
            labels=tuple(labels),
        )
        # Light's test: the elements a with (x a) y = x (a y) for all x, y
        # are closed under multiplication, so checking a generating set is
        # exact: the given generators plus whatever their closure misses.
        # times_a maps the row of x to the row x (a y); a one-element table
        # is the trivial group, where itemgetter would not give a row.
        missed = set(range(order)) - group.closure(generators)
        for a in set(generators) | missed if order > 1 else ():
            times_a = operator.itemgetter(*table[a])
            for tx in table:
                if table[tx[a]] != times_a(tx):
                    raise ValueError("multiplication is not associative")
        return group

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        out = self.identity
        base = a
        while k:
            if k & 1:
                out = self.table[out][base]
            base = self.table[base][base]
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        x = a
        n = 1
        while x != self.identity:
            x = self.table[x][a]
            n += 1
        return n

    def commutator(self, a: int, b: int) -> int:
        t = self.table
        return t[t[t[self.inverse[a]][self.inverse[b]]][a]][b]

    def closure(self, seed) -> frozenset:
        """Subgroup generated by the given element indices."""
        return frozenset(x for (x,) in _tuple_closure(self, [(s,) for s in seed], 1))

    def subgroup(self, elements, name=None) -> "FiniteGroup":
        """The given closed element set as a group in its own right."""
        elems = sorted(elements)
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[self.table[a][b]] for b in elems] for a in elems]
        # greedy generating set: each added element at least doubles the
        # span, so there are at most log2(order) generators to check
        gens = []
        span = {self.identity}
        for e in elems:
            if e not in span:
                gens.append(e)
                span = self.closure(gens)
        return FiniteGroup.from_table(
            name or f"{self.name}-subgroup",
            table,
            tuple(index[e] for e in gens) or (0,),
            labels=tuple(self.labels[e] for e in elems),
        )


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z/pZ; order p^3, with a central
    commutator subgroup of order p."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")

    # (a1, b1, c1) (a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1 b2) mod p,
    # with (a, b, c) at index (a p + b) p + c
    r = range(p)
    table = [
        [((a1 + a2) % p * p + (b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p
         for a2 in r for b2 in r for c2 in r]
        for a1 in r for b1 in r for c1 in r
    ]
    labels = tuple(f"({a},{b},{c})" for a in r for b in r for c in r)
    return FiniteGroup.from_table(
        f"heisenberg({p})",
        table,
        generators=(p * p, p),
        labels=labels,
    )


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even, >= 4) order: rotations r^i and
    reflections r^i s with s r = r^-1 s."""
    if order < 4 or order % 2:
        raise ValueError("dihedral order must be even and >= 4")
    n = order // 2

    # r^i s^j is at index i + n j.  Row r^i: r^i r^k s^j = r^(i+k) s^j, so
    # each half is the index range turned left by i.  Row r^i s:
    # r^i s r^k s^j = r^(i-k) s^(1-j), the reversed ranges turned, swapped.
    rot, ref = list(range(n)), list(range(n, order))
    table = [rot[i:] + rot[:i] + ref[i:] + ref[:i] for i in range(n)]
    rot.reverse()
    ref.reverse()
    table += [ref[~i:] + ref[:~i] + rot[~i:] + rot[:~i] for i in range(n)]
    labels = tuple(
        ("e" if (i, j) == (0, 0) else f"r{i}" + ("s" if j else ""))
        for j in range(2)
        for i in range(n)
    )
    return FiniteGroup.from_table(
        f"dihedral({order})", table, generators=(1, n),
        labels=labels,
    )


def commutator_subgroup(g: FiniteGroup) -> frozenset:
    """Element set of [G,G], generated by all commutators."""
    comms = {g.commutator(a, b) for a in range(g.order) for b in range(g.order)}
    return g.closure(comms)


def _check_budget(order: int, n: int, cap: int) -> None:
    if order ** n > cap:
        raise BudgetExceededError(
            f"group^n would allow {order}**{n} tuples, over the cap {cap}"
        )


def _tuple_closure(g: FiniteGroup, gens, n: int) -> frozenset:
    """BFS closure in G^n over the given generator tuples (coordinatewise
    right multiplication); deterministic order for reproducible logs."""
    table = g.table
    ident = (g.identity,) * n
    gens = sorted(set(gens))
    seen = {ident}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for t in gens:
            y = tuple(table[a][b] for a, b in zip(x, t))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def graph_power(g: FiniteGroup, graph: Graph, cap: int = DEFAULT_CAP) -> frozenset:
    """The subgroup of G^n generated by clicks: each group generator placed
    on each closed neighborhood.  (Clicks at one vertex compose
    coordinatewise, so group generators suffice.)"""
    n = graph.n
    _check_budget(g.order, n, cap)
    gens = []
    for s in g.generators:
        for v in graph.vertices():
            mask = graph.closed_mask(v)
            gens.append(
                tuple(s if mask >> j & 1 else g.identity for j in range(n))
            )
    return _tuple_closure(g, gens, n)


def matrix_power(g: FiniteGroup, m: IntMatrix, cap: int = DEFAULT_CAP) -> frozenset:
    """Subgroup of G^cols generated by g^row over the rows of the matrix.

    Every g in G is clicked, not only group generators: for exponent rows
    beyond 0/1 the map g -> g^row is not a homomorphism, and generator
    clicks can generate a proper subgroup (D_8 over [[1,2],[0,4]] is the
    counterexample: generator clicks reach 8 of its 16 elements).
    """
    n = m.cols
    _check_budget(g.order, n, cap)
    gens = []
    for s in range(g.order):
        for row in m.data:
            gens.append(tuple(g.power(s, int(x)) for x in row))
    return _tuple_closure(g, gens, n)


def is_G_RA(g: FiniteGroup, graph: Graph, cap: int = DEFAULT_CAP) -> bool:
    """Whether every single-vertex placement of a commutator lies in the
    graph power, i.e. [G,G]^n is inside it."""
    power = graph_power(g, graph, cap)
    return _placements_in(g, power, commutator_subgroup(g), graph.n)


def _placements_in(g: FiniteGroup, power, comm, n: int) -> bool:
    """Whether ``power`` holds every n-tuple that is the identity except for
    one nonidentity element of ``comm`` at one vertex."""
    ident = g.identity
    return all(
        tuple(c if j == v else ident for j in range(n)) in power
        for c in comm
        if c != ident
        for v in range(n)
    )


def comm_b(g: FiniteGroup, graph: Graph, cap: int = DEFAULT_CAP) -> frozenset:
    """Subgroup generated by all bracket clicks [g^v, h^w]; such a bracket
    places the commutator [g,h] on N[v] & N[w]."""
    n = graph.n
    _check_budget(g.order, n, cap)
    comms = {
        g.commutator(a, b) for a in range(g.order) for b in range(g.order)
    }
    comms.discard(g.identity)
    masks = set()
    for v in graph.vertices():
        for w in graph.vertices():
            masks.add(graph.closed_mask(v) & graph.closed_mask(w))
    gens = []
    for c in comms:
        for mask in masks:
            gens.append(
                tuple(c if mask >> j & 1 else g.identity for j in range(n))
            )
    return _tuple_closure(g, gens, n)


def tuple_subgroup_order_histogram(g: FiniteGroup, elements) -> dict:
    """Element-order histogram of an enumerated tuple subgroup (the order of
    a tuple is the lcm of its coordinates' orders)."""
    orders = [0] * g.order
    for a in range(g.order):
        orders[a] = g.element_order(a)
    hist = Counter(lcm(*(orders[a] for a in t)) for t in elements)
    return dict(sorted(hist.items()))


def enumerated_commutator_order(g: FiniteGroup, elements) -> int:
    """Order of the commutator subgroup of an enumerated tuple subgroup;
    used with the order histogram as an isomorphism-type fingerprint.

    Pairwise enumeration is quadratic, so this refuses sets past 10^5
    elements rather than stall."""
    elems = list(elements)
    if len(elems) > 10 ** 5:
        raise BudgetExceededError(
            f"commutator enumeration over {len(elems)} elements is too large"
        )
    n = len(elems[0])
    table = g.table
    inv = g.inverse

    def tmul(x, y):
        return tuple(table[a][b] for a, b in zip(x, y))

    def tinv(x):
        return tuple(inv[a] for a in x)

    comms = set()
    for x in elems:
        xi = tinv(x)
        for y in elems:
            comms.add(tmul(tmul(tmul(xi, tinv(y)), x), y))
    return len(_tuple_closure(g, comms, n))


def oracle_record(
    g: FiniteGroup, graph: Graph, cap: int = DEFAULT_CAP, descriptor: str = ""
) -> dict:
    """Full verdict for one (group, graph) pair, JSON-ready."""
    power = graph_power(g, graph, cap)
    comm = commutator_subgroup(g)
    n = graph.n
    inter = sum(1 for t in power if all(a in comm for a in t))
    bracket = comm_b(g, graph, cap)
    return {
        "group": g.name,
        "graph": descriptor,
        "order_G_Gamma": len(power),
        "is_G_RA": _placements_in(g, power, comm, n),
        "intersection_order": inter,
        "comm_b_order": len(bracket),
    }
