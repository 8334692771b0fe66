"""Named verification suites: predicted values against direct computation.

Each suite yields rows (theorem_id, input descriptor, predicted, computed,
status) so the command line can stream a TSV and exit nonzero on the first
mismatch.  Everything here is hermetic: inputs are generated, never read
from disk.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import combinations, permutations, repeat

from . import theorems
from .graphs import (
    Graph,
    binary_graph,
    complement,
    complete,
    complete_bipartite,
    crown,
    cube,
    cycle,
    folded_cube,
    girth,
    graph6_decode,
    is_bipartite,
    is_connected,
    kneser,
    kneser_vertices,
    path,
)
from .group_oracle import dihedral, heisenberg, matrix_power, oracle_record
from .intlin import IntMatrix, hermite_normal_form, kernel_basis_mod_p
from .products import _complete_tensor, _kron, cartesian, prism, pyramid, strong, tensor
from .ra_core import _ra_masks, classify, elementary_divisors

# suite name -> its rows; each lambda looks its ``suite_*`` function up at
# call time, so a rebound name (a tracer, a monkeypatch) takes effect
_SUITE_ROWS = {
    "hermite": lambda slow: suite_hermite(),
    "cubes": lambda slow: suite_cubes(),
    "crowns": lambda slow: suite_crowns(),
    "kneser-table": lambda slow: suite_kneser_table(slow=slow),
    "kernel-graphs": lambda slow: suite_kernel_graphs(),
    "girth3-minimal": lambda slow: suite_girth3_minimal(),
    "z": lambda slow: suite_z(),
    "prescribed": lambda slow: suite_prescribed(),
    "kneser-kernel": lambda slow: suite_kneser_kernel(),
    "strong-product": lambda slow: suite_strong_product(),
    "predictors": lambda slow: suite_predictors(),
    "group-oracle": lambda slow: suite_group_oracle(),
}
SUITES = tuple(_SUITE_ROWS)
# the suites in the order ``verify --suite all`` hands them to its workers,
# longest first; cold, each in a fresh process, they took (ms) predictors
# 190-250, kneser-table 124-179, group-oracle 59-104, z 52-60, kneser-kernel
# 48-51, and every other suite under 20
LONGEST_FIRST = (
    "predictors", "kneser-table", "group-oracle", "z", "kneser-kernel",
    "hermite", "cubes", "crowns", "kernel-graphs", "girth3-minimal",
    "prescribed", "strong-product",
)

KNESER_TABLE = {
    (6, 2): {2: 4},
    (8, 2): {2: 7},
    (10, 2): {2: 8},
    (12, 2): {2: 10, 4: 1},
    (9, 3): {3: 7},
}

KNESER_TABLE_SLOW = {
    (14, 2): {2: 12},
    (16, 2): {2: 15},
    (18, 2): {2: 16},
    (20, 2): {2: 18, 4: 1},
    (12, 3): {3: 10},
    (15, 3): {3: 1, 9: 13},
}

KERNEL_GRAPH6 = ("I?otQji\\O", "ICQrThix_")
GIRTH3_MINIMAL_GRAPH6 = ("H?zTb_{", "HCOfFz~")


def _row(theorem_id, descriptor, predicted, computed):
    status = "pass" if predicted == computed else "fail"
    return (theorem_id, descriptor, str(predicted), str(computed), status)


def _status_mu(c) -> str:
    """Compact label used in rows: RA, 1/k, or general."""
    if c.status == "RA":
        return "RA"
    if c.status.endswith("-RA"):
        return f"1/{c.mu}"
    return "general"


def suite_hermite():
    h = hermite_normal_form(IntMatrix([[2, 1], [0, 2]]))
    yield _row("hermite-pivots", "[[2,1],[0,2]]", "[2, 2]", str(list(h.diagonal)))
    h = hermite_normal_form(IntMatrix([[1, 2], [2, 0]]))
    yield _row("hermite-pivots", "columns swapped", "[1, 4]", str(list(h.diagonal)))


def suite_cubes():
    expect = {2: "RA", 3: "1/2", 4: "RA", 5: "1/2", 6: "RA"}
    for d, want in expect.items():
        got = _status_mu(classify(cube(d)))
        yield _row("cube-chain", f"Q_{d}", want, got)


def suite_crowns():
    for half in range(4, 11):
        want = f"1/{half - 2}"
        got = _status_mu(classify(crown(2 * half)))
        yield _row("crown-family", f"crown({2 * half})", want, got)


def suite_kneser_table(slow: bool = False):
    table = dict(KNESER_TABLE)
    if slow:
        table.update(KNESER_TABLE_SLOW)
    for (n, p), want in table.items():
        c = classify(kneser(n, p))
        got = dict(Counter(d for d in c.divisors if d > 1))
        yield _row("kneser-table", f"Kn({n},{p})", str(want), str(got))


def suite_kernel_graphs():
    for s in KERNEL_GRAPH6:
        c = classify(graph6_decode(s))
        got = (sorted(c.divisors), c.nullity)
        want = (sorted([1] * 9 + [0]), 1)
        yield _row("kernel-graphs", s, str(want), str(got))


def suite_girth3_minimal():
    cases = [("pyramid(crown(8))", pyramid(crown(8)))]
    cases += [(s, graph6_decode(s)) for s in GIRTH3_MINIMAL_GRAPH6]
    for name, g in cases:
        c = classify(g)
        got = (_status_mu(c), girth(g))
        yield _row("girth3-minimal", name, str(("1/2", 3)), str(got))


def suite_z():
    # the step recurrence z(2) = 0, z(n + 1) = z(n) + [n has >= 3 binary
    # ones], run once up to 512
    bad, step = [], 0
    for n in range(2, 513):
        if step != theorems._z_closed(n):
            bad.append(n)
        step += n.bit_count() >= 3
    yield _row("z-forms", "recurrence vs closed form, n=2..512", "[]", str(bad))
    mism = []
    for n in range(2, 41):
        c = classify(binary_graph(n))
        if c.nullity != theorems.z(n):
            mism.append(n)
    yield _row("z-nullity", "nullity(Bg(n)) = z(n), n=2..40", "[]", str(mism))
    first = next(n for n in range(2, 64) if theorems.z(n) > 0)
    yield _row("z-first", "first n with z(n) > 0", "8", str(first))


def suite_prescribed():
    cases = [([2], 0), ([3], 0), ([2, 4], 0), ([2, 2], 1), ([6], 2)]
    for chain, r in cases:
        g = theorems.construct_prescribed(chain, r)
        c = classify(g)
        got = (sorted(d for d in c.divisors if d > 1), c.nullity)
        yield _row(
            "prescribed", f"divisors={chain} nullity={r}",
            str((sorted(chain), r)), str(got),
        )


def suite_kneser_kernel():
    for (n, p) in ((6, 2), (9, 3)):
        masks = _ra_masks(kneser(n, p))
        bad = 0
        for x in kneser_vertices(n, p):
            vec = theorems.kneser_kernel_vector(n, p, x)
            # C*vec mod p off the RA masks: a row's product is the sum,
            # over each nonzero entry k, of k times the row's bits where
            # vec is k, summed for all rows at once in C
            terms = []
            for k in range(1, p):
                b = sum(1 << j for j, c in enumerate(vec) if c == k)
                bits = map(int.bit_count, map(b.__and__, masks))
                terms.append(bits if k == 1 else map(operator.mul, repeat(k), bits))
            products = reduce(partial(map, operator.add), terms)
            if any(map(operator.mod, products, repeat(p))):
                bad += 1
        yield _row(
            "kneser-kernel", f"C_Kn({n},{p}) * x = 0 mod {p}", "0 failures",
            f"{bad} failures",
        )
    for (n, p), want in (((6, 2), 4), ((7, 2), 6), ((9, 3), 7)):
        dim = theorems.kneser_kernel_span_dim(n, p)
        vecs = [
            theorems.kneser_kernel_vector(n, p, x)
            for x in kneser_vertices(n, p)
        ]
        mat = IntMatrix(vecs)
        rank = mat.cols - len(kernel_basis_mod_p(mat, p))
        yield _row(
            "kneser-span", f"Kn({n},{p}) span dim", str((want, want)),
            str((dim, rank)),
        )


def _random_graph(rng: random.Random, n: int) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def suite_strong_product():
    rng = random.Random(20250809)
    for t in range(20):
        na = rng.randrange(2, 7)
        nb = rng.randrange(2, 7)
        a = _random_graph(rng, na)
        b = _random_graph(rng, nb)
        g = strong(a, b)
        rows_match = Counter(_ra_masks(g)) == Counter(
            _kron(x, y, nb) for x in _ra_masks(a) for y in _ra_masks(b)
        )
        pred = theorems.strong_product_divisors(a, b)
        direct = elementary_divisors(g).divisors
        prof_match = (
            theorems.divisor_prime_profile(pred)
            == theorems.divisor_prime_profile(direct)
        )
        yield _row(
            "strong-kronecker", f"pair {t} (n={na}x{nb})", "(True, True)",
            str((rows_match, prof_match)),
        )


# ---------------------------------------------------------------------------
# predictor corpus


@dataclass
class CorpusEntry:
    name: str
    graph: Graph
    kind: str  # family / cartesian / prism / tensor / tensor-completes / tensor-scaled
    factors: tuple = ()
    params: dict = field(default_factory=dict)


# vertex cap of the predictor corpus's cartesian products
CORPUS_MAX_VERTICES = 40


def standard_corpus() -> list:
    """Deterministic corpus of families and products used for predictor
    cross-validation; >= 200 entries."""
    entries: list[CorpusEntry] = []

    def add(name, graph, kind="family", factors=(), **params):
        entries.append(CorpusEntry(name, graph, kind, factors, params))

    for n in range(2, 11):
        add(f"P{n}", path(n))
    for n in range(3, 11):
        add(f"C{n}", cycle(n))
    for n in range(2, 9):
        add(f"K{n}", complete(n))
    for m in range(1, 6):
        for n in range(m, 6):
            add(f"K{m},{n}", complete_bipartite(m, n))
    for d in range(2, 6):
        add(f"Q{d}", cube(d))
    for d in range(3, 7):
        add(f"FQ{d}", folded_cube(d))
    for half in range(4, 11):
        add(f"crown({2 * half})", crown(2 * half))
    for (n, k) in ((5, 2), (6, 2), (7, 2), (8, 2), (7, 3)):
        add(f"Kn({n},{k})", kneser(n, k))
    for n in range(2, 21):
        add(f"Bg({n})", binary_graph(n))
    for n in (4, 5, 6):
        add(f"co-Kn({n},2)", complement(kneser(n, 2)))

    named = {}
    for n in range(2, 7):
        named[f"P{n}"] = path(n)
    for n in range(3, 9):
        named[f"C{n}"] = cycle(n)
    for n in range(2, 7):
        named[f"K{n}"] = complete(n)
    named["Q2"] = cube(2)
    named["Q3"] = cube(3)
    pairs = sorted(named.items())
    for i, (na, a) in enumerate(pairs):
        for nb, b in pairs[i:]:
            if a.n * b.n <= CORPUS_MAX_VERTICES:
                add(
                    f"{na}x{nb}", cartesian(a, b), kind="cartesian",
                    factors=(a, b),
                )

    for base_name, base in (
        [(f"K{n}", complete(n)) for n in (3, 4, 5, 6)]
        + [(f"C{n}", cycle(n)) for n in (3, 5, 7, 9)]
        + [(f"co-Kn({n},2)", complement(kneser(n, 2))) for n in (4, 5, 6)]
        + [("Kn(6,2)", kneser(6, 2))]
    ):
        add(f"prism({base_name})", prism(base), "prism", (base,))

    tensor_cases = (
        [("K2", complete(2), f"K{n}", complete(n)) for n in range(3, 9)]
        + [
            ("K2", complete(2), "Kn(6,2)", kneser(6, 2)),
            ("K2", complete(2), "crown(8)", crown(8)),
            ("K2", complete(2), "crown(10)", crown(10)),
            ("K2", complete(2), "crown(12)", crown(12)),
            ("K2", complete(2), "C6", cycle(6)),
            ("K2", complete(2), "P4", path(4)),
            ("K3", complete(3), "K3", complete(3)),
            ("K3", complete(3), "K5", complete(5)),
            ("K3", complete(3), "C5", cycle(5)),
            ("C5", cycle(5), "C7", cycle(7)),
            ("C5", cycle(5), "C5", cycle(5)),
            ("K3", complete(3), "crown(8)", crown(8)),
            ("K4", complete(4), "crown(10)", crown(10)),
        ]
    )
    for na, a, nb, b in tensor_cases:
        add(f"{na}*{nb}", tensor(a, b), "tensor", (a, b))

    for sizes in ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 4), (3, 5),
                  (2, 3, 4), (2, 4, 4), (3, 3, 3), (2, 4, 6)):
        add("*".join(f"K{m}" for m in sizes), _complete_tensor(sizes),
            "tensor-completes", tuple(complete(m) for m in sizes), sizes=sizes)

    for lam_name, lam, nu in (
        ("crown(8)", crown(8), 1),
        ("crown(8)", crown(8), 2),
        ("crown(10)", crown(10), 2),
    ):
        add(f"{lam_name}*K{nu + 2}", tensor(lam, complete(nu + 2)), "tensor-scaled",
            (lam, complete(nu + 2)), lam=lam, nu=nu)
    return entries


def _predictions_for(entry: CorpusEntry):
    """All predictors whose hypotheses the entry might satisfy; inapplicable
    results are filtered by the caller."""
    g = entry.graph
    preds = []
    if entry.kind == "cartesian":
        preds.append(theorems.mu_cartesian(*entry.factors))
    if entry.kind == "prism":
        preds.append(theorems.mu_prism(entry.factors[0]))
    if entry.kind == "tensor":
        preds.append(theorems.mu_tensor(*entry.factors))
    if entry.kind == "tensor-completes":
        preds.append(theorems.mu_tensor_completes(entry.params["sizes"]))
    if entry.kind == "tensor-scaled":
        preds.append(
            theorems.mu_tensor_scaled(entry.params["lam"], entry.params["nu"])
        )
        preds.append(theorems.mu_tensor(*entry.factors))
    if is_connected(g):
        if girth(g) == 4:
            preds.append(theorems.mu_girth4(g))
        if g.n <= 24:
            parts = is_bipartite(g)
            if parts is not None:
                preds.append(theorems.mu_neighborly(g, parts))
            preds.append(theorems.mu_negatively_neighborly(g))
    return preds


def suite_predictors():
    corpus = standard_corpus()
    total = 0
    for entry in corpus:
        cls = classify(entry.graph)
        preds = _predictions_for(entry)
        for p in preds:
            if isinstance(p, tuple):  # both-bipartite tensor: per component
                if not isinstance(cls, list):
                    yield _row(
                        p[0].theorem_id, entry.name, "two components",
                        "connected graph",
                    )
                    continue
                for comp_pred, comp_cls in zip(p, cls):
                    if not comp_pred.applicable:
                        continue
                    total += 1
                    yield _row(
                        comp_pred.theorem_id,
                        f"{entry.name} component",
                        f"mu={comp_pred.mu}",
                        f"mu={comp_cls.mu}" if comp_cls.mu else _status_mu(comp_cls),
                    )
                continue
            if not p.applicable:
                continue
            total += 1
            got = f"mu={cls.mu}" if cls.mu else _status_mu(cls)
            yield _row(p.theorem_id, entry.name, f"mu={p.mu}", got)
    yield _row("predictor-count", "corpus and applicable checks both >= 200",
               True, total >= 200 and len(corpus) >= 200)


def suite_group_oracle():
    h2 = heisenberg(2)
    for n, g in _connected_small_graphs(4):
        divisors = elementary_divisors(g).divisors
        k = sum(1 for d in divisors if d % 2 == 0)  # zeros count: 0 % 2 == 0
        rec = oracle_record(h2, g)
        yield _row("oracle-ra", f"H(2) on {n}", str(k == 0), str(rec["is_G_RA"]))
        yield _row(
            "oracle-intersection", f"H(2) on {n}",
            str(2 ** (g.n - k)), str(rec["intersection_order"]),
        )
    d8 = dihedral(8)
    s1 = matrix_power(d8, IntMatrix([[1, 0], [0, 4]]))
    s2 = matrix_power(d8, IntMatrix([[1, 2], [0, 4]]))
    yield _row("oracle-matrix", "D8 over [[1,0],[0,4]]", "8", str(len(s1)))
    yield _row("oracle-matrix", "D8 over [[1,2],[0,4]]", "16", str(len(s2)))


def _connected_small_graphs(max_n: int):
    """All connected graphs on 1..max_n vertices up to isomorphism (brute
    force over labeled graphs, deduplicated by permutation)."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            adj = [0] * n
            for idx, (u, v) in enumerate(pairs):
                if bits >> idx & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            canon = min(
                tuple(
                    sorted(
                        tuple(sorted((p[u], p[v])))
                        for idx, (u, v) in enumerate(pairs)
                        if bits >> idx & 1
                    )
                )
                for p in permutations(range(n))
            )
            if canon in seen:
                continue
            seen.add(canon)
            g = Graph(n, adj)
            if is_connected(g):
                yield f"graph(n={n},#{bits})", g


def run_suite(name: str, slow: bool = False):
    if name == "all":
        for s in SUITES:
            yield from run_suite(s, slow=slow)
    elif name in _SUITE_ROWS:
        yield from _SUITE_ROWS[name](slow)
    else:
        raise ValueError(f"unknown suite {name!r} (choose from {SUITES + ('all',)})")
