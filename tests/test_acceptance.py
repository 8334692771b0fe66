"""Acceptance criteria, one test per criterion.

Each test prints a single [criterion NN] PASS line on success (visible with
-s or in captured output) and asserts both the exact expected values and the
stated wall-clock budget.  Everything runs hermetically; the 8-vertex corpus
for the batch-count criterion is built on first use and cached under
tests/data/.
"""

import random
import time
from collections import Counter

import pytest

from ramat.graphs import (
    binary_graph,
    crown,
    cube,
    girth,
    graph6_decode,
    graph6_encode,
    is_connected,
    kneser,
    kneser_vertices,
)
from ramat.intlin import (
    IntMatrix,
    hermite_normal_form,
    kernel_basis_mod_p,
    smith_normal_form,
)
from ramat.products import pyramid, strong
from ramat.ra_core import (
    classify,
    elementary_divisors,
    is_neighborly,
    is_positively_neighborly,
    ra_matrix,
)
from ramat import theorems, verify
from ramat.cli import main

from support import (
    connected_8_vertex_file,
    random_graph,
    random_int_matrix,
    random_permutation_matrix,
    mat_mul,
    ref_kronecker,
)


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS  {detail}")


def _status(g):
    c = classify(g)
    return c.status


def test_criterion_01_hermite_pivots():
    t0 = time.perf_counter()
    h1 = hermite_normal_form(IntMatrix([[2, 1], [0, 2]]))
    h2 = hermite_normal_form(IntMatrix([[1, 2], [2, 0]]))
    elapsed = time.perf_counter() - t0
    assert h1.diagonal == (2, 2)
    assert h2.diagonal == (1, 4)
    assert h2.matrix.data == ((1, 2), (0, 4))
    assert elapsed < 0.1
    _report(1, f"pivots [2,2] and [1,4] in {elapsed * 1000:.2f} ms")


def test_criterion_02_cube_chain():
    t0 = time.perf_counter()
    for d in (2, 4, 6):
        assert _status(cube(d)) == "RA", f"Q_{d}"
    for d in (3, 5):
        assert _status(cube(d)) == "1/2-RA", f"Q_{d}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(2, f"Q_2..Q_6 alternation in {elapsed:.2f} s")


def test_criterion_03_crown_family():
    t0 = time.perf_counter()
    for half in range(4, 11):
        assert _status(crown(2 * half)) == f"1/{half - 2}-RA"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(3, f"crown(8)..crown(20) in {elapsed:.2f} s")


def test_criterion_04_kneser_table():
    t0 = time.perf_counter()
    for (n, p), want in verify.KNESER_TABLE.items():
        c = classify(kneser(n, p))
        got = dict(Counter(d for d in c.divisors if d > 1))
        assert got == want, f"Kn({n},{p})"
        assert c.nullity == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(4, f"table entries through (12,2) and (9,3) in {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_04_kneser_table_slow_entries():
    for (n, p), want in verify.KNESER_TABLE_SLOW.items():
        c = classify(kneser(n, p))
        got = dict(Counter(d for d in c.divisors if d > 1))
        assert got == want, f"Kn({n},{p})"
    _report(4, "slow table entries (14,2)..(15,3)")


def test_criterion_05_kernel_graphs():
    t0 = time.perf_counter()
    for s in verify.KERNEL_GRAPH6:
        c = classify(graph6_decode(s))
        assert c.divisors == (1,) * 9 + (0,)
        assert c.nullity == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    _report(5, f"both 10-vertex kernel graphs in {elapsed * 1000:.1f} ms")


def test_criterion_06_girth3_minimal_half_ra():
    cases = [pyramid(crown(8))] + [
        graph6_decode(s) for s in verify.GIRTH3_MINIMAL_GRAPH6
    ]
    for g in cases:
        assert girth(g) == 3
        assert _status(g) == "1/2-RA"
    _report(6, "pyramid(crown(8)) and both graph6 witnesses are girth-3 1/2-RA")


def test_criterion_07_z_sequence():
    t0 = time.perf_counter()
    for n in range(2, 513):
        theorems.z(n)  # internal recurrence/closed-form cross-assertion
    for n in range(2, 41):
        assert classify(binary_graph(n)).nullity == theorems.z(n)
    assert [n for n in range(2, 16) if theorems.z(n) > 0][0] == 8
    assert theorems.z(8) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(7, f"z(n) forms to 512, nullities to Bg(40) in {elapsed:.1f} s")


def test_criterion_08_prescribed_construction():
    t0 = time.perf_counter()
    for chain, r in (([2], 0), ([3], 0), ([2, 4], 0), ([2, 2], 1), ([6], 2)):
        g = theorems.construct_prescribed(chain, r)
        c = classify(g)
        assert sorted(d for d in c.divisors if d > 1) == sorted(chain), chain
        assert c.nullity == r, (chain, r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(8, f"five prescribed chains verified in {elapsed:.1f} s")


def test_criterion_09_predictor_cross_validation():
    t0 = time.perf_counter()
    rows = list(verify.suite_predictors())
    failures = [r for r in rows if r[-1] != "pass"]
    applicable = len(rows) - 1  # final row is the corpus-size check
    elapsed = time.perf_counter() - t0
    assert not failures, failures[:10]
    assert applicable >= 200
    assert rows[-1][-1] == "pass"  # corpus itself has >= 200 graphs
    assert elapsed < 900
    _report(9, f"{applicable} applicable predictions, 0 mismatches, {elapsed:.1f} s")


def test_criterion_10_strong_product_kronecker():
    rng = random.Random(20250809)
    for trial in range(20):
        a = random_graph(rng, rng.randrange(2, 7), 0.5)
        b = random_graph(rng, rng.randrange(2, 7), 0.5)
        ca = ra_matrix(a).matrix
        cb = ra_matrix(b).matrix
        cs = ra_matrix(strong(a, b)).matrix
        kron = ref_kronecker(ca.data, cb.data)
        assert Counter(cs.data) == Counter(r for r in kron if any(r))
        pred = theorems.strong_product_divisors(a, b)
        direct = elementary_divisors(strong(a, b)).divisors
        assert theorems.divisor_prime_profile(pred) == (
            theorems.divisor_prime_profile(direct)
        ), trial
    _report(10, "20 random pairs: row multisets and prime profiles match")


def test_criterion_11_kneser_kernel_vectors():
    for (n, p) in ((6, 2), (9, 3)):
        cm = ra_matrix(kneser(n, p)).matrix
        for x in kneser_vertices(n, p):
            vec = theorems.kneser_kernel_vector(n, p, x)
            assert all(r % p == 0 for r in cm.mul_vector(vec))
    for (n, p), want in (((6, 2), 4), ((7, 2), 6), ((9, 3), 7)):
        assert theorems.kneser_kernel_span_dim(n, p) == want
        vecs = [
            theorems.kneser_kernel_vector(n, p, x)
            for x in kneser_vertices(n, p)
        ]
        mat = IntMatrix(vecs)
        assert mat.cols - len(kernel_basis_mod_p(mat, p)) == want
    _report(11, "annihilation mod 2/3 and span dims 4, 6, 7")


def test_criterion_12_group_oracle():
    from ramat.group_oracle import (
        commutator_subgroup,
        dihedral,
        graph_power,
        heisenberg,
        is_G_RA,
        matrix_power,
    )
    from support import connected_graphs_up_to_iso

    t0 = time.perf_counter()
    h2 = heisenberg(2)
    comm = commutator_subgroup(h2)
    checked = 0
    for n in range(1, 5):
        for g in connected_graphs_up_to_iso(n):
            divisors = elementary_divisors(g).divisors
            k = sum(1 for d in divisors if d % 2 == 0)
            assert is_G_RA(h2, g) == (k == 0)
            power = graph_power(h2, g)
            inter = sum(1 for t in power if all(a in comm for a in t))
            assert inter == 2 ** (g.n - k)
            checked += 1
    assert checked == 10  # 1 + 1 + 2 + 6 connected graphs on <= 4 vertices
    d8 = dihedral(8)
    assert len(matrix_power(d8, IntMatrix([[1, 0], [0, 4]]))) == 8
    assert len(matrix_power(d8, IntMatrix([[1, 2], [0, 4]]))) == 16
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(12, f"10 graphs exhaustively + D8 matrix orders in {elapsed:.1f} s")


def _batch_counts(capsys, path) -> Counter:
    """Category counts from ``ramat batch PATH --workers 2``'s TSV table."""
    assert main(["batch", str(path), "--workers", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "girth\tcategory\tcount"
    counts = Counter()
    for row in rows[1:-1]:
        band, category, count = row.split("\t")
        counts[(band, category)] = int(count)
    assert sum(counts.values()) == int(rows[-1].split("\t")[2])
    return counts


def test_criterion_13_eight_vertex_table(capsys):
    corpus = connected_8_vertex_file()
    t0 = time.perf_counter()
    lines = [
        s.strip() for s in corpus.read_text().splitlines() if s.strip()
    ]
    assert len(lines) == 11117
    counts = _batch_counts(capsys, corpus)
    elapsed = time.perf_counter() - t0
    want = {
        ("3", "nbhd-indistinguishable"): 3675,
        ("3", "nbhd-distinguishable-ra"): 7175,
        ("3", "nbhd-distinguishable-not-ra"): 0,
        ("4", "ra"): 219,
        ("4", "not-ra"): 1,
        ("5+", "all"): 47,
    }
    assert {k: counts.get(k, 0) for k in want} == want
    assert sum(counts.values()) == 11117
    assert elapsed < 600
    _report(13, f"8-vertex table 3675/7175/0/219/1/47 in {elapsed:.1f} s")


def test_criterion_14a_snf_chain_and_permutation_invariance():
    rng = random.Random(140)
    for _ in range(1000):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = random_int_matrix(rng, rows, cols)
        divisors = smith_normal_form(IntMatrix(m)).divisors
        nonzero = [d for d in divisors if d]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert list(divisors[len(nonzero):]) == [0] * (len(divisors) - len(nonzero))
        p = random_permutation_matrix(rng, rows)
        q = random_permutation_matrix(rng, cols)
        assert (
            smith_normal_form(IntMatrix(mat_mul(mat_mul(p, m), q))).divisors
            == divisors
        )
    _report(14, "SNF chain + permutation invariance, 1000 cases")


def test_criterion_14b_planted_kernel():
    rng = random.Random(141)
    for _ in range(1000):
        q = rng.choice([2, 3, 4, 5, 6, 7, 9, 12])
        n = rng.randint(2, 6)
        x = [rng.randint(-3, 3) for _ in range(n)]
        j0 = rng.randrange(n)
        x[j0] = 1
        mat = []
        for _ in range(rng.randint(2, 6)):
            row = [rng.randint(-6, 6) for _ in range(n)]
            dot = sum(a * b for a, b in zip(row, x))
            row[j0] -= dot
            for k in range(n):
                row[k] += q * rng.randint(-2, 2)
            mat.append(row)
        sf = smith_normal_form(IntMatrix(mat))
        padded = sf.divisors + (0,) * (n - len(sf.divisors))
        assert any(d == 0 or d % q == 0 for d in padded)
    _report(14, "planted mod-q kernels force a divisible divisor, 1000 cases")


def test_criterion_14c_graph6_round_trip():
    rng = random.Random(142)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 24), rng.random())
        assert graph6_decode(graph6_encode(g)) == g
    _report(14, "graph6 round trip, 1000 random graphs")


def test_criterion_14d_girth4_positively_neighborly():
    corpus = verify.standard_corpus()
    checked = 0
    for entry in corpus:
        g = entry.graph
        if g.n <= 30 and is_connected(g) and girth(g) == 4:
            assert is_positively_neighborly(g), entry.name
            checked += 1
    assert checked >= 15
    _report(14, f"positive neighborliness on {checked} girth-4 corpus graphs")


def test_criterion_14e_cartesian_products_neighborly():
    corpus = verify.standard_corpus()
    checked = 0
    for entry in corpus:
        if entry.kind in ("cartesian", "prism") and entry.graph.n <= 30:
            assert is_neighborly(entry.graph), entry.name
            checked += 1
    assert checked >= 40
    _report(14, f"neighborliness on {checked} cartesian corpus products")


@pytest.mark.slow
def test_nine_vertex_table_column(capsys, tmp_path):
    """Full 9-vertex column of the category table (slow: generates 261080
    graphs up to isomorphism and classifies them all)."""
    from support import connected_graphs_up_to_iso

    graphs = connected_graphs_up_to_iso(9)
    assert len(graphs) == 261080
    path = tmp_path / "connected9.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in graphs), encoding="ascii")
    counts = _batch_counts(capsys, path)
    assert counts[("3", "nbhd-indistinguishable")] == 63308
    assert counts[("3", "nbhd-distinguishable-ra")] == 196389
    assert counts[("3", "nbhd-distinguishable-not-ra")] == 3
    assert counts[("4", "ra")] == 1243
    assert counts[("4", "not-ra")] == 0
    assert counts[("5+", "all")] == 137
    _report(13, "9-vertex table column 63308/196389/3/1243/0/137")
