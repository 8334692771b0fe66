"""Activation and RA matrices, divisors, classification, and pair signs."""

import hashlib
import random
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramat.graphs import (
    Graph,
    complete,
    connected_components,
    crown,
    cube,
    cycle,
    degree,
    folded_cube,
    girth,
    graph6_decode,
    graph6_encode,
    is_bipartite,
    is_connected,
    is_neighborhood_distinguishable,
    kneser,
    path,
    subgraph,
)
from ramat import graphs, intlin, ra_core
from ramat.cli import BATCH_CATEGORIES, batch_category
from ramat.intlin import IntMatrix, hermite_normal_form, kernel_basis_mod_p
from ramat.products import cartesian, disjoint_union, join, pyramid, strong
from ramat.ra_core import (
    classification_record,
    classify,
    elementary_divisors,
    is_neighborly,
    is_negatively_neighborly,
    is_positively_neighborly,
    is_ra,
    kernel_mod_p,
    pair_sign,
    ra_lattice,
    ra_matrix,
)
from ramat.theorems import (
    construct_prescribed,
    mu_negatively_neighborly,
    mu_neighborly,
)

from support import (
    activation_rows,
    are_isomorphic,
    connected_8_vertex_file,
    connected_graphs_up_to_iso,
    lane_expectation,
    plain_peel,
    ra_row_masks,
    random_graph,
    with_closed_twins,
    ref_axis_multiple,
    ref_contains,
    ref_hermite,
    ref_smith_divisors,
)


class TestActivationMatrix:
    def test_k3_all_ones(self):
        assert IntMatrix(activation_rows(complete(3))).data == ((1, 1, 1),) * 3

    def test_p3(self):
        assert IntMatrix(activation_rows(path(3))).data == (
            (1, 1, 0), (1, 1, 1), (0, 1, 1),
        )

    def test_symmetric_unit_diagonal(self):
        rng = random.Random(1)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            m = IntMatrix(activation_rows(g))
            assert all(m.data[i][i] == 1 for i in range(g.n))
            assert m == m.transpose()


class TestRAMatrix:
    def test_p3_rows(self):
        rm = ra_matrix(path(3))
        assert set(rm.matrix.data) == {
            (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 1, 0),
        }
        assert len(rm.matrix.data) == 4

    def test_complete_graph_single_row(self):
        for n in (2, 3, 5):
            rm = ra_matrix(complete(n))
            assert rm.matrix.data == ((1,) * n,)

    def test_no_zero_or_duplicate_rows(self):
        rng = random.Random(2)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), 0.4)
            rm = ra_matrix(g)
            rows = rm.matrix.data
            assert len(set(rows)) == len(rows)
            assert all(any(r) for r in rows)

    def test_rows_are_sources_in_first_seen_order(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            assert ra_matrix(g).matrix.data == expected_ra_rows(g)

    def test_crown8_row_count(self):
        # 8 neighborhoods first, then the new nonzero pair intersections
        g = crown(8)
        rows = ra_matrix(g).matrix.data
        assert rows[:8] == tuple(
            tuple(g.closed_mask(v) >> j & 1 for j in range(8)) for v in g.vertices()
        )
        assert rows == expected_ra_rows(g)


def expected_ra_rows(g):
    """The distinct nonzero masks of N[1..n], then of N[u] & N[v] for u < v,
    in first-seen order, as 0/1 rows."""
    sources = [g.closed_mask(v) for v in g.vertices()]
    sources += [g.closed_mask(u) & g.closed_mask(v)
                for u, v in combinations(g.vertices(), 2)]
    rows = []
    for m in sources:
        if m and m not in rows:
            rows.append(m)
    return tuple(tuple(m >> j & 1 for j in range(g.n)) for m in rows)


class TestElementaryDivisors:
    def test_cube3(self):
        assert elementary_divisors(cube(3)).divisors == (1,) * 7 + (2,)

    def test_kneser_6_2(self):
        assert elementary_divisors(kneser(6, 2)).divisors == (1,) * 11 + (2,) * 4

    def test_k3(self):
        sf = elementary_divisors(complete(3))
        assert sf.divisors == (1, 0, 0)
        assert sf.nullity == 2

    def test_padding_length_always_n(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), 0.4)
            assert len(elementary_divisors(g).divisors) == g.n

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            perm = list(range(g.n))
            rng.shuffle(perm)
            adj = [0] * g.n
            for u in range(g.n):
                for w in range(g.n):
                    if g.adj[u] >> w & 1:
                        adj[perm[u]] |= 1 << perm[w]
            from ramat.graphs import Graph

            h = Graph(g.n, adj)
            assert (
                elementary_divisors(g).divisors
                == elementary_divisors(h).divisors
            )


class TestClassify:
    def test_cube_chain(self):
        assert classify(cube(4)).status == "RA"
        c = classify(cube(3))
        assert c.status == "1/2-RA" and c.mu == 2

    def test_crown_family(self):
        for half in range(4, 9):
            c = classify(crown(2 * half))
            assert c.status == f"1/{half - 2}-RA"
            assert c.mu == half - 2

    def test_kernel_graph_general(self):
        c = classify(graph6_decode("I?otQji\\O"))
        assert c.status == "general"
        assert c.divisors == (1,) * 9 + (0,)
        assert c.nullity == 1

    def test_pyramid_axis_multiple_of_apex_is_one(self):
        from ramat.products import pyramid

        c = classify(pyramid(crown(10)))
        assert c.status == "1/3-RA"
        assert c.axis_multiples[0] == 1
        assert set(c.axis_multiples[1:]) == {3}

    def test_a_proper_divisor_as_axis_multiple_is_general(self, monkeypatch):
        # crown(12) has divisors 1,...,1,4 and nullity 0, with every axis
        # multiple 4; no known graph has a multiple 1 < a < k, so one is
        # planted: the definition rejects it, and so does the verdict
        real = intlin._Quotient.axis_multiples

        def planted(self):
            return (2,) + real(self)[1:]

        monkeypatch.setattr(intlin._Quotient, "axis_multiples", planted)
        c = classify(crown(12))
        assert c.divisors == (1,) * 11 + (4,) and c.nullity == 0
        assert (c.status, c.mu, c.nonuniform_axis) == ("general", None, True)
        assert c.axis_multiples == (2,) + (4,) * 11

    def test_ra_iff_all_divisors_one(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            if not is_connected(g):
                continue
            c = classify(g)
            assert (c.status == "RA") == all(d == 1 for d in c.divisors)
            if c.status == "RA":
                assert set(c.axis_multiples) == {1}

    def test_axis_divides_last_divisor_full_rank(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), 0.6)
            if not is_connected(g):
                continue
            c = classify(g)
            if c.nullity == 0:
                top = c.divisors[-1]
                assert all(top % a == 0 for a in c.axis_multiples)

    def test_disconnected_gives_component_list(self):
        g = disjoint_union([complete(3), path(3)])
        out = classify(g)
        assert isinstance(out, list) and len(out) == 2
        assert out[0].status == "general"  # K3
        assert out[1].status == "RA"  # P3

    def test_record_fields(self):
        g = crown(10)
        rec = classification_record(g)
        assert rec == {
            "n": 10,
            "girth": 4,
            "bipartite": True,
            "connected": True,
            "divisors": [1] * 9 + [3],
            "nullity": 0,
            "status": "1/3-RA",
            "mu": 3,
            "axis_multiples": [3] * 10,
        }

    def test_record_rejects_disconnected_without_classification(self):
        g = disjoint_union([complete(2), complete(2)])
        with pytest.raises(ValueError):
            classification_record(g)


def forget_lattice():
    """Empty the memo of the latest graph's basis and presentation."""
    ra_core._latest_basis.cache_clear()
    ra_core._latest_quotient.cache_clear()


def _count_builds(monkeypatch) -> list:
    """Record the dimension of every echelon build from now on, starting
    from an empty lattice memo."""
    builds = []
    real = intlin._echelon_basis

    def counted(rows, n):
        builds.append(n)
        return real(rows, n)

    monkeypatch.setattr(intlin, "_echelon_basis", counted)
    forget_lattice()
    return builds


def peeled(g) -> int:
    """Columns the echelon engine peels off the RA rows of g, read off the
    ``stats`` of a build of its masks."""
    stats = {}
    intlin._build(ra_core._ra_masks(g), g.n, stats)
    return stats["peeled"]


def oracle_peeled(g) -> int:
    """Columns the pairwise peel oracle takes off the RA rows of g."""
    return plain_peel(ra_row_masks(g)).bit_count()


class TestOneLatticePerGraph:
    def test_one_echelon_build_per_connected_graph(self, monkeypatch):
        # one build per graph, of its RA masks over all n columns, closed
        # twins or not.  path(4) peels every column and builds Z^4 with no
        # insert; the apex of the pyramid peels and the others do not,
        # complete(5) (all five vertices twins) included, and each build
        # takes in every row it was given
        builds = []

        def counted(rows, n):
            stats = {}
            e = intlin._build(rows, n, stats)
            assert stats["rows_in"] == len(rows)
            builds.append((n, stats["peeled"], stats["inserts"] == 0))
            return e

        monkeypatch.setattr(intlin, "_echelon_basis", counted)
        for g, k in ((path(4), 4), (pyramid(crown(8)), 1), (cube(3), 0),
                     (crown(10), 0), (kneser(6, 2), 0), (complete(5), 0)):
            assert peeled(g) == k == oracle_peeled(g)
            for fn in (classify, elementary_divisors):
                forget_lattice()
                builds.clear()
                fn(g)
                want = [(4, 4, True)] if g == path(4) else [(g.n, k, False)]
                assert builds == want, (fn.__name__, g)

    def test_consumers_of_one_graph_share_one_build(self, monkeypatch):
        # one build and one presentation of Z^n/L per graph, both over its
        # n columns, closed twins or not: strong(crown(20), K2) has 20
        # classes of two
        builds = _count_builds(monkeypatch)
        presented = []
        init = intlin._Quotient.__init__

        def logged_init(self, e):
            presented.append(e.n)
            init(self, e)

        monkeypatch.setattr(intlin._Quotient, "__init__", logged_init)
        g = crown(10)
        classify(g)
        elementary_divisors(g)
        assert is_neighborly(g)
        assert mu_neighborly(g, is_bipartite(g)).mu == 3
        mu_negatively_neighborly(g)
        assert pair_sign(g, *g.edges()[0]) == "positive"
        assert builds == presented == [g.n]
        builds.clear()
        presented.clear()
        g = strong(crown(20), complete(2))
        assert classify(g).status == "general"
        pair_sign(g, *g.edges()[0])
        kernel_mod_p(g, 2)
        assert builds == presented == [40]

    def test_equal_graph_hits_and_another_graph_rebuilds(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        g = crown(10)
        classify(g)
        same = graph6_decode(graph6_encode(g))
        assert same is not g
        classify(same)
        assert builds == [10]
        classify(cube(3))
        classify(same)
        assert builds == [10, 8, 10]

    def test_hit_equals_a_fresh_build(self):
        forget_lattice()
        for g in (path(4), kneser(6, 2), disjoint_union([complete(3), path(3)])):
            want = hermite_normal_form(ra_matrix(g).matrix)
            assert ra_lattice(g) == want  # builds the graph's lattice
            assert ra_lattice(g) == want  # derives again from the kept one


class TestBuildStats:
    """The counts ``intlin._build`` reports for an RA lattice, one graph
    per path: path(4) peels by singletons, G??F~w (one of the 1 196 RA
    corpus graphs that singletons alone do not peel) by the difference
    rule alone, cube(3) is inserted, and Kn(12,3) finishes in its
    quotient, with the counts it had before the difference rule."""

    def stats(self, g) -> dict:
        stats = {}
        intlin._build(ra_core._ra_masks(g), g.n, stats)
        return stats

    def test_small_graphs(self):
        zero = dict(answered=0, checked=0, absorbed=0, remakes=0,
                    smith_rounds=0, max_width=16)
        assert self.stats(path(4)) == dict(
            zero, path="peeled", rows_in=7, peeled=4, paired=0, inserts=0,
            changes=0)
        g = graph6_decode("G??F~w")
        assert oracle_peeled(g) == 8 and plain_peel(ra_row_masks(g),
                                                    pairs=False) == 0
        assert self.stats(g) == dict(
            zero, path="peeled", rows_in=22, peeled=8, paired=8, inserts=0,
            changes=0)
        assert self.stats(cube(3)) == dict(
            zero, path="inserts", rows_in=32, peeled=0, paired=0, inserts=32,
            changes=8)

    def test_kneser_12_3(self):
        assert self.stats(kneser(12, 3)) == dict(
            path="quotient", rows_in=10747, peeled=0, paired=0,
            answered=9464, checked=490, absorbed=52, remakes=12, inserts=793,
            changes=186, smith_rounds=22, max_width=64)


def _count_full_bases(monkeypatch) -> list:
    """Record every full-width basis ``ra_lattice`` derives from now on,
    starting from an empty lattice memo."""
    made = []
    real = ra_core._form_of

    def counted(e):
        made.append(e.n)
        return real(e)

    monkeypatch.setattr(ra_core, "_form_of", counted)
    forget_lattice()
    return made


class TestFullBasisOnDemand:
    GRAPHS = (path(4), cube(3), crown(10), kneser(6, 2), complete(5))

    def test_divisors_verdicts_and_batch_build_none(self, monkeypatch):
        made = _count_full_bases(monkeypatch)
        for g in self.GRAPHS:
            classify(g)
            elementary_divisors(g)
            batch_category(g)
            is_ra(g)
        assert made == []

    def test_sign_queries_on_one_graph_build_one(self, monkeypatch):
        # sign queries read the quotient and derive no full basis; each
        # ra_lattice call derives exactly one and keeps none
        for g in self.GRAPHS:
            made = _count_full_bases(monkeypatch)
            classify(g)
            pair_sign(g, *g.edges()[0])
            is_neighborly(g)
            mu_neighborly(g, is_bipartite(g) or (g.vertices(), ()))
            assert made == []
            ra_lattice(g)
            assert made == [g.n]
            ra_lattice(g)
            assert made == [g.n, g.n]


class TestBatchCategory:
    def test_closed_classes_made_once_per_batch_graph(self, monkeypatch):
        # a girth-3 graph asks for its closed-twin classes once, and its
        # lattice, if it has no twins, does not ask again; a girth-4 graph
        # (never with twins) asks for none, and a girth-3 graph with closed
        # twins builds no lattice
        calls, lattices = [], []
        real_classes, real_build = graphs._closed_classes, intlin._echelon_basis

        def counted_classes(g):
            calls.append(g)
            return real_classes(g)

        def counted_build(rows, n):
            lattices.append(n)
            return real_build(rows, n)

        monkeypatch.setattr(graphs, "_closed_classes", counted_classes)
        monkeypatch.setattr(intlin, "_echelon_basis", counted_build)
        seen = set()
        for line in connected_8_vertex_file().read_text().split():
            g = graph6_decode(line)
            forget_lattice()
            calls.clear()
            lattices.clear()
            band, category = batch_category(g)
            twins = category == "nbhd-indistinguishable"
            assert calls == ([g] if band == "3" else []), line
            assert lattices == ([g.n] if band in "34" and not twins else []), line
            seen.add((band, category))
        # no connected 8-vertex graph is twin-free, of girth 3 and not RA
        assert seen == set(BATCH_CATEGORIES) - {("3", "nbhd-distinguishable-not-ra")}


def old_batch_category(g):
    """``batch_category`` with RA read off the Smith divisors."""
    gi = girth(g)
    if gi not in (3, 4):
        return ("5+", "all")
    if gi == 3 and not is_neighborhood_distinguishable(g):
        return ("3", "nbhd-indistinguishable")
    ra = all(d == 1 for d in elementary_divisors(g).divisors)
    if gi == 3:
        return ("3", "nbhd-distinguishable-ra" if ra else "nbhd-distinguishable-not-ra")
    return ("4", "ra" if ra else "not-ra")


class TestSaturatedCore:
    def test_shortcut_matches_the_smith_and_axis_path(self):
        # a lattice whose pivots are all 1 has an empty block H in its
        # quotient, and one with another pivot does not; both kinds, on
        # graphs that do not peel every column, must answer like the full
        # build
        rng = random.Random(23)
        cases = [graph6_decode("G?zTb_"), cube(3), kneser(6, 2), path(4)]
        while len(cases) < 60:
            g = random_graph(rng, rng.randint(1, 14), rng.choice((0.2, 0.4, 0.6)))
            if is_connected(g):
                cases.append(g)
        kinds = set()
        for g in cases:
            n = g.n
            rows = ra_matrix(g).matrix.data
            ref = ref_smith_divisors(rows)
            ref += [0] * (n - len(ref))
            sf = elementary_divisors(g)
            c = classify(g)
            assert list(sf.divisors) == ref, graph6_encode(g)
            assert sf.nullity == ref.count(0) == n - sf.rank
            assert c.divisors == sf.divisors and c.nullity == sf.nullity
            assert c.axis_multiples == tuple(
                ref_axis_multiple(rows, i) for i in range(1, n + 1))
            assert is_ra(g) == all(d == 1 for d in ref)
            if peeled(g) < n:
                kinds.add(set(ra_core._latest_basis(g).pivots.values()) == {1})
        assert kinds == {True, False}

    def test_batch_ra_question_matches_the_divisors(self):
        for n in range(1, 7):
            for g in connected_graphs_up_to_iso(n):
                assert batch_category(g) == old_batch_category(g), graph6_encode(g)


class TestQuotientBlock:
    def test_smith_rounds_run_on_the_block_alone(self, monkeypatch):
        # Z^220/L = (Z/3)^10 for Kn(12,3): the Smith rounds get the 10
        # columns of the block H, never the 220-column lattice, and ra_core's
        # presentation runs them once for its divisors and axis multiples
        calls = []
        real = intlin._smith_coordinates

        def recorded(rows, m):
            calls.append((m, {len(r) for r in rows}))
            return real(rows, m)

        monkeypatch.setattr(intlin, "_smith_coordinates", recorded)
        forget_lattice()
        ra_core._latest_basis(kneser(12, 3))
        built = calls[:]
        calls.clear()
        c = classify(kneser(12, 3))
        assert c.divisors == (1,) * 210 + (3,) * 10
        assert c.axis_multiples == (3,) * 220
        assert calls == [(10, {10})]
        assert built and all(m < 220 for m, _ in built)

    def test_an_empty_block_runs_no_smith_round(self, monkeypatch):
        # every non-RA connected graph on at most 6 vertices has a lattice
        # whose pivots are all 1 with an unpeeled column left over: H is
        # empty and Z^Q is free, so its divisors and orders need no Smith
        # round
        real = intlin._smith_coordinates

        def no_round(rows, m):
            d, vt, rounds = real(rows, m)
            assert not rows and rounds == 0, "Smith round on an empty block"
            return d, vt, rounds

        monkeypatch.setattr(intlin, "_smith_coordinates", no_round)
        seen = 0
        for n in range(1, 7):
            for g in connected_graphs_up_to_iso(n):
                forget_lattice()
                q = ra_core._latest_quotient(g)
                if not q.q:  # RA
                    continue
                seen += 1
                assert q.q and not q.h.rows and len(q.q) <= n - peeled(g)
                rows = ra_matrix(g).matrix.data
                ref = ref_smith_divisors(rows)
                c = classify(g)
                assert list(c.divisors) == ref + [0] * (n - len(ref))
                assert c.axis_multiples == tuple(
                    ref_axis_multiple(rows, i) for i in range(1, n + 1))
                for u, v in combinations(g.vertices(), 2):
                    e = [0] * n
                    e[u - 1] = e[v - 1] = 1
                    assert q.contains(u - 1, v - 1, 1) == ref_contains(rows, e)
        assert seen == 66

    def test_build_stays_in_the_quotient(self, monkeypatch):
        # once Kn(12,3)'s build moves to its quotient, no row is inserted
        # over the 220 columns again
        log, stats = [], {}
        add, init = intlin._Echelon.add, intlin._Quotient.__init__

        def logged_add(self, row):
            log.append(self.n)
            return add(self, row)

        def logged_init(self, e):
            log.append("moved")
            init(self, e)

        monkeypatch.setattr(intlin._Echelon, "add", logged_add)
        monkeypatch.setattr(intlin._Quotient, "__init__", logged_init)
        monkeypatch.setattr(intlin, "_echelon_basis",
                            lambda rows, n: intlin._build(rows, n, stats))
        forget_lattice()
        c = classify(kneser(12, 3))
        assert c.divisors == (1,) * 210 + (3,) * 10
        moved = log.index("moved")
        assert log[:moved].count(220) == stats["inserts"] < 1000
        assert 220 not in log[moved:]
        assert stats["rows_in"] == 10747
        assert stats["absorbed"] > 0 and stats["remakes"] > 0


def assert_peel_matches_full_build(g):
    """The peeled lattice answers exactly like one echelon build over the
    whole RA matrix: the same Hermite basis, and the textbook oracles' divisors
    and axis multiples read off that basis."""
    full = hermite_normal_form(ra_matrix(g).matrix)
    assert ra_lattice(g) == full
    ref = ref_smith_divisors(full.matrix.data)
    assert list(elementary_divisors(g).divisors) == ref + [0] * (g.n - len(ref))
    comps = connected_components(g)
    parts = [g] if len(comps) == 1 else [subgraph(g, comp) for comp in comps]
    verdicts = classify(g)
    if len(comps) == 1:
        verdicts = [verdicts]
    for part, c in zip(parts, verdicts):
        h = full if part is g else hermite_normal_form(ra_matrix(part).matrix)
        assert c.axis_multiples == tuple(
            ref_axis_multiple(h.matrix.data, i) for i in range(1, part.n + 1))


class TestPeel:
    def test_random_graphs_up_to_30_vertices(self):
        rng = random.Random(19)
        for trial in range(60):
            p = rng.choice((0.05, 0.15, 0.3, 0.6, 0.9))
            g = random_graph(rng, rng.randint(1, 30), p)
            if trial % 3 == 0:  # isolated vertices on either side
                g = disjoint_union([complete(1), g, complete(1)])
            assert_peel_matches_full_build(g)

    def test_disconnected_unions(self):
        assert_peel_matches_full_build(disjoint_union([cube(3), path(5), complete(4)]))
        assert_peel_matches_full_build(disjoint_union([complete(1)] * 3))

    def test_kneser_graphs(self):
        for p in ((6, 2), (8, 2), (10, 2), (12, 2), (9, 3)):
            assert_peel_matches_full_build(kneser(*p))

    @pytest.mark.slow
    def test_every_connected_8_vertex_graph(self):
        for line in connected_8_vertex_file().read_text().split():
            g = graph6_decode(line)
            assert_peel_matches_full_build(g)
            assert batch_category(g) == old_batch_category(g), line

    @pytest.mark.slow
    def test_kneser_12_3(self):
        assert_peel_matches_full_build(kneser(12, 3))


def lane_pool() -> list:
    """Every labelled graph on 5 vertices, then on 1 to 4, then seeded
    random graphs with planted closed twins for every n up to the lanes'
    cutoff, connected or not."""
    pool = []
    for n in (5, 1, 2, 3, 4):
        pairs = list(combinations(range(n), 2))
        for edges in range(1 << len(pairs)):
            adj = [0] * n
            for k, (u, v) in enumerate(pairs):
                if edges >> k & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            pool.append(Graph(n, adj))
    rng = random.Random(31)
    for n in range(1, graphs._LANES_MAX_N + 1):
        for p in (0.05, 0.15, 0.3, 0.5, 0.8):
            pool += [with_closed_twins(rng, random_graph(rng, n, p)) for _ in range(4)]
    return pool


def lane_run(chunk: list) -> list:
    """((reps, single, done), verdict) for each graph of a chunk, read off
    the lanes ``graphs._graph6_chunk`` decodes its graph6 lines into; the
    graphs all decode there."""
    decoded, lanes = graphs._graph6_chunk([graph6_encode(g) for g in chunk])
    assert decoded == chunk
    out = [None] * len(chunk)
    for n, (picked, adj) in lanes.items():
        peel = zip(*ra_core._lane_peel(adj, n, len(picked)))
        verdicts = ra_core._lane_verdicts(n, adj, len(picked))
        for i, (done, reps, single), c in zip(picked, peel, verdicts):
            out[i] = (reps, single, bool(done)), c
    assert None not in out
    return out


class TestLanes:
    @pytest.mark.parametrize("size", [1, 511, 512, 513])
    def test_against_the_closed_classes_peel_and_verdict(self, size):
        pool = lane_pool()
        decided = paired = 0
        for start in range(0, len(pool), size):
            chunk = pool[start:start + size]
            for g, (lane, c) in zip(chunk, lane_run(chunk)):
                want = lane_expectation(g)
                assert lane == want, graph6_encode(g)
                assert (c is not None) == want[2]
                if c is not None:
                    decided += 1
                    forget_lattice()
                    assert c == ra_core._verdict(g), graph6_encode(g)
                    reps = want[0]
                    rows = [m & reps for m in ra_row_masks(g)]
                    paired += plain_peel(rows, pairs=False) != reps
        # both kinds of lane occur, at every chunk size, and the
        # difference rounds decide lanes the singletons leave
        assert 0 < decided < len(pool)
        assert paired > 0

    def test_connected_lanes_leave_a_disconnected_graph_to_the_singletons(self):
        # analyze reads no verdict of a disconnected graph: with
        # connected=True its lane is decided by the singleton rounds or
        # not at all, and every other lane as without it
        pool = lane_pool()
        split = skipped = 0
        for start in range(0, len(pool), 512):
            chunk = pool[start:start + 512]
            _, lanes = graphs._graph6_chunk([graph6_encode(g) for g in chunk])
            for n, (picked, adj) in lanes.items():
                for i, c, d in zip(picked, ra_core._lane_verdicts(n, adj, len(picked)),
                                   ra_core._lane_verdicts(n, adj, len(picked), True)):
                    g = chunk[i]
                    if is_connected(g):
                        assert d == c
                        continue
                    split += 1
                    reps = lane_expectation(g)[0]
                    rows = [m & reps for m in ra_row_masks(g)]
                    assert (d is not None) == (plain_peel(rows, pairs=False) == reps)
                    assert d in (None, c)
                    skipped += c is not None and d is None
        # some of those are lanes the difference rounds would decide
        assert split > skipped > 0

    def test_a_lane_is_one_bit_wider_than_n(self):
        # the widest n of each lane width, with the guard bit as the lane's
        # top bit: K_n and the path are decided, and one graph is not.  The
        # join of crown(8) and a path is 1/2-RA.  The lanes decide every
        # graph on 7 vertices (all 1 044 were run), so there the undecided
        # lane is the prism and an isolated vertex, an RA graph, with
        # connected=True, which stops a disconnected graph's lane after the
        # singleton rounds
        for n in (7, 15, 31):
            hard = (disjoint_union([graphs.complement(cycle(6)), complete(1)])
                    if n == 7 else join(crown(8), path(n - 8)))
            chunk = [complete(n), path(n), hard] * 3
            _, lanes = graphs._graph6_chunk([graph6_encode(g) for g in chunk])
            (picked, adj), = lanes.values()
            assert picked == list(range(len(chunk)))
            for g, c in zip(chunk, ra_core._lane_verdicts(n, adj, len(chunk), n == 7)):
                forget_lattice()
                assert c == (None if g == hard else ra_core._verdict(g))

    def test_the_corpus_leaves_only_crown_8(self):
        # 11 116 of the 11 117 connected 8-vertex graphs are settled in
        # the lanes; crown(8), the 3-cube, is not RA
        lines = connected_8_vertex_file().read_text(encoding="ascii").split()
        left = []
        for start in range(0, len(lines), 512):
            chunk = lines[start:start + 512]
            decoded, lanes = graphs._graph6_chunk(chunk)
            (n, (picked, adj)), = lanes.items()
            assert n == 8 and picked == list(range(len(chunk)))
            left += [chunk[i] for i, c in zip(
                picked, ra_core._lane_verdicts(n, adj, len(picked))) if c is None]
        assert len(lines) == 11117
        assert left == ["G?zTb_"]
        assert are_isomorphic(graph6_decode(left[0]), crown(8))


# SHA-256 of to_text(), the pivot columns and the diagonal of the full
# Hermite basis, for large lattices no benchmark workload builds
LARGE_BASES = [
    ("Kn(14,2)", lambda: kneser(14, 2), True,
     "5b40b85a05cf0444646c609101d243ca2cb8cd8239b751580ef4a075771074ac"),
    ("Kn(16,2)", lambda: kneser(16, 2), True,
     "b84a92c1943ed2667e870d7bf9fd32f3e10a7fb2c9ccad9a2aabb248633c36e0"),
    ("cube(7)", lambda: cube(7), True,
     "0810ba7a4c0c2668ece76080d212cca18e6881cfebb3bd64e380284098bea045"),
    ("construct_prescribed([60],0)", lambda: construct_prescribed([60], 0),
     True,
     "9471fc2f44affab94fd420a7040ffbc38b6a0d4a64ae10b5e78a770aff360ce7"),
    ("Kn(12,3)", lambda: kneser(12, 3), True,
     "894164ebc392117f8b634caf8a0408d8ca40a1e64b33e1849de66d16f1ce1022"),
    # the dense rows of Kn(12,4) take about a minute, so only its masks
    ("Kn(12,4)", lambda: kneser(12, 4), False,
     "c5ca659494891f7a5cc08f8bae82e5aabac58701a4da84d893bc364d038874bb"),
]


@pytest.mark.slow
@pytest.mark.parametrize("build, dense, digest", [b[1:] for b in LARGE_BASES],
                         ids=[b[0] for b in LARGE_BASES])
def test_large_hermite_bases_are_pinned(build, dense, digest):
    g = build()
    # through the mask rows, which the engine peels, then the dense
    # integer rows, which it does not
    forms = [ra_lattice(g)]
    if dense:
        forms.append(hermite_normal_form(ra_matrix(g).matrix))
    for h in forms:
        text = "\n".join([h.matrix.to_text(), repr(h.pivot_columns),
                          repr(h.diagonal)])
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


class TestArrangementQuantifier:
    def test_hermite_diagonal_multiset_under_random_column_orders(self):
        # the 1/k verdict promises diagonal multiset {1^(n-1), k} for every
        # column arrangement; spot-check with random permutations, including
        # the pyramid whose apex multiple is 1
        from ramat.graphs import Graph
        from ramat.intlin import IntMatrix, hermite_normal_form
        from ramat.products import pyramid
        from support import connected_graphs_up_to_iso

        rng = random.Random(17)
        cases = [g for g in connected_graphs_up_to_iso(5)]
        cases += [crown(8), crown(10), pyramid(crown(8)), pyramid(crown(10))]
        for g in cases:
            c = classify(g)
            if c.mu is None:
                continue
            want = sorted([1] * (g.n - 1) + [c.mu])
            data = ra_matrix(g).matrix.data
            for _ in range(8):
                perm = list(range(g.n))
                rng.shuffle(perm)
                pm = IntMatrix([[row[j] for j in perm] for row in data])
                h = hermite_normal_form(pm)
                assert sorted(h.diagonal) == want, (g.n, c.status, perm)


class TestPairSignsAndNeighborliness:
    def test_k3_signs(self):
        assert pair_sign(complete(3), 1, 2) == "none"
        assert not is_neighborly(complete(3))

    def test_ra_graph_both(self):
        g = path(4)
        assert classify(g).status == "RA"
        for u, v in combinations(g.vertices(), 2):
            assert pair_sign(g, u, v) == "both"

    def test_girth4_positive(self):
        for g in (cube(3), crown(10), folded_cube(5), cycle(4)):
            assert girth(g) == 4
            assert is_positively_neighborly(g)

    def test_adjacent_pair_in_girth4_is_positive(self):
        g = crown(8)
        basis = ra_lattice(g).matrix.data
        for u, v in g.edges():
            e = [0] * g.n
            e[u - 1] += 1
            e[v - 1] += 1
            assert ref_contains(basis, e)

    def test_cartesian_products_neighborly(self):
        cases = [
            (complete(3), complete(3)),
            (path(3), cycle(5)),
            (cycle(4), complete(2)),
            (complete(4), path(2)),
        ]
        for a, b in cases:
            assert is_neighborly(cartesian(a, b))

    def test_negatively_neighborly_example(self):
        # prisms over non-bipartite graphs are negatively neighborly
        from ramat.products import prism

        assert is_negatively_neighborly(prism(complete(3)))

    def test_connected_neighborly_extends_to_all_pairs(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            if not is_connected(g) or not is_neighborly(g):
                continue
            checked += 1
            for u, v in combinations(g.vertices(), 2):
                assert pair_sign(g, u, v) != "none"
        assert checked >= 10

    def test_pair_sign_rejects_equal_vertices(self):
        with pytest.raises(ValueError):
            pair_sign(complete(3), 2, 2)

    def test_pair_sign_rejects_vertices_outside_1_to_n(self):
        for g, u, v in ((complete(3), 0, 1), (path(3), 0, 2), (path(3), 4, 1),
                        (path(3), 1, 4), (complete(3), -1, 2)):
            with pytest.raises(IndexError, match=f"out of range 1..{g.n}"):
                pair_sign(g, u, v)

    def test_every_pair_matches_the_full_basis(self):
        # the quotient answers like membership in the full Hermite basis,
        # on graphs that peel some columns but not all, one that peels
        # every column and one that peels none
        rng = random.Random(31)
        mixed = [pyramid(crown(8)), construct_prescribed([2, 4], 1)]
        while len(mixed) < 12:
            g = random_graph(rng, rng.randint(4, 9), 0.6)
            n = g.n
            tails = [(rng.randint(1, n), n + k) for k in range(1, rng.randint(2, 4))]
            g = Graph.from_edges(tails[-1][1], g.edges() + tails)
            if peeled(g) < g.n:
                mixed.append(g)
        for g in mixed:
            assert 0 < peeled(g) == oracle_peeled(g) < g.n, graph6_encode(g)
        assert peeled(path(5)) == 5 == oracle_peeled(path(5))
        assert peeled(crown(10)) == 0 == oracle_peeled(crown(10))
        for g in mixed + [path(5), crown(10)]:
            h = hermite_normal_form(ra_matrix(g).matrix).matrix.data
            for u, v in combinations(g.vertices(), 2):
                e = [int(w in (u, v)) for w in g.vertices()]
                pos = ref_contains(h, e)
                e[v - 1] = -1
                neg = ref_contains(h, e)
                want = {(1, 1): "both", (1, 0): "positive",
                        (0, 1): "negative", (0, 0): "none"}[pos, neg]
                assert pair_sign(g, u, v) == want, (graph6_encode(g), u, v)


def assert_kernel_matches_dense(g, p):
    """The kernel read off the quotient is the one of the whole RA matrix."""
    want = kernel_basis_mod_p(ra_matrix(g).matrix, p)
    assert kernel_mod_p(g, p) == want, (graph6_encode(g), p)
    return want


class TestKernelModP:
    def test_named_graphs(self):
        # Kn(12,2)'s block H has a pivot 4, and construct_prescribed([2, 4],
        # 1) has divisors and nullity together
        both = construct_prescribed([2, 4], 1)
        sizes = [len(assert_kernel_matches_dense(g, p)) for g, p in (
            (kneser(6, 2), 2), (kneser(9, 3), 3), (cube(5), 3),
            (graph6_decode("G?zTb_"), 2), (kneser(12, 2), 2), (both, 2),
            (both, 3))]
        assert sizes == [4, 7, 0, 1, 11, 3, 1]

    def test_every_column_peeled(self):
        g = path(6)
        assert peeled(g) == g.n == oracle_peeled(g)
        for p in (2, 3, 5, 7):
            assert assert_kernel_matches_dense(g, p) == []

    def test_disconnected_graph(self):
        g = disjoint_union([kneser(6, 2), path(4), complete(3), complete(1)])
        assert peeled(g) == 5 == oracle_peeled(g)
        for p in (2, 3):
            assert assert_kernel_matches_dense(g, p)

    def test_random_graphs(self):
        rng = random.Random(41)
        nonempty = 0
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
            nonempty += bool(assert_kernel_matches_dense(g, rng.choice((2, 3, 5, 7))))
        assert nonempty >= 10

    def test_modulus_checked_before_any_lattice_work(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        with pytest.raises(ValueError, match="not prime"):
            kernel_mod_p(kneser(6, 2), 4)
        with pytest.raises(ValueError, match="int64"):
            kernel_mod_p(kneser(6, 2), 4000000007)
        assert builds == []

    @pytest.mark.slow
    def test_kneser_12_3_mod_3(self):
        assert assert_kernel_matches_dense(kneser(12, 3), 3)


@st.composite
def graphs_with_twins(draw):
    """A random graph with closed twins planted: each clone w of a vertex s
    gets N[w] = N[s] (s's neighbours, and s itself), a clone may be cloned
    again, and the vertices are shuffled last, so a class need not be a
    run of consecutive vertices."""
    k = draw(st.integers(1, 6))
    adj = [0] * k
    for u, v in combinations(range(k), 2):
        if draw(st.booleans()):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    for s in draw(st.lists(st.integers(0, 8), min_size=1, max_size=3)):
        s %= len(adj)
        w = len(adj)
        adj.append(adj[s] | 1 << s)
        for x in range(w):
            if adj[w] >> x & 1:
                adj[x] |= 1 << w
    perm = draw(st.permutations(range(len(adj))))
    moved = [0] * len(adj)
    for v, a in enumerate(adj):
        moved[perm[v]] = sum(1 << perm[x] for x in range(len(adj)) if a >> x & 1)
    return Graph(len(adj), moved)


class TestClosedTwins:
    """A graph with closed twins has two equal RA columns; every answer
    must be that of the direct build over its n columns and of the
    textbook oracles."""

    @given(graphs_with_twins())
    @settings(max_examples=60, deadline=None)
    def test_answers_match_the_direct_build_and_the_oracles(self, g):
        n = g.n
        assert not is_neighborhood_distinguishable(g)
        rows = ra_matrix(g).matrix.data
        e = intlin._build(ra_core._ra_masks(g), n)
        q = intlin._Quotient(e)
        forget_lattice()
        h = ra_lattice(g)
        assert h == intlin._form_of(e)
        assert (h.matrix.data, h.pivot_columns) == ref_hermite(rows)
        sf = elementary_divisors(g)
        ref = ref_smith_divisors(rows)
        assert sf == q.smith_form(n, n)
        assert list(sf.divisors) == ref + [0] * (n - len(ref))
        assert not is_ra(g)
        comps = connected_components(g)
        verdicts = classify(g)
        if len(comps) == 1:
            verdicts, parts = [verdicts], [g]
        else:
            parts = [subgraph(g, comp) for comp in comps]
        for part, c in zip(parts, verdicts):
            data = ra_matrix(part).matrix.data
            pq = intlin._Quotient(intlin._build(ra_core._ra_masks(part), part.n))
            assert c.axis_multiples == pq.axis_multiples() == tuple(
                ref_axis_multiple(data, i) for i in range(1, part.n + 1))
            psf = pq.smith_form(part.n, part.n)
            assert (c.divisors, c.nullity) == (psf.divisors, psf.nullity)
            if not is_neighborhood_distinguishable(part):
                assert c.status == "general" and c.nullity > 0
        for u, v in combinations(g.vertices(), 2):
            e_pos = [int(w in (u, v)) for w in g.vertices()]
            e_neg = e_pos[:]
            e_neg[v - 1] = -1
            pos, neg = ref_contains(rows, e_pos), ref_contains(rows, e_neg)
            assert (pos, neg) == (q.contains(u - 1, v - 1, 1),
                                  q.contains(u - 1, v - 1, -1))
            want = {(1, 1): "both", (1, 0): "positive",
                    (0, 1): "negative", (0, 0): "none"}[pos, neg]
            assert pair_sign(g, u, v) == want, (graph6_encode(g), u, v)
        for p in (2, 3, 5):
            want = kernel_basis_mod_p(ra_matrix(g).matrix, p)
            assert kernel_mod_p(g, p) == q.kernel_mod_p(p) == want, p

    def test_named_graphs(self):
        # a clique is one class of closed twins, and each graph below has
        # classes of two or three
        for g in (complete(5), strong(crown(8), complete(2)),
                  join(crown(8), complete(2)), strong(kneser(6, 2), complete(3))):
            e = intlin._build(ra_core._ra_masks(g), g.n)
            q = intlin._Quotient(e)
            forget_lattice()
            assert ra_lattice(g) == intlin._form_of(e)
            assert elementary_divisors(g) == q.smith_form(g.n, g.n)
            assert classify(g).axis_multiples == q.axis_multiples()
            for u, v in combinations(range(g.n), 2):
                assert pair_sign(g, u + 1, v + 1) == {
                    (1, 1): "both", (1, 0): "positive", (0, 1): "negative",
                    (0, 0): "none"}[q.contains(u, v, 1), q.contains(u, v, -1)]
            for p in (2, 3):
                assert kernel_mod_p(g, p) == q.kernel_mod_p(p)


class TestHalfRAEquivalence:
    def test_parity_characterization_on_small_corpus(self):
        # neighborly graph is 1/2-RA exactly when degrees are all odd and
        # every vertex pair has an even number of common neighbors
        from support import connected_graphs_up_to_iso

        for n in range(2, 7):
            for g in connected_graphs_up_to_iso(n):
                if not is_neighborly(g):
                    continue
                c = classify(g)
                rows = ra_matrix(g).matrix.data
                doubled = any(
                    ref_contains(rows, [2 if w == v else 0 for w in range(g.n)])
                    for v in range(g.n)
                )
                small = c.status in ("RA", "1/2-RA")
                assert doubled == small
                if small:
                    odd_deg = all(degree(g, v) % 2 for v in g.vertices())
                    even_common = all(
                        (g.adj[u - 1] & g.adj[v - 1]).bit_count() % 2 == 0
                        for u, v in combinations(g.vertices(), 2)
                    )
                    assert (c.status == "1/2-RA") == (odd_deg and even_common)
