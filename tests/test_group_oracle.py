"""Finite-group engine: group constructions, closures, and the divisor
criterion checked against direct enumeration."""

import random
import time

import pytest

from ramat.graphs import complete, cycle, path
from ramat.group_oracle import (
    BudgetExceededError,
    _tuple_closure,
    FiniteGroup,
    comm_b,
    commutator_subgroup,
    dihedral,
    enumerated_commutator_order,
    graph_power,
    heisenberg,
    is_G_RA,
    matrix_power,
    oracle_record,
    tuple_subgroup_order_histogram,
)
from ramat.intlin import IntMatrix
from ramat.ra_core import elementary_divisors, ra_matrix

from support import connected_graphs_up_to_iso


class TestConstructions:
    def test_heisenberg_orders(self):
        assert heisenberg(2).order == 8
        assert heisenberg(3).order == 27

    def test_heisenberg_commutator_is_central_cyclic(self):
        for p in (2, 3):
            g = heisenberg(p)
            comm = commutator_subgroup(g)
            assert len(comm) == p
            for c in comm:
                assert all(
                    g.mult(c, x) == g.mult(x, c) for x in range(g.order)
                )

    def test_dihedral(self):
        d8 = dihedral(8)
        assert d8.order == 8
        assert all(d8.power(a, 4) == d8.identity for a in range(8))
        assert len(commutator_subgroup(d8)) == 2
        assert sorted(
            d8.element_order(a) for a in range(8)
        ) == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            heisenberg(4)
        with pytest.raises(ValueError):
            dihedral(7)
        with pytest.raises(ValueError):
            dihedral(2)

    def test_huge_heisenberg_prime_rejected_at_once(self):
        # p is checked against the modulus bound before any trial division
        start = time.perf_counter()
        with pytest.raises(ValueError, match="int64"):
            heisenberg(2**61 - 1)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError, match="^4 is not prime$"):
            heisenberg(4)

    def test_abelian_commutator_trivial(self):
        table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        c5 = FiniteGroup.from_table("C5", table, generators=(1,))
        assert commutator_subgroup(c5) == {0}

    def test_table_validation(self):
        with pytest.raises(ValueError):
            FiniteGroup.from_table("bad", [[0, 1], [0, 1]], (1,))

    def test_non_associative_loop_rejected(self):
        # a loop of order 5 (Latin square with identity 0, every element its
        # own inverse): not Z5, so not associative
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        for gens in ((1, 2), (1,), ()):
            with pytest.raises(ValueError, match="associative"):
                FiniteGroup.from_table("loop5", loop, gens)
        # Z2 x loop5: (1, e) passes Light's test and generates only Z2 x {e},
        # so the elements its closure misses must be checked too
        prod_table = [
            [(a1 ^ a2) * 5 + loop[b1][b2] for a2 in (0, 1) for b2 in range(5)]
            for a1 in (0, 1)
            for b1 in range(5)
        ]
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup.from_table("z2xloop5", prod_table, (5,))
        with pytest.raises(ValueError, match="generator"):
            FiniteGroup.from_table("C2", [[0, 1], [1, 0]], (2,))

    def test_table_check_is_subcubic(self):
        t0 = time.perf_counter()
        h7 = heisenberg(7)
        assert time.perf_counter() - t0 < 1.0
        assert h7.order == 343
        assert len(commutator_subgroup(h7)) == 7

    def test_subgroup_reindexing(self):
        d8 = dihedral(8)
        rot = d8.closure([1])  # rotations only
        sub = d8.subgroup(rot)
        assert sub.order == 4
        assert commutator_subgroup(sub) == {sub.identity}

    def test_subgroup_generators_are_greedy(self):
        d600 = dihedral(600)
        rot = d600.closure([1])
        t0 = time.perf_counter()
        sub = d600.subgroup(rot)
        assert time.perf_counter() - t0 < 0.5
        assert sub.order == 300
        assert sub.generators == (1,)  # r1 alone spans the rotations

    def test_large_dihedral_table_is_fast(self):
        t0 = time.perf_counter()
        d = dihedral(2000)
        assert time.perf_counter() - t0 < 1.0
        assert d.order == 2000
        assert d.power(1, 1000) == d.identity
        assert all(d.mult(a, d.inverse[a]) == d.identity for a in range(2000))

    def test_missing_inverse_rejected(self):
        # [[0, 1], [1, 1]]: no element times 1 gives the identity 0;
        # in the 3-element table 1 * 2 = 0 but 2 * 1 = 2
        for table in ([[0, 1], [1, 1]], [[0, 1, 2], [1, 2, 0], [2, 2, 1]]):
            with pytest.raises(ValueError, match="no inverse"):
                FiniteGroup.from_table("bad", table, (1,))


def textbook_closure(g, gens, n):
    """Every product of the generator tuples, by coordinatewise lookup in
    the multiplication table until no new tuple appears."""
    seen = {(g.identity,) * n}
    frontier = list(seen)
    while frontier:
        found = []
        for x in frontier:
            for t in gens:
                y = tuple(g.table[a][b] for a, b in zip(x, t))
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        frontier = found
    return seen


class TestGraphPower:
    @pytest.mark.parametrize("group", [dihedral(8), dihedral(12), heisenberg(2), heisenberg(3)])
    def test_closure_matches_the_table_products(self, group):
        rng = random.Random(group.order)
        for n in (1, 2, 3):
            for _ in range(10):
                gens = [tuple(rng.randrange(group.order) for _ in range(n))
                        for _ in range(rng.randint(1, 3))]
                assert _tuple_closure(group, gens, n) == textbook_closure(group, gens, n)

    def test_complete_graph_is_diagonal(self):
        h2 = heisenberg(2)
        for n in (2, 3, 4):
            power = graph_power(h2, complete(n))
            assert len(power) == 8
            assert all(len(set(t)) == 1 for t in power)

    def test_p3_reaches_full_commutator_cube(self):
        h2 = heisenberg(2)
        power = graph_power(h2, path(3))
        assert len(power) == 512
        assert is_G_RA(h2, path(3))

    def test_k3_not_ra(self):
        assert not is_G_RA(heisenberg(2), complete(3))

    def test_budget_refused_upfront(self):
        with pytest.raises(BudgetExceededError):
            graph_power(heisenberg(2), path(10), cap=10 ** 6)

    def test_order_divides_group_power(self):
        h2 = heisenberg(2)
        for g in (path(3), cycle(3), cycle(4), complete(4)):
            power = graph_power(h2, g)
            assert (h2.order ** g.n) % len(power) == 0


class TestDivisorCriterion:
    @pytest.mark.parametrize("p", [2, 3])
    def test_is_g_ra_iff_no_divisor_divisible_max3(self, p):
        group = heisenberg(p)
        for n in (1, 2, 3):
            for g in connected_graphs_up_to_iso(n):
                divisors = elementary_divisors(g).divisors
                want = all(d == 0 or d % p for d in divisors) and all(
                    d != 0 for d in divisors
                )
                assert is_G_RA(group, g) == want

    def test_intersection_order_heisenberg2_four_vertices(self):
        group = heisenberg(2)
        comm = commutator_subgroup(group)
        for g in connected_graphs_up_to_iso(4):
            divisors = elementary_divisors(g).divisors
            k = sum(1 for d in divisors if d % 2 == 0)
            power = graph_power(group, g)
            inter = sum(1 for t in power if all(a in comm for a in t))
            assert inter == 2 ** (g.n - k)

    def test_paw_graph_consistency(self):
        from ramat.graphs import Graph

        paw = Graph.from_edges(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
        divisors = elementary_divisors(paw).divisors
        ra_by_divisors = all(d == 1 for d in divisors)
        assert is_G_RA(heisenberg(2), paw) == ra_by_divisors


class TestMatrixPower:
    def test_d8_matrix_pair_orders(self):
        d8 = dihedral(8)
        s1 = matrix_power(d8, IntMatrix([[1, 0], [0, 4]]))
        s2 = matrix_power(d8, IntMatrix([[1, 2], [0, 4]]))
        assert len(s1) == 8
        assert len(s2) == 16
        # isomorphism-type fingerprints: D8 vs C2 x D8
        assert tuple_subgroup_order_histogram(d8, s1) == {1: 1, 2: 5, 4: 2}
        assert tuple_subgroup_order_histogram(d8, s2) == {1: 1, 2: 11, 4: 4}
        assert len(s1) // enumerated_commutator_order(d8, s1) == 4
        assert len(s2) // enumerated_commutator_order(d8, s2) == 8

    def test_row_equivalent_matrices_same_subgroup(self):
        d8 = dihedral(8)
        m = IntMatrix([[1, 2], [0, 4]])
        variants = [
            IntMatrix([[1, 6], [0, 4]]),   # r1 + r2
            IntMatrix([[0, 4], [1, 2]]),   # swap
            IntMatrix([[1, 2], [0, -4]]),  # negate
            IntMatrix([[1, 2], [2, 8], [0, 4]]),  # redundant row
        ]
        base = matrix_power(d8, m)
        for v in variants:
            assert matrix_power(d8, v) == base

    def test_negative_exponents(self):
        d8 = dihedral(8)
        assert matrix_power(d8, IntMatrix([[-1]])) == matrix_power(
            d8, IntMatrix([[1]])
        )


class TestCommB:
    def test_k3_single_commutator_line(self):
        assert len(comm_b(heisenberg(2), complete(3))) == 2

    def test_p3_full_cube(self):
        assert len(comm_b(heisenberg(2), path(3))) == 8

    def test_equals_commutator_matrix_power(self):
        h2 = heisenberg(2)
        comm_elems = sorted(commutator_subgroup(h2))
        comm_group = h2.subgroup(comm_elems)
        for g in connected_graphs_up_to_iso(4):
            bracket = comm_b(h2, g)
            mp = matrix_power(comm_group, ra_matrix(g).matrix)
            unmapped = {
                tuple(comm_elems[i] for i in t) for t in mp
            }
            assert unmapped == set(bracket)

    def test_abelian_group_trivial(self):
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        c4 = FiniteGroup.from_table("C4", table, generators=(1,))
        assert len(comm_b(c4, cycle(4))) == 1


class TestOracleRecord:
    def test_one_commutator_set_per_record(self, monkeypatch):
        # [G,G] and comm_b are built from one pass over the order**2 pairs
        g, graph = dihedral(12), path(3)
        assert (len(commutator_subgroup(g)), len(comm_b(g, graph))) == (3, 27)
        calls = []
        real = FiniteGroup.commutator

        def counted(self, a, b):
            calls.append(1)
            return real(self, a, b)

        monkeypatch.setattr(FiniteGroup, "commutator", counted)
        rec = oracle_record(g, graph)
        assert len(calls) == g.order ** 2
        assert rec == {
            "group": "dihedral(12)",
            "graph": "",
            "order_G_Gamma": 1728,
            "is_G_RA": True,
            "intersection_order": 27,
            "comm_b_order": 27,
        }

    def test_k3_record(self):
        rec = oracle_record(heisenberg(2), complete(3), descriptor="K3")
        assert rec == {
            "group": "heisenberg(2)",
            "graph": "K3",
            "order_G_Gamma": 8,
            "is_G_RA": False,
            "intersection_order": 2,
            "comm_b_order": 2,
        }


@pytest.mark.slow
class TestHeisenberg3FourVertices:
    def test_divisor_criterion_exhaustive(self):
        group = heisenberg(3)
        for g in connected_graphs_up_to_iso(4):
            divisors = elementary_divisors(g).divisors
            k = sum(1 for d in divisors if d % 3 == 0)
            want = k == 0
            assert is_G_RA(group, g) == want
            comm = commutator_subgroup(group)
            power = graph_power(group, g)
            inter = sum(1 for t in power if all(a in comm for a in t))
            assert inter == 3 ** (g.n - k)
