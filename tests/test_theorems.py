"""Divisor predictors and constructions, each cross-validated against the
direct classification."""

import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramat.graphs import (
    complement,
    complete,
    crown,
    cube,
    cycle,
    folded_cube,
    girth,
    is_bipartite,
    kneser,
    kneser_vertices,
    path,
)
from ramat.intlin import IntMatrix, kernel_basis_mod_p
from ramat.products import cartesian, prism, pyramid, tensor, tensor_all
from ramat.ra_core import classify, elementary_divisors, ra_lattice, ra_matrix
from ramat.theorems import (
    MuPrediction,
    _comb_mod3,
    construct_prescribed,
    divisor_prime_profile,
    kneser_kernel_span_dim,
    kneser_kernel_vector,
    kneser_prism_conditions,
    kneser_prism_params,
    mu_cartesian,
    mu_girth4,
    mu_kneser_tensor_k2,
    mu_neighborly,
    mu_negatively_neighborly,
    mu_prism,
    mu_tensor,
    mu_tensor_completes,
    mu_tensor_scaled,
    strong_product_divisors,
    z,
    z_minimal_n,
)

from support import connected_graphs_up_to_iso, random_graph, ref_contains


def _mu_of(g):
    c = classify(g)
    assert c.mu is not None, f"expected almost-RA, got {c.status}"
    return c.mu


class TestNeighborlyPartition:
    def test_crown10_bipartition(self):
        p = mu_neighborly(crown(10), (range(1, 6), range(6, 11)))
        assert p.applicable and p.mu == 3
        assert p.ingredients == {"delta": 3, "kappa": 3}

    def test_cube3(self):
        parts = is_bipartite(cube(3))
        p = mu_neighborly(cube(3), parts)
        assert p.applicable and p.mu == 2

    def test_c4_is_ra(self):
        p = mu_neighborly(cycle(4), is_bipartite(cycle(4)))
        assert p.applicable and p.mu == 1
        assert classify(cycle(4)).status == "RA"

    def test_wrong_partition_rejected(self):
        p = mu_neighborly(crown(10), (range(1, 7), range(7, 11)))
        assert not p.applicable
        assert "pair" in p.reason

    def test_non_neighborly_rejected(self):
        p = mu_neighborly(complete(3), ((1, 2, 3), ()))
        assert not p.applicable

    def test_partition_must_cover(self):
        p = mu_neighborly(crown(8), ((1, 2), (3,)))
        assert not p.applicable


class TestNegativelyNeighborly:
    def test_prism_over_k3(self):
        g = prism(complete(3))
        p = mu_negatively_neighborly(g)
        assert p.applicable
        assert p.mu == _mu_of(g)

    def test_bipartite_input_bounded_by_two(self):
        # negatively neighborly with a triangle-free edge forces mu <= 2
        g = cartesian(complete(3), complete(3))
        p = mu_negatively_neighborly(g)
        assert p.applicable and p.mu <= 2

    def test_k3_inapplicable(self):
        p = mu_negatively_neighborly(complete(3))
        assert not p.applicable


class TestGirth4:
    def test_examples(self):
        assert mu_girth4(cube(3)).mu == 2
        assert mu_girth4(crown(12)).mu == 4
        assert mu_girth4(folded_cube(5)).mu == 2

    def test_crown_series(self):
        for half in range(4, 10):
            assert mu_girth4(crown(2 * half)).mu == half - 2

    def test_wrong_girth_rejected(self):
        assert not mu_girth4(complete(3)).applicable
        assert not mu_girth4(cycle(5)).applicable

    def test_agreement_with_classify_random_girth4(self):
        rng = random.Random(11)
        found = 0
        while found < 25:
            g = random_graph(rng, rng.randint(4, 9), 0.4)
            from ramat.graphs import is_connected

            if not is_connected(g) or girth(g) != 4:
                continue
            found += 1
            p = mu_girth4(g)
            assert p.applicable
            assert p.mu == _mu_of(g)


class TestCartesian:
    def test_cube_chain(self):
        for d in range(2, 7):
            p = mu_cartesian(cube(d - 1), complete(2))
            want = 2 if d % 2 else 1
            assert p.applicable and p.mu == want

    def test_complete_products(self):
        assert mu_cartesian(complete(3), complete(4)).mu == 1
        k44 = cartesian(complete(4), complete(4))
        p = mu_cartesian(k44, complete(4))
        assert p.mu == 2  # three even factors
        assert _mu_of(cartesian(k44, complete(4))) == 2

    def test_girth5_factor_forces_ra(self):
        for b in (complete(4), cycle(4), kneser(5, 2)):
            p = mu_cartesian(kneser(5, 2), b)
            assert p.applicable and p.mu == 1

    def test_disconnected_rejected(self):
        from ramat.products import disjoint_union

        g = disjoint_union([complete(2), complete(2)])
        assert not mu_cartesian(g, complete(3)).applicable


class TestPrism:
    def test_complement_kneser_series(self):
        # divisor 4, RA, 2 as the base size cycles mod 4
        assert mu_prism(complement(kneser(4, 2))).mu == 4
        assert mu_prism(complement(kneser(5, 2))).mu == 1
        assert mu_prism(complement(kneser(6, 2))).mu == 2

    def test_kneser_prism(self):
        p = mu_prism(kneser(6, 2))
        assert p.ingredients == {"delta": 6, "kappa": 3}
        assert p.mu == 3
        assert _mu_of(prism(kneser(6, 2))) == 3

    def test_bipartite_rejected(self):
        assert not mu_prism(cube(3)).applicable

    def test_params_family(self):
        assert kneser_prism_params(0, 0) == (6, 2)
        assert kneser_prism_params(1, 0) == (16, 4)
        # the derivation needs k < 3^(a+1), so b ranges over 0..3^a - 1
        for a, b in ((0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 5)):
            assert kneser_prism_conditions(*kneser_prism_params(a, b))
        # out-of-range b breaks the binomial pattern, and the check sees it
        assert not kneser_prism_conditions(*kneser_prism_params(0, 1))

    def test_condition_check_values(self):
        # binomials mod 3 for (6,2): C(5,2)=10, C(6,2)=15, C(2,2)=1
        assert comb(3, 2) % 3 == 0
        assert comb(4, 2) % 3 == 0
        assert comb(2, 2) % 3 == 1
        assert kneser_prism_conditions(6, 2)
        assert not kneser_prism_conditions(7, 2)

    def test_lucas_binomials_mod_3(self):
        for m in range(151):
            for k in range(m + 1):
                assert _comb_mod3(m, k) == comb(m, k) % 3, (m, k)


class TestTensor:
    def test_k2_with_completes_gives_crowns(self):
        for n in range(4, 8):
            p = mu_tensor(complete(2), complete(n))
            assert p.applicable and p.mu == n - 2

    def test_kneser_k2_closed_form(self):
        assert mu_kneser_tensor_k2(8, 2) == 2
        p = mu_tensor(kneser(8, 2), complete(2))
        assert p.mu == 2
        for n, k in ((6, 2), (7, 2), (8, 2), (9, 2), (7, 3)):
            assert mu_tensor(kneser(n, k), complete(2)).mu == (
                mu_kneser_tensor_k2(n, k)
            )

    def test_two_bipartite_components(self):
        for k in (2, 3, 4):
            preds = mu_tensor(complete(2), crown(2 * k + 4))
            assert isinstance(preds, tuple) and len(preds) == 2
            assert [p.mu for p in preds] == [k, k]
            cls = classify(tensor(complete(2), crown(2 * k + 4)))
            assert [c.mu for c in cls] == [k, k]

    def test_complete_factor_parity(self):
        # odd m forces RA; even m needs odd degrees and even intersections
        assert mu_tensor(cycle(5), complete(3)).mu == 1
        assert mu_tensor(cycle(5), complete(4)).mu == 1  # deg 2 even
        p = mu_tensor(kneser(5, 2), complete(4))
        assert p.applicable
        assert p.mu == _mu_of(tensor(kneser(5, 2), complete(4)))

    def test_complete_factor_parity_matches_closed_count_formula(self):
        # reference: the parity test on degrees and closed common counts
        def reference(gam, m):
            odd_degrees = all(a.bit_count() % 2 for a in gam.adj)
            even_closed = all(
                (gam.closed_mask(u) & gam.closed_mask(v)).bit_count() % 2 == 0
                for u, v in combinations(gam.vertices(), 2)
            )
            return 2 if m % 2 == 0 and odd_degrees and even_closed else 1

        factors = [g for n in range(1, 6) for g in connected_graphs_up_to_iso(n)]
        factors += [cycle(5), cycle(7), folded_cube(5)]
        mus = []
        for gam in factors:
            if is_bipartite(gam) is not None:
                continue
            for m in (3, 4, 6):
                assert mu_tensor(gam, complete(m)) == MuPrediction(
                    applicable=True,
                    mu=reference(gam, m),
                    theorem_id="tensor-complete",
                    ingredients={"m": m},
                ), (gam.adj, m)
                mus.append(reference(gam, m))
        assert 2 in mus and 1 in mus

    def test_nonbipartite_triangle_free_edges(self):
        p = mu_tensor(cycle(5), cycle(7))
        assert p.applicable and p.theorem_id == "tensor-nonbipartite"
        assert p.mu == _mu_of(tensor(cycle(5), cycle(7)))

    def test_nonbipartite_parity_read_off_the_factors(self):
        # reference: the parity test run on the whole tensor product
        def product_parity(g):
            odd_degrees = all(a.bit_count() % 2 for a in g.adj)
            even_common = all(
                (g.adj[u] & g.adj[v]).bit_count() % 2 == 0
                for u in range(g.n) for v in range(u + 1, g.n)
            )
            return odd_degrees and even_common

        def qualifies(g):  # non-bipartite, not complete, an edge in no triangle
            return (
                is_bipartite(g) is None
                and g.edge_count() < g.n * (g.n - 1) // 2
                and any(not g.adj[u - 1] & g.adj[v - 1] for u, v in g.edges())
            )

        # the Clebsch graph FQ5 is the one factor here that passes the test
        factors = [g for n in range(1, 6) for g in connected_graphs_up_to_iso(n)]
        factors += [cycle(5), cycle(7), cycle(9), folded_cube(5)]
        factors = [g for g in factors if qualifies(g)]
        mus = []
        for a in factors:
            for b in factors:
                want = MuPrediction(
                    applicable=True,
                    mu=2 if product_parity(tensor(a, b)) else 1,
                    theorem_id="tensor-nonbipartite",
                )
                assert mu_tensor(a, b) == want
                mus.append(want.mu)
        assert len(mus) == 14 * 14 and mus.count(2) == 1

    def test_every_edge_in_triangle_rejected(self):
        # K4 minus nothing: every edge lies in a triangle, both non-bipartite
        p = mu_tensor(complete(4), complete(4))
        # complete factor branch applies instead
        assert p.applicable and p.theorem_id == "tensor-complete"
        w4 = pyramid(cycle(4))  # wheel: every edge in a triangle
        p = mu_tensor(w4, w4)
        assert not p.applicable

    def test_scaled_family(self):
        assert mu_tensor_scaled(crown(8), 2).mu == 2
        assert mu_tensor_scaled(crown(10), 2).mu == 1
        for k, nu in ((2, 2), (3, 3), (4, 2)):
            assert mu_tensor_scaled(crown(2 * k + 4), nu).mu == (
                k if k == nu else __import__("math").gcd(k, nu)
            )

    def test_scaled_matches_classification(self):
        g = tensor(crown(10), complete(4))
        assert mu_tensor_scaled(crown(10), 2).mu == _mu_of(g)

    def test_scaled_preconditions(self):
        assert not mu_tensor_scaled(cycle(5), 2).applicable
        assert not mu_tensor_scaled(crown(8), 0).applicable


class TestTensorCompletes:
    def test_cases(self):
        assert mu_tensor_completes([2, 5]).mu == 3
        assert mu_tensor_completes([4, 4]).mu == 2
        assert mu_tensor_completes([3, 3]).mu == 1
        assert mu_tensor_completes([2, 4, 6]).mu == 2

    def test_rejects_bad_sizes(self):
        assert not mu_tensor_completes([2, 2]).applicable
        assert not mu_tensor_completes([5]).applicable
        assert not mu_tensor_completes([1, 4]).applicable

    def test_against_classification(self):
        for sizes in ((2, 4), (2, 5), (3, 3), (3, 4), (4, 4), (2, 3, 4),
                      (2, 4, 4), (3, 3, 3), (2, 4, 6)):
            g = tensor_all([complete(m) for m in sizes])
            assert mu_tensor_completes(sizes).mu == _mu_of(g), sizes


class TestStrongProductDivisors:
    def test_ra_factors_stay_ra(self):
        pred = strong_product_divisors(path(3), path(4))
        assert set(pred) == {1}

    def test_prime_profile_matches_direct(self):
        from ramat.products import strong

        cases = [
            (cube(3), path(2)),
            (complete(3), path(3)),
            (crown(8), complete(2)),
        ]
        for a, b in cases:
            pred = strong_product_divisors(a, b)
            direct = elementary_divisors(strong(a, b)).divisors
            assert divisor_prime_profile(pred) == divisor_prime_profile(direct)

    def test_profile_rearranges_primes(self):
        assert divisor_prime_profile([2, 2]) == divisor_prime_profile([1, 4])
        assert divisor_prime_profile([2, 3]) == divisor_prime_profile([1, 6])
        assert divisor_prime_profile([2, 0]) != divisor_prime_profile([2, 1])


class TestKneserKernel:
    def test_annihilation_6_2(self):
        cm = ra_matrix(kneser(6, 2)).matrix
        for x in kneser_vertices(6, 2):
            vec = kneser_kernel_vector(6, 2, x)
            assert all(r % 2 == 0 for r in cm.mul_vector(vec))

    def test_annihilation_9_3(self):
        cm = ra_matrix(kneser(9, 3)).matrix
        for x in kneser_vertices(9, 3):
            vec = kneser_kernel_vector(9, 3, x)
            assert all(r % 3 == 0 for r in cm.mul_vector(vec))

    def test_entry_at_self_is_zero(self):
        vec = kneser_kernel_vector(6, 2, (1, 2))
        verts = kneser_vertices(6, 2)
        assert vec[verts.index((1, 2))] == 0

    def test_span_dims(self):
        assert kneser_kernel_span_dim(6, 2) == 4
        assert kneser_kernel_span_dim(7, 2) == 6
        assert kneser_kernel_span_dim(9, 3) == 7

    def test_span_dim_matches_rank(self):
        for n, p in ((6, 2), (7, 2), (8, 2), (9, 3)):
            vecs = [
                kneser_kernel_vector(n, p, x) for x in kneser_vertices(n, p)
            ]
            mat = IntMatrix(vecs)
            rank = mat.cols - len(kernel_basis_mod_p(mat, p))
            assert rank == kneser_kernel_span_dim(n, p)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kneser_kernel_vector(6, 4, (1, 2, 3, 4))
        with pytest.raises(ValueError):
            kneser_kernel_vector(6, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            kneser_kernel_span_dim(2, 2)

    def test_huge_prime_rejected_at_once(self):
        # n > p is tested before p, and p is checked against the modulus
        # budget before any trial division
        p = 2**61 - 1
        start = time.perf_counter()
        with pytest.raises(ValueError, match="needs n > p"):
            kneser_kernel_span_dim(3, p)
        with pytest.raises(ValueError, match="needs n > p"):
            kneser_kernel_vector(3, p, (1, 2))
        for n in (p + 1, 2**62):
            with pytest.raises(ValueError, match="int64"):
                kneser_kernel_span_dim(n, p)
            with pytest.raises(ValueError, match="int64"):
                kneser_kernel_vector(n, p, (1, 2))
        with pytest.raises(ValueError, match="not prime"):
            kneser_kernel_span_dim(9, 4)
        assert time.perf_counter() - start < 1.0


class TestZ:
    def test_base_values(self):
        assert z(2) == 0
        assert z(8) == 1
        assert z(40) == 20

    def test_first_nonzero_at_8(self):
        assert [n for n in range(2, 10) if z(n) > 0][0] == 8

    def test_recurrence_equals_closed_form_to_512(self):
        # z() asserts internally; evaluating is the test
        for n in range(2, 513):
            z(n)

    def test_step_rule(self):
        for n in range(2, 300):
            step = 1 if bin(n)[2:].count("1") >= 3 else 0
            assert z(n + 1) == z(n) + step

    def test_nullity_match_small(self):
        from ramat.graphs import binary_graph

        for n in range(2, 20):
            assert classify(binary_graph(n)).nullity == z(n)

    def test_minimal_n(self):
        assert z_minimal_n(0) == 2
        assert z_minimal_n(1) == 8
        assert z_minimal_n(2) == 12
        for r in range(8):
            n = z_minimal_n(r)
            assert z(n) == r
            assert all(z(m) != r for m in range(2, n))

    def test_domain(self):
        with pytest.raises(ValueError):
            z(1)


class TestConstructPrescribed:
    def test_single_divisor_is_pyramid_over_crown(self):
        g = construct_prescribed([3], 0)
        assert g.n == 11
        c = classify(g)
        assert c.status == "1/3-RA"

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            construct_prescribed([2, 3], 0)
        with pytest.raises(ValueError):
            construct_prescribed([1], 0)
        with pytest.raises(ValueError):
            construct_prescribed([], 0)
        with pytest.raises(ValueError):
            construct_prescribed([2], -1)

    def test_nullity_only(self):
        g = construct_prescribed([], 2)
        c = classify(g)
        assert c.nullity == 2
        assert [d for d in c.divisors if d > 1] == []

    def test_divisors_and_nullity(self):
        for chain, r in (([2], 1), ([2, 4], 0), ([3, 3], 1)):
            c = classify(construct_prescribed(chain, r))
            assert sorted(d for d in c.divisors if d > 1) == sorted(chain)
            assert c.nullity == r

    def test_every_short_chain_and_nullity(self):
        # every divisibility chain over {2, 3, 4, 6} of length <= 2, r = 0..12
        ds = (2, 3, 4, 6)
        chains = [[]] + [[d] for d in ds]
        chains += [[x, y] for x in ds for y in ds if y % x == 0]
        for chain in chains:
            for r in range(13):
                if not chain and not r:
                    continue
                g = construct_prescribed(chain, r)
                c = classify(g)
                got = (sorted(d for d in c.divisors if d > 1), c.nullity, girth(g))
                assert got == (chain, r, 3), (chain, r)


@st.composite
def _divisor_chains(draw):
    """A divisibility chain d1 | d2 | ... of length 1-3 over 2..12."""
    chain = [draw(st.integers(2, 12))]
    for _ in range(draw(st.integers(0, 2))):
        chain.append(draw(st.sampled_from(range(chain[-1], 13, chain[-1]))))
    return chain


class TestConstructPrescribedProperty:
    @given(_divisor_chains(), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_construction_realizes_chain_and_nullity(self, chain, r):
        g = construct_prescribed(chain, r)
        c = classify(g)
        got = (sorted(d for d in c.divisors if d > 1), c.nullity, girth(g))
        assert got == (chain, r, 3)


class TestLemmaEdgeWithoutTriangle:
    def test_vertical_differences_in_lattice(self):
        # non-bipartite g, factor h with a triangle-free edge: every
        # e_(u,lam) - e_(v,lam) lies in the tensor product's row lattice
        rng = random.Random(13)
        cases = [
            (complete(3), path(3)),
            (cycle(5), cycle(4)),
            (complete(3), cycle(6)),
        ]
        for g, h in cases:
            prod = tensor(g, h)
            basis = ra_lattice(prod).matrix.data
            for _ in range(6):
                u = rng.randrange(1, g.n + 1)
                v = rng.randrange(1, g.n + 1)
                lam = rng.randrange(1, h.n + 1)
                if u == v:
                    continue
                e = [0] * prod.n
                e[(u - 1) * h.n + lam - 1] += 1
                e[(v - 1) * h.n + lam - 1] -= 1
                assert ref_contains(basis, e)
