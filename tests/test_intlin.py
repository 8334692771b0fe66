"""Exact linear algebra: frozen examples, then randomized properties against
the independent reduction and minor-gcd oracles."""

import pickle
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramat.intlin import (
    IntMatrix,
    hermite_normal_form,
    kernel_basis_mod_p,
    kronecker_product,
    lattice_contains,
    minimal_axis_multiple,
    row_lattice,
    smith_normal_form,
)

from support import (
    determinantal_divisors,
    mat_mul,
    random_int_matrix,
    random_permutation_matrix,
    ref_smith_divisors,
)


class TestSmithForm:
    def test_identity(self):
        assert smith_normal_form(IntMatrix.identity(2)).divisors == (1, 1)

    def test_upper_triangular(self):
        # d1 = gcd of entries = 1, d2 = |det| / d1 = 4
        sf = smith_normal_form(IntMatrix([[2, 1], [0, 2]]))
        assert sf.divisors == (1, 4)
        assert ref_smith_divisors([[2, 1], [0, 2]]) == [1, 4]

    def test_all_ones(self):
        sf = smith_normal_form(IntMatrix([[1, 1, 1]] * 3))
        assert sf.divisors == (1, 0, 0)
        assert sf.rank == 1
        assert sf.nullity == 2

    def test_rectangular_lengths(self):
        sf = smith_normal_form(IntMatrix([[2, 0, 0], [0, 3, 0]]))
        assert sf.divisors == (1, 6)
        assert sf.nullity == 1

    def test_matches_reduction_oracle_randomized(self):
        rng = random.Random(0xA11CE)
        for _ in range(300):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            m = random_int_matrix(rng, rows, cols)
            got = list(smith_normal_form(IntMatrix(m)).divisors)
            assert got == ref_smith_divisors(m)

    def test_matches_minor_gcd_oracle_randomized(self):
        rng = random.Random(0xBEE)
        for _ in range(150):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_int_matrix(rng, rows, cols, -6, 6)
            got = list(smith_normal_form(IntMatrix(m)).divisors)
            assert got == determinantal_divisors(m)

    def test_divisibility_chain_randomized(self):
        rng = random.Random(3)
        for _ in range(300):
            m = random_int_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            divisors = smith_normal_form(IntMatrix(m)).divisors
            nonzero = [d for d in divisors if d]
            assert all(d > 0 for d in nonzero)
            assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
            # zeros, if any, come last
            assert list(divisors[len(nonzero):]) == [0] * (len(divisors) - len(nonzero))

    def test_permutation_invariance_randomized(self):
        rng = random.Random(4)
        for _ in range(200):
            rows = rng.randint(2, 8)
            cols = rng.randint(2, 8)
            m = random_int_matrix(rng, rows, cols)
            p = random_permutation_matrix(rng, rows)
            q = random_permutation_matrix(rng, cols)
            pm = mat_mul(mat_mul(p, m), q)
            assert (
                smith_normal_form(IntMatrix(m)).divisors
                == smith_normal_form(IntMatrix(pm)).divisors
            )

    def test_prime_power_entries_diagonal_and_triangular_randomized(self):
        # Entries are products of small prime powers, so the diagonal left by
        # the column rounds needs the gcd/lcm pass; zero pivots make some
        # matrices rank-deficient, and exponents up to 70 pass 2**63.
        sf = smith_normal_form(IntMatrix([[12, 0, 0], [0, 18, 0], [0, 0, 8]]))
        assert sf.divisors == (2, 12, 72)
        rng = random.Random(0x5EED)

        def entry():
            if rng.random() < 0.15:
                return 0
            x = prod(p ** rng.randint(0, 3) for p in (2, 3, 5, 7))
            if rng.random() < 0.15:
                x *= 2 ** rng.randint(40, 70)
            return rng.choice((-1, 1)) * x

        big = rank_deficient = 0
        for trial in range(300):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            upper = trial % 2 == 1
            m = [
                [entry() if i == j or (upper and j > i) else 0 for j in range(cols)]
                for i in range(rows)
            ]
            got = list(smith_normal_form(IntMatrix(m)).divisors)
            assert got == ref_smith_divisors(m)
            if rows <= 4 and cols <= 4:
                assert got == determinantal_divisors(m)
            big += any(abs(x) >= 2**63 for x in got)
            rank_deficient += 0 in got
        assert big > 10 and rank_deficient > 10

    def test_planted_kernel_forces_divisor(self):
        # plant nonzero x with m*x = 0 mod q; some divisor must then be
        # divisible by q (zero divisors count: every q divides 0)
        rng = random.Random(5)
        for _ in range(200):
            q = rng.choice([2, 3, 4, 5, 6, 7, 9, 12])
            n = rng.randint(2, 6)
            nrows = rng.randint(2, 6)
            x = [rng.randint(-3, 3) for _ in range(n)]
            j0 = rng.randrange(n)
            x[j0] = 1  # unit coordinate lets us cancel any residue exactly
            mat = []
            for _ in range(nrows):
                row = [rng.randint(-6, 6) for _ in range(n)]
                dot = sum(a * b for a, b in zip(row, x))
                row[j0] -= dot
                for k in range(n):
                    row[k] += q * rng.randint(-2, 2)
                assert sum(a * b for a, b in zip(row, x)) % q == 0
                mat.append(row)
            sf = smith_normal_form(IntMatrix(mat))
            padded = sf.divisors + (0,) * (n - len(sf.divisors))
            assert any(d == 0 or d % q == 0 for d in padded)


class TestHermiteForm:
    def test_already_reduced(self):
        h = hermite_normal_form(IntMatrix([[2, 1], [0, 2]]))
        assert h.matrix.data == ((2, 1), (0, 2))
        assert h.diagonal == (2, 2)

    def test_column_swap_changes_pivots(self):
        h = hermite_normal_form(IntMatrix([[1, 2], [2, 0]]))
        assert h.matrix.data == ((1, 2), (0, 4))
        assert h.diagonal == (1, 4)

    def test_zero_rows_discarded(self):
        h = hermite_normal_form(IntMatrix([[1, 0], [0, 1], [0, 0]]))
        assert h.matrix.data == ((1, 0), (0, 1))
        assert h.diagonal == (1, 1)

    def test_pivots_positive_and_reduced(self):
        rng = random.Random(6)
        for _ in range(200):
            m = random_int_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            h = hermite_normal_form(IntMatrix(m))
            rows = h.matrix.data
            pivots = [j - 1 for j in h.pivot_columns]
            assert pivots == sorted(pivots)
            for k, j in enumerate(pivots):
                p = rows[k][j]
                assert p > 0
                for i in range(k):
                    assert 0 <= rows[i][j] < p
                # echelon: nothing to the left of the pivot
                assert all(rows[k][c] == 0 for c in range(j))

    def test_canonical_under_row_scrambling(self):
        rng = random.Random(7)
        for _ in range(100):
            rows = rng.randint(2, 7)
            m = random_int_matrix(rng, rows, rng.randint(2, 7))
            h1 = hermite_normal_form(IntMatrix(m))
            shuffled = m[:]
            rng.shuffle(shuffled)
            # adding lattice elements must not change the canonical form
            shuffled.append([
                a + b for a, b in zip(m[0], m[-1])
            ])
            h2 = hermite_normal_form(IntMatrix(shuffled))
            assert h1.matrix.data == h2.matrix.data
            assert h1.diagonal == h2.diagonal

    def test_diagonal_product_equals_divisor_product_full_rank(self):
        rng = random.Random(8)
        tried = 0
        while tried < 80:
            n = rng.randint(2, 6)
            m = random_int_matrix(rng, n + rng.randint(0, 3), n)
            sf = smith_normal_form(IntMatrix(m))
            if sf.rank < n:
                continue
            tried += 1
            perm = list(range(n))
            rng.shuffle(perm)
            pm = [[row[j] for j in perm] for row in m]
            h = hermite_normal_form(IntMatrix(pm))
            assert prod(h.diagonal) == prod(sf.divisors)


class TestRowLattice:
    def test_identity_rows(self):
        lat = row_lattice(IntMatrix.identity(3))
        assert lat.rank == 3
        assert lat.ambient_dim == 3

    def test_rank_two(self):
        lat = row_lattice(IntMatrix([[1, 1, 0], [0, 1, 1]]))
        assert lat.rank == 2

    def test_all_ones_lattice(self):
        lat = row_lattice(IntMatrix([[1, 1, 1]] * 3))
        assert lat.rank == 1
        assert lat.basis.matrix.data == ((1, 1, 1),)
        assert lattice_contains(lat, (1, 1, 1))
        assert not lattice_contains(lat, (1, 0, 0))
        assert lattice_contains(lat, (0, 0, 0))
        assert lattice_contains(lat, (5, 5, 5))
        assert not lattice_contains(lat, (1, 1, 2))

    def test_contains_refuses_floats(self):
        lat = row_lattice(IntMatrix([[2, 0], [0, 2]]))
        with pytest.raises(TypeError):
            lattice_contains(lat, [0.5, 0])
        with pytest.raises(TypeError):
            lattice_contains(lat, [2.0, 0])
        assert lattice_contains(lat, [True * 2, False])

    def test_contains_dimension_mismatch(self):
        lat = row_lattice(IntMatrix.identity(3))
        with pytest.raises(ValueError):
            lattice_contains(lat, (1, 0))

    def test_contains_matches_definition_randomized(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(2, 5)
            rows = [
                [rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(1, 4))
            ]
            lat = row_lattice(IntMatrix(rows))
            coeffs = [rng.randint(-3, 3) for _ in rows]
            v = [
                sum(c * row[j] for c, row in zip(coeffs, rows))
                for j in range(n)
            ]
            assert lattice_contains(lat, v)


class TestMinimalAxisMultiple:
    def test_pivots_under_both_orders(self):
        lat = row_lattice(IntMatrix([[2, 1], [0, 2]]))
        assert minimal_axis_multiple(lat, 2) == 2
        assert minimal_axis_multiple(lat, 1) == 4

    def test_full_lattice(self):
        lat = row_lattice(IntMatrix.identity(4))
        assert all(minimal_axis_multiple(lat, i) == 1 for i in range(1, 5))

    def test_no_multiple_on_deficient_lattice(self):
        lat = row_lattice(IntMatrix([[1, 1, 1]] * 3))
        assert minimal_axis_multiple(lat, 1) == 0

    def test_index_out_of_range(self):
        lat = row_lattice(IntMatrix.identity(2))
        with pytest.raises(IndexError):
            minimal_axis_multiple(lat, 3)
        with pytest.raises(IndexError):
            minimal_axis_multiple(lat, 0)

    def test_result_generates_the_axis_ideal(self):
        rng = random.Random(10)
        for _ in range(150):
            n = rng.randint(2, 5)
            rows = [
                [rng.randint(-5, 5) for _ in range(n)]
                for _ in range(rng.randint(1, 5))
            ]
            lat = row_lattice(IntMatrix(rows))
            for i in range(1, n + 1):
                a = minimal_axis_multiple(lat, i)
                e = [0] * n
                if a == 0:
                    for k in range(1, 13):
                        e[i - 1] = k
                        assert not lattice_contains(lat, e)
                    continue
                e[i - 1] = a
                assert lattice_contains(lat, e)
                for k in range(1, a):
                    e[i - 1] = k
                    assert not lattice_contains(lat, e)
                # any multiple in the lattice is a multiple of a
                e[i - 1] = a * rng.randint(2, 4)
                assert lattice_contains(lat, e)

    def test_agrees_with_column_permuted_hermite(self):
        # column i placed last: the final diagonal entry is the axis multiple
        rng = random.Random(11)
        tried = 0
        while tried < 60:
            n = rng.randint(2, 6)
            m = random_int_matrix(rng, n + 1, n, -4, 4)
            lat = row_lattice(IntMatrix(m))
            if lat.rank < n:
                continue
            tried += 1
            for i in range(1, n + 1):
                order = [j for j in range(n) if j != i - 1] + [i - 1]
                pm = [[row[j] for j in order] for row in m]
                h = hermite_normal_form(IntMatrix(pm))
                assert h.diagonal[-1] == minimal_axis_multiple(lat, i)


class TestKernelModP:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis_mod_p(IntMatrix.identity(3), 2) == []

    def test_all_ones_mod_3(self):
        basis = kernel_basis_mod_p(IntMatrix([[1, 1, 1]] * 3), 3)
        assert len(basis) == 2

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            kernel_basis_mod_p(IntMatrix.identity(2), 4)

    def test_largest_int64_safe_prime(self):
        # 3037000493 is the largest prime whose square fits in int64, so the
        # elimination's residue products come close to the int64 limit
        p = 3037000493
        rng = random.Random(13)
        for _ in range(20):
            mat = IntMatrix(random_int_matrix(rng, rng.randint(1, 5), rng.randint(2, 6)))
            basis = kernel_basis_mod_p(mat, p)
            for v in basis:
                assert all(x % p == 0 for x in mat.mul_vector(v))
            rank = len([d for d in smith_normal_form(mat).divisors if d and d % p])
            assert len(basis) + rank == mat.cols

    def test_rejects_modulus_past_int64(self):
        # the next prime, 3037000507, has a square past 2**63 - 1
        for p in (3037000507, 10 ** 40 + 1):
            with pytest.raises(ValueError, match="int64"):
                kernel_basis_mod_p(IntMatrix.identity(2), p)

    def test_kernel_dimension_plus_rank(self):
        rng = random.Random(12)
        for p in (2, 3, 5):
            for _ in range(60):
                m = random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
                mat = IntMatrix(m)
                basis = kernel_basis_mod_p(mat, p)
                for v in basis:
                    assert all(x % p == 0 for x in mat.mul_vector(v))
                rank = len(
                    [d for d in smith_normal_form(mat).divisors if d and d % p]
                )
                assert len(basis) + rank == mat.cols


class TestKronecker:
    def test_identity_factors(self):
        assert kronecker_product(
            IntMatrix.identity(2), IntMatrix.identity(2)
        ) == IntMatrix.identity(4)
        assert kronecker_product(
            IntMatrix([[1, 1], [1, 1]]), IntMatrix([[1]])
        ).data == ((1, 1), (1, 1))

    def test_block_layout(self):
        k = kronecker_product(IntMatrix([[1, 2]]), IntMatrix([[3], [4]]))
        assert k.data == ((3, 6), (4, 8))

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
        st.integers(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_by_two_entries(self, a, b, c, d):
        k = kronecker_product(IntMatrix([[a, b]]), IntMatrix([[c, d]]))
        assert k.data == ((a * c, a * d, b * c, b * d),)


class TestMatrixBasics:
    def test_immutability(self):
        m = IntMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_text_round_trip(self):
        m = IntMatrix([[1, -2, 3], [0, 500, -6]])
        assert IntMatrix.from_text(m.to_text()) == m

    def test_floats_are_refused_not_truncated(self):
        with pytest.raises(TypeError):
            IntMatrix([[0.5, 2.9]])
        with pytest.raises(TypeError):
            IntMatrix([[1, 2.0]])
        assert IntMatrix([[True, False, 3]]).data == ((1, 0, 3),)
        with pytest.raises(ValueError):
            IntMatrix.from_text("1.5")

    def test_pickle_round_trip(self):
        m = IntMatrix([[1, -2, 3], [0, 10 ** 30, -6]])
        back = pickle.loads(pickle.dumps(m))
        assert back == m
        assert (back.rows, back.cols) == (2, 3)
        with pytest.raises(AttributeError):
            back.rows = 5

    def test_huge_entries_survive(self):
        big = 10 ** 40
        sf = smith_normal_form(IntMatrix([[big, 0], [0, big * 3]]))
        assert sf.divisors == (big, 3 * big)
