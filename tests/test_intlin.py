"""Exact linear algebra: frozen examples, then randomized properties against
the independent reduction and minor-gcd oracles."""

import pickle
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramat import intlin
from ramat.intlin import (
    IntMatrix,
    hermite_normal_form,
    kernel_basis_mod_p,
    smith_normal_form,
)

from support import (
    determinantal_divisors,
    mat_mul,
    plain_peel,
    random_int_matrix,
    random_permutation_matrix,
    ref_axis_multiple,
    ref_contains,
    ref_hermite,
    ref_kronecker,
    ref_smith_divisors,
)


def engine(rows):
    """The packed echelon basis of the row lattice of ``rows``."""
    return intlin._build(rows, len(rows[0]))


def contains(e, v) -> bool:
    """Membership by the engine: the build of e's rows plus v gives e's
    basis back."""
    basis = e.unpacked()
    return intlin._build([*basis.values(), list(v)], e.n).unpacked() == basis


def axis_multiple(e, i: int) -> int:
    """The engine's smallest a > 0 with a*e_i in the lattice of e (i
    1-based), or 0: the order of the image of e_i in its quotient."""
    return intlin._Quotient(e).axis_multiples()[i - 1]


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
            sf = smith_normal_form(IntMatrix(m))
            assert list(sf.divisors) == ref_smith_divisors(m)
            # a wide matrix is read off its transpose, whose nullity differs
            assert sf.nullity == cols - sf.rank

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
    """A row lattice's Hermite basis has ambient dimension ``matrix.cols``
    and rank ``len(pivot_columns)``; membership is asked of the engine."""

    def test_identity_rows(self):
        lat = hermite_normal_form(IntMatrix.identity(3))
        assert len(lat.pivot_columns) == 3
        assert lat.matrix.cols == 3

    def test_rank_two(self):
        lat = hermite_normal_form(IntMatrix([[1, 1, 0], [0, 1, 1]]))
        assert len(lat.pivot_columns) == 2

    def test_all_ones_lattice(self):
        lat = hermite_normal_form(IntMatrix([[1, 1, 1]] * 3))
        assert len(lat.pivot_columns) == 1
        assert lat.matrix.data == ((1, 1, 1),)
        e = engine(lat.matrix.data)
        assert contains(e, (1, 1, 1))
        assert not contains(e, (1, 0, 0))
        assert contains(e, (0, 0, 0))
        assert contains(e, (5, 5, 5))
        assert not contains(e, (1, 1, 2))

    def test_contains_matches_definition_randomized(self):
        # a combination of the rows lies in L; a random vector, most often
        # outside, lies in L exactly when adding it as a row changes neither
        # the count nor the product of the nonzero divisors of the Smith
        # oracle (a step of index [L + Zw : L] > 1 shrinks the product)
        def invariants(rows):
            d = [x for x in ref_smith_divisors(rows) if x]
            return len(d), prod(d)

        rng = random.Random(9)
        found = []
        for _ in range(400):
            n = rng.randint(2, 5)
            rows = [
                [rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(1, 4))
            ]
            coeffs = [rng.randint(-3, 3) for _ in rows]
            v = [
                sum(c * row[j] for c, row in zip(coeffs, rows))
                for j in range(n)
            ]
            e = engine(rows)
            assert contains(e, v)
            w = [rng.randint(-6, 6) for _ in range(n)]
            want = invariants(rows + [w]) == invariants(rows)
            assert contains(e, w) == want, (rows, w)
            found.append(want)
        assert 0 < found.count(True) < found.count(False)


class TestMinimalAxisMultiple:
    def test_pivots_under_both_orders(self):
        e = engine([[2, 1], [0, 2]])
        assert axis_multiple(e, 2) == 2
        assert axis_multiple(e, 1) == 4

    def test_full_lattice(self):
        e = engine(IntMatrix.identity(4).data)
        assert all(axis_multiple(e, i) == 1 for i in range(1, 5))

    def test_no_multiple_on_deficient_lattice(self):
        assert axis_multiple(engine([[1, 1, 1]] * 3), 1) == 0

    def test_result_generates_the_axis_ideal(self):
        rng = random.Random(10)
        for _ in range(150):
            n = rng.randint(2, 5)
            rows = [
                [rng.randint(-5, 5) for _ in range(n)]
                for _ in range(rng.randint(1, 5))
            ]
            lat = engine(rows)
            for i in range(1, n + 1):
                a = axis_multiple(lat, i)
                e = [0] * n
                if a == 0:
                    for k in range(1, 13):
                        e[i - 1] = k
                        assert not contains(lat, e)
                    continue
                e[i - 1] = a
                assert contains(lat, e)
                for k in range(1, a):
                    e[i - 1] = k
                    assert not contains(lat, e)
                # any multiple in the lattice is a multiple of a
                e[i - 1] = a * rng.randint(2, 4)
                assert contains(lat, e)

    def test_agrees_with_column_permuted_hermite(self):
        # column i placed last: the final diagonal entry is the axis multiple
        rng = random.Random(11)
        tried = 0
        while tried < 60:
            n = rng.randint(2, 6)
            m = random_int_matrix(rng, n + 1, n, -4, 4)
            lat = hermite_normal_form(IntMatrix(m))
            if len(lat.pivot_columns) < n:
                continue
            tried += 1
            e = engine(m)
            for i in range(1, n + 1):
                order = [j for j in range(n) if j != i - 1] + [i - 1]
                pm = [[row[j] for j in order] for row in m]
                h = hermite_normal_form(IntMatrix(pm))
                assert h.diagonal[-1] == axis_multiple(e, i)


# Entries at and next to +-2^62, +-2^63, +-2^64 and +-2^70 push the packed
# rows past 64-bit fields, so the basis is repacked at twice the width both
# while a row is packed and in the middle of an insert.
WIDE = sorted({s * (2 ** k + d) for k in (62, 63, 64, 70)
               for s in (-1, 1) for d in (-1, 0, 1)})
ENTRIES = st.one_of(st.integers(-9, 9), st.sampled_from(WIDE))


@st.composite
def wide_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]


class TestAgainstTextbookHermite:
    """The library against ``ref_hermite``, on matrices with negative and
    wide entries."""

    @given(wide_matrices())
    @settings(max_examples=150, deadline=None)
    def test_hermite_form(self, m):
        basis, pivots = ref_hermite(m)
        h = hermite_normal_form(IntMatrix(m))
        assert h.pivot_columns == pivots
        assert h.matrix.data == (basis or ((0,) * len(m[0]),))

    @given(wide_matrices())
    @settings(max_examples=100, deadline=None)
    def test_smith_form(self, m):
        basis, pivots = ref_hermite(m)
        sf = smith_normal_form(IntMatrix(m))
        assert sf.rank == len(pivots)
        if basis:
            assert list(sf.divisors[:sf.rank]) == ref_smith_divisors(basis)

    @given(wide_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_membership_and_axis_multiples(self, m, data):
        n = len(m[0])
        e = engine(m)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m),
                                    max_size=len(m)))
        inside = [sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(n)]
        other = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
        assert contains(e, inside)
        assert contains(e, other) == ref_contains(m, other)
        for i in range(1, n + 1):
            assert axis_multiple(e, i) == ref_axis_multiple(m, i)

    def test_repack_in_the_middle_of_an_insert(self, monkeypatch):
        # the second row meets the pivot 2^70 with lead 2^70 + 1: the
        # unimodular step's a-priori bound, about 2^141, is past the 128-bit
        # fields the first row was packed at
        widths = []
        real = intlin._Echelon._widen

        def widen(self, *extra):
            widths.append(self.layout.w)
            return real(self, *extra)

        monkeypatch.setattr(intlin._Echelon, "_widen", widen)
        m = [[2 ** 70, 1, -3], [2 ** 70 + 1, 1, 5], [7, -2 ** 64, 0]]
        h = hermite_normal_form(IntMatrix(m))
        assert widths[-1] == 128
        basis, pivots = ref_hermite(m)
        assert (h.matrix.data, h.pivot_columns) == (basis, pivots)

    @given(wide_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_order_of_any_vector(self, m, data):
        n = len(m[0])
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m),
                                    max_size=len(m)))
        other = data.draw(st.lists(st.one_of(st.just(0), ENTRIES),
                                   min_size=n, max_size=n))
        assert_order(m, [sum(c * r[j] for c, r in zip(coeffs, m)) + other[j]
                         for j in range(n)])

    def test_order_with_a_non_diagonal_block(self):
        # H = [[2, 1], [0, 6]] has no unit pivot, so it is the whole basis,
        # and its Smith pair needs a V that is not the identity
        m = [[2, 1], [0, 6]]
        quot = intlin._Quotient(engine(m))
        d, vt = quot.smith()
        assert quot.q == [0, 1] and sorted(d) == [1, 12] and vt is not None
        for y in [(x, z) for x in range(-3, 13) for z in range(-3, 13)]:
            assert_order(m, y)


def assert_order(m, y):
    """``_Quotient.order`` of the image of y against the textbook Hermite
    bases: 1 exactly when y is in the lattice, 0 exactly when y raises its
    rank, and otherwise a > 0 with a*y in the lattice while no proper
    divisor of a works, so a is the index [L + Zy : L]."""
    quot = intlin._Quotient(engine(m))
    image = [sum(x * v[t] for x, v in zip(y, quot.images))
             for t in range(len(quot.q))]
    a = quot.order(image)
    assert (a == 1) == ref_contains(m, y)
    (old, pivots), (new, wider) = ref_hermite(m), ref_hermite([*m, list(y)])
    assert (a == 0) == (len(wider) > len(pivots))
    if a:
        assert ref_contains(m, [a * x for x in y])
        for d in range(2, min(a, 50) + 1):
            if a % d == 0:
                assert not ref_contains(m, [a // d * x for x in y])
        det = prod(r[j - 1] for r, j in zip(old, pivots))
        assert a == det // prod(r[j - 1] for r, j in zip(new, wider))


def bits_of(mask: int, n: int) -> list:
    return [mask >> j & 1 for j in range(n)]


@st.composite
def unit_heavy_stacks(draw):
    """(n, masks): 0/1 rows over n >= 32 columns whose lattice has unit
    pivots at all but the last k <= 6 columns, so that ``_build`` may
    answer rows through the unit-pivot quotient.  Each other column j gets
    the row {j} + A_j with A_j among the last columns; a few extra rows
    over a handful of columns then often leave non-unit pivots in the
    quotient, or leave it short of full rank.  Unions of disjoint rows,
    which lie in the lattice, are mixed with the extra rows and up to two
    unit rows held back; the build takes all of them by their set bits,
    fewest first."""
    n = draw(st.integers(32, 40))
    k = draw(st.integers(1, 6))
    tail = st.sets(st.integers(n - k, n - 1))
    units = [1 << j | sum(1 << c for c in draw(tail)) for j in range(n - k)]
    some = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
    extra = [sum(1 << c for c in draw(some) | draw(tail))
             for _ in range(draw(st.integers(0, k + 1)))]
    pairs = st.tuples(st.sampled_from(units + extra),
                      st.sampled_from(units + extra))
    unions = [a | b for a, b in draw(st.lists(pairs, min_size=3 * n,
                                              max_size=3 * n)) if not a & b]
    rows = extra + units
    late = draw(st.integers(0, len(extra) + 2))
    return n, (draw(st.permutations(rows[late:]))
               + draw(st.permutations(unions + rows[:late])))


@st.composite
def unit_heavy_lattices(draw):
    """(n, rows): integer rows over n >= 32 columns with unit pivots at all
    but the last k <= 5.  Each of the last columns c gets p*e_c plus
    entries right of c, with p in 2..6, or no row and then no entries in
    any row; each other column j gets e_j plus entries in the last columns.
    One entry in eight is 2^20, so that the quotient test packs its sums at
    16, 32 or 64 bits.  The unit rows and the others come apart, each in
    any order."""
    n = draw(st.integers(32, 40))
    k = draw(st.integers(1, 5))
    ps = [draw(st.sampled_from([0, 2, 3, 4, 6])) for _ in range(k)]
    entry = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 2 ** 20])

    def tail(t):  # entries in the last columns from the t-th on
        return [draw(entry) if ps[u] else 0 for u in range(t, k)]

    units = [[int(i == j) for i in range(n - k)] + tail(0)
             for j in range(n - k)]
    rest = [[0] * (n - k + t) + [p] + tail(t + 1)
            for t, p in enumerate(ps) if p]
    return n, draw(st.permutations(units)), draw(st.permutations(rest))


@st.composite
def quotient_stacks(draw):
    """(n, masks): 0/1 rows over n >= 32 columns that cross ``_build``'s
    move to the quotient with a non-diagonal H short of full rank.

    Each of the first n - k columns j gets the row {j, t_j} with t_j one of
    the last k >= 4 columns Q, so modulo the lattice e_j is -e_(t_j).
    Columns 0 and 1 have t = a and columns 2 to 8 have t = b, for two
    columns a < b of Q.  Then {0, 1, 2} has image -(2e_a + e_b) and
    {3, ..., 8} has image -6e_b: H is [[2, 1], [0, 6]] on a and b, and
    every other column of Q is free.  Columns 9 to 13 may all have t = c
    for a third column c of Q, and the rows {9, 10} and {11, 12, 13}, with
    images -2e_c and -3e_c, then give H a unit pivot at c, which the next
    presentation takes out of Q.

    No column peels: no row is a singleton, and no two rows, unions of
    disjoint rows included, lie one column apart.  (A row {9, 10, c} would
    give the unit pivot in one row, but it is {9, c} plus column 10.)

    The build inserts rows by their set bits, fewest first, in the given
    order among equals.  The rows {j, t_j} come first, then n repeats of
    them, members that move the build to the quotient; the rows for H and
    the unions of disjoint rows, members once H is in, come last, in any
    order."""
    n = draw(st.integers(32, 40))
    k = draw(st.integers(4, 6))
    tail = range(n - k, n)
    a, b, c = sorted(draw(st.permutations(tail))[:3])
    unit = draw(st.booleans())
    ts = [a, a] + [b] * 7
    ts += [c] * 5 if unit else [draw(st.sampled_from(tail)) for _ in range(5)]
    ts += [draw(st.sampled_from(tail)) for _ in range(14, n - k)]
    rows = [1 << j | 1 << t for j, t in enumerate(ts)]
    extra = [0b111, 0b111111000] + [0b11 << 9, 0b111 << 11] * unit
    pairs = st.tuples(st.sampled_from(rows + extra),
                      st.sampled_from(rows + extra))
    unions = [x | y for x, y in draw(st.lists(pairs, min_size=2 * n,
                                              max_size=2 * n)) if not x & y]
    repeats = draw(st.lists(st.sampled_from(rows), min_size=n, max_size=n))
    return n, (draw(st.permutations(rows)) + repeats
               + draw(st.permutations(extra + unions)))


@st.composite
def singleton_chains(draw):
    """(n, masks): the rows of ``quotient_stacks`` moved up past t <= 8
    new columns, with a chain of singletons on them: {w_1}, then
    {w_1, w_2}, ..., {w_(s-1), w_s}, which peel w_1 to w_s one round
    each.  The chain may go on into up to 8 columns of the stack, which
    then peel too, with what that frees in turn.  The new columns are also
    set at random in the stack's rows, where the peel clears them, the
    same ones in every copy of a row: so two rows lie one column apart
    only once the chain has peeled into the stack, and a new column left
    out of the chain is peeled only if the columns the chain frees clear
    the rest of some row.  With few columns peeled, the build still moves
    to the quotient; with many, the unpeeled width drops below 32 and it
    does not."""
    m, stack = draw(quotient_stacks())
    t = draw(st.integers(1, 8))
    w = draw(st.permutations(range(t)))[:draw(st.integers(1, t))]
    w += draw(st.lists(st.integers(t, t + m - 1), max_size=8, unique=True))
    chain = [1 << w[0]] + [1 << x | 1 << y for x, y in zip(w, w[1:])]
    distinct = list(dict.fromkeys(stack))
    noise = dict(zip(distinct, draw(st.lists(
        st.integers(0, (1 << t) - 1), min_size=len(distinct),
        max_size=len(distinct)))))
    rows = [r << t | noise[r] for r in stack]
    return m + t, draw(st.permutations(chain + rows[:5])) + rows[5:]


@st.composite
def difference_pairs(draw):
    """(n, masks): 0/1 rows over 8 to 40 columns in which some columns w
    peel only by the difference rule, through planted rows s and s - e_w.

    A chain of singletons {c_1}, {c_1, c_2}, ... peels the chain columns
    C.  Each planted column w gets the rows A + e_w + X and A + Y, with A
    at least two columns outside C and w, and X and Y inside C: the two
    lie one column apart as given when X = Y, and only behind the chain
    otherwise.  Every other row has at least two columns outside C, so
    singletons alone peel C and no more, and the difference rule takes
    every planted column, and what that frees in turn."""
    n = draw(st.integers(8, 40))
    cols = draw(st.permutations(range(n)))
    chain = cols[:draw(st.integers(0, 3))]
    free = cols[len(chain):]
    planted = free[:draw(st.integers(1, 3))]
    outside = st.sets(st.sampled_from(free), min_size=2, max_size=6)
    inside = st.sets(st.sampled_from(chain)) if chain else st.just(set())

    def mask(cs):
        return sum(1 << c for c in cs)

    rows = [mask(chain[:1])] * bool(chain)
    rows += [mask(chain[i:i + 2]) for i in range(len(chain) - 1)]
    for w in planted:
        a = draw(outside) - {w}
        if len(a) < 2:
            a |= set(free[-3:]) - {w}
        rows += [mask(a | {w} | draw(inside)), mask(a | draw(inside))]
    rows += [mask(draw(outside) | draw(inside))
             for _ in range(draw(st.integers(0, 2 * n)))]
    return n, draw(st.permutations(rows))


def hermite_of(e) -> tuple:
    h = intlin._form_of(e)
    return h.matrix.data, h.pivot_columns


class TestUnitPivotQuotient:
    """``_build`` on 0/1 masks moves to its unit-pivot quotient: it skips
    rows that the quotient's test (``_Quotient.tests``) finds in the
    lattice, folds the images of the others into H, and assembles the basis
    from the quotient at the end.  Its basis must be the one the integer
    rows give, which never take that path."""

    @given(unit_heavy_stacks())
    @settings(max_examples=40, deadline=None)
    def test_masks_match_textbook_and_integer_rows(self, stack):
        n, masks = stack
        rows = [bits_of(m, n) for m in masks]
        basis, pivots = ref_hermite(rows)
        e = intlin._build(masks, n)
        assert hermite_of(e) == (basis or ((0,) * n,), pivots)
        assert e.unpacked() == intlin._build(rows, n).unpacked()

    @given(singleton_chains())
    @settings(max_examples=40, deadline=None)
    def test_peeled_masks_match_textbook_and_integer_rows(self, stack):
        # the build peels the masks first, and integer rows never: the
        # two give the textbook basis, and stats count the plain peel; the
        # quotient's test runs only on an unpeeled width of _Q_WIDTH or more
        n, masks = stack
        rows = [bits_of(m, n) for m in masks]
        stats = {}
        e = intlin._build(masks, n, stats)
        assert hermite_of(e) == ref_hermite(rows)
        assert e.unpacked() == intlin._build(rows, n).unpacked()
        assert stats["peeled"] == plain_peel(masks).bit_count() > 0
        if n - stats["peeled"] < intlin._Q_WIDTH:
            assert stats["answered"] == stats["checked"] == 0

    @given(difference_pairs())
    @settings(max_examples=60, deadline=None)
    def test_planted_pairs_peel_by_the_difference_rule(self, stack):
        # singletons alone stop short of the planted columns, so the build
        # must take some column by the difference rule, and it peels what
        # the pairwise oracle peels; the basis is still the textbook one
        n, masks = stack
        rows = [bits_of(m, n) for m in masks]
        stats = {}
        e = intlin._build(masks, n, stats)
        assert hermite_of(e) == ref_hermite(rows)
        assert e.unpacked() == intlin._build(rows, n).unpacked()
        peeled = plain_peel(masks)
        assert plain_peel(masks, pairs=False) != peeled
        assert stats["peeled"] == peeled.bit_count()
        assert 0 < stats["paired"] <= stats["peeled"]
        assert (stats["path"] == "peeled") == (stats["peeled"] == n)
        got, left, paired = intlin._peel(masks)
        assert got == peeled and paired & ~got == 0
        assert all(r and not r & got for r in left)
        assert len(set(left)) == len(left)

    @given(quotient_stacks())
    @settings(max_examples=40, deadline=None)
    def test_free_columns_and_a_non_diagonal_block(self, stack):
        n, masks = stack
        stats = {}
        e = intlin._build(masks, n, stats)
        assert hermite_of(e) == ref_hermite([bits_of(m, n) for m in masks])
        # nothing peels; the build moved to the quotient among the 2n - k
        # rows and repeats, and the rows for H were folded into it there
        assert stats["peeled"] == plain_peel(masks) == 0
        assert stats["path"] == "quotient"
        assert stats["inserts"] < 2 * n and stats["rows_in"] == len(masks)
        assert stats["absorbed"] >= 2

    @given(wide_matrices())
    @settings(max_examples=100, deadline=None)
    def test_smith_coordinates_diagonalize_the_basis(self, m):
        # the membership test's V: unimodular, and basis * V spans the
        # lattice of the d[k] * e_k, which has the basis's divisors
        basis, _ = ref_hermite(m)
        n = len(m[0])
        d, vt, _ = intlin._smith_coordinates(basis, n)
        eye = [[int(i == k) for i in range(n)] for k in range(n)]
        assert ref_hermite(vt or eye) == (tuple(map(tuple, eye)),
                                         tuple(range(1, n + 1)))
        diagonal = [[x if i == k else 0 for i in range(n)]
                    for k, x in enumerate(d) if x]
        if basis:
            got = mat_mul(basis, list(zip(*(vt or eye))))
            assert ref_hermite(got) == ref_hermite(diagonal)
            assert ref_smith_divisors(got) == ref_smith_divisors(basis)
        else:
            assert diagonal == []

    @given(unit_heavy_lattices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_stale_table_answers_its_own_lattice(self, lattice, data):
        # a test made for the lattice of a prefix of the rows answers
        # membership in it exactly, so a row it lets through lies in the
        # lattice of all the rows too: a stale test skips no row outside
        # it; the image of a row it misses is its class modulo that lattice
        n, units, rest = lattice
        rows = units + rest
        cut = data.draw(st.integers(len(units) - 2, len(rows)))
        e = intlin._build(rows[:cut], n)
        quot = intlin._Quotient(e)
        member, image, _ = quot.tests()
        # each lattice by its textbook basis, which a member leaves as it is
        old, now = ref_hermite(rows[:cut]), ref_hermite(rows)
        # rows at random, rows clear of the columns with no pivot, and rows
        # of one or two set bits, which the test sums column by column
        pivots = sum(1 << j for j in e.pivots)
        probes = [m & pivots if i % 2 else m for i, m in enumerate(
            data.draw(st.lists(st.integers(0, (1 << n) - 1),
                               min_size=8, max_size=8)))]
        probes += [sum(1 << j for j in c) for c in data.draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=2),
            min_size=8, max_size=8))]
        for m in probes:
            v = bits_of(m, n)
            assert member(m) == (ref_hermite([*old[0], v]) == old)
            assert not member(m) or ref_hermite([*now[0], v]) == now
            # v minus its image on Q lies in the lattice
            w = list(v)
            for c, x in zip(quot.q, image(m)):
                w[c] -= x
            assert ref_hermite([*old[0], w]) == old
        # and the quotient gives back the basis it was made from
        assert quot.echelon().unpacked() == e.unpacked()

    def test_represent_drops_the_smith_pair(self):
        # the build folds images into H between presentations; the next
        # presentation answers for the H it has then, not the one before
        quot = intlin._Quotient(engine([[2, 1], [0, 6]]))
        assert quot.divisors() == [1, 12] and quot.order([0, 1]) == 6
        quot.h.reduce(quot.h.add([0, 2]))
        quot.represent()
        assert quot.divisors() == [1, 4] and quot.order([0, 1]) == 2

    def test_quotient_path_runs_and_agrees(self):
        rng = random.Random(15)
        presented = 0
        for _ in range(20):
            n = rng.randint(32, 40)
            tail = range(n - 4, n)
            rows = [1 << j | 1 << rng.choice(tail) for j in range(n - 4)]
            # e_a + e_c, e_b + e_c, e_a + e_b: 2*e_c is in the lattice.  The
            # build takes rows by their set bits, and in the given order
            # among equals: these come after the rows and a run of repeats,
            # which move the build to the quotient, and before the unions,
            # which the test made before them misses
            late = []
            for _ in range(3):
                a, b = rng.sample(range(n - 4), 2)
                c = rng.choice(tail)
                late += [1 << a | 1 << c, 1 << b | 1 << c, 1 << a | 1 << b]
            unions = [x | y for x in rows + late for y in rows + late
                      if x < y and not x & y]
            masks = rows + rng.choices(rows, k=n) + late + unions
            stats = {}
            e = intlin._build(masks, n, stats)
            presented += stats["absorbed"] > 0 and stats["remakes"] > 0
            rows = [bits_of(m, n) for m in masks]
            assert hermite_of(e) == ref_hermite(rows)
            assert e.unpacked() == intlin._build(rows, n).unpacked()
        assert presented >= 5, presented


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

    @given(st.one_of(wide_matrices(), unit_heavy_lattices()),
           st.sampled_from([2, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_quotient_kernel_is_the_dense_one(self, m, p):
        # the kernel vectors k of the quotient's H, carried to each column j
        # as images[j] . k mod p, are the dense basis, vector for vector
        if isinstance(m, tuple):
            _, units, rest = m
            m = units + rest
        quot = intlin._Quotient(engine(m))
        assert quot.kernel_mod_p(p) == kernel_basis_mod_p(IntMatrix(m), p)


class TestKronecker:
    """The Kronecker oracle the product tests compare RA matrices with."""

    def test_identity_factors(self):
        eye = IntMatrix.identity(2).data
        assert ref_kronecker(eye, eye) == list(IntMatrix.identity(4).data)
        assert ref_kronecker([[1, 1], [1, 1]], [[1]]) == [(1, 1), (1, 1)]

    def test_block_layout(self):
        assert ref_kronecker([[1, 2]], [[3], [4]]) == [(3, 6), (4, 8)]

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
        st.integers(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_by_two_entries(self, a, b, c, d):
        k = ref_kronecker([[a, b]], [[c, d]])
        assert k == [(a * c, a * d, b * c, b * d)]


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
