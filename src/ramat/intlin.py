"""Exact integer linear algebra: Smith/Hermite normal forms and row lattices.

A row lattice is held as its Hermite basis, a ``HermiteForm``: the lattice
lives in Z^n with n = ``matrix.cols`` and has rank ``len(pivot_columns)``.
Membership and axis multiples are both answered by folding one vector into
that basis with the echelon routine that built it.

Everything here works over plain Python integers, which are arbitrary
precision; intermediate entries in normal-form reductions can grow far past
any fixed word size, so no floating point and no fixed-width arithmetic is
used anywhere in this module.

The Hermite convention is fixed project-wide: row-style upper echelon,
strictly positive pivots, entries above each pivot reduced into ``[0, pivot)``.
The resulting basis is canonical for the integer row lattice under the given
column order, so outputs are bit-exact and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod
from operator import index, mul

__all__ = [
    "IntMatrix",
    "SmithForm",
    "HermiteForm",
    "smith_normal_form",
    "hermite_normal_form",
    "lattice_smith_form",
    "lattice_contains",
    "minimal_axis_multiple",
    "kernel_basis_mod_p",
    "kronecker_product",
]


class IntMatrix:
    """Immutable dense matrix of exact integers.

    Rows and columns are addressed 0-based through ``data``; operations that
    take a column index in the public API (``minimal_axis_multiple``) use
    1-based indices to match vertex numbering.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries):
        """Entries must be integers (bools pass); a float or other non-integer
        raises TypeError instead of being truncated."""
        rows = tuple(tuple(map(index, row)) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]})"

    def __reduce__(self):
        return IntMatrix, (self.data,)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        """Parse the debug text format: one row per line, space-separated."""
        rows = [line.split() for line in text.splitlines() if line.strip()]
        return cls([[int(x) for x in row] for row in rows])

    def to_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.data)))

    def mul_vector(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)


@dataclass(frozen=True)
class SmithForm:
    """Elementary divisor chain d_1 | d_2 | ... with zeros last."""

    divisors: tuple
    rank: int
    nullity: int


@dataclass(frozen=True)
class HermiteForm:
    """Canonical Hermite basis of a row lattice in Z^matrix.cols, one row per
    pivot; a lattice of rank 0 is held as one zero row with no pivots."""

    matrix: IntMatrix
    pivot_columns: tuple  # 1-based
    diagonal: tuple  # length cols; zero where no pivot meets the diagonal


def _xgcd(a: int, b: int):
    """Return (g, s, t) with g = s*a + t*b and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _leading(row, start, n):
    for k in range(start, n):
        if row[k]:
            return k
    return None


def _insert_row(basis: dict, row: list, n: int) -> bool:
    """Fold one row into an echelon basis keyed by pivot column.

    The basis stays row-equivalent to everything inserted so far; rows that
    lie in the current lattice reduce to zero and vanish.  Returns True when
    a pivot was added or changed (callers then re-reduce the basis, which is
    what keeps entries from compounding across insertions).
    """
    changed = False
    stack = [row]
    while stack:
        r = stack.pop()
        j = _leading(r, 0, n)
        while j is not None:
            b = basis.get(j)
            if b is None:
                if r[j] < 0:
                    r = [-x for x in r]
                basis[j] = r
                changed = True
                break
            p = b[j]
            x = r[j]
            q, rem = divmod(x, p)
            if rem == 0:
                if q:
                    r[j:] = [a - q * c for a, c in zip(r[j:], b[j:])]
                j = _leading(r, j + 1, n)
            else:
                g, s, t = _xgcd(p, x)
                new = [s * a + t * c for a, c in zip(b[j:], r[j:])]
                qb = p // g
                qr = x // g
                old = [a - qb * c for a, c in zip(b[j:], new)]
                r[j:] = [a - qr * c for a, c in zip(r[j:], new)]
                basis[j] = [0] * j + new
                changed = True
                # the displaced old basis row leads strictly right of j
                old_full = [0] * j + old
                if _leading(old_full, j + 1, n) is not None:
                    stack.append(old_full)
                j = _leading(r, j + 1, n)
    return changed


def _echelon_basis(rows, n: int) -> dict:
    """Echelon basis of the lattice spanned by ``rows``.

    A repeated row reduces to zero, and insertion stops early once the basis
    is the full standard lattice (all n pivots equal to 1): no further
    integer row can change it.
    """
    basis: dict = {}
    for row in rows:
        if _insert_row(basis, list(row), n):
            _reduce_above(basis, n)
            if len(basis) == n and all(basis[j][j] == 1 for j in basis):
                break
    return basis


def _reduce_above(basis: dict, n: int) -> list:
    """Order basis rows and reduce above-pivot entries into [0, pivot)."""
    pivots = sorted(basis)
    rows = [basis[j] for j in pivots]
    for k, j in enumerate(pivots):
        p = rows[k][j]
        for i in range(k):
            q = rows[i][j] // p  # floor puts the entry into [0, p)
            if q:
                ri = rows[i]
                rk = rows[k]
                ri[j:] = [a - q * c for a, c in zip(ri[j:], rk[j:])]
    return rows


def _hermite_form(rows, n: int) -> HermiteForm:
    """Hermite basis of the lattice spanned by ``rows``, a list or tuple of
    integer sequences of length ``n``: the echelon build behind
    ``hermite_normal_form`` and the core of each RA lattice."""
    basis = _echelon_basis(rows, n)
    _reduce_above(basis, n)
    return _form_of(basis, n)


def _form_of(basis: dict, n: int) -> HermiteForm:
    """The ``HermiteForm`` of a reduced echelon basis keyed by 0-based pivot
    column."""
    pivots = sorted(basis)
    rows = [basis[j] for j in pivots]
    return HermiteForm(
        matrix=IntMatrix(rows) if rows else IntMatrix.zeros(1, n),
        pivot_columns=tuple(j + 1 for j in pivots),
        diagonal=tuple(rows[i][i] if i < len(rows) else 0 for i in range(n)),
    )


def hermite_normal_form(m: IntMatrix) -> HermiteForm:
    """Canonical row-style Hermite form of the row lattice of ``m``.

    Zero rows are discarded; the output has exactly rank rows with strictly
    increasing pivot columns, positive pivots, and reduced above-pivot
    entries.
    """
    return _hermite_form(m.data, m.cols)


def _snf_divisors(rows) -> list:
    """Nonzero elementary divisors of the matrix with these rows.

    Alternates Hermite reductions of rows and columns (Kannan and Bachem,
    SIAM J. Comput. 1979): while some row has two nonzeros, the columns are
    folded into a fresh echelon basis, the Hermite form of the transpose.
    Each round leaves the corner entry no larger, as it becomes the gcd of
    its row.  It shrinks strictly until it divides its row, and after that
    its row and column are cleared and stay clear, so the rounds end with
    one nonzero per row.  Replacing each pair (d_i, d_j), i < j, of that
    diagonal by (gcd, lcm) then sorts every prime's exponents into the
    divisor chain.
    """
    while any(sum(1 for x in row if x) > 1 for row in rows):
        n = len(rows)
        basis: dict = {}
        for col in zip(*rows):
            if _insert_row(basis, list(col), n):
                _reduce_above(basis, n)
        rows = _reduce_above(basis, n)
    d = [x for row in rows for x in row if x]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def lattice_smith_form(h: HermiteForm, length: int) -> SmithForm:
    """Smith form of any matrix whose row lattice has the Hermite basis ``h``.

    The divisors are invariants of the lattice, so the column Hermite rounds
    of ``_snf_divisors`` start from the ``rank x cols`` Hermite basis; the
    nonzero divisors are padded with zeros to ``length``.
    """
    nonzero = _snf_divisors(h.matrix.data)
    rank = len(nonzero)
    return SmithForm(
        divisors=tuple(nonzero) + (0,) * (length - rank),
        rank=rank,
        nullity=h.matrix.cols - rank,
    )


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form of ``m``: the chain of elementary divisors, padded
    with zeros to ``min(rows, cols)``.

    It is read off the Hermite basis of the row lattice of ``m``
    (``lattice_smith_form`` of ``hermite_normal_form(m)``), so duplicate,
    zero and dependent rows never reach the Smith step.
    """
    return lattice_smith_form(hermite_normal_form(m), min(m.rows, m.cols))


def _pivot_rows(h: HermiteForm) -> dict:
    """The basis of ``h`` keyed by 0-based pivot column, as ``_insert_row``
    takes it.  The row tuples are shared: ``_insert_row`` replaces basis
    rows but never writes into one."""
    return dict(zip([j - 1 for j in h.pivot_columns], h.matrix.data))


def lattice_contains(h: HermiteForm, v) -> bool:
    """Exact membership of an integer vector in the row lattice of ``h``.

    v lies in the lattice exactly when it reduces to zero against the
    Hermite basis, that is when inserting it changes no pivot.
    """
    n = h.matrix.cols
    v = list(map(index, v))
    if len(v) != n:
        raise ValueError("dimension mismatch")
    return not _insert_row(_pivot_rows(h), v, n)


def minimal_axis_multiple(h: HermiteForm, i: int) -> int:
    """Smallest a > 0 with a*e_i in the lattice, or 0 if none exists.

    The set {a : a*e_i in L} is an ideal of Z; its nonnegative generator is
    the index [L + Z*e_i : L], computed as the ratio of pivot products of the
    two Hermite bases.  A rank increase means the line only meets L in 0.
    """
    n = h.matrix.cols
    if not 1 <= i <= n:
        raise IndexError(f"column index {i} out of range 1..{n}")
    basis = _pivot_rows(h)
    old_prod = prod(row[j] for j, row in basis.items())
    e = [0] * n
    e[i - 1] = 1
    _insert_row(basis, e, n)
    if len(basis) > len(h.pivot_columns):
        return 0
    return old_prod // prod(row[j] for j, row in basis.items())


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


# Input budget of kernel_basis_mod_p: trial division up to isqrt(p) then
# takes at most about 27 600 steps.  The bound is the square root of the
# int64 maximum.
_MAX_MODULUS = isqrt(2**63 - 1)


def kernel_basis_mod_p(m: IntMatrix, p: int) -> list:
    """Basis of the right kernel of ``m`` over Z/pZ.

    Returns ``cols - rank_mod_p`` vectors with entries in 0..p-1, one per
    free column of the reduced row echelon form of ``m`` mod p, which is
    unique.  A p past the input budget is rejected before the primality
    test.
    """
    if p > _MAX_MODULUS:
        raise ValueError(
            f"modulus {p} is past {_MAX_MODULUS}, the int64 square-root bound"
        )
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = m.cols
    # Echelon rows are 1 at their pivot and 0 at the other pivots, so only
    # their free entries are kept: free column f -> entry of each pivot row.
    pivots = []
    free = {f: [] for f in range(n)}
    for row in m.data:
        coef = [row[j] for j in pivots]
        # the row reduced by the echelon rows, in the free columns
        rest = {f: (row[f] - sum(map(mul, coef, col))) % p
                for f, col in free.items()}
        k = next((f for f in free if rest[f]), None)
        if k is None:
            continue
        inv = pow(rest[k], -1, p)
        col_k = free.pop(k)
        for f, col in free.items():
            c = rest[f] * inv % p
            col[:] = [(x - y * c) % p for x, y in zip(col, col_k)]
            col.append(c)
        pivots.append(k)
    out = []
    for f, col in free.items():
        v = [0] * n
        v[f] = 1
        for j, x in zip(pivots, col):
            v[j] = -x % p
        out.append(tuple(v))
    return out


def kronecker_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker block product in lexicographic (a-major) index order."""
    out = []
    for arow in a.data:
        for brow in b.data:
            row = []
            for x in arow:
                row.extend(x * y for y in brow)
            out.append(row)
    return IntMatrix(out)

