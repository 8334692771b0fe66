"""Exact integer linear algebra: Smith/Hermite normal forms and row lattices.

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
from math import gcd, isqrt

import numpy as np

__all__ = [
    "IntMatrix",
    "SmithForm",
    "HermiteForm",
    "RowLattice",
    "smith_normal_form",
    "hermite_normal_form",
    "row_lattice",
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
        rows = tuple(tuple(int(x) for x in row) for row in entries)
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
    matrix: IntMatrix
    pivot_columns: tuple  # 1-based
    diagonal: tuple  # length cols; zero where no pivot meets the diagonal


@dataclass(frozen=True)
class RowLattice:
    basis: HermiteForm
    ambient_dim: int
    rank: int


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

    Duplicate rows are skipped, and insertion stops early once the basis is
    the full standard lattice (all n pivots equal to 1): no further integer
    row can change it.
    """
    basis: dict = {}
    seen = set()
    for row in rows:
        t = tuple(row)
        if t in seen:
            continue
        seen.add(t)
        if _insert_row(basis, list(t), n):
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


def hermite_normal_form(m: IntMatrix) -> HermiteForm:
    """Canonical row-style Hermite form of the row lattice of ``m``.

    Zero rows are discarded; the output has exactly rank rows with strictly
    increasing pivot columns, positive pivots, and reduced above-pivot
    entries.
    """
    n = m.cols
    basis = _echelon_basis(m.data, n)
    rows = _reduce_above(basis, n)
    pivots = sorted(basis)
    if not rows:
        matrix = IntMatrix.zeros(1, n)
        diag = tuple([0] * n)
        return HermiteForm(matrix=matrix, pivot_columns=(), diagonal=diag)
    matrix = IntMatrix(rows)
    diag = []
    for i in range(n):
        diag.append(rows[i][i] if i < len(rows) else 0)
    return HermiteForm(
        matrix=matrix,
        pivot_columns=tuple(j + 1 for j in pivots),
        diagonal=tuple(diag),
    )


def _snf_divisors(mat: list) -> list:
    """Nonzero elementary divisors of a dense working matrix (mutated).

    Classic bidirectional elimination: each round moves a minimal-absolute
    nonzero entry to the corner, clears its row and column, then repairs
    divisibility of the trailing block before recursing into it.  Minimal
    pivots keep entry growth down but correctness does not depend on the
    choice.
    """
    if not mat:
        return []
    mrows, ncols = len(mat), len(mat[0])
    divisors = []
    s = 0
    while s < mrows and s < ncols:
        # locate a minimal-absolute-value nonzero entry in the trailing block
        best = None
        pos = None
        for i in range(s, mrows):
            row = mat[i]
            for j in range(s, ncols):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best:
                        best, pos = a, (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pos is None:
            break
        i0, j0 = pos
        if i0 != s:
            mat[s], mat[i0] = mat[i0], mat[s]
        if j0 != s:
            for row in mat:
                row[s], row[j0] = row[j0], row[s]
        while True:
            # clear column s; a nonzero remainder becomes the new pivot
            changed = True
            while changed:
                changed = False
                p = mat[s][s]
                for i in range(s + 1, mrows):
                    v = mat[i][s]
                    if v:
                        q = v // p
                        if q:
                            ri, rs = mat[i], mat[s]
                            ri[s:] = [a - q * c for a, c in zip(ri[s:], rs[s:])]
                        if mat[i][s]:
                            mat[s], mat[i] = mat[i], mat[s]
                            changed = True
                            break
            # clear row s the same way
            changed = True
            while changed:
                changed = False
                p = mat[s][s]
                row_s = mat[s]
                for j in range(s + 1, ncols):
                    v = row_s[j]
                    if v:
                        q = v // p
                        if q:
                            for i in range(s, mrows):
                                mat[i][j] -= q * mat[i][s]
                        if row_s[j]:
                            for i in range(s, mrows):
                                mat[i][s], mat[i][j] = mat[i][j], mat[i][s]
                            changed = True
                            break
            if all(mat[i][s] == 0 for i in range(s + 1, mrows)):
                break
        if mat[s][s] < 0:
            mat[s] = [-x for x in mat[s]]
        p = mat[s][s]
        # repair divisibility: pivot must divide every trailing entry
        fixed = False
        for i in range(s + 1, mrows):
            row = mat[i]
            for j in range(s + 1, ncols):
                if row[j] % p:
                    rs = mat[s]
                    mat[s] = [a + c for a, c in zip(rs, row)]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        divisors.append(p)
        s += 1
    return divisors


def row_lattice(m: IntMatrix) -> RowLattice:
    """Integer span of the rows of ``m``, held as its Hermite basis."""
    h = hermite_normal_form(m)
    return RowLattice(basis=h, ambient_dim=m.cols, rank=len(h.pivot_columns))


def lattice_smith_form(lattice: RowLattice, length: int) -> SmithForm:
    """Smith form of any matrix whose row lattice is ``lattice``.

    The divisors are invariants of the lattice, so the dense elimination
    runs on the ``rank x cols`` Hermite basis; the nonzero divisors are
    padded with zeros to ``length``.
    """
    nonzero = _snf_divisors([list(row) for row in lattice.basis.matrix.data])
    rank = len(nonzero)
    return SmithForm(
        divisors=tuple(nonzero) + (0,) * (length - rank),
        rank=rank,
        nullity=lattice.ambient_dim - rank,
    )


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form of ``m``: the chain of elementary divisors, padded
    with zeros to ``min(rows, cols)``.

    It is read off the Hermite basis of the row lattice of ``m``
    (``lattice_smith_form`` of ``row_lattice(m)``), so duplicate, zero and
    dependent rows never reach the dense elimination.
    """
    return lattice_smith_form(row_lattice(m), min(m.rows, m.cols))


def lattice_contains(lattice: RowLattice, v) -> bool:
    """Exact membership of an integer vector in the row lattice."""
    n = lattice.ambient_dim
    v = [int(x) for x in v]
    if len(v) != n:
        raise ValueError("dimension mismatch")
    rows = lattice.basis.matrix.data
    pivots = [j - 1 for j in lattice.basis.pivot_columns]
    by_col = dict(zip(pivots, range(len(pivots))))
    for j in range(n):
        x = v[j]
        if not x:
            continue
        k = by_col.get(j)
        if k is None:
            return False
        p = rows[k][j]
        q, rem = divmod(x, p)
        if rem:
            return False
        row = rows[k]
        v[j:] = [a - q * c for a, c in zip(v[j:], row[j:])]
    return True


def minimal_axis_multiple(lattice: RowLattice, i: int) -> int:
    """Smallest a > 0 with a*e_i in the lattice, or 0 if none exists.

    The set {a : a*e_i in L} is an ideal of Z; its nonnegative generator is
    the index [L + Z*e_i : L], computed as the ratio of pivot products of the
    two Hermite bases.  A rank increase means the line only meets L in 0.
    """
    n = lattice.ambient_dim
    if not 1 <= i <= n:
        raise IndexError(f"column index {i} out of range 1..{n}")
    basis = {}
    for j, row in zip(lattice.basis.pivot_columns, lattice.basis.matrix.data):
        basis[j - 1] = list(row)
    old_rank = len(basis)
    old_prod = 1
    for j in basis:
        old_prod *= basis[j][j]
    e = [0] * n
    e[i - 1] = 1
    _insert_row(basis, e, n)
    if len(basis) > old_rank:
        return 0
    new_prod = 1
    for j in basis:
        new_prod *= basis[j][j]
    return old_prod // new_prod


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


# products of two residues mod p are formed in int64
_MAX_INT64_MODULUS = isqrt(2**63 - 1)


def kernel_basis_mod_p(m: IntMatrix, p: int) -> list:
    """Basis of the right kernel of ``m`` over Z/pZ.

    Returns ``cols - rank_mod_p`` vectors with entries in 0..p-1.  Entries of
    ``m`` are reduced mod p exactly before any fixed-width arithmetic, so
    arbitrary-size inputs are safe; a p whose square overflows int64 is
    rejected before the primality test.
    """
    if p > _MAX_INT64_MODULUS:
        raise ValueError(f"modulus {p} is too large: p*p must fit in int64")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = np.array([[x % p for x in row] for row in m.data], dtype=np.int64)
    nrows, ncols = a.shape
    pivot_of_col = {}
    r = 0
    for j in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, j])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, j]), -1, p)) % p
        col = a[:, j].copy()
        col[r] = 0
        rows_hit = np.nonzero(col)[0]
        if rows_hit.size:
            a[rows_hit] = (a[rows_hit] - np.outer(col[rows_hit], a[r])) % p
        pivot_of_col[j] = r
        r += 1
    free_cols = [j for j in range(ncols) if j not in pivot_of_col]
    out = []
    for f in free_cols:
        v = [0] * ncols
        v[f] = 1
        for j, r_ in pivot_of_col.items():
            v[j] = int((-a[r_, f]) % p)
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


def gcd_all(values) -> int:
    """gcd of an iterable, nonnegative, with gcd of the empty set = 0."""
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g
