"""Exact integer linear algebra: Smith/Hermite normal forms and row lattices.

A row lattice is held as its Hermite basis, a ``HermiteForm``: the lattice
lives in Z^n with n = ``matrix.cols`` and has rank ``len(pivot_columns)``.
Membership and axis multiples are both answered by folding one vector into
that basis with the echelon engine that built it.

The one echelon engine packs each row of Z^n into a single Python int of
signed w-bit fields, x = sum of x_j * 2^(w*j), so that a row update
``r - q*b`` or a unimodular gcd step is one big-integer expression instead
of a loop over entries (M4RI's packed GF(2) rows, Albrecht, Bard and Hart,
ACM TOMS 2010, carried over to signed fields).  Python ints are arbitrary
precision and every operation on a packed row is exact; a field width only
decides whether the fields can be read back.  Exactness rests on one
invariant and three rules:

- Invariant: every field of every live row is below 2^(w-1) in magnitude.
  Then the fields are the unique such digits of x, the leading column is
  ``((x & -x).bit_length() - 1) // w``, and any field is read exactly, by
  masking after a bias of 2^(w-1) per field.
- A-priori bound: each row carries a bound on the magnitude of its fields,
  and an update runs only when the bound of its result, |r| + |q|*|b| or the
  like for the gcd step, is below 2^(w-1).
- SWAR re-tightening: when that bound does not fit, the bounds of both rows
  are re-tightened by range tests: x + sum of 2^(w*j + k), ANDed with the
  bits at k + 1 and above of every field, is 0 exactly when every field lies
  in [-2^k, 2^k).  That is two big-integer operations, not an unpack.
- Repack at 2w: when neither bound tightens, the live basis and the row in
  hand are unpacked and repacked in place at twice the width, and the step
  is tried again.

No floating point is used anywhere in this module.

The Hermite convention is fixed project-wide: row-style upper echelon,
strictly positive pivots, entries above each pivot reduced into ``[0, pivot)``.
The resulting basis is canonical for the integer row lattice under the given
column order, so outputs are bit-exact and comparable.  The engine keeps
its basis in that form after every insert that changes it, re-reading only
the entries the insert can have moved out of range.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
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


# Signed array typecodes by field width, which pack and unpack whole rows
# in one call; other widths, or a big-endian host, go field by field.
_TYPECODES = ({8 * array(c).itemsize: c for c in "hiq"}
              if sys.byteorder == "little" else {})


class _Layout:
    """Constants of n signed w-bit fields packed into one int, made once per
    (n, w) and shared by every build of that shape."""

    __slots__ = ("w", "half", "mask", "bias", "nbytes", "code", "spread",
                 "ladder")

    def __init__(self, n: int, w: int):
        ones = ((1 << (w * n)) - 1) // ((1 << w) - 1)  # sum of 2^(w*j)
        self.w = w
        self.half = 1 << (w - 1)
        self.mask = (1 << w) - 1
        self.bias = ones << (w - 1)  # turns field x_j into x_j + half >= 0
        self.nbytes = n * w // 8
        self.code = _TYPECODES.get(w)
        # (c, spread, fields): c <= w - 1 bits b of a 0/1 mask move out to
        # stride w as (b * spread) & fields, because bit i of b times bit k
        # of spread lands alone at i + k*(w - 1), a multiple of w only for
        # k = i
        c = min(w - 1, 63)
        self.spread = (c, sum(1 << k * (w - 1) for k in range(c)),
                       sum(1 << i * w for i in range(c)))
        # (2^k, bias_k, mask_k): (x + bias_k) & mask_k is 0 exactly when
        # every field of x lies in [-2^k, 2^k), for k <= w - 3
        self.ladder = tuple(
            (1 << k, ones << k, ones * ((1 << w) - (2 << k)))
            for k in (w // 4, w // 2, w - 3)
        )

    def pack(self, row) -> int:
        """The packed int of an int read as a 0/1 row (bit j is column j),
        or of an integer sequence of length n with entries below 2^(w-1) in
        magnitude."""
        if isinstance(row, int):
            c, spread, fields = self.spread
            chunk = (1 << c) - 1
            x = shift = 0
            while row:
                x |= ((row & chunk) * spread & fields) << shift
                row >>= c
                shift += c * self.w
            return x
        # two's complement fields t_j; t_j ^ half = x_j + half, with no
        # carry between fields
        if self.code:
            raw = array(self.code, row).tobytes()
        else:
            size = self.w // 8
            raw = b"".join([x.to_bytes(size, "little", signed=True)
                            for x in row])
        return (int.from_bytes(raw, "little") ^ self.bias) - self.bias

    def fields(self, x: int):
        """The n fields of a packed row with at most n fields, as a
        sequence."""
        raw = ((x + self.bias) ^ self.bias).to_bytes(self.nbytes, "little")
        if self.code:
            return memoryview(raw).cast(self.code)
        size = self.w // 8
        return [int.from_bytes(raw[i:i + size], "little", signed=True)
                for i in range(0, len(raw), size)]


_layout = lru_cache(maxsize=64)(_Layout)


class _Echelon:
    """Echelon basis of packed rows in Z^n, keyed by pivot column.

    ``rows[j]`` is the row whose leading field is column j, shifted down by
    j fields so that its field 0 is the pivot; ``pivots[j]`` is that
    (positive) field, and ``bounds[j]`` bounds the magnitude of every field
    of the row.
    """

    __slots__ = ("n", "layout", "rows", "pivots", "bounds")

    def __init__(self, n: int):
        self.n = n
        self.layout = _layout(n, 16)
        self.rows = {}
        self.pivots = {}
        self.bounds = {}

    def __len__(self) -> int:  # the rank
        return len(self.rows)

    def copy(self) -> "_Echelon":
        e = _Echelon.__new__(_Echelon)
        e.n, e.layout = self.n, self.layout
        e.rows, e.pivots, e.bounds = (
            self.rows.copy(), self.pivots.copy(), self.bounds.copy())
        return e

    def add(self, row) -> list:
        """Fold one row (an int read as a 0/1 row, or an integer sequence of
        length n) into the basis; return the pivot columns whose row was
        added or replaced, which is empty exactly when the row was in the
        lattice already."""
        if isinstance(row, int):
            if not row:
                return []
            j = (row & -row).bit_length() - 1
            return self._insert(self.layout.pack(row >> j), j, 1)
        m = max(map(abs, row))
        while m >= self.layout.half:
            self._widen()
        r = self.layout.pack(row)
        if not r:
            return []
        j = ((r & -r).bit_length() - 1) // self.layout.w
        return self._insert(r >> self.layout.w * j, j, m)

    def _insert(self, r: int, j: int, m: int) -> list:
        """``add`` for a nonzero packed row r that leads at column j and is
        shifted down by j fields, with fields at most m in magnitude.

        A row that meets pivot p with lead x loses (x // p) times the pivot
        row when p divides x.  Otherwise the pair (pivot row b, r) becomes
        (s*b + t*r, u*b - v*r), with s*p + t*x = g = gcd(p, x), u = x/g and
        v = p/g: a unimodular step whose first row leads with g and whose
        second row is zero at column j.
        """
        rows, pivots, bounds = self.rows, self.pivots, self.bounds
        touched = []
        lay = self.layout
        w, half, mask = lay.w, lay.half, lay.mask
        while True:
            # the lead x is field 0 of r, read off |r| so that the AND
            # touches only the low digits
            if r > 0:
                x = r & mask
                if x >= half:
                    x -= mask + 1
            else:
                x = -r & mask
                x = mask + 1 - x if x >= half else -x
            b = rows.get(j)
            if b is None:
                if x < 0:
                    r, x = -r, -x
                rows[j], pivots[j], bounds[j] = r, x, m
                touched.append(j)
                return touched
            p = pivots[j]
            mb = bounds[j]
            q, rem = divmod(x, p)
            if not rem:
                mr = m + abs(q) * mb
                fits = mr < half
                if fits:
                    r = r - b if q == 1 else r + b if q == -1 else r - q * b
            else:
                g, s, t = _xgcd(p, x)
                u, v = x // g, p // g
                mn = abs(s) * mb + abs(t) * m
                mr = abs(u) * mb + abs(v) * m
                fits = mn < half and mr < half
                if fits:
                    rows[j], pivots[j], bounds[j] = s * b + t * r, g, mn
                    touched.append(j)
                    r = u * b - v * r
            if fits:
                # r is zero at column j now: shift it down to its next lead
                if not r:
                    return touched
                m = mr
                y = r if r > 0 else -r
                d = ((y ^ (y - 1)).bit_length() - 1) // w
                r >>= w * d
                j += d
                continue
            # the a-priori bound is past 2^(w-1): retry with tighter
            # bounds, or at twice the width when neither bound tightens
            tm, bounds[j] = self._tighten(r, m), self._tighten(b, mb)
            if tm == m and bounds[j] == mb:
                (r,) = self._widen(r)
                lay = self.layout
                w, half, mask = lay.w, lay.half, lay.mask
            m = tm

    def reduce(self, touched: list) -> None:
        """Bring every above-pivot entry back into [0, pivot) after an
        insert that changed the rows at ``touched``.

        Rows are reduced one at a time, each against the pivots right of it
        in increasing order.  Only the entries that can be out of range are
        read: every row's entry at a touched pivot, and every entry of a row
        that was touched or has just been changed, right of the change.
        Every other above-pivot entry is still in [0, pivot).
        """
        rows, pivots = self.rows, self.pivots
        order = sorted(rows)
        hot = sorted(set(touched))
        for i, a in enumerate(order):
            if a > hot[-1]:
                break
            start = i + 1
            if a not in hot:
                start = 0
                lay = self.layout
                for c in hot:
                    if c > a:
                        x = rows[a] + lay.bias >> lay.w * (c - a) & lay.mask
                        q = (x - lay.half) // pivots[c]
                        if q:
                            self._sub(a, q, c)
                            start = bisect_right(order, c)
                            break
                if not start:
                    continue
            rest = order[start:]
            if rest:
                f = self.layout.fields(rows[a])
                for c in rest:
                    q = f[c - a] // pivots[c]
                    if q:
                        self._sub(a, q, c)
                        f = self.layout.fields(rows[a])

    def _sub(self, a: int, q: int, c: int) -> None:
        """Row a -= q * row c (c > a), first tightening or widening until
        the a-priori bound of the result is below 2^(w-1)."""
        rows, bounds = self.rows, self.bounds
        m = bounds[a] + abs(q) * bounds[c]
        while m >= self.layout.half:
            ma = self._tighten(rows[a], bounds[a])
            mc = self._tighten(rows[c], bounds[c])
            if ma == bounds[a] and mc == bounds[c]:
                self._widen()
            bounds[a], bounds[c] = ma, mc
            m = ma + abs(q) * mc
        rows[a] -= q * rows[c] << self.layout.w * (c - a)
        bounds[a] = m

    def _tighten(self, x: int, m: int) -> int:
        """A bound on the fields of x no larger than m, from at most three
        SWAR range tests."""
        for cap, bias, mask in self.layout.ladder:
            if m <= cap:
                break
            if not (x + bias) & mask:
                return cap
        return m

    def _widen(self, *extra) -> list:
        """Repack the basis, and the rows ``extra``, at twice the width."""
        old = self.layout
        new = self.layout = _layout(self.n, 2 * old.w)
        rows = self.rows
        for j, x in rows.items():
            rows[j] = new.pack(list(old.fields(x)))
        return [new.pack(list(old.fields(x))) for x in extra]

    def unpacked(self) -> dict:
        """The basis as tuples of length n, keyed by pivot column."""
        n, fields = self.n, self.layout.fields
        return {j: (0,) * j + tuple(fields(x)[:n - j])
                for j, x in self.rows.items()}


def _build(rows, n: int) -> _Echelon:
    """Packed Hermite basis of the lattice spanned by ``rows`` (integer
    sequences of length n, or ints read as 0/1 rows with bit j at column
    j), reducing above the pivots after each insert that changes it.
    Insertion stops early once the basis is the full standard lattice (all
    n pivots equal to 1): no further integer row can change it."""
    e = _Echelon(n)
    pivots = e.pivots
    for row in rows:
        touched = e.add(row)
        if touched:
            e.reduce(touched)
            if len(pivots) == n and all(p == 1 for p in pivots.values()):
                break
    return e


# Every Hermite build of a row lattice calls the engine by this name, which
# tracing and tests may rebind; the Smith rounds and the lattice queries
# call ``_build`` directly.
_echelon_basis = _build


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
    return _form_of(_echelon_basis(m.data, m.cols).unpacked(), m.cols)


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
        basis = _build(list(zip(*rows)), len(rows)).unpacked()
        rows = [basis[j] for j in sorted(basis)]
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


def _packed(h: HermiteForm) -> _Echelon:
    """A fresh packed basis of ``h``.  Its rows are reduced already and lead
    at increasing columns, so each is added as it is."""
    e = _Echelon(h.matrix.cols)
    for row in h.matrix.data:
        e.add(row)
    return e


def lattice_contains(h: HermiteForm, v) -> bool:
    """Exact membership of an integer vector in the row lattice of ``h``.

    v lies in the lattice exactly when it reduces to zero against the
    Hermite basis, that is when inserting it changes no pivot.
    """
    v = list(map(index, v))
    if len(v) != h.matrix.cols:
        raise ValueError("dimension mismatch")
    return not _packed(h).add(v)


def minimal_axis_multiple(h: HermiteForm, i: int) -> int:
    """Smallest a > 0 with a*e_i in the lattice, or 0 if none exists."""
    n = h.matrix.cols
    if not 1 <= i <= n:
        raise IndexError(f"column index {i} out of range 1..{n}")
    return _axis_multiple(_packed(h), i - 1)


def _axis_multiple(e: _Echelon, i: int) -> int:
    """``minimal_axis_multiple`` of the lattice of e at the 0-based column
    i, folded into a copy of e.

    The set {a : a*e_i in L} is an ideal of Z; its nonnegative generator is
    the index [L + Z*e_i : L], computed as the ratio of pivot products of the
    two Hermite bases.  A rank increase means the line only meets L in 0.
    """
    e = e.copy()
    rank, old_prod = len(e), prod(e.pivots.values())
    e.add(1 << i)
    if len(e) > rank:
        return 0
    return old_prod // prod(e.pivots.values())


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

