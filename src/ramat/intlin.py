"""Exact integer linear algebra: Smith/Hermite normal forms and row lattices.

A row lattice L in Z^n is built as a packed echelon basis, an
``_Echelon``, and handed out as its canonical Hermite basis, a
``HermiteForm`` with ``matrix.cols`` = n and rank ``len(pivot_columns)``.
Every other answer (elementary divisors, membership, axis multiples, the
kernel mod p) is read off one presentation of Z^n/L, a ``_Quotient``, and
only its own methods read that presentation.

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

A reduced basis is zero at every unit-pivot column except in the row of
that pivot, and the RA lattices this library builds have mostly unit
pivots (Kn(12,3): 210 of 220).  Four parts of the engine rest on that:

- The peel: a build of 0/1 rows first takes each column w of a singleton
  row {w} as the unit-pivot row e_w, set directly, and clears bit w in
  every row, until no singleton is left; then each column w in which two
  rows s and s - e_w differ, since e_w = s - (s - e_w), and back to the
  singletons, until neither finds a column.  The RA rows of a tree or a
  graph of girth >= 5 peel every column by singletons, and those of every
  connected RA graph on 3 to 8 vertices with the differences.  Nothing is
  renumbered: the basis, its quotient and every image stay over the n
  columns given, and a peeled column is a unit pivot like any other, with
  image 0.  Integer rows are never peeled.
- The reduction runs bottom-up, from the highest pivot down, so each row
  subtracted is reduced already and moves no entry at a unit pivot: a row
  the insert left alone is read one field at a time, at the touched
  columns and the non-unit pivots, and is never unpacked.
- The presentation: modulo L the unit vector at a unit pivot is a vector
  on the other columns Q, so Z^n/L is Z^Q/L(H), H the small echelon basis
  of the non-unit pivot rows restricted to Q (Kn(12,3): Z^220/L is
  (Z/3)^10, with 10 columns in Q).  The Smith rounds (Kannan and Bachem,
  SIAM J. Comput. 1979) run on H alone, once per presentation, and one
  pair (d, V) answers the divisors, the order of any element (axis
  multiples, pair signs) and the build's membership test.  The kernel mod
  p is H's, carried to the n columns by the images.  An empty Q (an RA
  lattice) or an empty H needs no special case: no Smith round runs, and
  the answers fall out of the same code.
- The build finishes inside the presentation (Hermite forms taken modulo
  the lattice, Domich, Kannan and Trotter, Math. Oper. Res. 1987, carried
  over to the unit pivots).  Once few columns are left in Q, ``_build``
  stops inserting over the n columns: a 0/1 row is tested for membership
  in Smith coordinates of H, where the test is one packed sum read mod the
  divisors, and a row the test misses has its image in Z^Q folded into H.
  H's own unit pivots leave Q when the quotient is presented afresh, and
  the basis over the n columns is assembled once, at the end.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import index, mul

__all__ = [
    "IntMatrix",
    "SmithForm",
    "HermiteForm",
    "smith_normal_form",
    "hermite_normal_form",
    "kernel_basis_mod_p",
]


class IntMatrix:
    """Immutable dense matrix of exact integers.

    Rows and columns are addressed 0-based through ``data``; the pivot
    columns of a ``HermiteForm`` are 1-based to match vertex numbering.
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

    def __init__(self, n: int, units: int = 0):
        """The basis of the e_j for the columns j set in the mask
        ``units``, each a unit pivot: empty by default."""
        self.n = n
        self.layout = _layout(n, 16)
        rows, pivots, bounds = self.rows, self.pivots, self.bounds = {}, {}, {}
        while units:
            j = (units & -units).bit_length() - 1
            rows[j] = pivots[j] = bounds[j] = 1
            units &= units - 1

    def __len__(self) -> int:  # the rank
        return len(self.rows)

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
        insert that changed the rows at ``touched``, in increasing order as
        ``add`` returns them.

        Rows are reduced bottom-up, from the highest pivot down, each
        against the pivots right of it in increasing order, so every row
        subtracted is reduced already: zero at every unit-pivot column but
        its own.  A subtraction therefore moves no entry at a unit-pivot
        column.  A touched row is unpacked once, and after its first
        subtraction only its entries at non-unit pivots are read again.  An
        untouched row was in range before the insert: only its entries at
        the touched columns, and after a subtraction at the non-unit pivots
        right of it, can be out of range, and they are read one field at a
        time.
        """
        rows, pivots = self.rows, self.pivots
        order = sorted(rows)
        cand = None  # where an untouched row can be out of range once moved
        for i in range(bisect_right(order, touched[-1]) - 1, -1, -1):
            a = order[i]
            k = bisect_right(touched, a)
            if k and touched[k - 1] == a:
                f, moved = self.layout.fields(rows[a]), False
                for c in order[i + 1:]:
                    p = pivots[c]
                    x = f[c - a] if p == 1 or not moved else self._field(a, c)
                    q = x // p
                    if q:
                        self._sub(a, q, c)
                        moved = True
                continue
            for c in touched[k:]:
                q = self._field(a, c) // pivots[c]
                if q:
                    self._sub(a, q, c)
                    if cand is None:
                        cand = sorted({*touched, *(j for j in order
                                                   if pivots[j] != 1)})
                    for c in cand[bisect_right(cand, c):]:
                        q = self._field(a, c) // pivots[c]
                        if q:
                            self._sub(a, q, c)
                    break

    def _field(self, a: int, c: int) -> int:
        """The entry of row a at column c >= a."""
        lay = self.layout
        x = self.rows[a] + lay.bias >> lay.w * (c - a)
        return (x & lay.mask) - lay.half

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


def _width(m: int) -> int:
    """The least field width 16 * 2^k whose signed fields hold magnitudes up
    to m."""
    w = 16
    while m >> w - 1:
        w *= 2
    return w


class _SubsetSums(dict):
    """The sums of the subsets of up to eight vectors, keyed by the byte
    whose set bits pick them (Four Russians), each made when first asked
    for; a 0/1 row is summed from one per eight columns, indexed by its
    bytes."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        super().__init__({0: 0})
        self.vectors = vectors

    def __missing__(self, b: int):
        low = b & -b
        s = self[b] = self[b ^ low] + self.vectors[low.bit_length() - 1]
        return s


def _subset_sums(vectors: list) -> list:
    """The ``_SubsetSums`` of each eight consecutive vectors."""
    return [_SubsetSums(vectors[k:k + 8]) for k in range(0, len(vectors), 8)]


class _Quotient:
    """Z^n/L for the lattice L of a reduced echelon basis e, presented on
    the columns Q that are not unit pivots.

    The reduced row b_j of a unit pivot j is e_j plus entries in Q only, so
    modulo L, e_j is congruent to -b_j restricted to Q; and a vector of L
    that is zero off Q is a sum of the rows with non-unit pivots, which
    restricted to Q are the rows of an echelon basis H (``h``, over the
    positions in Q).  So Z^n/L is Z^Q/L(H), column j going to ``images[j]``:
    -b_j on Q at a unit pivot j, and the unit vector at a column of Q.

    The divisors, the order of any vector and ``tests`` all read one Smith
    pair (d, V) of H per presentation, from ``smith``.  ``_build`` carries
    on in this presentation once it is made: a row x joins L by its image,
    the sum of x_j * images[j], joining L(H), so it tests rows and folds
    images into ``h`` through ``tests``, presents the quotient afresh with
    ``represent``, and gets the basis of L back from ``echelon``.  Between
    presentations the pair stays that of the H the test was made for,
    which a stale test needs.
    """

    __slots__ = ("q", "h", "images", "rounds", "_smith")

    def __init__(self, e: _Echelon):
        n, pivots, fields = e.n, e.pivots, e.layout.fields
        q = self.q = [c for c in range(n) if pivots.get(c) != 1]
        zero = (0,) * len(q)
        self.h, self.images, self._smith = _Echelon(len(q)), [zero] * n, None
        self.rounds = 0  # Smith rounds run so far, over all presentations
        for i, c in enumerate(q):
            self.images[c] = zero[:i] + (1,) + zero[i + 1:]
        for j, b in e.rows.items():
            if b != 1:  # else b = e_j, which lies in L
                f = fields(b)
                row = [f[c - j] if c >= j else 0 for c in q]
                if pivots[j] == 1:
                    self.images[j] = tuple([-x for x in row])
                else:
                    self.h.add(row)  # reduced already, with a new pivot

    def smith(self) -> tuple:
        """(d, vt) of ``_smith_coordinates`` for H, made once per
        presentation: L(H)*V is spanned by the d[k] * e_k.  An empty H, the
        H of all but one non-RA lattice of the 8-vertex corpus, gives
        d = (0, ..., 0) and V = I with no rounds."""
        if self._smith is None:
            d, vt, k = _smith_coordinates(self._h_rows(), len(self.q))
            self._smith = d, vt
            self.rounds += k
        return self._smith

    def order(self, y) -> int:
        """The least a > 0 with a*y in L(H), or 0 if none exists: a*y is in
        L(H) exactly when a*(yV)_k is 0 mod d[k] for every k, so a is the
        lcm of the d[k] / gcd(d[k], (yV)_k), and none exists when some
        (yV)_k is not 0 where d[k] = 0."""
        d, vt = self.smith()
        if vt is not None:
            y = [sum(map(mul, y, v)) for v in vt]
        a = 1
        for dk, x in zip(d, y):
            if not dk:
                if x:
                    return 0
            elif x % dk:
                a = lcm(a, dk // gcd(dk, x))
        return a

    def axis_multiples(self) -> tuple:
        """Least a > 0 with a*e_j in L for each column j, or 0: the order of
        the image of e_j."""
        return tuple(map(self.order, self.images))

    def contains(self, u: int, v: int, s: int) -> bool:
        """Whether e_u + s*e_v (0-based columns) is in L: its image has
        order 1, as every image has when Q is empty."""
        images = self.images
        return not self.q or self.order([a + s * b for a, b in zip(
            images[u], images[v])]) == 1

    def _h_rows(self) -> list:
        basis = self.h.unpacked()
        return [basis[j] for j in sorted(basis)]

    def divisors(self) -> list:
        """The nonzero elementary divisors of L after its n - |Q| ones: the
        nonzero d[k] of ``smith``, each pair (d_i, d_j), i < j, replaced by
        (gcd, lcm), which sorts every prime's exponents into the chain."""
        d = [x for x in self.smith()[0] if x]
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
        return d

    def smith_form(self, size: int, cols: int) -> SmithForm:
        """The divisor chain of L: a 1 per column off Q, then
        ``divisors``, padded with zeros to ``size``, with ``cols`` minus the
        rank as the nullity."""
        nonzero = ((1,) * (len(self.images) - len(self.q))
                   + tuple(self.divisors()))
        rank = len(nonzero)
        return SmithForm(nonzero + (0,) * (size - rank), rank, cols - rank)

    def kernel_mod_p(self, p: int) -> list:
        """``kernel_basis_mod_p`` of e, p prime: images[j] . k mod p at each
        column j, for each vector k of the kernel basis of H mod p.  A
        kernel vector of e mod p is a map Z^n/L -> Z/p, k o images for such
        a k, and the images carry H's basis to e's, since each k and its
        image end at the same column."""
        images = self.images
        return [tuple(sum(map(mul, y, k)) % p for y in images)
                for k in _kernel_mod_p(self._h_rows(), len(self.q), p)]

    def _reduce(self):
        """A function that reduces a list y, in place, modulo L(H): taking
        y_i // p times the row of H off y at each pivot i of H, with pivot
        p, in turn leaves y_i in [0, p).  The result is the unique such
        representative of y modulo L(H), zero at each unit pivot of H."""
        walk = []  # (position, pivot, its row's entries right of it)
        for row in self._h_rows():
            i = next(t for t, x in enumerate(row) if x)
            walk.append((i, row[i], [(t, x) for t, x in enumerate(row)
                                     if t > i and x]))

        def reduce(y: list) -> list:
            for i, p, r in walk:
                c = y[i] // p
                if c:
                    y[i] -= c * p
                    for t, x in r:
                        y[t] -= c * x
            return y

        return reduce

    def represent(self) -> None:
        """Reduce every image modulo L(H), and take H's unit pivots out of
        Q: there the images are zero now, and Z^Q/L(H) is Z^Q'/L(H') for
        the ``_Quotient`` of H, with Q' and H' its columns and block."""
        reduce, inner = self._reduce(), _Quotient(self.h)
        self.images = [tuple([z[i] for i in inner.q])
                       for z in map(reduce, map(list, self.images))]
        self.q, self.h = [self.q[i] for i in inner.q], inner.h
        self._smith = None

    def tests(self):
        """(member, image, width) for 0/1 rows (ints, bit j at column j):
        ``member(row)`` answers whether the row lies in L, ``image(row)`` is
        its image in Z^Q as a list, and ``width`` is the widest field packed.

        The test reads the presentation's Smith pair (``smith``): with a
        unimodular V on Q such that L(H)*V is spanned by the d_k * e_k, y is
        in L(H) exactly when (yV)_k is 0 mod d_k where d_k > 1 and 0 where
        d_k = 0; a column with d_k = 1 says nothing.  Each column's image
        times V is packed with the coordinates where d_k > 1 first, then
        those where d_k = 0, so a sum is a member when nothing is packed
        above the first fields and these are 0 mod d_k.  A row of at most
        two set bits adds the vectors of its columns, any other row the
        subset sums of ``_subset_sums``, and so does ``image`` for the
        images.
        """
        m, images, n = len(self.q), self.images, len(self.images)
        d, vt = self.smith()
        lay = _layout(m, _width(sum(max(map(abs, y), default=0)
                                    for y in images)))
        ys = list(map(lay.pack, images))
        cols = [k for k in range(m) if d[k] > 1]
        ds = [d[k] for k in cols]
        cols += [k for k in range(m) if not d[k]]
        if vt is None and cols == list(range(m)):  # it sums the images
            lay_v, vs = lay, ys
        else:  # y*V at the kept columns, read off the packed rows of V
            vt = [vt[k] if vt else [int(i == k) for i in range(m)]
                  for k in cols]
            top = max((max(map(abs, v)) for v in vt), default=0)
            lay_v = _layout(len(cols), _width(top * sum(
                sum(map(abs, y)) for y in images)))
            rows = list(map(lay_v.pack, zip(*vt)))
            vs = [sum(map(mul, y, rows)) for y in images]
        # the first fields of a sum are within half of 2^shift in magnitude
        shift = lay_v.w * len(ds)
        half, fields = 1 << shift >> 1, _layout(len(ds), lay_v.w).fields
        tables, nbytes = _subset_sums(vs), (n + 7) // 8
        sums = tables if vs is ys else _subset_sums(ys)

        def member(row: int) -> bool:
            lo = row & -row
            rest = row ^ lo
            if rest & (rest - 1) or not row:
                y = sum(map(dict.__getitem__, tables,
                            row.to_bytes(nbytes, "little")))
            else:
                y = vs[lo.bit_length() - 1]
                if rest:
                    y += vs[rest.bit_length() - 1]
            return not y or not (y + half >> shift
                                 or any(map(int.__mod__, fields(y), ds)))

        def image(row: int) -> list:
            return list(lay.fields(sum(map(dict.__getitem__, sums,
                                           row.to_bytes(nbytes, "little")))))

        return member, image, max(lay.w, lay_v.w)

    def echelon(self) -> _Echelon:
        """The reduced echelon basis of L over the n columns, packed
        directly: at each column j off Q, a unit pivot, the row e_j minus
        images[j] reduced modulo L(H) (every image off Q is zero left of
        its column), and H's rows on Q."""
        q, n, reduce = self.q, len(self.images), self._reduce()
        inq = set(q)
        rows = {j: (1, 1, reduce([-x for x in y]))
                for j, y in enumerate(self.images) if j not in inq}
        for row in self._h_rows():  # (e_j's share, pivot, entries on Q)
            i = next(t for t, x in enumerate(row) if x)
            rows[q[i]] = 0, row[i], row
        e = _Echelon(n)
        bounds = {j: max(1, max(map(abs, z), default=0))
                  for j, (_, _, z) in rows.items()}
        e.layout = _layout(n, _width(max(bounds.values(), default=1)))
        w = e.layout.w
        for j, (x, p, z) in rows.items():
            for t, v in enumerate(z):
                if v:
                    x += v << w * (q[t] - j)
            e.rows[j], e.pivots[j] = x, p
        e.bounds = bounds
        return e


def _peel(masks: list):
    """(peeled, rows, paired): the mask of the columns peeled off 0/1 rows
    (ints, bit j at column j), the distinct nonzero rows left once neither
    rule below finds a column, in first-seen order, all zero at the peeled
    columns, and the mask of the peeled columns the difference rule took.

    A singleton row {w} puts e_w in the lattice L, so L = Z*e_w + pi(L),
    where pi clears coordinate w: column w is a unit pivot whose row is
    e_w, and bit w can be cleared in every row.  Once the columns P are
    peeled, the rows left generate pi(L), pi clearing P, and pi(L) lies in
    L.  So when two rows left are s and s - e_w, e_w = s - (s - e_w) is in
    L as well (the difference rule; a singleton is the case s - e_w = 0),
    and column w peels the same way.  Singleton rounds repeat, and when
    none finds a column one difference round runs, until neither does."""
    peeled = paired = 0
    while masks:
        units = 0
        for m in masks:
            if not m & (m - 1):
                units |= m
        if not units:
            units = _differences(masks)
            if not units:
                break
            paired |= units
        peeled |= units
        masks = [r for m in masks if (r := m & ~units)]
    # repeats are dropped once, at the end: they do not change the units
    return peeled, list(dict.fromkeys(masks)) if peeled else masks, paired


def _differences(masks: list) -> int:
    """The mask of the columns w with rows s and s - e_w both in ``masks``.
    Only a row one bit longer than some other row can be such an s, so the
    set of rows is built only when one exists, and each such row's set
    bits are read once: Kn(12,3)'s rows have 22, 35, 56 or 85 bits, and
    its check ends at the bit counts."""
    counts = list(map(int.bit_count, masks))
    sizes = set(counts)
    longer = sizes.intersection([c + 1 for c in sizes])
    if not longer:
        return 0
    rows, found = set(masks), 0
    for s, c in zip(masks, counts):
        if c in longer:
            b = s & ~found  # a column found once is not looked up again
            while b:
                low = b & -b
                b ^= low
                if s ^ low in rows:
                    found |= low
    return found


def _build(rows, n: int, stats: dict | None = None) -> _Echelon:
    """Packed Hermite basis of the lattice spanned by ``rows`` (integer
    sequences of length n, or ints read as 0/1 rows with bit j at column
    j), reducing above the pivots after each insert that changes it.
    Insertion stops early once the basis is the full standard lattice (all
    n pivots equal to 1): no further integer row can change it.

    0/1 rows are peeled first (``_peel``, by singletons and by rows one
    column apart): each peeled column w gets the row e_w, and only the
    rows left are inserted, fewest set bits first, all zero at the peeled
    columns, so the basis stays reduced.  Every RA lattice of the 8-vertex
    corpus peels every column and inserts no row.  Integer sequences are
    never peeled or sorted.

    0/1 rows are inserted over the n columns until those folded in for
    nothing, tallied by their set bits, reach ``_Q_WASTE`` times the
    unpeeled width while at most that width over ``_Q_SHARE`` columns are
    not unit pivots.  From there the build stays in the ``_Quotient`` of
    that basis, and no row is inserted over the n columns again: each row
    is put to the quotient's membership test, and a row the test misses
    has its image folded into H, on the |Q| columns.  A test made for an
    older H is kept while stale: it can only miss rows, since a member of
    a sublattice is a member of the current lattice.  Missed rows that
    leave H as it is are tallied the same way, and at ``_Q_STALE`` times
    the unpeeled width the quotient is presented afresh, without H's own
    unit pivots, and a new test is made.  The basis over the n columns is
    assembled once, at the end.

    One loop does both: its echelon ``e`` is the basis over the n columns,
    then H, and ``member`` is None until the first presentation.

    ``stats``, when given, receives the counts of the build: ``path``
    ("peeled" when the peel took every column, "quotient" when the build
    moved to the quotient, else "inserts"), ``rows_in`` (the rows the peel
    took, then those the loop read), ``peeled`` (the columns peeled),
    ``paired`` (those the difference rule took), ``answered`` (rows the
    test found in the lattice), ``checked`` (rows it missed, whose images
    went to H), ``absorbed`` (those that changed H), ``remakes``
    (presentations after the first), ``inserts`` (rows inserted over the n
    columns), ``changes`` (those inserts that changed the basis),
    ``smith_rounds`` (the Smith rounds run for the quotient's tests) and
    ``max_width``, the widest field packed, in bits.
    """
    quot = member = image = None
    # e's unit pivots, rows the peel took, columns its difference rule took
    units = taken = paired = 0
    if rows and isinstance(rows[0], int):
        peeled, left, paired = _peel(rows)
        e, units = _Echelon(n, peeled), peeled.bit_count()
        taken = len(rows) - len(left)
        # the Hermite form does not depend on row order, and sparse rows
        # first keep the transient entries small
        rows = sorted(left, key=int.bit_count)
    else:
        e = _Echelon(n)
    free = n - units  # the unpeeled width, which the path thresholds scale
    waste = width = w = 0  # bits folded in for nothing, field widths
    inserts = changes = answered = checked = absorbed = remakes = 0
    for row in rows:
        if member is None:
            inserts += 1
            touched = e.add(row)
        elif member(row):
            answered += 1
            continue
        else:
            checked += 1
            touched = e.add(image(row))
        if touched:
            if quot is None:
                changes += 1
            else:
                absorbed += 1
            e.reduce(touched)
            for j in touched:  # a unit pivot is never replaced
                if e.pivots[j] == 1:
                    units += 1
            if units == e.n:
                break
            continue
        if free < _Q_WIDTH or not isinstance(row, int):
            continue
        waste += row.bit_count()
        if quot is None:
            if waste < _Q_WASTE * free or n - units > free // _Q_SHARE:
                continue
            quot = _Quotient(e)
        elif waste < _Q_STALE * free:
            continue
        else:
            remakes += 1
            member = image = None  # one set of tables at a time
            quot.represent()
        width = max(width, w, e.layout.w)
        e, waste = quot.h, 0
        units = list(e.pivots.values()).count(1)
        member, image, w = quot.tests()
    width = max(width, w, e.layout.w)
    if quot is not None:
        e = quot.echelon()
    if stats is not None:
        stats.update(
            path=("peeled" if not free else "inserts" if quot is None
                  else "quotient"),
            rows_in=taken + inserts + answered + checked, peeled=n - free,
            paired=paired.bit_count(), answered=answered, checked=checked,
            absorbed=absorbed, remakes=remakes, inserts=inserts,
            changes=changes,
            smith_rounds=0 if quot is None else quot.rounds,
            max_width=max(width, e.layout.w))
    return e


# When ``_build`` moves to the quotient and presents it afresh, each
# scaled by the unpeeled width n (the columns ``_peel`` leaves).  _Q_SHARE,
# _Q_WASTE and _Q_STALE were each timed against the alternatives on the RA
# lattices of Kn(9,3), Kn(10,3), Kn(12,3), Kn(12,4), Kn(12,2), Kn(14,2),
# cube(7), cube(8), folded_cube(7), crown(40), the complement of Kn(9,2)
# and construct_prescribed([60], 0): 10 to 12 runs of each side in one
# process, alternating, ratios of medians.  None of them peels a column by
# the difference rule, and its check adds at most about 0.5 ms to their
# builds (counting the bits of Kn(12,3)'s 10 747 rows; only Kn(9,3), whose
# rows have 3 and 4 bits, builds and searches a set, about 0.25 ms), so
# these timings still hold.
# - _Q_WIDTH: below 32 unpeeled columns the test sped some builds up and
#   slowed others (crown(20) 36% faster, Kn(7,2) 19% slower).  The
#   8-vertex corpus no longer builds lattices (the CLI's lanes settle all
#   but crown(8)), so 32 rests on the rest: over ``verify``'s predictor and
#   Kneser-table suites (one process, Python 3.11, 2-core Xeon, 7
#   alternating rounds) 32, 16, 8 and 0 took 217, 218, 242 and 236 ms.
# - _Q_SHARE: the build moves when at most n/4 columns are not unit
#   pivots.  At n/3, cube(8), Kn(10,3) and the complement of Kn(9,2) were
#   16-22% slower; at n/6, cube(8) and Kn(12,2) 11-13% slower, while
#   construct_prescribed([60], 0) was 11% faster.
# - _Q_WASTE: moving after n wasted bits rather than 4n, Kn(9,3) was 15%
#   and Kn(12,4) 8% faster, and no build more than 3% slower.
# - _Q_STALE: at 2n, Kn(12,3) and construct_prescribed([60], 0) were
#   13-14% slower; at 8n, Kn(12,3) was 8% faster but cube(7), cube(8),
#   Kn(10,3) and folded_cube(7) 14-30% slower.
_Q_WIDTH, _Q_SHARE, _Q_WASTE, _Q_STALE = 32, 4, 1, 4


# Every Hermite build of a row lattice calls the engine by this name, which
# tracing and tests may rebind; the Smith rounds call ``_build`` directly.
_echelon_basis = _build


def _form_of(e: _Echelon) -> HermiteForm:
    """The ``HermiteForm`` of a reduced echelon basis."""
    n, basis = e.n, e.unpacked()
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
    return _form_of(_echelon_basis(m.data, m.cols))


def _smith_coordinates(rows, m: int):
    """(d, vt, rounds) for the rows of an echelon basis over m columns: a
    unimodular V, given as its transpose ``vt`` (None for the identity), and
    d such that the row lattice of rows * V is spanned by the d[k] * e_k, so
    that y is in the row lattice of the rows exactly when (yV)_k is 0 mod
    d[k] for every k, d[k] = 0 asking (yV)_k = 0; ``rounds`` counts the
    Hermite builds, row and column rounds alike.

    Alternates Hermite reductions of rows and columns (Kannan and Bachem,
    SIAM J. Comput. 1979), with the column operations kept: a column round
    is the Hermite form of [rows^T | vt], a unimodular W times it, so its
    right block is W * vt, the transpose of V * W^T, and its left block the
    transpose of rows * V * W^T.  A row round is the Hermite form of the
    rows, which leaves V and the row lattice as they are.  A round makes
    the corner entry the gcd of its row, so it shrinks until it divides its
    row, whose row and column then stay clear: the rounds end with one
    nonzero per row, d[k] in column k.
    """
    vt, rounds = None, 0
    while any(sum(1 for x in row if x) > 1 for row in rows):
        r = len(rows)
        rounds += 1
        if vt is None:
            vt = [(0,) * k + (1,) + (0,) * (m - 1 - k) for k in range(m)]
        basis = _build([c + v for c, v in zip(zip(*rows), vt)],
                       r + m).unpacked()
        aug = [basis[j] for j in sorted(basis)]
        vt = [x[r:] for x in aug]
        rows = list(zip(*[x[:r] for x in aug]))
        if all(sum(1 for x in row if x) <= 1 for row in rows):
            break
        rounds += 1
        basis = _build(rows, m).unpacked()
        rows = [basis[j] for j in sorted(basis)]
    d = [0] * m
    for row in rows:
        for k, x in enumerate(row):
            if x:
                d[k] = abs(x)
    return d, vt, rounds


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form of ``m``: the chain of elementary divisors, padded
    with zeros to ``min(rows, cols)``.

    The divisors are read off the ``_Quotient`` of the row lattice of ``m``,
    or of its transpose when that has fewer columns: the two have the same
    divisors, and the presentation has at most ``min(rows, cols)`` columns.
    """
    t = m.transpose() if m.cols > m.rows else m
    quot = _Quotient(_echelon_basis(t.data, t.cols))
    return quot.smith_form(min(m.rows, m.cols), m.cols)


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


# Input budget of a modulus: trial division up to isqrt(p) then takes at
# most about 27 600 steps.  The bound is the square root of the int64
# maximum.
_MAX_MODULUS = isqrt(2**63 - 1)


def _check_modulus(p: int) -> None:
    """Raise ValueError for a modulus p past the input budget, checked
    before the primality test, or for a p that is not prime."""
    if p > _MAX_MODULUS:
        raise ValueError(
            f"modulus {p} is past {_MAX_MODULUS}, the int64 square-root bound"
        )
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def kernel_basis_mod_p(m: IntMatrix, p: int) -> list:
    """Basis of the right kernel of ``m`` over Z/pZ.

    Returns ``cols - rank_mod_p`` vectors with entries in 0..p-1, one per
    free column of the reduced row echelon form of ``m`` mod p, which is
    unique.  p is checked first (``_check_modulus``).
    """
    _check_modulus(p)
    return _kernel_mod_p(m.data, m.cols, p)


def _kernel_mod_p(rows, n: int, p: int) -> list:
    """``kernel_basis_mod_p`` of the rows over n columns, p prime."""
    # Echelon rows are 1 at their pivot and 0 at the other pivots, so only
    # their free entries are kept: free column f -> entry of each pivot row.
    pivots = []
    free = {f: [] for f in range(n)}
    for row in rows:
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
