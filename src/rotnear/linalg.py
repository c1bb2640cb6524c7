"""Exact dense linear algebra over the ordered fields of `field`.

Vectors and square matrices hold Fractions and/or RatFuncEps entries
(ints are promoted to Fractions on construction) and are immutable.

Products, determinants, inverses, norms and the orthogonality test work
on a matrix written as P/d with one common denominator: P is an integer
matrix and d the lcm of the entry denominators when every entry is
rational, and otherwise P is a polynomial matrix over Z[e] and d in
Z[e] the lcm of the monic denominators, both multiplied once by the lcm
of their coefficient denominators.  `det` and `inverse` run Bareiss's
fraction-free elimination on P (forward for `det`, Gauss-Jordan on
[P | I] for `inverse`), whose every division is exact and stays in
Z[e], so no gcd and no Fraction is taken inside the loops; each output
entry is reduced to canonical form once.  The pivot is the first row
with a nonzero entry in the current column.  The isometry test
P^T G P == d^2 G for a diagonal form G (orthogonality when G = I) runs
on P with no division at all.  Norm questions are handled entirely
through `frob_sq`, the *squared* Frobenius norm: every downstream
order/infinitesimality statement is equivalent to its squared form,
which avoids square roots that Q(e) does not have.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import PolyEps, RatFuncEps, format_elem, parse_elem

__all__ = [
    "Vec",
    "Mat",
    "SingularMatrixError",
    "det",
    "inverse",
    "frob_sq",
    "is_orthogonal",
    "mat_to_json",
    "mat_from_json",
]


def _canon_entry(x):
    if isinstance(x, (Fraction, RatFuncEps)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact entries required, got {type(x).__name__}")


def _common(xs):
    """Write the field elements xs as P/d with one common denominator d.

    All-rational xs give int numerators and the int lcm d of the
    denominators.  Otherwise the numerators and d are PolyEps over Z[e]:
    the monic lcm of the RatFuncEps denominators (rationals are constants
    of Q[e]) puts xs over one denominator in Q[e], and numerators and
    denominator are then multiplied by the lcm of all their coefficient
    denominators.
    """
    if all(isinstance(x, Fraction) for x in xs):
        d = math.lcm(*(x.denominator for x in xs))
        return [x.numerator * (d // x.denominator) for x in xs], d
    dens = dict.fromkeys(x.den for x in xs if isinstance(x, RatFuncEps))
    d = PolyEps(1)
    for den in dens:
        if den != d:
            d = d * (den // PolyEps.gcd(d, den))
    scale = {den: d // den for den in dens if den != d}

    def num(x):
        if isinstance(x, Fraction):
            return d * x
        return x.num * scale[x.den] if x.den in scale else x.num

    nums = [num(x) for x in xs]
    c = math.lcm(*(k.denominator for p in nums + [d] for k in p.coeffs))
    if c != 1:
        nums = [p * c for p in nums]
        d = d * c
    return nums, d


def _split(a):
    """Write the matrix a as P/d with one common denominator d: P is a
    list of rows of ints or of PolyEps (see `_common`)."""
    n = a.n
    p, d = _common(list(a.entries()))
    return [p[i : i + n] for i in range(0, n * n, n)], d


def _over(num, den):
    """The canonical field element num/den: a Fraction over Z, a RatFuncEps
    over Z[e] or Q[e]."""
    if isinstance(den, int):
        return Fraction(num, den)
    return RatFuncEps(num, den)


def _exact_div(x, y):
    q, r = divmod(x, y)
    if r:
        raise ArithmeticError("fraction-free elimination: inexact division")
    return q


def _bareiss(p, jordan=False):
    """Bareiss's fraction-free elimination on the square matrix p (lists
    of ints or of PolyEps); every division is exact.

    Returns (sign, delta, r): delta is the last pivot and
    det(p) = sign * delta.  With `jordan`, the elimination is
    Gauss-Jordan on [p | I], which ends at [delta*I | r], so
    r = delta * p^-1; otherwise r is None.  Raises SingularMatrixError
    with the column that has no pivot.
    """
    n = len(p)
    if jordan:
        m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(p)]
    else:
        m = [list(row) for row in p]
    width = len(m[0])
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            raise SingularMatrixError(k)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k]
        pv = pk[k]
        for i in range(n) if jordan else range(k + 1, n):
            if i == k:
                continue
            ri = m[i]
            f = ri[k]
            for j in range(k + 1, width):
                x = pv * ri[j] - f * pk[j] if f else pv * ri[j]
                ri[j] = _exact_div(x, prev) if k and x else x
        prev = pv
    return sign, prev, [row[n:] for row in m] if jordan else None


class Vec:
    """Immutable vector of exact field elements."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        es = tuple(_canon_entry(x) for x in entries)
        if not es:
            raise ValueError("empty vector")
        self.entries = es

    @classmethod
    def basis(cls, n, i):
        return cls(tuple(Fraction(1 if j == i else 0) for j in range(n)))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return len(self) == len(other) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def _same_len(self, other):
        if len(self) != len(other):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._same_len(other)
        return Vec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._same_len(other)
        return Vec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return Vec(tuple(-a for a in self.entries))

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, RatFuncEps)):
            return NotImplemented
        return Vec(tuple(scalar * a for a in self.entries))

    __mul__ = __rmul__

    def __repr__(self):
        return f"Vec([{', '.join(format_elem(a) for a in self.entries)}])"


class Mat:
    """Immutable square matrix of exact field elements."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(_canon_entry(x) for x in row) for row in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("square matrix required")
        self.rows = rs

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def identity(cls, n):
        return cls.diag([Fraction(1)] * n)

    @classmethod
    def zero(cls, n):
        return cls([[Fraction(0)] * n for _ in range(n)])

    @classmethod
    def diag(cls, ds):
        ds = tuple(_canon_entry(d) for d in ds)
        n = len(ds)
        return cls(
            [[ds[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def entries(self):
        for row in self.rows:
            yield from row

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def _same_n(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._same_n(other)
        return Mat(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._same_n(other)
        return Mat(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self):
        return Mat(tuple(tuple(-a for a in row) for row in self.rows))

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, RatFuncEps)):
            return NotImplemented
        return Mat(tuple(tuple(scalar * a for a in row) for row in self.rows))

    __mul__ = __rmul__

    def __matmul__(self, other):
        if isinstance(other, Mat):
            # P/d @ Q/e = PQ/(de), each entry reduced once
            self._same_n(other)
            p, d = _split(self)
            q, e = _split(other)
            de = d * e
            cols = tuple(zip(*q))
            return Mat(
                tuple(
                    tuple(_over(sum(a * b for a, b in zip(row, col)), de) for col in cols)
                    for row in p
                )
            )
        if isinstance(other, Vec):
            if len(other) != self.n:
                raise ValueError(f"dimension mismatch: {self.n} vs {len(other)}")
            return Vec(
                tuple(sum(a * b for a, b in zip(row, other)) for row in self.rows)
            )
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix powers must be non-negative integers")
        out = Mat.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out @ base
            k >>= 1
            if k:
                base = base @ base
        return out

    @property
    def T(self):
        return Mat(tuple(zip(*self.rows)))

    def __repr__(self):
        body = ", ".join(
            "[" + ", ".join(format_elem(a) for a in row) + "]" for row in self.rows
        )
        return f"Mat([{body}])"


class SingularMatrixError(ArithmeticError):
    """Elimination found no pivot; `column` is where it failed."""

    def __init__(self, column):
        super().__init__(f"matrix is singular: no pivot in column {column}")
        self.column = column


def det(a):
    """Exact determinant: det(P)/d^n for a = P/d, by fraction-free
    elimination."""
    p, d = _split(a)
    try:
        sign, delta, _ = _bareiss(p)
    except SingularMatrixError:
        return _over(0, d)
    return _over(delta if sign > 0 else -delta, d**a.n)


def inverse(a):
    """Exact inverse d*P^-1 for a = P/d, by fraction-free Gauss-Jordan
    elimination; raises SingularMatrixError (carrying the failing column)
    when singular."""
    p, d = _split(a)
    _, delta, r = _bareiss(p, jordan=True)
    return Mat([[_over(d * x, delta) for x in row] for row in r])


def frob_sq(a):
    """Squared Frobenius norm: the sum of the squares of the entries."""
    p, d = _split(a)
    return _over(sum(x * x for row in p for x in row), d * d)


def _preserves(p, dd, g=None):
    """P^T G P == dd * G for P a list of rows and G = diag(g), or G = I
    when g is None: with dd = d^2 this is the isometry test on a = P/d,
    and it needs no division."""
    cols = list(zip(*p))
    gcols = cols if g is None else [[gk * x for gk, x in zip(g, c)] for c in cols]
    for i, gi in enumerate(gcols):
        target = dd if g is None else g[i] * dd
        for j in range(i, len(cols)):
            s = sum(x * y for x, y in zip(gi, cols[j]))
            if (s != target) if i == j else s:
                return False
    return True


def is_orthogonal(a):
    """A^T A == I, tested as P^T P == d^2 I for a = P/d."""
    p, d = _split(a)
    return _preserves(p, d * d)


def mat_to_json(a):
    """JSON-ready dict: {"n": n, "entries": [[elem strings]]}."""
    return {
        "n": a.n,
        "entries": [[format_elem(x) for x in row] for row in a.rows],
    }


def mat_from_json(obj):
    """Inverse of `mat_to_json`; entries must be grammar strings."""
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError('matrix JSON must be {"n": ..., "entries": [[...]]}')
    n = obj["n"]
    entries = obj["entries"]
    if type(n) is not int or n < 1:
        raise ValueError("matrix JSON: 'n' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError("matrix JSON: 'entries' must be an n-list of n-lists")
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("matrix JSON: 'entries' must be an n-list of n-lists")
        if not all(isinstance(s, str) for s in row):
            raise ValueError("matrix JSON: entries must be strings")
        rows.append([parse_elem(s) for s in row])
    return Mat(rows)
