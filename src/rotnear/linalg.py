"""Exact dense linear algebra over the ordered fields of `field`.

Vectors hold Fractions and/or RatFuncEps entries (ints are promoted to
Fractions on construction); vectors and matrices are immutable.

A matrix is held as one fraction-free pair (P, d) with A = P/d: P is an
n x n matrix of ints and d an int when every entry is rational, and
otherwise P is a matrix over Z[e] and d in Z[e] (PolyEps with int
coefficients).  The pair is canonical: gcd(d, all P_ij) = 1 over Z[e],
content included, lc(d) > 0, and P and d are plain ints whenever they
are all constant.  So two matrices are equal exactly when their pairs
are, and equality and hashing read the pair; a Q matrix and a Q(e)
matrix with the same constant entries are equal and hash equal.

Every kernel works on the pair.  Products, sums and scalar multiples
form the new pair and divide out one gcd (`_canonical`: one call of
`field._cofactors` over the denominator and every entry returns the gcd
with the exact quotients; one integer gcd of packed values decides it
in the common case); the transpose, the negation
and the inverse of an isometry of the identity form need no gcd at
all.  `det` and `inverse` run Bareiss's fraction-free elimination on P
(forward for `det`, Gauss-Jordan on [P | I] for `inverse`), whose
every division is exact and stays in Z[e]; the pivot is the first row
with a nonzero entry in the current column.  The isometry test P^T G P == d^2 G for a diagonal
form G (orthogonality when G = I) runs on P with no division at all.
An entry is reduced to its canonical field element P_ij/d only when it
is read (`m[i, j]`, `rows`, `entries`, `mat_to_json`, `repr`), once per
instance.  A matrix built from rows keeps those rows as its read view.
Norm questions are handled entirely through `frob_sq`, the *squared*
Frobenius norm: every downstream order/infinitesimality statement is
equivalent to its squared form, which avoids square roots that Q(e)
does not have.

Over Z[e] the product, the elimination and the sums of squares run on
plain ints: evaluation at e = 2^k is a ring map Z[e] -> Z, so a kernel
packs each entry to x(2^k), runs its int code and reads back what it
returns as balanced base-2^k digits, exact when every returned
coefficient is below 2^(k-1) in absolute value: k = bitlen(B) + 1 for a
bound B on the inputs' L1 norms.  For Bareiss, B = prod_i max(1, sum_j
|p_ij|_1 + 1) bounds every entry the elimination holds, each a minor of
[P | I] (Sylvester's identity).  A nonzero minor within the bound packs
to a nonzero int, and a quotient exact in Z[e] stays exact in Z, so the
pivots, the failing column and every division are unchanged.  The
PolyEps a kernel returns skip the constructor's normalization
(`PolyEps._of`): `_unpack`'s digits and `_canonical`'s quotients, by the
content and by the gcd, are ints with a nonzero last coefficient already.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .field import PolyEps, RatFuncEps, _as_poly, _cofactors, _digits
from .field import _pack as _pack_coeffs
from .field import format_elem, parse_elem

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
    denominators.  Each prime or irreducible factor of d misses some
    numerator, so gcd(d, all numerators) = 1 over Z[e], content
    included, and lc(d) > 0: for the entries of a matrix this is its
    canonical pair.
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


def _shape(flat, d, n):
    """(P, d) with P as n row tuples of the n*n values flat; P and d become
    plain ints when all of them are constant."""
    if type(d) is not int and d.degree == 0 and all(type(x) is int or x.degree < 1 for x in flat):
        flat = [x if type(x) is int else x.lc for x in flat]
        d = d.lc
    return tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n)), d


def _canonical(rows, d):
    """The canonical pair of the matrix rows/d, for rows of ints or PolyEps
    over Z[e] and d a nonzero int or PolyEps over Z[e]: both divided by
    their gcd over Z[e], content included, with lc(d) > 0 (see `_shape`).

    Over Z the gcd is one `math.gcd`.  Over Z[e] the content is one
    `math.gcd` of every coefficient.  Then one `field._cofactors` call
    over d and all entries gives their primitive gcd with the exact
    quotients it leaves; in the common case one integer gcd of their
    values at a power of two past d's root bound shows that they share
    no nonconstant factor, and the entries are kept as they are.  By
    Gauss's lemma every quotient by the primitive gcd stays in Z[e]."""
    n = len(rows)
    flat = [x for row in rows for x in row]
    if type(d) is int and all(type(x) is int for x in flat):
        g = math.gcd(d, *flat)
        if d < 0:
            g = -g
        if g != 1:
            d //= g
            flat = [x // g for x in flat]
        return _shape(flat, d, n)
    d = _as_poly(d)
    flat = [_as_poly(x) for x in flat]
    content = math.gcd(*d.coeffs, *(c for x in flat for c in x.coeffs))
    if d.lc < 0:
        content = -content
    if content != 1:
        d = PolyEps._of([c // content for c in d.coeffs])
        flat = [PolyEps._of([c // content for c in x.coeffs]) for x in flat]
    if d.degree > 0:
        h, quotients = _cofactors([d.coeffs] + [x.coeffs for x in flat])
        if h != [1]:
            d, *flat = map(PolyEps._of, quotients)
    return _shape(flat, d, n)


def _norm1(x):
    """The L1 norm of an int or a PolyEps over Z[e]: the sum of |coefficients|."""
    return abs(x) if type(x) is int else sum(map(abs, x.coeffs))


def _pack(x, k):
    """x(2^k) for an int or a PolyEps over Z[e]."""
    return x if type(x) is int else _pack_coeffs(x.coeffs, k)


def _unpack(v, k):
    """The PolyEps over Z[e] whose coefficients are the balanced base-2^k digits of v."""
    return PolyEps._of(_digits(v, k))


def _packed(rows, k):
    return [[_pack(x, k) for x in row] for row in rows]


def _matmul(p, q):
    """The product of two square matrices given as rows of ints or PolyEps;
    over Z[e] packed, with (PQ)_ij bounded by sum_l |p_il|_1 * max |q|_inf."""
    if type(p[0][0]) is not int or type(q[0][0]) is not int:
        cs = [x for r in q for x in r]
        if type(cs[0]) is not int:  # a pair over Z[e] holds PolyEps only
            cs = [c for x in cs for c in x.coeffs]
        top = max(map(abs, cs), default=0)
        k = (max(sum(map(_norm1, row)) for row in p) * top).bit_length() + 1
        return [[_unpack(v, k) for v in row] for row in _matmul(_packed(p, k), _packed(q, k))]
    cols = tuple(zip(*q))
    return [[sum(map(mul, row, col)) for col in cols] for row in p]


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
    with the column that has no pivot; packed over Z[e] (module docstring).
    """
    if type(p[0][0]) is not int:
        k = math.prod(max(1, sum(map(_norm1, row)) + jordan) for row in p).bit_length() + 1
        sign, delta, r = _bareiss(_packed(p, k), jordan)
        return sign, _unpack(delta, k), r and [[_unpack(v, k) for v in row] for row in r]
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
    """Immutable square matrix of exact field elements, held as its
    canonical pair (P, d) (module docstring).  `Mat(rows)` keeps the rows
    it was given as its read view; a computed matrix reduces an entry to
    P_ij/d on its first read and keeps the result."""

    __slots__ = ("n", "_p", "_d", "_r")

    def __init__(self, rows):
        rs = [[_canon_entry(x) for x in row] for row in rows]
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("square matrix required")
        # reduced entries over their lcm denominator already form the
        # canonical pair: no gcd to take
        self.n = n
        self._p, self._d = _shape(*_common([x for r in rs for x in r]), n)
        self._r = rs

    @classmethod
    def _of(cls, p, d):
        """The matrix P/d for a canonical pair: P a tuple of row tuples."""
        m = object.__new__(cls)
        m.n, m._p, m._d, m._r = len(p), p, d, None
        return m

    @classmethod
    def identity(cls, n):
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def zero(cls, n):
        return cls._of(((0,) * n,) * n, 1)

    @classmethod
    def diag(cls, ds):
        ds = tuple(_canon_entry(d) for d in ds)
        n = len(ds)
        return cls(
            [[ds[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        r = self._r
        if r is None:
            r = self._r = [[None] * self.n for _ in range(self.n)]
        x = r[i][j]
        if x is None:
            x = r[i][j] = _over(self._p[i][j], self._d)
        return x

    @property
    def rows(self):
        n = self.n
        return tuple(tuple(self[i, j] for j in range(n)) for i in range(n))

    def entries(self):
        n = self.n
        for i in range(n):
            for j in range(n):
                yield self[i, j]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self._d == other._d and self._p == other._p

    def __hash__(self):
        return hash((self._p, self._d))

    def _same_n(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._same_n(other)
        d, e = self._d, other._d
        if d == e:
            rows = [[x + y for x, y in zip(r, s)] for r, s in zip(self._p, other._p)]
        else:
            rows = [[x * e + y * d for x, y in zip(r, s)] for r, s in zip(self._p, other._p)]
            d = d * e
        return Mat._of(*_canonical(rows, d))

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Mat._of(tuple(tuple(-x for x in row) for row in self._p), self._d)

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, RatFuncEps)):
            return NotImplemented
        (a,), b = _common([_canon_entry(scalar)])
        return Mat._of(*_canonical([[a * x for x in row] for row in self._p], b * self._d))

    __mul__ = __rmul__

    def __matmul__(self, other):
        if isinstance(other, Mat):
            # P/d @ Q/e = PQ/(de), with one gcd for the whole matrix
            self._same_n(other)
            return Mat._of(*_canonical(_matmul(self._p, other._p), self._d * other._d))
        if isinstance(other, Vec):
            if len(other) != self.n:
                raise ValueError(f"dimension mismatch: {self.n} vs {len(other)}")
            u, c = _common(other.entries)  # P/d @ U/c = PU/(dc)
            dc = self._d * c
            return Vec(tuple(_over(sum(a * b for a, b in zip(row, u)), dc) for row in self._p))
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
        return Mat._of(tuple(zip(*self._p)), self._d)

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
    try:
        sign, delta, _ = _bareiss(a._p)
    except SingularMatrixError:
        return _over(0, a._d)
    return _over(delta if sign > 0 else -delta, a._d**a.n)


def inverse(a):
    """Exact inverse d*P^-1 for a = P/d, by fraction-free Gauss-Jordan
    elimination; raises SingularMatrixError (carrying the failing column)
    when singular."""
    d = a._d
    _, delta, r = _bareiss(a._p, jordan=True)
    return Mat._of(*_canonical([[d * x for x in row] for row in r], delta))


def frob_sq(a):
    """Squared Frobenius norm: the sum of the squares of the entries, on
    packed ints over Z[e]."""
    flat = [x for row in a._p for x in row]
    if type(a._d) is int:
        s = sum(x * x for x in flat)
    else:
        k = sum(_norm1(x) ** 2 for x in flat).bit_length() + 1
        s = _unpack(sum(v * v for v in (_pack(x, k) for x in flat)), k)
    return _over(s, a._d * a._d)


def _preserves(p, dd, g=None):
    """P^T G P == dd * G for P a list of rows and G = diag(g), or G = I
    when g is None: with dd = d^2 this is the isometry test on a = P/d,
    and it needs no division; over Z[e] it is P^T A P == dd A for G = A/L, packed."""
    if type(dd) is not int:
        a = None if g is None else _common(g)[0]
        cn = max(sum(_norm1(row[j]) for row in p) for j in range(len(p)))
        top = 1 if a is None else max(map(_norm1, a))
        k = (top * max(cn * cn, _norm1(dd))).bit_length() + 1
        return _preserves(_packed(p, k), _pack(dd, k), a and [_pack(x, k) for x in a])
    cols = list(zip(*p))
    gcols = cols if g is None else [[gk * x for gk, x in zip(g, c)] for c in cols]
    for i, gi in enumerate(gcols):
        target = dd if g is None else g[i] * dd
        for j in range(i, len(cols)):
            s = sum(map(mul, gi, cols[j]))
            if (s != target) if i == j else s:
                return False
    return True


def is_orthogonal(a):
    """A^T A == I, tested as P^T P == d^2 I for a = P/d."""
    return _preserves(a._p, a._d * a._d)


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
