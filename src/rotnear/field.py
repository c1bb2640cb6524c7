"""Exact arithmetic in two ordered fields: the rationals Q, and Q(e),
the field of rational functions in one indeterminate e over Q.

Rationals are plain `fractions.Fraction` values.  An element of Q(e) is
a `RatFuncEps`: a quotient num/den of `PolyEps` polynomials kept in a
canonical form (den monic, gcd(num, den) = 1), so structural equality
of the representation is equality in the field.

A `PolyEps` coefficient is an int exactly when it is integral and a
Fraction otherwise.  An int equals and hashes like the Fraction it
stands for, so the rule changes no comparison, hash or printed form;
it lets polynomials over Z[e] (the fraction-free kernels of `linalg`)
run on plain ints.  Public rational values (`parse_elem`, `evaluate`)
stay Fractions.

Every polynomial gcd goes through `_cofactors`, which returns the
primitive gcd of integer coefficient lists with each input divided by
it, so no caller divides by a gcd it has just found.  It decides the
gcd with one integer gcd (GCDHEU; Char, Geddes and Gonnet 1989): the
inputs are evaluated at xi = 2^k and gamma, the gcd of the values, is
read back as balanced base-xi digits; the primitive remainder sequence
over Z is its fallback, run only when that answer cannot be verified.
With xi >= 2 |a|_inf + 2 for one nonzero input a, gamma <= xi/2 proves
the inputs coprime: every root z of a has |z| < 1 + |a|_inf <= xi/2
(Cauchy's bound), so a nonconstant factor G of a has |G(xi)| = |lc(G)|
prod |xi - z_i| > xi/2, while a common factor's value G(xi) divides
every value and so gamma.

Q(e) is ordered by reading the sign of the lowest-order nonzero
coefficient.  This is the unique ordering in which e is a positive
infinitesimal: 0 < e < r for every positive rational r.  `sign`,
`is_infinitesimal` and `eps_order` decide order questions exactly; all
three read `_lowest`, the e-order and sign of an element's lowest-order
term, which is the one place that tells the element types apart.

The module also canonicalizes square classes, i.e. the multiplicative
group of the field modulo nonzero squares.  Every nonzero element of
Q(e) maps to a unique representative of the shape

    (squarefree integer) * (monic squarefree polynomial),

found by reducing num/den to the polynomial num*den (they differ by the
square den^2).  Two elements lie in the same class exactly when their
representatives are structurally equal; a quotient shape would not be
canonical, because u/v and u*v always share a class.  `square_class`
and `is_square` both read `_square_parts`, which splits num*den into
its monic squarefree part and its leading coefficient.  No product is
ever factored: for squarefree a and b the squarefree part of a*b is
a*b / gcd(a, b)^2, for integers and for monic polynomials alike, so
`square_class` factors the numerator and the denominator of the
leading coefficient separately and `SquareClassRep.__mul__` combines
two representatives with one gcd each.  Both questions
read a rational q as the constant q of Q[e], so Q and Q(e) get the same
answers; `is_square` tests the leading coefficient with `math.isqrt`
and never factors an integer.

A small text grammar for field elements (used by the CLI and the JSON
matrix format) is implemented by `parse_elem` / `format_elem`:

    rat     := '-'? digits ('/' digits)?
    mono    := rat ('*' 'e' ('^' digits)?)? | 'e' ('^' digits)?
    poly    := mono (('+'|'-') mono)*
    elem    := poly | '(' poly ')' '/' '(' poly ')'

Whitespace is insignificant and 'e' denotes the infinitesimal.  A
single-monomial numerator may omit its parentheses ("8*e^2/(1+e^2)");
the formatter emits that compact shape.  A run of digits is at most
MAX_DIGITS (4000) long and an exponent of e at most MAX_DEGREE (64);
longer input is an ElemSyntaxError at its offset, raised before any
digit is converted.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PolyEps",
    "RatFuncEps",
    "SquareClassRep",
    "eps",
    "sign",
    "is_infinitesimal",
    "eps_order",
    "is_square",
    "square_class",
    "squarefree_part",
    "squarefree_decomposition",
    "squarefree_int",
    "SquarefreeBoundError",
    "parse_elem",
    "format_elem",
    "parse_rat",
    "format_rat",
    "ElemSyntaxError",
    "FormatLimitError",
]

MAX_DEGREE = 64  # largest exponent of e the grammar accepts; bounds parsed degrees
MAX_DIGITS = 4000  # longest digit run the grammar accepts, below Python's own 4300


def _coeff(x):
    """The exact rational x as an int when it is integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _div(a, b):
    """a / b for exact rationals; two ints give an int when b divides a
    and a Fraction otherwise, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _primitive(cs):
    """The coefficients cs of a polynomial over Q scaled to a primitive
    list of ints: denominators cleared, content divided out (the zero
    polynomial gives [])."""
    den = math.lcm(*(c.denominator for c in cs))
    if den != 1:
        cs = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*cs)
    return [c // g for c in cs] if g != 1 else list(cs)


def _prem(a, b):
    """A pseudo-remainder of the int lists a by b (deg a >= deg b, b
    nonzero): lc(b)^k a mod b for some k >= 0, computed in Z[e]."""
    lcb, db = b[-1], len(b) - 1
    r = list(a)
    while len(r) > db:
        c = r.pop()
        shift = len(r) - db
        q, m = divmod(c, lcb)
        if m:  # scale by lc(b) only where the quotient term is not integral
            r = [lcb * x for x in r]
            q = c
        for i, bi in enumerate(b[:-1]):
            r[shift + i] -= q * bi
        while r and not r[-1]:
            r.pop()
    return r


def _pack(cs, k):
    """The value at e = 2^k of the int coefficients cs (lowest first), by Horner."""
    v = 0
    for c in reversed(cs):
        v = (v << k) + c
    return v


def _digits(v, k):
    """The balanced base-2^k digits of the int v, lowest first, each in
    [-2^(k-1), 2^(k-1)): the coefficients cs with _pack(cs, k) == v."""
    cs, mask, half = [], (1 << k) - 1, 1 << (k - 1)
    while v:
        c = v & mask
        v >>= k
        if c >= half:
            c, v = c - (1 << k), v + 1
        cs.append(c)
    return cs


def _cauchy_bits(a):
    """The least k with 2^k >= 2 |a|_inf + 2, for a nonzero int list a."""
    return max(map(abs, a)).bit_length() + 1


def _value_gcd(polys, k):
    """The gcd of the values at xi = 2^k of the int coefficient lists
    polys, or the first partial gcd that is at most xi/2.

    A result 0 < g <= xi/2 proves that the polys share no nonconstant
    factor in Z[e] once xi >= 2 |a|_inf + 2 for one nonzero a among them
    (`_cauchy_bits`).  Every root z of a has |z| < 1 + |a|_inf <= xi/2
    (Cauchy's bound), so a nonconstant factor G = lc(G) prod (e - z_i) of
    a has |G(xi)| > (xi/2)^deg(G) >= xi/2.  A common factor G divides
    every poly in Z[e] (Gauss's lemma), so the integer G(xi) divides
    every value and hence g, which is nonzero: |G(xi)| <= g <= xi/2."""
    half = 1 << (k - 1)
    g = 0
    for p in polys:
        g = math.gcd(g, _pack(p, k))
        if 0 < g <= half:
            break
    return g


def _quotient(a, h, k):
    """a / h as an int list when the int list h divides the nonzero a in
    Z[e], else None: the quotient of their values at 2^k, read back as
    digits, times h must be a, tested at a width 2^w that no coefficient
    of q*h - a reaches, so exactly."""
    q, r = divmod(_pack(a, k), _pack(h, k))
    if r:
        return None
    q = _digits(q, k)
    if not q or len(q) + len(h) != len(a) + 1:
        return None
    w = (sum(map(abs, h)) * max(map(abs, q)) + max(map(abs, a))).bit_length() + 1
    return q if _pack(q, w) * _pack(h, w) == _pack(a, w) else None


# GCDHEU's evaluation points: the first is 2^4 past the least power of two
# the proof allows, and each retry widens k by about a quarter, as sympy
# grows its xi to about xi^1.25.  Of the 1960 gcds that ten cycles of the
# benchmark workloads and three typed rational-function inputs take (1433
# of two polynomials, 527 of a matrix's pair), none reached the remainder
# sequence this way; with one try at the least xi, 140 did.
_HEU_TRIES = 6
_HEU_EXTRA_BITS = 4


def _cofactors(polys):
    """(h, quotients): the primitive gcd h (lc > 0) of the int lists polys
    and each of them divided by h, exactly.  polys[0] is nonzero and sets
    xi = 2^k >= 2 |polys[0]|_inf + 2.  GCDHEU runs first: with g the gcd
    of the values (`_value_gcd`), g <= xi/2 means h = 1; otherwise h is
    the primitive part of g's balanced xi-adic digits when it divides
    every poly: then the gcd is h*Q with Q(xi) dividing the content c of
    those digits, and |c| <= xi/2 < |Q(xi)| unless Q is constant.  Only
    when no point verifies one is the primitive remainder sequence
    (Collins 1967; Brown and Traub 1971) folded over the inputs."""
    k = _cauchy_bits(polys[0]) + _HEU_EXTRA_BITS
    for _ in range(_HEU_TRIES):
        g = _value_gcd(polys, k)
        if g <= 1 << (k - 1):
            return [1], polys
        h = _digits(g, k)
        c = math.gcd(*h)
        if h[-1] < 0:
            c = -c
        h = [x // c for x in h]
        quotients = []
        for p in polys:
            q = _quotient(p, h, k) if p else []
            if q is None:
                break
            quotients.append(q)
        else:
            return h, quotients
        k += k // 4 + 2
    h = _primitive(polys[0])
    for p in polys[1:]:
        if len(h) == 1:
            break
        a, b = h, _primitive(p)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _primitive(_prem(a, b))
        h = a
    h = PolyEps(h) if h[-1] > 0 else -PolyEps(h)
    return list(h.coeffs), [list((PolyEps(p) // h).coeffs) for p in polys]


class PolyEps:
    """Polynomial in e with rational coefficients, lowest power first.

    `coeffs[k]` is the coefficient of e^k: an int when it is integral,
    a Fraction otherwise (the constructor normalizes).  The
    highest-index coefficient is nonzero; the zero polynomial has an
    empty tuple.  Instances are immutable and hashable.  Division never
    forms int / int: an exact quotient stays an int.  `gcd` works on
    primitive integer coefficients, by GCDHEU with the remainder sequence
    as its fallback.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        cs = [c if type(c) is int else _coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, cs):
        """Unchecked: the caller guarantees cs holds ints, the last nonzero."""
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    @property
    def degree(self):
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def ord0(self):
        """Multiplicity of the root e = 0, or None for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PolyEps):  # no call on the common path
            other = _as_poly(other)
            if other is None:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __neg__(self):
        return PolyEps(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return PolyEps(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if type(other) is int:  # normalized: a Fraction times an int may be integral
            return PolyEps([c * other for c in self.coeffs])
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return _POLY_ZERO
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] += a * b
        return PolyEps(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = _POLY_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __divmod__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < o.degree:
            return _POLY_ZERO, self
        db, lcb = o.degree, o.lc
        rem = list(self.coeffs)
        quo = [0] * (len(rem) - db)
        for k in reversed(range(len(quo))):
            c = rem[k + db]
            if c:
                c = _div(c, lcb)
                quo[k] = c
                for i, bi in enumerate(o.coeffs):
                    rem[k + i] -= c * bi
        return PolyEps(quo), PolyEps(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return PolyEps(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def monic(self):
        if self.is_zero:
            raise ZeroDivisionError("the zero polynomial has no monic form")
        lc = self.lc
        if lc == 1:
            return self
        return PolyEps([_div(c, lc) for c in self.coeffs])

    def evaluate(self, t):
        """Value at e = t, computed with exact rational arithmetic."""
        t = _coeff(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    @staticmethod
    def gcd(a, b):
        """Monic greatest common divisor (0 if both arguments are 0): both
        inputs are scaled to primitive int lists, the one of smaller norm
        first, and `_cofactors` finds their gcd, by GCDHEU with the
        primitive remainder sequence as its fallback.  The result is made
        monic."""
        a, b = _primitive(a.coeffs), _primitive(b.coeffs)
        if not (a and b):
            a = a or b
            return PolyEps(a).monic() if a else _POLY_ZERO
        polys = [a, b] if max(map(abs, a)) <= max(map(abs, b)) else [b, a]
        return PolyEps(_cofactors(polys)[0]).monic()

    def __repr__(self):
        return f"PolyEps({_format_poly(self)!r})"

    def __str__(self):
        return _format_poly(self)


_POLY_ZERO = PolyEps()
_POLY_ONE = PolyEps(1)


def _as_poly(x):
    """x as a PolyEps if it is a polynomial or a rational, else None."""
    if isinstance(x, PolyEps):
        return x
    if isinstance(x, (int, Fraction)):
        return PolyEps(x)
    return None


class RatFuncEps:
    """Element of Q(e): a reduced quotient num/den with den monic.

    The canonical form makes structural equality coincide with field
    equality.  Arithmetic accepts ints, Fractions and PolyEps on either
    side and always returns canonical values.  Division by zero raises
    ZeroDivisionError.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        p, q = _as_poly(num), _as_poly(den)
        if p is None or q is None:
            bad = num if p is None else den
            raise TypeError(f"expected a polynomial or rational, got {type(bad).__name__}")
        num, den = p, q
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = _POLY_ZERO
            self.den = _POLY_ONE
            return
        if den.degree > 0:  # a constant den has no common factor with num
            # num/den = s*a/b = s*(a/h)/(b/h) for a, b primitive over Z
            h, (b, a) = _cofactors([_primitive(den.coeffs), _primitive(num.coeffs)])
            if h != [1]:
                s = _div(num.lc * b[-1], a[-1] * den.lc)
                num, den = PolyEps([s * c for c in a]), PolyEps(b)
        lc = den.lc
        if lc != 1:
            num, den = PolyEps([_div(c, lc) for c in num.coeffs]), den.monic()
        self.num = num
        self.den = den

    def __bool__(self):
        return not self.num.is_zero

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFuncEps):
            return other
        if isinstance(other, (int, Fraction, PolyEps)):
            return RatFuncEps(other)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # A rational-valued element must hash like the Fraction it equals.
        if self.den == _POLY_ONE and self.num.degree <= 0:
            return hash(self.num.lc)
        return hash((self.num.coeffs, self.den.coeffs))

    def __neg__(self):
        # -num/den is canonical when num/den is: nothing to reduce
        out = object.__new__(RatFuncEps)
        out.num, out.den = -self.num, self.den
        return out

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFuncEps(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFuncEps(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFuncEps(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero field element")
        return RatFuncEps(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            if not self:
                raise ZeroDivisionError("zero has no negative powers")
            return RatFuncEps(self.den, self.num) ** (-k)
        return RatFuncEps(self.num**k, self.den**k)

    def evaluate(self, t):
        """Exact value at e = t; raises ZeroDivisionError at a pole."""
        d = self.den.evaluate(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at e = {t}")
        return self.num.evaluate(t) / d

    def _comparison(test):
        def compare(self, other):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            return test(sign(self - o), 0)

        return compare

    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)
    del _comparison

    def __abs__(self):
        return -self if sign(self) < 0 else self

    def __repr__(self):
        return f"RatFuncEps({format_elem(self)!r})"

    def __str__(self):
        return format_elem(self)


eps = RatFuncEps(PolyEps((0, 1)))


# ---------------------------------------------------------------------------
# order and squares, uniformly over both field instantiations


def _lowest(x):
    """(e-order, sign) of the lowest-order term of a field element, or
    None for 0.  A nonzero rational is its own lowest term, of order 0."""
    if isinstance(x, RatFuncEps):
        if not x:
            return None
        i, j = x.num.ord0, x.den.ord0
        return i - j, 1 if (x.num.coeffs[i] > 0) == (x.den.coeffs[j] > 0) else -1
    if isinstance(x, (int, Fraction)):
        return (0, 1 if x > 0 else -1) if x else None
    raise TypeError(f"not a field element: {type(x).__name__}")


def sign(x):
    """Sign of x in its ordered field: -1, 0 or +1."""
    low = _lowest(x)
    return 0 if low is None else low[1]


def is_infinitesimal(x):
    """True iff |x| is below every positive rational.  Zero counts as
    infinitesimal; over Q the predicate degenerates to x == 0."""
    low = _lowest(x)
    return low is None or low[0] > 0


def eps_order(x):
    """Order of vanishing at e = 0: None for 0, an integer otherwise
    (0 for any nonzero rational)."""
    low = _lowest(x)
    return None if low is None else low[0]


def squarefree_decomposition(p):
    """Yun's algorithm: pairwise-coprime monic squarefree a_i with
    monic(p) = prod a_i^i; returned as a list of (a_i, i), i ascending.
    It runs over Z[e]: b and c are divided by the same gcd, so their
    common scale cancels, and each a_i is made monic when found."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    b = PolyEps(_primitive(p.coeffs))
    z = b.derivative()
    out = []
    i = 0  # pass 0 is Yun's set-up: b, c = f / gcd(f, f'), f' / gcd(f, f')
    while b.degree > 0:
        a, (b, c) = _cofactors([b.coeffs, z.coeffs])
        if i and len(a) > 1:
            out.append((PolyEps(a).monic(), i))
        b = PolyEps(b)
        z = PolyEps(c) - b.derivative()
        i += 1
    return out


def squarefree_part(p):
    """Monic product of the irreducible factors of p with odd
    multiplicity, so p = lc(p) * result * (monic square)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    out = _POLY_ONE
    for a, i in squarefree_decomposition(p):
        if i % 2:
            out = out * a
    return out


class SquarefreeBoundError(ValueError):
    """The squarefree part of an integer would need a trial divisor
    above the bound 2^22 of `squarefree_int`."""


_TRIAL_BOUND = 1 << 22  # largest trial divisor of squarefree_int


def squarefree_int(n):
    """Squarefree part of a nonzero integer, with its sign.

    Trial division runs only while d^3 <= the remaining cofactor m.  On
    exit every prime factor of m is at least d > m^(1/3), so m is 1, p,
    p*q or p^2: a perfect square (1 or p^2) contributes 1 and anything
    else contributes itself.  The result is exact at O(n^(1/3)) cost.

    The divisors stop at 2^22, about 2*10^6 odd trial divisions: when
    the cofactor still has d^3 <= m there, SquarefreeBoundError is
    raised (the CLI exits 2 with its message).  Every |n| below 2^66
    stays within the bound, and so does any n whose cofactor after
    removing the primes below 2^22 is under 2^66."""
    if n == 0:
        raise ValueError("zero has no squarefree part")
    out = -1 if n < 0 else 1
    n = abs(n)
    d = 2
    while d * d * d <= n:
        if d > _TRIAL_BOUND:
            raise SquarefreeBoundError(
                f"square class of an integer with a {n.bit_length()}-bit cofactor "
                "needs trial divisors above the bound 2^22"
            )
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return out if math.isqrt(n) ** 2 == n else out * n


@dataclass(frozen=True)
class SquareClassRep:
    """Canonical representative of a coset of the nonzero squares.

    Two elements x, y satisfy square_class(x) == square_class(y)
    exactly when x*y is a square in the field.
    """

    rep: object  # Fraction, or RatFuncEps in the Q(e) instantiation

    def _parts(self):
        """(s, w): the squarefree integer and the monic squarefree
        polynomial whose product is the representative."""
        rep = self.rep
        if isinstance(rep, RatFuncEps):
            return rep.num.lc, rep.num.monic()
        return rep.numerator, _POLY_ONE

    def __mul__(self, other):
        if not isinstance(other, SquareClassRep):
            return NotImplemented
        (s, w), (t, v) = self._parts(), other._parts()
        if w == _POLY_ONE or v == _POLY_ONE:
            w = w * v
        else:
            _, (w, v) = _cofactors([_primitive(w.coeffs), _primitive(v.coeffs)])
            w = (PolyEps(w) * PolyEps(v)).monic()
        return _class_rep(_squarefree_product(s, t), w)

    @property
    def is_trivial(self):
        return self.rep == 1

    def __str__(self):
        return format_elem(self.rep)


def _square_parts(x):
    """(w, c) for a nonzero field element, None for 0: w is the monic
    squarefree part and c the leading coefficient of num*den, so x lies
    in the square class of c*w.  A rational is read as a constant of
    Q[e], with w = 1 and c = x."""
    if isinstance(x, RatFuncEps):
        if not x:
            return None
        # x and num*den differ by the square den^2
        p = x.num * x.den
        return squarefree_part(p), p.lc
    if isinstance(x, (int, Fraction)):
        return (_POLY_ONE, Fraction(x)) if x else None
    raise TypeError(f"not a field element: {type(x).__name__}")


def _squarefree_product(a, b):
    """The squarefree part of a*b for squarefree integers a and b."""
    g = math.gcd(a, b)
    return a * b // (g * g)


def _class_rep(s, w):
    return SquareClassRep(Fraction(s) if w == _POLY_ONE else RatFuncEps(w * s))


def square_class(x):
    """Canonical square-class representative of a nonzero element: the
    monic squarefree part of num*den times the squarefree part of its
    leading coefficient p/q, which is that of p*q, found from p and q
    separately."""
    parts = _square_parts(x)
    if parts is None:
        raise ValueError("zero has no square class")
    w, c = parts
    return _class_rep(
        _squarefree_product(squarefree_int(c.numerator), squarefree_int(c.denominator)), w
    )


def is_square(x):
    """True iff x = y*y for some field element y (0 is a square)."""
    parts = _square_parts(x)
    if parts is None:
        return True
    w, c = parts
    a, b = c.numerator, c.denominator
    return w == _POLY_ONE and c > 0 and math.isqrt(a) ** 2 == a and math.isqrt(b) ** 2 == b


# ---------------------------------------------------------------------------
# element grammar


class ElemSyntaxError(ValueError):
    """Input does not conform to the field-element grammar."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_TOKEN_RE = re.compile(r"(\d+)|([()+\-*/^])|(e)|(\S)")


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        off = m.start()
        if m.group(1) is not None:
            if len(m.group(1)) > MAX_DIGITS:
                raise ElemSyntaxError(
                    f"number with {len(m.group(1))} digits exceeds the limit {MAX_DIGITS}", off
                )
            tokens.append(("num", m.group(1), off))
        elif m.group(2) is not None:
            tokens.append((m.group(2), m.group(2), off))
        elif m.group(3) is not None:
            tokens.append(("eps", "e", off))
        else:
            raise ElemSyntaxError(f"unexpected character {m.group(4)!r}", off)
    tokens.append(("end", "", len(text)))
    return tokens


class _ElemParser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self, k=0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def take(self):
        t = self.toks[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def expect(self, kind, what):
        t = self.take()
        if t[0] != kind:
            raise ElemSyntaxError(f"expected {what}", t[2])
        return t

    def parse(self):
        if self.peek()[0] == "(":
            num = self._paren_poly()
            if self.peek()[0] == "/":
                self.take()
                den = self._paren_poly()
            else:
                den = _POLY_ONE
        else:
            num, terms = self._poly()
            if self.peek()[0] == "/":
                slash = self.take()
                if terms != 1:
                    raise ElemSyntaxError(
                        "parenthesize a multi-term numerator before '/'", slash[2]
                    )
                den = self._paren_poly()
            else:
                den = _POLY_ONE
        t = self.peek()
        if t[0] != "end":
            raise ElemSyntaxError("trailing input", t[2])
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        return RatFuncEps(num, den)

    def _paren_poly(self):
        self.expect("(", "'('")
        p, _ = self._poly()
        self.expect(")", "')'")
        return p

    def _poly(self):
        p = self._mono()
        terms = 1
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            q = self._mono()
            p = p + q if op == "+" else p - q
            terms += 1
        return p, terms

    def _mono(self):
        neg = False
        if self.peek()[0] == "-":
            self.take()
            neg = True
        t = self.peek()
        if t[0] == "num":
            coeff = self._rat_tail()
            if self.peek()[0] == "*":
                self.take()
                self.expect("eps", "'e'")
                k = self._power_tail()
            else:
                k = 0
        elif t[0] == "eps":
            self.take()
            coeff = Fraction(1)
            k = self._power_tail()
        else:
            raise ElemSyntaxError("expected a rational or 'e'", t[2])
        if neg:
            coeff = -coeff
        return PolyEps([0] * k + [coeff])

    def _rat_tail(self):
        t = self.expect("num", "digits")
        a = int(t[1])
        if self.peek()[0] == "/" and self.peek(1)[0] == "num":
            self.take()
            b_tok = self.take()
            if int(b_tok[1]) == 0:
                raise ZeroDivisionError(
                    f"zero denominator in rational (offset {b_tok[2]})"
                )
            return Fraction(a, int(b_tok[1]))
        return Fraction(a)

    def _power_tail(self):
        if self.peek()[0] == "^":
            self.take()
            t = self.expect("num", "digits after '^'")
            k = int(t[1])
            if k > MAX_DEGREE:
                raise ElemSyntaxError(f"degree {k} exceeds {MAX_DEGREE}", t[2])
            return k
        return 1


def parse_elem(text):
    """Parse a field element; returns a Fraction when the value is
    rational, a RatFuncEps otherwise.  Raises ElemSyntaxError (with the
    offending offset) on bad syntax, ZeroDivisionError on a zero
    denominator."""
    x = _ElemParser(_tokenize(text)).parse()
    if x.den == _POLY_ONE and x.num.degree <= 0:
        return Fraction(x.num.lc)
    return x


def parse_rat(text):
    """Parse a rational constant; rejects anything involving e."""
    x = parse_elem(text)
    if not isinstance(x, Fraction):
        raise ValueError(f"not a rational constant: {text!r}")
    return x


class FormatLimitError(ValueError):
    """A number has more digits than Python converts to a string."""


def format_rat(q):
    q = _coeff(q)
    try:
        return str(q) if type(q) is int else f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # Python's int-to-str digit limit
        raise FormatLimitError("the result has a coefficient too long to print") from exc


def _format_mono(k, c):
    if k == 0:
        return format_rat(c)
    e = "e" if k == 1 else f"e^{k}"
    return e if c == 1 else f"{format_rat(c)}*{e}"


def _format_poly(p):
    if p.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        mono = _format_mono(k, abs(c))
        if not parts:
            parts.append(("-" if c < 0 else "") + mono)
        else:
            parts.append(("-" if c < 0 else "+") + mono)
    return "".join(parts)


def format_elem(x):
    """Canonical string for a field element; `parse_elem` inverts it.
    Polynomials print in increasing powers of e, rationals as p/q with
    q omitted when 1."""
    if isinstance(x, (int, Fraction)):
        return format_rat(x)
    if isinstance(x, PolyEps):
        x = RatFuncEps(x)
    if not isinstance(x, RatFuncEps):
        raise TypeError(f"not a field element: {type(x).__name__}")
    num_s = _format_poly(x.num)
    if x.den == _POLY_ONE:
        return num_s
    if sum(1 for c in x.num.coeffs if c) > 1:
        num_s = f"({num_s})"
    return f"{num_s}/({_format_poly(x.den)})"
