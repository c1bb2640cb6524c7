"""Anisotropic diagonal bilinear spaces, reflections, constructive
factorization of isometries into reflections, and spinor norms.

A space is a dimension n >= 2 with positive rational diagonal form
coefficients d_i, so q(x) = sum d_i x_i^2 vanishes only at 0 over any
formally real field.  A reflection along an anisotropic u is

    x  |->  x - 2 (b(x, u) / q(u)) u,

an involution of determinant -1 fixing the hyperplane orthogonal to u.

No reflection matrix is built in field arithmetic.  The Gram matrix is
written G = diag(a)/L with integers a_k, and a vector u = U/c over one
common denominator (`linalg._common`), so that with S = sum a_k U_k^2

    tau_u = (S I - 2 U (a o U)^T) / S,

where a o U is the entrywise product.  `compose` keeps its running
product as P/d and applies each reflection as the rank-1 update
P <- S P - 2 (P U)(a o U)^T, d <- d S; the result is the matrix of
that pair, canonicalized once, and its entries are reduced only when
read.

`decompose` factors any isometry into at most n reflections by
restoring the basis vectors in index order: while e_i is moved, reflect
along u = sigma e_i - e_i, which sends sigma e_i back to e_i and fixes
every already-restored e_j.  Because sigma is an isometry,
q(u) = 2 d_i (1 - sigma_ii) and u^T G sigma = d_i (e_i - sigma[i, :])^T,
so with X = I - sigma the step sigma <- tau_u sigma is

    X  <-  X - X[:, i] X[i, :] / X_ii,

one step of Gaussian elimination on X with the diagonal pivot X_ii, in
which the form cancels.  It runs fraction-free on a scaled copy of X
(Bareiss: every division exact), so a step costs O(n^2).  X_ii = 0 only where
column i vanishes (q(u) = 2 d_i X_ii and q is anisotropic), and then
row i vanishes too: sigma e_i = e_i gives sigma^T G e_i = G e_i, so
sigma[i, :] = e_i^T.

The spinor norm theta is the square class of the product of the
q-values over any reflection factorization; it does not depend on the
factorization chosen (Zassenhaus 1962, "On the spinor norm").  For an
isometry it is read off the elimination of `decompose` without building
a vector.  Write sigma = P/d and the form as diag(a)/L.  The step that
restores e_i has pivot pv and previous pivot prev (1 at the first
step), the current X_ii is pv / (d prev), and so

    q(u) = 2 (a_i / L) X_ii = 2 a_i pv / (L d prev).

Each pivot is the prev of the next step, so the pivots telescope over
the r steps, and with J the moved indices and delta the last pivot

    theta(sigma) = class of 2^r (prod_{j in J} a_j) delta / (L d)^r.

All of this holds for improper isometries too, over Q and Q(e) alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import RatFuncEps, format_elem, parse_elem, parse_rat, square_class
from .linalg import (
    Mat, SingularMatrixError, Vec, _bareiss, _canonical, _common, _exact_div, _over, _preserves
)

__all__ = [
    "BilinearSpace",
    "Isometry",
    "ReflectionSeq",
    "reflect",
    "decompose",
    "compose",
    "spinor_norm",
    "check_neg_identity",
]


class BilinearSpace:
    """Diagonal bilinear space: dimension n >= 2, coefficients d_i > 0."""

    __slots__ = ("d",)

    def __init__(self, d):
        ds = tuple(Fraction(x) if isinstance(x, int) else x for x in d)
        if len(ds) < 2:
            raise ValueError("dimension at least 2 required")
        for x in ds:
            if not isinstance(x, Fraction):
                raise TypeError("form coefficients must be rationals")
            if x <= 0:
                raise ValueError("form coefficients must be positive")
        self.d = ds

    @classmethod
    def identity_form(cls, n):
        return cls([Fraction(1)] * n)

    @property
    def n(self):
        return len(self.d)

    @property
    def is_identity_form(self):
        return all(x == 1 for x in self.d)

    @property
    def det_b(self):
        """Determinant of the Gram matrix (an exact rational; its square
        class is the invariant that matters)."""
        out = Fraction(1)
        for x in self.d:
            out *= x
        return out

    def _check_dim(self, v):
        if len(v) != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {len(v)}")

    def b_value(self, v, w):
        """b(v, w) = sum d_i v_i w_i."""
        self._check_dim(v)
        self._check_dim(w)
        return sum(di * vi * wi for di, vi, wi in zip(self.d, v, w))

    def q_value(self, v):
        """q(v) = b(v, v); zero only at the zero vector."""
        return self.b_value(v, v)

    def to_json(self):
        return {"d": [format_elem(x) for x in self.d]}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "d" not in obj or not isinstance(obj["d"], list):
            raise ValueError('space JSON must be {"d": [rational strings]}')
        return cls([parse_rat(s) for s in obj["d"]])

    def __eq__(self, other):
        if not isinstance(other, BilinearSpace):
            return NotImplemented
        return self.d == other.d

    def __hash__(self):
        return hash(self.d)

    def __repr__(self):
        return f"BilinearSpace([{', '.join(format_elem(x) for x in self.d)}])"


class Isometry:
    """A matrix m with m^T G m = G for the Gram matrix G = diag(sp.d); det is
    +1 or -1 (`is_rotation` when +1).  Quadspace's own operations yield
    isometries by construction and carry det by multiplicativity.

    The public constructor validates both exactly, on the canonical pair
    m = P/d.  The form test is P^T G P == d^2 G, with no division.  Once
    it holds, det(m)^2 det(G) = det(G), so det(m) is +1 or -1, and it is
    read off at e = 0: column j gives sum_k g_k P_kj^2 = g_j d^2 with
    every g_k > 0, so if e divided d it would divide every P_kj too,
    which the canonical pair rules out.  Hence d(0) != 0, evaluation at
    e = 0 is a ring map on P/d, and det(m) = det(P(0)) / d(0)^n, the
    determinant of an integer matrix; the constructor still checks that
    it is +1 or -1.
    """

    __slots__ = ("sp", "m", "det")

    def __init__(self, sp, m):
        if m.n != sp.n:
            raise ValueError(f"dimension mismatch: {sp.n} vs {m.n}")
        p, d = m._p, m._d
        if not _preserves(p, d * d, None if sp.is_identity_form else sp.d):
            raise ValueError("matrix does not preserve the form")
        if type(d) is not int:  # P and d at e = 0
            p = [[x if type(x) is int else (x.coeffs[0] if x else 0) for x in row] for row in p]
            d = d.coeffs[0]
        try:
            sign, delta, _ = _bareiss(p)
        except SingularMatrixError:
            sign = delta = 0
        det = Fraction(sign * delta, d**m.n)
        if det not in (1, -1):
            raise ArithmeticError("isometry determinant must be +1 or -1")
        self.sp, self.m, self.det = sp, m, int(det)

    @classmethod
    def _built(cls, sp, m, det):
        # m is an isometry of det `det` by construction: nothing to re-check.
        iso = object.__new__(cls)
        iso.sp, iso.m, iso.det = sp, m, det
        return iso

    @classmethod
    def identity(cls, sp):
        return cls._built(sp, Mat.identity(sp.n), 1)

    @classmethod
    def neg_identity(cls, sp):
        return cls._built(sp, -Mat.identity(sp.n), (-1) ** sp.n)

    @property
    def is_rotation(self):
        return self.det == 1

    def apply(self, v):
        return self.m @ v

    def __matmul__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        if self.sp.d != other.sp.d:
            raise ValueError("isometries live in different spaces")
        return Isometry._built(self.sp, self.m @ other.m, self.det * other.det)

    def inverse(self):
        # G^-1 m^T G for G = diag(a)/L: entry (i, j) is P_ji a_j / (a_i d),
        # which is the canonical pair (P^T, d) when every a_k is equal
        m = self.m
        a, _ = _common(self.sp.d)
        if len(set(a)) == 1:
            return Isometry._built(self.sp, m.T, self.det)
        big_a = math.lcm(*a)
        rows = [
            [(aj * (big_a // ai)) * x for x, aj in zip(col, a)]
            for col, ai in zip(zip(*m._p), a)
        ]
        return Isometry._built(self.sp, Mat._of(*_canonical(rows, m._d * big_a)), self.det)

    def __eq__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        return self.sp.d == other.sp.d and self.m == other.m

    def __hash__(self):
        return hash((self.sp.d, self.m))

    def __repr__(self):
        return f"Isometry({self.m!r})"


@dataclass(frozen=True)
class ReflectionSeq:
    """Ordered reflection vectors u_i representing tau_{u_1}...tau_{u_m}."""

    vectors: tuple

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i):
        return self.vectors[i]

    def to_json(self):
        return [[format_elem(x) for x in u] for u in self.vectors]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, list):
            raise ValueError("reflection-sequence JSON must be a list of vectors")
        return cls(tuple(Vec([parse_elem(s) for s in u]) for u in obj))


def _scaled(sp, a, u):
    """(U, S) for a vector u written as U/c over one common denominator:
    S = sum a_k U_k^2, so q(u) = S / (L c^2) for the form diag(a)/L.  S
    vanishes only at u = 0, which has no reflection."""
    sp._check_dim(u)
    big_u, _ = _common(Vec(u).entries)
    return big_u, sum(ak * x * x for ak, x in zip(a, big_u))


def _require_isometry(sp, iso, name):
    if not isinstance(iso, Isometry) or iso.sp.d != sp.d:
        raise ValueError(f"{name} requires an isometry of this space")


def reflect(sp, u):
    """Reflection along the anisotropic vector u, as an Isometry:
    (S I - 2 U (a o U)^T) / S in the notation of the module docstring."""
    return compose(sp, [u])


def compose(sp, rs):
    """Product isometry tau_{u_1}...tau_{u_m} of a reflection sequence
    (or any iterable of vectors); the empty product is the identity.

    The running product is kept as P/d and each reflection enters as
    the rank-1 update P <- S P - 2 (P U)(a o U)^T, d <- d S; the pair is
    canonicalized once, at the end."""
    a, _ = _common(sp.d)
    n = sp.n
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    d = 1
    k = 0
    for u in rs:
        big_u, s = _scaled(sp, a, u)
        if not s:
            raise ValueError("reflection vector must be anisotropic (nonzero)")
        w = [ak * x for ak, x in zip(a, big_u)]
        for row in p:
            pu = 2 * sum(x * y for x, y in zip(row, big_u) if y)
            row[:] = [s * x - pu * wj if pu and wj else s * x for x, wj in zip(row, w)]
        d = d * s
        k += 1
    return Isometry._built(sp, Mat._of(*_canonical(p, d)), (-1) ** k)


def _restore(iso):
    """The elimination behind `decompose` and `spinor_norm`: with
    iso.m = P/d, fraction-free (Bareiss) steps on x = dI - P with the
    diagonal pivots x_ii, in index order, skipping each restored e_i.

    Returns (d, steps, delta): steps holds (i, col, prev) for each moved
    index i, where col is column i of x from row i down at that step and
    prev the pivot before it (1 at the first step), so the current
    I - sigma is x / (d * prev); delta is the last pivot (1 when no
    index moves).
    """
    n = iso.sp.n
    p, d = iso.m._p, iso.m._d
    x = [[(d if i == j else 0) - y for j, y in enumerate(row)] for i, row in enumerate(p)]
    prev = 1  # the last pivot; Bareiss divides by it from the second step on
    steps = []
    for i in range(n):
        col = [x[k][i] for k in range(i, n)]  # rows above i are restored: 0
        if not any(col):
            continue
        pv = col[0]
        if not pv:
            raise ArithmeticError("reflection factorization did not terminate")
        steps.append((i, col, prev))
        xi = x[i]
        for k in range(i + 1, n):
            xk = x[k]
            f = xk[i]
            for j in range(i + 1, n):
                y = pv * xk[j] - f * xi[j] if f else pv * xk[j]
                xk[j] = _exact_div(y, prev) if y and len(steps) > 1 else y
        prev = pv
    return d, steps, prev


def decompose(sp, iso):
    """Factor an isometry into at most n reflections, deterministically.

    Restores basis vectors in index order; the vector reflected along at
    step i is sigma e_i - e_i, which is anisotropic whenever sigma moves
    e_i because the form is anisotropic and q(sigma e_i) = q(e_i).
    Guarantees compose(result) == iso exactly, len(result) <= n and
    (-1)^len == det(iso).

    Each step is the rank-1 update of the current isometry as
    X = I - current = x / (d * prev), one fraction-free (Bareiss) step
    on x with pivot x_ii; see the module docstring.
    """
    _require_isometry(sp, iso, "decompose")
    d, steps, _ = _restore(iso)
    vectors = []
    for i, col, prev in steps:
        den = d * prev
        vectors.append(Vec([_over(0, den)] * i + [_over(-y, den) for y in col]))
    return ReflectionSeq(tuple(vectors))


def spinor_norm(sp, obj):
    """Spinor norm: the square class of the product of q(u_i) over a
    reflection factorization.  Accepts a ReflectionSeq or an iterable of
    vectors, or an Isometry, whose class is read off the elimination of
    `decompose` without building its vectors (module docstring):
    2^r prod_{j in J} a_j delta / (L d)^r.  A vector u = U/c has
    q(u) = S / (L c^2), in the class of S L, so the classes of the S_i L
    are multiplied without field arithmetic."""
    a, big_l = _common(sp.d)
    if isinstance(obj, Isometry):
        _require_isometry(sp, obj, "spinor_norm")
        d, steps, delta = _restore(obj)
        r = len(steps)
        moved = math.prod(a[i] for i, _, _ in steps)
        return square_class(_over(2**r * moved * delta, (big_l * d) ** r))
    acc = square_class(Fraction(1))
    for u in obj:
        _, s = _scaled(sp, a, u)
        if not s:
            raise ValueError("reflection vector must be anisotropic")
        sl = s * big_l
        acc = acc * square_class(Fraction(sl) if type(sl) is int else RatFuncEps(sl))
    return acc


def check_neg_identity(sp):
    """For even n: the spinor norm of -identity next to the square class
    of det b.  The two must agree."""
    if sp.n % 2:
        raise ValueError("even dimension required: -identity is not a rotation")
    return spinor_norm(sp, Isometry.neg_identity(sp)), square_class(sp.det_b)
