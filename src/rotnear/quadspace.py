"""Anisotropic diagonal bilinear spaces, reflections, constructive
factorization of isometries into reflections, and spinor norms.

A space is a dimension n >= 2 with positive rational diagonal form
coefficients d_i, so q(x) = sum d_i x_i^2 vanishes only at 0 over any
formally real field.  A reflection along an anisotropic u is

    x  |->  x - 2 (b(x, u) / q(u)) u,

an involution of determinant -1 fixing the hyperplane orthogonal to u.
`decompose` factors any isometry into at most n reflections by
restoring the basis vectors in index order: while e_i is moved, reflect
along (sigma e_i - e_i), which sends sigma e_i back to e_i and fixes
every already-restored e_j.  The spinor norm of an isometry is the
square class of the product of the q-values over any reflection
factorization; it does not depend on the factorization chosen, which
the test suite checks by comparing two distinct factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import RatFuncEps, format_elem, parse_elem, parse_rat, square_class
from .linalg import Mat, Vec, _preserves, _split, det

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

    The public constructor validates both exactly.  With m = P/d over one
    common denominator, the form test is P^T G P == d^2 G on the
    unreduced P.  Once it holds, det(m)^2 det(G) = det(G), so det(m) is
    +1 or -1, and it is read off at e = 0: column j gives
    sum_k g_k m_kj^2 = g_j with every g_k > 0, so no entry of m is
    infinite and no reduced denominator vanishes at e = 0.  Evaluation
    at e = 0 is a ring map on the elements of Q(e) without a pole there,
    hence det(m) = det(m at e = 0), the determinant of a rational
    matrix; the constructor still checks that it is +1 or -1.
    """

    __slots__ = ("sp", "m", "det")

    def __init__(self, sp, m):
        if m.n != sp.n:
            raise ValueError(f"dimension mismatch: {sp.n} vs {m.n}")
        p, den = _split(m)
        if not _preserves(p, den * den, None if sp.is_identity_form else sp.d):
            raise ValueError("matrix does not preserve the form")
        at_zero = [
            [x.evaluate(0) if isinstance(x, RatFuncEps) else x for x in row] for row in m.rows
        ]
        d = det(Mat(at_zero))
        if d != 1 and d != -1:
            raise ArithmeticError("isometry determinant must be +1 or -1")
        self.sp = sp
        self.m = m
        self.det = 1 if d == 1 else -1

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
        # G^-1 m^T G for diagonal G: entry (i, j) is m[j][i] d_j / d_i,
        # left unscaled where d_i = d_j to spare Q(e) entries a gcd.
        d = self.sp.d
        inv = [
            [x if di == dj else x * (dj / di) for x, dj in zip(col, d)]
            for col, di in zip(zip(*self.m.rows), d)
        ]
        return Isometry._built(self.sp, Mat(inv), self.det)

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


def reflect(sp, u):
    """Reflection along the anisotropic vector u, as an Isometry."""
    sp._check_dim(u)
    qu = sp.q_value(u)
    if qu == 0:
        raise ValueError("reflection vector must be anisotropic (nonzero)")
    n = sp.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = 2 * sp.d[j] * u[j] * u[i] / qu
            row.append((Fraction(1) if i == j else Fraction(0)) - x)
        rows.append(row)
    return Isometry._built(sp, Mat(rows), -1)


def compose(sp, rs):
    """Product isometry tau_{u_1}...tau_{u_m} of a reflection sequence
    (or any iterable of vectors); the empty product is the identity."""
    acc = Isometry.identity(sp)
    for u in rs:
        acc = acc @ reflect(sp, u)
    return acc


def decompose(sp, iso):
    """Factor an isometry into at most n reflections, deterministically.

    Restores basis vectors in index order; the vector reflected along at
    step i is sigma e_i - e_i, which is anisotropic whenever sigma moves
    e_i because the form is anisotropic and q(sigma e_i) = q(e_i).
    Guarantees compose(result) == iso exactly, len(result) <= n and
    (-1)^len == det(iso).
    """
    if not isinstance(iso, Isometry) or iso.sp.d != sp.d:
        raise ValueError("decompose requires an isometry of this space")
    n = sp.n
    current = iso.m
    vectors = []
    for i in range(n):
        ei = Vec.basis(n, i)
        yi = current.col(i)
        if yi != ei:
            u = yi - ei
            r = reflect(sp, u)
            current = r.m @ current
            vectors.append(u)
    if current != Mat.identity(n):
        raise ArithmeticError("reflection factorization did not terminate")
    return ReflectionSeq(tuple(vectors))


def spinor_norm(sp, obj):
    """Square class of the product of q(u_i) over a reflection
    factorization.  Accepts an Isometry (factored via `decompose`), a
    ReflectionSeq, or an iterable of vectors."""
    vectors = decompose(sp, obj) if isinstance(obj, Isometry) else obj
    acc = Fraction(1)
    for u in vectors:
        qu = sp.q_value(u)
        if qu == 0:
            raise ValueError("reflection vector must be anisotropic")
        acc = acc * qu
    return square_class(acc)


def check_neg_identity(sp):
    """For even n: the spinor norm of -identity next to the square class
    of det b.  The two must agree."""
    if sp.n % 2:
        raise ValueError("even dimension required: -identity is not a rotation")
    return spinor_norm(sp, Isometry.neg_identity(sp)), square_class(sp.det_b)
