"""The Cayley map A |-> (I-A)(I+A)^{-1} and rotations infinitesimally
near the identity.

The map is an involution exchanging skew-symmetric matrices with
rotations that do not have eigenvalue -1; `cayley` computes it with one
fraction-free elimination.  Feeding it e*B for a nonzero rational
skew-symmetric B produces, over Q(e), a rotation A != +-I with
frob_sq(I - A) infinitesimal of e-order exactly 2.
`infinitesimal_rotation` verifies every guarantee exactly on the pair it
returns, with the tests the library applies to any isometry a user
passes in: the `Isometry` constructor, pair equality and the trace
identity of `subgroup.in_n`.

`neumann_check` verifies the truncated-geometric-series identity

    (I + eB) (I - eB + e^2 B^2 - ... + e^{m-1} B^{m-1}) = I + e^m B^m

for odd m, and reports whether the truncation D differs from the true
inverse of I + eB by a matrix of infinitesimal squared norm.  That gap
needs no elimination, only that B is skew, which
`_require_rational_skew` enforces.  Then (I + eB)^-T = (I - eB)^-1, and
with C = -B^2 = B^T B, which commutes with B,

    frob_sq((I + eB)^-1 - D) = tr(X^T X),  X = (-eB)^m (I + eB)^-1,
                             = e^{2m} tr(C^m (I + e^2 C)^-1).

Write y = -e^2, q(y) = det(I - yC) and p_j = tr(C^j).  The resolvent
trace tr((I - yC)^-1) = n + sum_{j>=1} p_j y^j equals n - y q'(y)/q(y),
and for odd m, e^{2m} = -y^m, so

    gap_sq = [q(y) sum_{j=1}^{m-1} p_j y^j + y q'(y)] / q(y),

a quotient of polynomials whose numerator vanishes below e^{2m}.  The
power sums p_j come from the powers of B the identity check already
forms, and the coefficients of q from Newton's identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import PolyEps, eps, is_infinitesimal
from .linalg import Mat, SingularMatrixError, _bareiss, _canonical, _matmul, _over, _shape
from .quadspace import BilinearSpace, Isometry

__all__ = [
    "CayleyObstructionError",
    "cayley",
    "is_skew",
    "infinitesimal_rotation",
    "NeumannReport",
    "neumann_check",
]


class CayleyObstructionError(ArithmeticError):
    """I + A is singular: -1 is an eigenvalue obstruction."""


def cayley(a):
    """Apply the Cayley map exactly.  With a = P/d its canonical pair, the
    image is (I - a)(I + a)^-1 = 2 (I + a)^-1 - I, and
    (I + a)^-1 = d (dI + P)^-1.  One fraction-free Gauss-Jordan
    elimination on dI + P gives its last pivot delta and
    R = delta (dI + P)^-1, so the image is (2d R - delta I) / delta,
    canonicalized once as a pair.  Raises CayleyObstructionError when
    I + A is singular."""
    p, d = a._p, a._d
    plus = [[d + x if i == j else x for j, x in enumerate(row)] for i, row in enumerate(p)]
    try:
        _, delta, r = _bareiss(plus, jordan=True)
    except SingularMatrixError as exc:
        raise CayleyObstructionError(
            "-1 is an eigenvalue obstruction: I+A is singular"
        ) from exc
    d2 = 2 * d
    num = [
        [d2 * x - delta if i == j else d2 * x for j, x in enumerate(row)]
        for i, row in enumerate(r)
    ]
    return Mat._of(*_canonical(num, delta))


def is_skew(a):
    return a.T == -a


def _require_rational_skew(b, *, nonzero):
    if not all(isinstance(x, Fraction) for x in b.entries()):
        raise ValueError("rational entries required")
    if not is_skew(b):
        raise ValueError("skew-symmetric matrix required")
    if nonzero and not any(map(any, b._p)):
        raise ValueError("nonzero matrix required")


def infinitesimal_rotation(b):
    """Rotation A = cayley(e*B) over Q(e), for nonzero rational skew B.

    Checked exactly before returning, on the canonical pair A = P/d that
    is returned, with the tests every isometry a user passes in gets:
    the `Isometry` constructor checks A^T A = I (P^T P == d^2 I) and
    reads det A at e = 0, which must be +1; A != +-I by pair equality;
    and frob_sq(I - A), which for an orthogonal A equals
    2 (n d - tr P) / d (the trace identity `in_n` uses), is
    infinitesimal.
    """
    _require_rational_skew(b, nonzero=True)
    a = cayley(eps * b)
    n = a.n
    try:
        rotation = Isometry(BilinearSpace.identity_form(n), a).is_rotation
    except (ValueError, ArithmeticError):
        rotation = False
    i = Mat.identity(n)
    p, d = a._p, a._d
    if not (
        rotation
        and a != i
        and a != -i
        and is_infinitesimal(_over(2 * (n * d - sum(p[k][k] for k in range(n))), d))
    ):
        raise ArithmeticError("near-identity construction failed its guarantees")
    return a


@dataclass(frozen=True)
class NeumannReport:
    """Outcome of `neumann_check`."""

    m: int
    d: Mat
    identity_holds: bool
    gap_sq: object  # frob_sq of (I+eB)^-1 - D
    gap_infinitesimal: bool


def neumann_check(b, m):
    """Verify (I+eB) D = I + e^m B^m exactly for odd m, with
    D = sum_{k<m} (-eB)^k, and report the inverse-truncation gap.

    With B = P/t, D = sum_k Q_k e^k / f for the int matrices
    Q_k = (-P)^k t^(m-1-k) / g, f = t^(m-1) / g and g their content.  As
    I + eB = (tI + eP)/t and B^m = -(-P)^m / t^m for odd m, the identity
    holds exactly when, per power e^j (j = 0..m, Q_-1 = Q_m = 0, cf = t f),
        t^m (t Q_j + P Q_(j-1)) == [j = 0] t^m cf I - [j = m] cf (-P)^m,
    checked on ints with P Q_(j-1) formed as its own product.

    The gap is frob_sq((I+eB)^-1 - D) for the same truncated series D
    whose identity `identity_holds` certifies, read off power sums by
    the trace formula of the module docstring, which needs B skew
    (`_require_rational_skew` enforces it).  With S = -P^2 = P^T P and
    C = S/t^2, the power sums N_j = tr(S^j) = (-1)^j tr(P^(2j)) are the
    squared Frobenius norms of the powers (-P)^j, formed up to
    max(m, n).  Newton's identities k E_k = sum_{i=1..k} (-1)^(i-1)
    E_(k-i) N_i give E_k = e_k(S), each division checked exact.  Over
    t^(2L), L = n + m - 1, the gap is num/den with
        den = sum_k E_k t^(2(L-k)) e^(2k),
        num = sum_k k E_k t^(2(L-k)) e^(2k)
              + sum_{k, 1<=j<m} (-1)^j E_k N_j t^(2(L-k-j)) e^(2(k+j)),
    and every coefficient of num below e^(2m) must vanish."""
    if not isinstance(m, int) or m < 1 or m % 2 == 0:
        raise ValueError("m must be an odd positive integer")
    _require_rational_skew(b, nonzero=False)
    n = b.n
    p, t = b._p, b._d
    neg = [[-x for x in row] for row in p]
    powers = [Mat.identity(n)._p]
    for _ in range(max(m, n)):
        powers.append(_matmul(powers[-1], neg))
    f = t ** (m - 1)
    scales = [t ** (m - 1 - k) for k in range(m)]
    qs = [[[x * s for x in row] for row in pk] for s, pk in zip(scales, powers)]
    g = math.gcd(f, *(x for qk in qs for row in qk for x in row))
    if g != 1:
        f //= g
        qs = [[[x // g for x in row] for row in qk] for qk in qs]
    flat = [PolyEps(cs) for r in range(n) for cs in zip(*(qk[r] for qk in qs))]
    d = Mat._of(*_shape(flat, PolyEps(f), n))
    tm, cf = t**m, t * f
    zero = Mat.zero(n)._p
    targets = [[[tm * cf * x for x in row] for row in powers[0]]] + [zero] * (m - 1)
    targets.append([[-cf * x for x in row] for row in powers[m]])
    identity_holds = all(
        tm * (t * a + c) == y
        for j, (qj, yj) in enumerate(zip(qs + [zero], targets))
        for qr, pr, yr in zip(qj, _matmul(p, qs[j - 1]) if j else zero, yj)
        for a, c, y in zip(qr, pr, yr)
    )
    # (-1)^j N_j, with N_j the squared Frobenius norm of (-P)^j
    signed = [sum(x * x for row in pk for x in row) * (-1) ** j for j, pk in enumerate(powers)]
    es = [1]
    for k in range(1, n + 1):
        ek, rem = divmod(-sum(es[k - i] * signed[i] for i in range(1, k + 1)), k)
        if rem:
            raise ArithmeticError("Newton's identities: inexact division")
        es.append(ek)
    span = n + m - 1
    t2 = [t ** (2 * i) for i in range(span + 1)]
    num, den = [0] * (2 * span + 1), [0] * (2 * span + 1)
    for k, ek in enumerate(es):
        den[2 * k] = ek * t2[span - k]
        num[2 * k] += k * ek * t2[span - k]
        for j in range(1, m):
            num[2 * (k + j)] += ek * signed[j] * t2[span - k - j]
    if any(num[: 2 * m]):
        raise ArithmeticError("inverse gap: a coefficient below e^2m does not vanish")
    gap_sq = _over(PolyEps(num), PolyEps(den))
    return NeumannReport(m, d, identity_holds, gap_sq, is_infinitesimal(gap_sq))
