"""The subgroup N of rotations that move every vector by an
infinitesimal amount, over the identity form.

Membership is decided by the finite criterion

    sigma in N  <=>  frob_sq(I - sigma.m) is infinitesimal,

which is equivalent to the pointwise condition on unit vectors:
frob_sq(I - sigma) = sum_i frob_sq(e_i - sigma e_i), and
frob_sq((I - sigma) x) <= frob_sq(I - sigma) * frob_sq(x), so the
squared displacement of every unit vector is infinitesimal exactly when
the matrix certificate is.  The certificate is computed by the trace
identity

    frob_sq(I - sigma) = tr((I - sigma)^T (I - sigma))
                       = n - 2 tr(sigma) + tr(sigma^T sigma)
                       = 2 (n - tr(sigma)),

which holds because sigma^T sigma = I for an isometry of the identity
form (checked where the isometry was made).  So only the diagonal of
sigma is read: with sigma = P/d its canonical pair, the certificate is
2 (n d - sum_i P_ii) / d, reduced once.

Over Q the criterion degenerates to sigma = identity, so N is
interesting only in the non-archimedean instantiation, where
`witnesses` exhibits a rotation inside N (a Cayley image of an
infinitesimal skew matrix) and a rotation outside it (one that moves a
basis vector by squared length 4 or more).  N is closed under products,
inverses and conjugation; `closure_suite` checks this on samples and
reports every certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .cayley import infinitesimal_rotation
from .field import PolyEps, eps_order, format_elem, is_infinitesimal
from .linalg import Mat, Vec, _over
from .quadspace import Isometry, compose, reflect

__all__ = [
    "NVerdict",
    "in_n",
    "contact_generator",
    "witnesses",
    "CheckRecord",
    "closure_suite",
]


@dataclass(frozen=True)
class NVerdict:
    """Membership verdict: the certificate is frob_sq(I - sigma), and
    order_at_zero is its e-order, twice the level of sigma (the least k
    with sigma = I mod e^k), so the level is order_at_zero // 2."""

    member: bool
    certificate: object
    order_at_zero: object  # int, or None when not applicable

    def to_json(self):
        return {
            "member": self.member,
            "certificate": format_elem(self.certificate),
            "order_at_zero": self.order_at_zero,
        }


def _require_identity_form(sp):
    if not sp.is_identity_form:
        raise ValueError("identity form required")


def in_n(sp, iso):
    """Decide membership of a rotation in N over the identity form.

    The certificate frob_sq(I - sigma) is computed as 2 (n - tr sigma),
    which equals it because sigma^T sigma = I; with sigma = P/d its
    canonical pair, 2 (n d - tr P) / d is reduced once, giving the same
    canonical field element.  The numerator is formed coefficient by
    coefficient over Z[e], as one list (one int over Z).  A sum of
    squares does not cancel, so the certificate's e-order is exactly
    twice the level of sigma in N's congruence filtration
    (N_k = {sigma = I mod e^k}): the level is `order_at_zero // 2`.
    """
    _require_identity_form(sp)
    if not isinstance(iso, Isometry) or iso.sp.d != sp.d:
        raise ValueError("an isometry of this space is required")
    if not iso.is_rotation:
        raise ValueError("rotation (determinant 1) required")
    n = sp.n
    p, d = iso.m._p, iso.m._d
    cols = [(x,) if type(x) is int else x.coeffs for x in (d, *(p[i][i] for i in range(n)))]
    cs = [2 * (n * c - sum(rest)) for c, *rest in zip_longest(*cols, fillvalue=0)]
    cert = _over(cs[0] if type(d) is int else PolyEps(cs), d)
    return NVerdict(is_infinitesimal(cert), cert, eps_order(cert))


def contact_generator(n):
    """Canonical nonzero skew matrix: +1 at (0,1), -1 at (1,0)."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[0][1] = Fraction(1)
    rows[1][0] = Fraction(-1)
    return Mat(rows)


def witnesses(sp):
    """A rotation inside N and one outside it, for n >= 3.

    inside: the Cayley image of e * contact_generator(n), which is
    neither +-identity yet has an infinitesimal certificate.  outside:
    for odd n the rotation -tau_{e_1}; for even n the product
    tau_{e_1} tau_{e_2} = diag(-1,-1,1,...,1).  Both verdicts are
    re-checked before returning.
    """
    _require_identity_form(sp)
    n = sp.n
    if n < 3:
        raise ValueError("dimension at least 3 required")
    # infinitesimal_rotation has checked A^T A = I and det A = 1
    inside = Isometry._built(sp, infinitesimal_rotation(contact_generator(n)), 1)
    if n % 2:
        outside = Isometry.neg_identity(sp) @ reflect(sp, Vec.basis(n, 0))
    else:
        outside = compose(sp, [Vec.basis(n, 0), Vec.basis(n, 1)])
    i = Mat.identity(n)
    ok = (
        inside.m != i
        and inside.m != -i
        and in_n(sp, inside).member
        and not in_n(sp, outside).member
    )
    if not ok:
        raise ArithmeticError("witness construction failed its guarantees")
    return inside, outside


@dataclass(frozen=True)
class CheckRecord:
    """One closure check: membership expected, certificate recorded."""

    check: str
    certificate: object
    member: bool
    passed: bool

    def to_json(self):
        return {
            "check": self.check,
            "certificate": format_elem(self.certificate),
            "member": self.member,
            "pass": self.passed,
        }


def closure_suite(sp, samples, conjugators):
    """Check in_n for every pairwise product, every inverse, and every
    conjugate of the samples; deterministic report order (products by
    index pair, then inverses, then conjugations)."""
    samples = list(samples)
    conjugators = list(conjugators)
    records = []

    def record(name, iso):
        v = in_n(sp, iso)
        records.append(CheckRecord(name, v.certificate, v.member, v.member))

    for i, s in enumerate(samples):
        for j, t in enumerate(samples):
            record(f"product[{i},{j}]", s @ t)
    for i, s in enumerate(samples):
        record(f"inverse[{i}]", s.inverse())
    for k, rho in enumerate(conjugators):
        rho_inv = rho.inverse()
        for i, s in enumerate(samples):
            record(f"conjugation[{k},{i}]", rho @ s @ rho_inv)
    return records
