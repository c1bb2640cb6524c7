"""Seeded random generators used by the test suites and the CLI.

All sampling keeps values desk-scale: skew matrices with integer
entries in [-3, 3], reflection vectors with integer entries in [-2, 2],
and rational-function coefficients that are integers in [-9, 9] (the
bound the numeric probes in `selftest` rely on).
"""

from __future__ import annotations

from fractions import Fraction

from .cayley import infinitesimal_rotation
from .field import PolyEps, RatFuncEps
from .linalg import Mat, Vec
from .quadspace import Isometry, compose

__all__ = [
    "random_skew",
    "random_vector",
    "random_isometry",
    "random_rotation",
    "random_nonidentity_rotation",
    "random_member",
    "random_poly",
    "random_ratfunc",
]


def random_skew(rng, n, bound=3):
    """Nonzero skew-symmetric matrix with integer entries in [-bound, bound]."""
    if n < 2 or bound < 1:  # only the zero matrix: the redraw loop would never end
        raise ValueError("a nonzero skew-symmetric sample needs n >= 2 and bound >= 1")
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        nonzero = False
        for i in range(n):
            for j in range(i + 1, n):
                x = rng.randint(-bound, bound)
                rows[i][j] = Fraction(x)
                rows[j][i] = Fraction(-x)
                nonzero = nonzero or x != 0
        if nonzero:
            return Mat(rows)


def random_vector(rng, n, bound=2):
    """Nonzero integer vector with entries in [-bound, bound]."""
    if n < 1 or bound < 1:
        raise ValueError("a nonzero vector sample needs n >= 1 and bound >= 1")
    while True:
        entries = [Fraction(rng.randint(-bound, bound)) for _ in range(n)]
        if any(entries):
            return Vec(entries)


def random_isometry(sp, rng, reflections=None, bound=2):
    """Product of `reflections` random reflections (random count <= n
    when omitted)."""
    k = rng.randint(0, sp.n) if reflections is None else reflections
    return compose(sp, [random_vector(rng, sp.n, bound) for _ in range(k)])


def random_rotation(sp, rng, bound=2):
    """Rotation: a product of an even number (<= n) of reflections."""
    k = 2 * rng.randint(0, sp.n // 2)
    return compose(sp, [random_vector(rng, sp.n, bound) for _ in range(k)])


def random_nonidentity_rotation(sp, rng, bound=2):
    while True:
        k = 2 * rng.randint(1, sp.n // 2)
        iso = compose(sp, [random_vector(rng, sp.n, bound) for _ in range(k)])
        if iso.m != Mat.identity(sp.n):
            return iso


def random_member(sp, rng, bound=3):
    """Random element of the near-identity subgroup: cayley(e * skew)."""
    a = infinitesimal_rotation(random_skew(rng, sp.n, bound))
    # infinitesimal_rotation has checked A^T A = I and det A = 1
    return Isometry._built(sp, a, 1) if sp.is_identity_form else Isometry(sp, a)


def random_poly(rng, max_deg, bound=9, nonzero=False):
    """Polynomial with integer coefficients in [-bound, bound]."""
    if nonzero and bound < 1:
        raise ValueError("a nonzero polynomial sample needs bound >= 1")
    while True:
        deg = rng.randint(0, max_deg)
        p = PolyEps([rng.randint(-bound, bound) for _ in range(deg + 1)])
        if not nonzero or not p.is_zero:
            return p


def random_ratfunc(rng, max_deg=6, bound=9, nonzero=False):
    """Random element of Q(e) with num/den degrees <= max_deg."""
    num = random_poly(rng, max_deg, bound, nonzero=nonzero)
    den = random_poly(rng, max_deg, bound, nonzero=True)
    return RatFuncEps(num, den)
