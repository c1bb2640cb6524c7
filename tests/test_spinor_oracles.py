"""Spinor norms against two classical identities that share no code with
the elimination behind `spinor_norm`.

Zassenhaus (1962): a rotation sigma without eigenvalue -1 has spinor
norm det((I + sigma)/2) mod squares.  For sigma = cayley(S),
I + sigma = 2 (I + S)^-1, so its class is that of det(I + S).  For skew S
that determinant is the sum of the even principal minors, each the
square of a Pfaffian (Cayley 1849): det(I + eB) = sum_J e^|J| Pf(B_J)^2.
Over a pythagorean field such a sum of squares is a square; over Q(e)
it need not be, which is the pythagorean gap."""

import random
from fractions import Fraction
from itertools import combinations

from rotnear.cayley import cayley
from rotnear.field import PolyEps, RatFuncEps, eps, square_class
from rotnear.linalg import Mat, Vec, det
from rotnear.quadspace import BilinearSpace, Isometry, compose, spinor_norm
from rotnear.sampling import random_skew, random_vector


def _half_det_class(sigma):
    return square_class(det(Fraction(1, 2) * (Mat.identity(sigma.n) + sigma)))


def _qe_vector(rng, n):
    # nonzero entries a + b e, so every vector is anisotropic for a positive form
    while True:
        u = [RatFuncEps(PolyEps([rng.randint(-2, 2), rng.randint(-2, 2)])) for _ in range(n)]
        if any(u):
            return Vec(u)


def test_zassenhaus_on_products_of_reflections():
    rng = random.Random(71)
    checked = skipped = 0
    for n in (2, 3, 4, 5):
        for trial in range(8):
            if trial % 2:
                sp = BilinearSpace([rng.randint(1, 3) for _ in range(n)])
            else:
                sp = BilinearSpace.identity_form(n)
            k = 2 * rng.randint(1, n // 2)
            draw = _qe_vector if trial % 3 == 0 else random_vector
            sigma = compose(sp, [draw(rng, n) for _ in range(k)])
            if det(Mat.identity(n) + sigma.m) == 0:
                skipped += 1
                continue
            assert spinor_norm(sp, sigma) == _half_det_class(sigma.m)
            checked += 1
    assert checked >= 25 and skipped < checked


def test_spinor_norm_of_a_cayley_image_is_the_class_of_det_i_plus_s():
    rng = random.Random(72)
    classes = set()
    for n in (2, 3, 4, 5, 6):
        sp = BilinearSpace.identity_form(n)
        for s in (random_skew(rng, n), eps * random_skew(rng, n), eps * random_skew(rng, n) * Fraction(1, 3)):
            sigma = cayley(s)
            want = square_class(det(Mat.identity(n) + s))
            assert spinor_norm(sp, Isometry(sp, sigma)) == want == _half_det_class(sigma)
            classes.add(want)
    # not vacuous: most images are in distinct, mostly nontrivial classes
    assert len(classes) >= 10


def _pfaffian(b, idx):
    """Pf of the principal submatrix on idx, by expansion along its first row."""
    if not idx:
        return Fraction(1)
    first, rest = idx[0], idx[1:]
    return sum(
        (-1) ** j * b[first, k] * _pfaffian(b, rest[:j] + rest[j + 1 :])
        for j, k in enumerate(rest)
        if b[first, k]
    )


def test_det_of_i_plus_eb_is_a_sum_of_squared_pfaffians():
    rng = random.Random(73)
    for n in (2, 3, 4, 5, 6):
        for b in (random_skew(rng, n), random_skew(rng, n) * Fraction(rng.randint(1, 5), rng.randint(2, 7))):
            total = sum(
                eps ** len(j) * _pfaffian(b, j) ** 2
                for size in range(0, n + 1, 2)
                for j in combinations(range(n), size)
            )
            assert det(Mat.identity(n) + eps * b) == total
