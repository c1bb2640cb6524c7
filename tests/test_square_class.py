"""Square classes never factor a product: `square_class` factors the
numerator and the denominator apart, and `SquareClassRep.__mul__`
combines two representatives as ab/gcd(a, b)^2, checked against a
brute-force factorization of the whole product."""

import random
from fractions import Fraction

from rotnear.field import PolyEps, RatFuncEps, eps, is_square, square_class
from rotnear.linalg import Vec
from rotnear.quadspace import BilinearSpace, compose, decompose, spinor_norm


def brute_squarefree(n):
    """Squarefree part of the nonzero integer n, with its sign, by trial
    division up to the square root."""
    out = -1 if n < 0 else 1
    n = abs(n)
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k % 2:
            out *= p
        p += 1
    return out * n


def brute_class(q):
    return Fraction(brute_squarefree(q.numerator * q.denominator))


def rand_rat(rng):
    # products of small primes and squares, so that classes collide often
    def part():
        return rng.choice([1, 2, 3, 5, 6, 7, 10, 12, 18, 45, 98]) * rng.randint(1, 40) ** 2

    return Fraction(rng.choice([-1, 1]) * part(), part())


def test_square_class_of_a_ratio_of_large_prime_squares():
    p, q = 2**31 - 1, 2**31 + 11  # the product p^2 q^2 has a 124-bit cofactor
    x = Fraction(p * p, q * q)
    assert is_square(x)
    assert square_class(x).is_trivial
    assert square_class(Fraction(2 * p * p, 3 * q * q)).rep == 6


def test_square_class_matches_brute_force_on_rationals_and_products():
    rng = random.Random(81)
    xs = [rand_rat(rng) for _ in range(200)]
    for x in xs:
        assert square_class(x).rep == brute_class(x)
    for x, y in zip(xs, reversed(xs)):
        prod = square_class(x) * square_class(y)
        assert prod.rep == brute_class(x * y)
        assert prod == square_class(x * y)


def test_product_of_classes_cancels_shared_polynomial_factors():
    a, b, c = 1 + eps, 2 + eps, 3 - eps
    x, y = 6 * a * b, 10 * a * c / eps
    prod = square_class(x) * square_class(y)
    assert prod == square_class(x * y)
    assert prod.rep == 15 * RatFuncEps(PolyEps((0, 1))) * (b * c)
    assert (square_class(x) * square_class(x)).is_trivial
    assert (square_class(x) * square_class(Fraction(2))) == square_class(2 * x)


def test_spinor_norm_of_qe_vectors_under_a_form_matches_the_isometry():
    sp = BilinearSpace([Fraction(7, 3), Fraction(5, 2), Fraction(9, 4), Fraction(3, 5)])
    rng = random.Random(5)
    vs = [Vec([rng.randint(-2, 2) + rng.randint(-2, 2) * eps for _ in range(4)]) for _ in range(5)]
    iso = compose(sp, vs)
    theta = spinor_norm(sp, iso)
    assert spinor_norm(sp, vs) == theta
    assert spinor_norm(sp, decompose(sp, iso)) == theta
