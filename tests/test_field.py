"""Field-layer tests: exact arithmetic, the ordering of Q(e), square
classes, and their algebraic laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rotnear.field
from rotnear.field import (
    PolyEps,
    RatFuncEps,
    SquarefreeBoundError,
    eps,
    eps_order,
    is_infinitesimal,
    is_square,
    parse_elem,
    parse_rat,
    sign,
    square_class,
    squarefree_decomposition,
    squarefree_int,
    squarefree_part,
)
from rotnear.linalg import Mat, det, frob_sq
from rotnear.sampling import random_poly, random_ratfunc

ONE = Fraction(1)


# -- strategies -------------------------------------------------------------

coeffs = st.lists(st.integers(-9, 9), max_size=4)
polys = st.builds(PolyEps, coeffs)
nonzero_polys = polys.filter(bool)
ratfuncs = st.builds(RatFuncEps, polys, nonzero_polys)
nonzero_ratfuncs = st.builds(RatFuncEps, nonzero_polys, nonzero_polys)
rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12)
)


# -- basic arithmetic -------------------------------------------------------


def test_ring_identity():
    assert (1 + eps) * (1 - eps) == 1 - eps**2


def test_inverse_of_eps():
    assert 1 / eps == RatFuncEps(1, PolyEps((0, 1)))
    assert (1 / eps) * eps == 1


def test_hand_reduction_sums_to_one():
    assert eps / (1 + eps) + 1 / (1 + eps) == 1


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        (1 + eps) / (eps - eps)
    with pytest.raises(ZeroDivisionError):
        RatFuncEps(1, 0)
    with pytest.raises(ZeroDivisionError):
        eps ** (-1) * RatFuncEps(0) ** (-1)


def test_canonical_form_reduces_common_factors():
    # (e + e^2)/e == 1 + e, with a monic denominator of degree 0
    x = RatFuncEps(PolyEps((0, 1, 1)), PolyEps((0, 1)))
    assert x == 1 + eps
    assert x.den == PolyEps(1)
    # scaling numerator and denominator together changes nothing
    assert RatFuncEps(PolyEps((0, 2)), PolyEps(2)) == eps


def test_mixed_arithmetic_with_rationals():
    assert Fraction(1, 2) + eps == RatFuncEps(PolyEps((Fraction(1, 2), 1)))
    assert 2 * eps == eps + eps
    assert (Fraction(3, 4) / (1 + eps)) * (1 + eps) == Fraction(3, 4)


def test_poly_pow_matches_repeated_products():
    p = PolyEps((Fraction(1, 2), -3, 0, 2))
    acc = PolyEps(1)
    for k in range(12):
        assert p**k == acc
        acc = acc * p
    with pytest.raises(ValueError, match="non-negative integers"):
        p ** -1


def test_pow_negative_exponent():
    assert eps**-2 == 1 / eps**2
    with pytest.raises(ZeroDivisionError):
        RatFuncEps(0) ** -1


# -- ordering ---------------------------------------------------------------


def test_sign_of_eps_is_positive():
    assert sign(eps) == 1


def test_infinitesimal_is_below_every_positive_rational():
    assert sign(eps - Fraction(1, 10**6)) == -1
    assert eps < Fraction(1, 10**9)
    assert eps > 0


def test_sign_reads_lowest_order_coefficient():
    assert sign((eps**2 - eps) / (1 + eps)) == -1


def test_is_infinitesimal_examples():
    assert is_infinitesimal(Fraction(0))
    assert is_infinitesimal(RatFuncEps(0))
    assert is_infinitesimal(eps / (1 + eps))
    assert not is_infinitesimal(1 + eps)
    assert not is_infinitesimal(1 / eps)


def test_rat_instantiation_degenerates():
    assert is_infinitesimal(Fraction(0))
    assert not is_infinitesimal(Fraction(1, 10**12))


def test_eps_order():
    assert eps_order(eps**3 / (1 + eps)) == 3
    assert eps_order(1 / eps) == -1
    assert eps_order(RatFuncEps(0)) is None
    assert eps_order(Fraction(5)) == 0
    assert eps_order(Fraction(0)) is None


@given(ratfuncs, ratfuncs)
@settings(deadline=None)
def test_sign_is_multiplicative(x, y):
    assert sign(x * y) == sign(x) * sign(y)


@given(ratfuncs, ratfuncs)
@settings(deadline=None)
def test_sign_of_sum_of_same_sign(x, y):
    if sign(x) == sign(y):
        assert sign(x + y) == sign(x)


@given(ratfuncs, ratfuncs)
@settings(deadline=None)
def test_infinitesimals_form_an_ideal(x, y):
    if is_infinitesimal(x) and is_infinitesimal(y):
        assert is_infinitesimal(x + y)
        assert is_infinitesimal(x * y)


@given(ratfuncs, rationals)
@settings(deadline=None)
def test_rational_multiples_of_infinitesimals(x, c):
    if is_infinitesimal(x):
        assert is_infinitesimal(c * x)


# -- field axioms on random samples ----------------------------------------


@given(ratfuncs, ratfuncs, ratfuncs)
@settings(deadline=None)
def test_associativity_and_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(nonzero_ratfuncs)
@settings(deadline=None)
def test_multiplicative_inverse(x):
    assert x * (1 / x) == 1


@given(ratfuncs)
@settings(deadline=None)
def test_structural_equality_is_field_equality(x):
    # num/den is already reduced: rebuilding from scaled parts agrees
    assert RatFuncEps(x.num * 3, x.den * 3) == x
    assert x.den.lc == 1


# -- squarefree machinery ---------------------------------------------------


def test_squarefree_part_examples():
    assert squarefree_part(PolyEps((0, 0, 1)) * PolyEps((1, 1))) == PolyEps((1, 1))
    assert squarefree_part(PolyEps(1)) == PolyEps(1)
    assert squarefree_part(PolyEps((0, 0, 0, 1))) == PolyEps((0, 1))


def test_squarefree_part_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_part(PolyEps())


def test_squarefree_decomposition_known_factorization():
    # p = (1+e)^1 * (2+e)^2 * e^3, monic part decomposes by multiplicity
    p = PolyEps((1, 1)) * PolyEps((2, 1)) ** 2 * PolyEps((0, 1)) ** 3
    dec = squarefree_decomposition(p)
    assert dec == [(PolyEps((1, 1)), 1), (PolyEps((2, 1)), 2), (PolyEps((0, 1)), 3)]
    assert squarefree_part(p) == PolyEps((1, 1)) * PolyEps((0, 1))


def test_squarefree_part_leaves_constant_times_square():
    # p / squarefree_part(p) = lc * (monic square)
    p = 7 * PolyEps((0, 1)) ** 2 * PolyEps((1, 2)) ** 3
    w = squarefree_part(p)
    quo, rem = divmod(p, w)
    assert rem == PolyEps()
    assert squarefree_part(quo) == PolyEps(1)  # all multiplicities even


def test_squarefree_int():
    assert squarefree_int(1) == 1
    assert squarefree_int(4) == 1
    assert squarefree_int(12) == 3
    assert squarefree_int(-18) == -2
    assert squarefree_int(30) == 30
    with pytest.raises(ValueError):
        squarefree_int(0)


def _squarefree_int_by_full_trial_division(n):
    # reference: divide by every candidate up to sqrt(n)
    out = -1 if n < 0 else 1
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return out * n


def test_squarefree_int_matches_full_trial_division():
    # The cube-root bound leaves a cofactor 1, p, p*q or p^2: products of
    # large primes exercise each shape, small primes the divided part.
    sieve = [True] * 40000
    for i in range(2, 200):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    small = [p for p in range(2, 50) if sieve[p]]
    large = [p for p in range(1000, 40000) if sieve[p]]
    rng = random.Random(21)
    cases = [1, -1, 2, -4, 49, 1000, 7919**2, -(7919**3)]
    for _ in range(60):
        p, q = rng.sample(large, 2)
        tail = 1
        for _ in range(rng.randint(0, 4)):
            tail *= rng.choice(small)
        cases += [p * p, p * q, p * p * tail, p * q * tail, p * p * q, p**3 * tail]
    for n in cases:
        for m in (n, -n):
            assert squarefree_int(m) == _squarefree_int_by_full_trial_division(m), m


def test_squarefree_int_stops_at_its_trial_bound():
    # the class input of the Cayley image of [[0, x], [-x, 0]] is 1 + x^2,
    # whose cofactor after the small primes has no factor below 2^22
    x = 10**30 + 57
    with pytest.raises(SquarefreeBoundError, match=r"2\^22"):
        squarefree_int(1 + x * x)
    assert issubclass(SquarefreeBoundError, ValueError)
    # below 2^66 the cube-root bound never passes 2^22: products of two
    # primes above 2^31 are still decided by the isqrt test on the cofactor
    p, q, r = 4294967311, 4294967357, 2147483659  # primes
    assert squarefree_int(p * q) == p * q
    assert squarefree_int(-3 * r * r) == -3
    assert squarefree_int(2**70 * 3 * r * r) == 3  # small primes are divided out first


# -- integer coefficients and the primitive-remainder gcd ---------------------


def _euclidean_gcd(a, b):
    # the remainder sequence over Q that PolyEps.gcd used before it ran on
    # primitive integer remainders, kept as an oracle
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else PolyEps()


def _rational_poly(rng, max_deg):
    return PolyEps(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, max_deg) + 1)]
    )


def _gcd_pairs(count=320):
    rng = random.Random(1967)
    pairs = [(PolyEps(), PolyEps()), (PolyEps(), PolyEps((2, 4))), (PolyEps((0, 3)), PolyEps())]
    for k in range(count):
        kind = k % 8
        if kind == 0:  # planted common factor, integer coefficients
            g = random_poly(rng, 3, nonzero=True)
            pairs.append((g * random_poly(rng, 4), g * random_poly(rng, 4)))
        elif kind == 1:  # planted factor, rational coefficients
            g = _rational_poly(rng, 3)
            pairs.append((g * _rational_poly(rng, 4), g * _rational_poly(rng, 4)))
        elif kind == 2:  # repeated factors
            g = random_poly(rng, 2, nonzero=True)
            pairs.append((g**3 * random_poly(rng, 2), g**2 * _rational_poly(rng, 3)))
        elif kind == 3:  # constants against polynomials
            c = PolyEps(Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1)))
            pairs.append((c, _rational_poly(rng, 5)) if k % 16 < 8 else (_rational_poly(rng, 5), c))
        elif kind == 4:  # zero on either side
            p = _rational_poly(rng, 5)
            pairs.append((PolyEps(), p) if k % 16 < 8 else (p, PolyEps()))
        elif kind == 5:  # equal inputs, up to a rational scale
            p = _rational_poly(rng, 6)
            pairs.append((p, p) if k % 16 < 8 else (p, p * Fraction(-3, 7)))
        elif kind == 6:  # large leading coefficients, high degree
            g = PolyEps([rng.randint(-(10**6), 10**6) for _ in range(4)] + [rng.randint(1, 10**6)])
            pairs.append((g * random_poly(rng, 8), g * random_poly(rng, 8)))
        else:  # unrelated random pairs
            pairs.append((_rational_poly(rng, 7), _rational_poly(rng, 7)))
    return pairs


def test_gcd_matches_the_euclidean_gcd_over_q():
    pairs = _gcd_pairs()
    assert len(pairs) >= 300
    for a, b in pairs:
        g = PolyEps.gcd(a, b)
        assert g == _euclidean_gcd(a, b), (a, b)
        assert g == PolyEps.gcd(b, a)
        if g:
            assert g.lc == 1
            assert a % g == PolyEps() and b % g == PolyEps()


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    e = sympy.Symbol("e")

    def to_sympy(p):
        return sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0],
            e,
            domain="QQ",
        )

    for a, b in _gcd_pairs():
        want = sympy.gcd(to_sympy(a), to_sympy(b))
        if not want.is_zero:
            want = want.monic()
        got = [Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())]
        assert PolyEps(got) == PolyEps.gcd(a, b), (a, b)


# -- the heuristic gcd (GCDHEU) and its remainder-sequence fallback ----------


def _refuse_prem(monkeypatch):
    def refuse(a, b):
        raise AssertionError("the remainder sequence ran")

    monkeypatch.setattr(rotnear.field, "_prem", refuse)


def _count_prem(monkeypatch):
    calls = []
    real = rotnear.field._prem

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(rotnear.field, "_prem", counted)
    return calls


def _edge_pairs():
    """(a, b) sharing e - c with c = M at the Cauchy bound of a, where
    |a|_inf = M = 2^j - 1 makes 2|a|_inf + 2 a power of two, so the least
    evaluation point is exactly 2|a|_inf + 2; G(xi) = M + 2 then exceeds
    xi/2 = M + 1 by one."""
    rng = random.Random(1989)
    for j in range(1, 9):
        m = 2**j - 1
        for root in (m, -m):
            g = PolyEps((-root, 1))
            a = g * PolyEps((1, 1)) if root > 0 else g * PolyEps((-1, 1))
            assert max(map(abs, a.coeffs)) == m
            yield a, g * random_poly(rng, 3, nonzero=True)


def test_coprimality_bound_is_tight_at_the_least_evaluation_point():
    from rotnear.field import _cauchy_bits, _value_gcd

    for a, b in _edge_pairs():
        k = _cauchy_bits(list(a.coeffs))
        assert 1 << k == 2 * max(map(abs, a.coeffs)) + 2
        assert _value_gcd([list(a.coeffs), list(b.coeffs)], k) > 1 << (k - 1)


def test_gcd_matches_the_euclidean_gcd_on_heuristic_edge_cases():
    rng = random.Random(1147)
    pairs = list(_edge_pairs())
    for _ in range(40):  # negative leading coefficients, Fraction coefficients
        g = _rational_poly(rng, 3) * Fraction(-rng.randint(1, 9), rng.randint(1, 9))
        a, b = g * _rational_poly(rng, 3), g * _rational_poly(rng, 3)
        pairs.append((-a if a.lc > 0 else a, -b if b.lc > 0 else b))
    for a, b in pairs:
        g = PolyEps.gcd(a, b)
        assert g == _euclidean_gcd(a, b) == PolyEps.gcd(b, a), (a, b)


def test_gcd_falls_back_when_the_heuristic_cannot_verify(monkeypatch):
    # for b = G * e^64 and a = G * (e + 2^64) the values at every tried xi
    # = 2^k share the extra factor xi, whose digits read back as e * G,
    # which divides neither input
    calls = _count_prem(monkeypatch)
    rng = random.Random(1989)
    for _ in range(5):
        g = random_poly(rng, 3, nonzero=True) * PolyEps((1, 1))
        a, b = g * PolyEps((2**64, 1)), g * PolyEps([0] * 64 + [1])
        before = len(calls)
        assert PolyEps.gcd(a, b) == _euclidean_gcd(a, b) == g.monic()
        assert len(calls) > before


def test_coprime_fractions_never_run_the_remainder_sequence(monkeypatch):
    rng = random.Random(1990)
    pairs = []
    while len(pairs) < 40:
        num, den = _rational_poly(rng, 4), _rational_poly(rng, 4)
        if den.degree > 0 and num and _euclidean_gcd(num, den) == PolyEps(1):
            pairs.append((num, den))
    _refuse_prem(monkeypatch)
    for num, den in pairs:
        x = RatFuncEps(num, den)
        assert x.den.lc == 1 and x.num * den == num * x.den


def _nonconstant(rng, max_deg):
    while True:
        p = _rational_poly(rng, max_deg)
        if p.degree > 0:
            return p


def test_reductions_keep_the_gcds_quotients(monkeypatch):
    # RatFuncEps, Yun's algorithm and the product of square classes read
    # their quotients off the gcd routine: no polynomial division runs
    rng = random.Random(1989)
    fractions, polys, classes = [], [], []
    for k in range(12):
        g = _nonconstant(rng, 2) * Fraction(-rng.randint(1, 9), rng.randint(1, 5))
        num, den = g * _rational_poly(rng, 3), g * _nonconstant(rng, 3)
        fractions.append((num, den if k % 2 else -den))
        g1, g2, g3 = (_nonconstant(rng, 2) for _ in range(3))
        polys.append(g1 * g2 * g2 * g3**3 * Fraction(-3, 7))
        g = PolyEps((rng.randint(-9, 9), 1))
        classes.append((RatFuncEps(g * _nonconstant(rng, 2)), RatFuncEps(g * _nonconstant(rng, 2))))
    squares = [(square_class(x), square_class(y)) for x, y in classes]

    def refuse(a, b):
        raise AssertionError("a polynomial division ran")

    monkeypatch.setattr(PolyEps, "__divmod__", refuse)
    reduced = [RatFuncEps(num, den) for num, den in fractions]
    parts = [squarefree_decomposition(p) for p in polys]
    products = [s * t for s, t in squares]
    monkeypatch.undo()
    for (num, den), x in zip(fractions, reduced):
        assert x.den.lc == 1 and x.num * den == num * x.den
        assert _euclidean_gcd(x.num, x.den) == PolyEps(1)
    for p, dec in zip(polys, parts):
        prod = PolyEps(1)
        for a, i in dec:
            assert a.lc == 1 and a.degree > 0
            prod = prod * a**i
        assert prod == p.monic()
        for j, (a, _) in enumerate(dec):
            assert all(_euclidean_gcd(a, b) == PolyEps(1) for b, _ in dec[j + 1 :])
    for (x, y), product in zip(classes, products):
        assert product == square_class(x * y)


def test_fallback_quotients_match_the_heuristic(monkeypatch):
    from rotnear.field import _cofactors

    rng = random.Random(1971)
    cases = []
    for _ in range(8):
        g = random_poly(rng, 3, nonzero=True) * PolyEps((rng.randint(-9, 9), -rng.randint(1, 9)))
        cases.append([g * random_poly(rng, 3, nonzero=True), PolyEps(), g * random_poly(rng, 4)])
        cases.append([random_poly(rng, 4, nonzero=True) * rng.choice((-6, 1, 10))])
        a, b = random_poly(rng, 4, nonzero=True), random_poly(rng, 4, nonzero=True)
        if _euclidean_gcd(a, b).degree == 0:  # a constant gcd, with content
            cases.append([-2 * a, PolyEps(), 4 * b])
    cases = [[list(p.coeffs) for p in ps] for ps in cases]
    heuristic = [_cofactors(ps) for ps in cases]
    monkeypatch.setattr(rotnear.field, "_HEU_TRIES", 0)
    calls = _count_prem(monkeypatch)
    for ps, want in zip(cases, heuristic):
        h, quotients = _cofactors(ps)
        assert (h, quotients) == want, ps
        assert h[-1] > 0 and len(quotients) == len(ps)
        for p, q in zip(ps, quotients):
            assert PolyEps(h) * PolyEps(q) == PolyEps(p), (ps, h, q)
    assert calls


def _follows_coefficient_rule(x):
    if isinstance(x, RatFuncEps):
        return _follows_coefficient_rule(x.num) and _follows_coefficient_rule(x.den)
    return all((type(c) is int) == (c.denominator == 1) for c in x.coeffs)


def test_polynomial_coefficients_are_ints_exactly_when_integral():
    rng = random.Random(8)
    for _ in range(200):
        a = _rational_poly(rng, 5) * rng.choice((1, 6, 60))
        b = _rational_poly(rng, 4) * rng.choice((1, 6, 60))
        results = [a + b, a - b, a * b, -a, a.derivative(), PolyEps.gcd(a, b)]
        if b:
            results += [*divmod(a, b), a // b, a % b, b.monic(), squarefree_part(b * b * a or b)]
        for r in results:
            assert _follows_coefficient_rule(r), r
    assert PolyEps((Fraction(4, 2), Fraction(1, 2), True)).coeffs == (2, Fraction(1, 2), 1)
    assert all(type(c) is int for c in PolyEps((Fraction(4, 2), True)).coeffs)
    for text in ("(2-4*e)/(2+2*e)", "3/6*e^2", "(1+e)/(3-e)", "4*e-2/3"):
        assert _follows_coefficient_rule(parse_elem(text)), text
    with pytest.raises(TypeError):
        PolyEps((1.5,))


def test_integral_division_never_yields_a_float():
    q, r = divmod(PolyEps((1, 0, 3)), PolyEps((0, 2)))
    assert q == PolyEps((0, Fraction(3, 2))) and r == PolyEps((1,))
    assert type(q.coeffs[1]) is Fraction
    assert PolyEps((4, 6)) // PolyEps((2,)) == PolyEps((2, 3))
    assert all(type(c) is int for c in (PolyEps((4, 6)) // PolyEps((2,))).coeffs)
    assert PolyEps((2, 3)).monic().coeffs == (Fraction(2, 3), 1)


def test_public_rationals_stay_fractions():
    for text in ("3", "0", "-7", "6/3"):
        assert type(parse_elem(text)) is Fraction
        assert type(parse_rat(text)) is Fraction
    assert type(RatFuncEps(PolyEps((2, 4)), PolyEps((1, 2))).evaluate(5)) is Fraction
    assert type((1 + eps).evaluate(0)) is Fraction
    m = Mat([[2, Fraction(1, 2)], [0, 4]])
    assert all(type(x) is Fraction for x in m.entries())
    assert type(det(m)) is Fraction and type(frob_sq(m)) is Fraction
    assert type(square_class(Fraction(8)).rep) is Fraction
    assert type(square_class(RatFuncEps(PolyEps((8,)))).rep) is Fraction
    assert hash(RatFuncEps(3)) == hash(Fraction(3))
    assert hash(PolyEps((3,))) == hash(Fraction(3))
    assert hash(PolyEps((1, 2))) == hash((Fraction(1), Fraction(2)))


# -- square classes ---------------------------------------------------------


def test_square_class_examples():
    assert square_class(4 * eps**2 * (1 + eps)).rep == 1 + eps
    assert square_class(Fraction(9, 4)).rep == ONE
    assert square_class(Fraction(2)).rep == Fraction(2)


def test_square_class_strips_squares():
    x = (1 + eps) / (3 + eps) ** 2
    s = RatFuncEps(PolyEps((2, 0, 5)), PolyEps((1, 7)))
    assert square_class(x * s * s) == square_class(x)


def test_square_class_of_zero_rejected():
    with pytest.raises(ValueError):
        square_class(Fraction(0))
    with pytest.raises(ValueError):
        square_class(RatFuncEps(0))


def test_square_class_reciprocal_pairs_share_a_class():
    # u/v and u*v differ by the square v^2
    assert square_class(eps) == square_class(1 / eps)
    assert square_class((1 + eps) / (2 + eps)) == square_class((1 + eps) * (2 + eps))


def test_is_square_examples():
    assert is_square(eps**2)
    assert not is_square(1 + eps**2)  # squarefree of positive degree
    assert not is_square(Fraction(-1))
    assert not is_square(RatFuncEps(-1))
    assert is_square(Fraction(0))
    assert is_square(RatFuncEps(0))
    assert is_square(Fraction(9, 4))
    assert not is_square(Fraction(2))


@given(nonzero_ratfuncs, nonzero_ratfuncs)
@settings(deadline=None, max_examples=60)
def test_square_class_is_multiplicative(x, y):
    assert square_class(x * y) == square_class(x) * square_class(y)


@given(nonzero_ratfuncs)
@settings(deadline=None, max_examples=60)
def test_is_square_iff_trivial_class(x):
    assert is_square(x) == square_class(x).is_trivial
    assert is_square(x * x)
    assert square_class(x * x).is_trivial


@given(nonzero_ratfuncs)
@settings(deadline=None, max_examples=60)
def test_square_class_is_idempotent(x):
    rep = square_class(x).rep
    assert square_class(rep).rep == rep


def test_is_square_never_factors_an_integer(monkeypatch):
    def refuse(n):
        raise AssertionError(f"is_square factored {n}")

    monkeypatch.setattr(rotnear.field, "squarefree_int", refuse)
    p = 1000000007  # prime: trial division would take ~5*10^8 steps per class
    assert is_square((1 + eps) ** 2 * p**2)
    assert not is_square((1 + eps) ** 2 * p)
    assert not is_square(-((1 + eps) ** 2) * p**2)
    assert not is_square((1 + eps) * p**2)
    rng = random.Random(17)
    for _ in range(40):
        x = random_ratfunc(rng, 4, nonzero=True)
        assert is_square(x * x)
        assert is_square(x * x * p**2)
        assert not is_square(x * x * eps)
        assert not is_square(-x * x)
    for _ in range(40):
        a, b = rng.randint(10**20, 10**30), rng.randint(1, 10**25)
        assert is_square(Fraction(a * a, b * b))
        assert is_square(RatFuncEps(Fraction(a * a, b * b)))
        assert not is_square(Fraction(a * a + 1, b * b))  # a^2 < a^2+1 < (a+1)^2
        assert not is_square(Fraction(2 * a * a, b * b))
        assert not is_square(-Fraction(a * a, b * b))


def test_rationals_answer_like_their_constants_in_q_e():
    rng = random.Random(19)
    qs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(9, 4), Fraction(-8, 18)]
    qs += [Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3)) for _ in range(60)]
    qs += [Fraction(rng.randint(1, 99) ** 2, rng.randint(1, 99) ** 2) for _ in range(20)]
    for q in qs:
        r = RatFuncEps(q)
        for ask in (sign, is_infinitesimal, eps_order, is_square):
            assert ask(q) == ask(r), (ask.__name__, q)
            if q.denominator == 1:
                assert ask(int(q)) == ask(r), (ask.__name__, q)
        if q:
            assert square_class(q) == square_class(r)
            assert isinstance(square_class(r).rep, Fraction)
        else:
            for z in (q, r, 0):
                with pytest.raises(ValueError):
                    square_class(z)


@pytest.mark.parametrize("bad", [None, "1", "", PolyEps((1, 2)), PolyEps()])
@pytest.mark.parametrize("ask", [sign, is_infinitesimal, eps_order, is_square, square_class])
def test_order_and_square_questions_reject_non_elements(ask, bad):
    # the type is checked before any zero shortcut: None, "" and the
    # zero polynomial are all falsy
    with pytest.raises(TypeError):
        ask(bad)


# -- hashing consistency ----------------------------------------------------


def test_rational_valued_elements_hash_like_fractions():
    x = (1 + eps) / (1 + eps) * Fraction(3, 4)
    assert x == Fraction(3, 4)
    assert hash(x) == hash(Fraction(3, 4))
