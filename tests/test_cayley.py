"""Cayley map tests: the involution, skew <-> rotation exchange, the
near-identity construction, and the truncated-series identity."""

import importlib
import random
from fractions import Fraction

import pytest

from rotnear.cayley import (
    CayleyObstructionError,
    cayley,
    infinitesimal_rotation,
    is_skew,
    neumann_check,
)
from rotnear.field import PolyEps, RatFuncEps, eps, eps_order, is_infinitesimal
from rotnear.linalg import Mat, det, frob_sq, inverse, is_orthogonal
from rotnear.quadspace import BilinearSpace
from rotnear.sampling import random_poly, random_rotation, random_skew

B2 = Mat([[0, 1], [-1, 0]])


def test_cayley_of_zero_is_identity():
    assert cayley(Mat.zero(3)) == Mat.identity(3)


def test_cayley_2x2_symbolic():
    got = cayley(Mat([[0, eps], [-eps, 0]]))
    d = 1 + eps**2
    assert got == Mat([[(1 - eps**2) / d, -2 * eps / d], [2 * eps / d, (1 - eps**2) / d]])
    # multiply back: (I+A) * got == I-A
    a = Mat([[0, eps], [-eps, 0]])
    assert (Mat.identity(2) + a) @ got == Mat.identity(2) - a


def test_cayley_is_an_involution():
    assert cayley(cayley(B2)) == B2


def test_cayley_obstruction():
    with pytest.raises(CayleyObstructionError):
        cayley(-Mat.identity(2))
    with pytest.raises(CayleyObstructionError):
        cayley(Mat.diag([-1, 1, 1]))


def test_cayley_matches_the_textbook_product():
    # (I - a) @ inverse(I + a), on skew and non-skew matrices over Q and
    # Q(e); a singular I + a (row 0 of a set to -e_0) is the obstruction.
    rng = random.Random(26)
    checked = 0
    for n in range(1, 6):
        i = Mat.identity(n)
        for _ in range(4):
            skew = random_skew(rng, n) if n > 1 else Mat.zero(1)
            general = Mat(
                [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            )
            for a in (skew, general, eps * skew, general + eps * skew):
                if det(i + a) != 0:
                    assert cayley(a) == (i - a) @ inverse(i + a)
                    checked += 1
                rows = [list(r) for r in a.rows]
                rows[0] = [-1] + [0] * (n - 1)
                with pytest.raises(CayleyObstructionError):
                    cayley(Mat(rows))
    assert checked > 70


def test_skew_maps_to_special_orthogonal_on_samples():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_skew(rng, n)
        q = cayley(a)
        assert is_orthogonal(q)
        assert det(q) == 1
        assert cayley(q) == a


def test_rotation_maps_to_skew_on_samples():
    rng = random.Random(22)
    done = 0
    while done < 15:
        n = rng.randint(3, 5)
        sp = BilinearSpace.identity_form(n)
        r = random_rotation(sp, rng)
        if det(Mat.identity(n) + r.m) == 0:
            continue
        s = cayley(r.m)
        assert is_skew(s)
        assert cayley(s) == r.m
        done += 1


def test_infinitesimal_rotation_2x2():
    a = infinitesimal_rotation(B2)
    assert frob_sq(Mat.identity(2) - a) == 8 * eps**2 / (1 + eps**2)


def test_infinitesimal_rotation_rejects_bad_input():
    with pytest.raises(ValueError):
        infinitesimal_rotation(Mat.zero(2))
    with pytest.raises(ValueError):
        infinitesimal_rotation(Mat([[0, 1], [1, 0]]))  # symmetric, not skew
    with pytest.raises(ValueError):
        infinitesimal_rotation(eps * B2)  # entries not rational


def test_infinitesimal_rotation_guarantee_checks_fire(monkeypatch):
    # Each forged Cayley image breaks the guarantee named beside it; A = -I
    # and an orthogonal A of det -1 are also far from I, since det is +1
    # near I.  (The package re-exports the function `cayley` over the
    # module's name.)
    cay = importlib.import_module("rotnear.cayley")

    b = Mat([[0, 1, 2], [-1, 0, 0], [-2, 0, 0]])
    real = cayley(eps * b)
    i = Mat.identity(3)
    forged = {
        "A = I": i,
        "A = -I": -i,
        "not orthogonal": (1 + eps) * real,
        "det A = -1": Mat.diag([-1, 1, 1]) @ real,
        "not infinitesimal": Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 1]]),
    }
    for what, image in forged.items():
        monkeypatch.setattr(cay, "cayley", lambda a, image=image: image)
        with pytest.raises(ArithmeticError, match="failed its guarantees"):
            infinitesimal_rotation(b)
    monkeypatch.undo()
    assert infinitesimal_rotation(b) == real


def test_infinitesimal_rotation_3x3_block():
    b = Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    a = infinitesimal_rotation(b)
    i = Mat.identity(3)
    assert a != i and a != -i
    assert is_orthogonal(a) and det(a) == 1
    assert is_infinitesimal(frob_sq(i - a))


def test_contact_order_is_exactly_two_on_samples():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 5)
        b = random_skew(rng, n)
        a = infinitesimal_rotation(b)
        assert eps_order(frob_sq(Mat.identity(n) - a)) == 2


def test_neumann_m1_is_trivial():
    rep = neumann_check(B2, 1)
    assert rep.d == Mat.identity(2)
    assert rep.identity_holds


def test_neumann_m3_exact_expansion():
    rep = neumann_check(B2, 3)
    i = Mat.identity(2)
    eb = eps * B2
    assert rep.d == i - eb + eb @ eb
    assert rep.identity_holds
    # the defining identity, recomputed directly
    assert (i + eb) @ rep.d == i + (eps**3) * (B2**3)
    assert rep.gap_infinitesimal
    assert is_infinitesimal(frob_sq(inverse(i + eb) - rep.d))


def test_neumann_rejects_even_m():
    with pytest.raises(ValueError):
        neumann_check(B2, 2)
    with pytest.raises(ValueError):
        neumann_check(B2, 0)


def test_neumann_gap_order_grows_with_m():
    for m in (3, 5, 7):
        rep = neumann_check(B2, m)
        assert rep.identity_holds
        assert eps_order(rep.gap_sq) >= 2 * m


def test_neumann_report_matches_the_field_arithmetic_route():
    # D and the gap recomputed with Mat products, sums and the public
    # inverse, entry by entry in canonical form
    rng = random.Random(31)
    for n in (2, 3, 4):
        b = random_skew(rng, n)
        for m in (1, 3, 5):
            rep = neumann_check(b, m)
            i = Mat.identity(n)
            d, term = i, i
            for _ in range(m - 1):
                term = term @ (-eps * b)
                d = d + term
            assert rep.d == d
            assert rep.gap_sq == frob_sq(inverse(i + eps * b) - d)


def test_neumann_gap_with_rational_series_coefficients():
    # a skew B with fractional entries gives D rational coefficients, so
    # D's common denominator over Z[e] is not 1
    rng = random.Random(32)
    for n in (2, 3, 4):
        b = random_skew(rng, n) * Fraction(rng.randint(1, 5), rng.randint(2, 7))
        for m in (1, 3, 5):
            rep = neumann_check(b, m)
            i = Mat.identity(n)
            assert rep.identity_holds
            assert rep.gap_sq == frob_sq(inverse(i + eps * b) - rep.d)


def test_neumann_identity_matches_the_mat_expression():
    rng = random.Random(33)
    bs = [Mat.zero(n) for n in (2, 3)]
    for n in (2, 3, 4, 5):
        bs.append(random_skew(rng, n))
        bs.append(random_skew(rng, n) * Fraction(rng.randint(1, 5), rng.randint(2, 7)))
    # B = P/5 with P the cross-product matrix of (1, 2, 0): P^3 = -5P, so
    # every odd power past the first shares the prime 5 with t = 5
    bs.append(Mat([[0, 0, 2], [0, 0, -1], [-2, 1, 0]]) * Fraction(1, 5))
    for b in bs:
        i = Mat.identity(b.n)
        for m in (1, 3, 5, 7):
            rep = neumann_check(b, m)
            assert rep.identity_holds == ((i + eps * b) @ rep.d == i + (eps**m) * (b**m))
            assert rep.identity_holds
            assert rep.gap_sq == frob_sq(inverse(i + eps * b) - rep.d)


def test_neumann_report_against_public_mat_arithmetic():
    # seeded rational skew B at n = 1..5, zero included, with denominators
    # t > 1; every claim of the report recomputed with public Mat arithmetic
    rng = random.Random(34)
    bs = [Mat.zero(n) for n in (1, 2, 3)]
    for n in (2, 3, 4, 5):
        bs.append(random_skew(rng, n))
        bs.append(random_skew(rng, n) * Fraction(rng.randint(1, 5), rng.randint(2, 7)))
    # P^3 = -5P for t = 5: the series coefficients share a content with t^(m-1)
    bs.append(Mat([[0, 0, 2], [0, 0, -1], [-2, 1, 0]]) * Fraction(1, 5))
    cases = [(b, (1, 3, 5, 7, 9)) for b in bs]
    # n = 6..8 with m < n: the gap reads power sums past the series' powers
    for n in (6, 7, 8):
        cases.append((random_skew(rng, n), (1, 3, 5)))
        cases.append((random_skew(rng, n) * Fraction(rng.randint(1, 5), rng.randint(2, 7)), (1, 3, 5)))
    for b, ms in cases:
        i = Mat.identity(b.n)
        plus = i + eps * b
        for m in ms:
            rep = neumann_check(b, m)
            assert plus @ rep.d == i + eps**m * b**m
            assert rep.identity_holds
            series, term = i, i
            for _ in range(m - 1):
                term = term @ (-eps * b)
                series = series + term
            assert rep.d == series
            assert rep.gap_sq == frob_sq(inverse(plus) - rep.d)
            constant = all(isinstance(x, Fraction) or x == x.evaluate(0) for x in rep.d.entries())
            assert (type(rep.d._d) is int) == constant
            assert constant == (m == 1 or b == Mat.zero(b.n))


def test_neumann_gap_self_checks_fire(monkeypatch):
    # the power-sum gap holds for skew B only; with the skew test switched
    # off, a nilpotent B = [[0, c], [0, 0]] has N_1 = c^2 and N_j = 0 past
    # it, so Newton's E_2 = c^4/2 is inexact for c = 1, and for c = 2 the
    # numerator keeps a coefficient below e^(2m) once m > n + 1
    cay = importlib.import_module("rotnear.cayley")
    monkeypatch.setattr(cay, "_require_rational_skew", lambda b, nonzero: None)
    with pytest.raises(ArithmeticError, match="Newton"):
        neumann_check(Mat([[0, 1], [0, 0]]), 3)
    neumann_check(Mat([[0, 2], [0, 0]]), 3)
    with pytest.raises(ArithmeticError, match="below e\\^2m"):
        neumann_check(Mat([[0, 2], [0, 0]]), 5)


def _at(a, t):
    return Mat([[x.evaluate(t) if isinstance(x, RatFuncEps) else x for x in row] for row in a.rows])


def _typed_skew(rng, n, kind):
    # entries of degree 1..3 over denominators that are shared by every
    # entry, repeated from a pool of two, or constant
    pool = [random_poly(rng, 3, bound=5, nonzero=True) for _ in range(2)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            num = PolyEps([rng.randint(-5, 5) for _ in range(rng.randint(2, 4))])
            if kind == "shared":
                den = pool[0]
            elif kind == "repeated":
                den = rng.choice(pool)
            else:
                den = PolyEps(rng.randint(1, 6))
            rows[i][j] = RatFuncEps(num, den)
            rows[j][i] = -rows[i][j]
    return Mat(rows)


def test_cayley_commutes_with_specialization():
    # evaluation at a rational t is a field map away from poles, so
    # cayley(A)(t) == cayley(A(t)), the right side computed over Q
    rng = random.Random(35)
    inputs = []
    for n in (2, 3, 4, 5):
        eb = eps * random_skew(rng, n) * Fraction(rng.randint(1, 4), rng.randint(1, 3))
        inputs += [eb, cayley(eb)]  # an image's rows share one denominator
    inputs += [_typed_skew(rng, n, kind) for n in (2, 3, 4) for kind in ("shared", "repeated", "constant")]
    points = (Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 7))
    checked = 0
    for a in inputs:
        image = cayley(a)
        for t in points:
            try:
                at = _at(a, t)
                want = cayley(at)
                got = _at(image, t)
            except (ZeroDivisionError, CayleyObstructionError):
                continue
            assert got == want
            checked += 1
    assert checked >= 0.9 * len(inputs) * len(points)
