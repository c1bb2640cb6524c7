"""The canonical pair (P, d) behind `Mat`: oracles from entrywise
textbook formulas on reduced entries, the canonical form under scaling,
and entry strings pinned from an implementation that stored every
entry reduced."""

import math
import random
from fractions import Fraction

import pytest

import rotnear.field
from rotnear.cayley import cayley, neumann_check
from rotnear.field import PolyEps, RatFuncEps, eps, format_elem
from rotnear.linalg import (
    Mat, SingularMatrixError, Vec, _canonical, _pack, _unpack, inverse, mat_to_json,
)
from rotnear.quadspace import BilinearSpace, compose
from rotnear.sampling import random_poly, random_ratfunc


def rand_entry(rng, qe):
    if not qe or rng.random() < 0.3:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return random_ratfunc(rng, max_deg=1, bound=3)


def rand_mat(rng, n, qe):
    return Mat([[rand_entry(rng, qe) for _ in range(n)] for _ in range(n)])


def samples(seed, per_n=3):
    rng = random.Random(seed)
    for n in range(1, 6):
        for _ in range(per_n):
            yield rand_mat(rng, n, False), rand_mat(rng, n, False)
            yield rand_mat(rng, n, True), rand_mat(rng, n, rng.random() < 0.7)


def textbook_inverse(a):
    """Gauss-Jordan elimination in field arithmetic, entry by entry; None
    when a is singular."""
    n = a.n
    m = [[a[i, j] for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def entries_equal(m, rows):
    return all(m[i, j] == rows[i][j] for i in range(m.n) for j in range(m.n))


def test_kernels_match_textbook_formulas_on_reduced_entries():
    checked = {False: 0, True: 0}
    for a, b in samples(71):
        n = a.n
        ix = range(n)
        assert entries_equal(a @ b, [[sum((a[i, k] * b[k, j] for k in ix), Fraction(0)) for j in ix] for i in ix])
        assert entries_equal(a + b, [[a[i, j] + b[i, j] for j in ix] for i in ix])
        assert entries_equal(a - b, [[a[i, j] - b[i, j] for j in ix] for i in ix])
        assert entries_equal(a.T, [[a[j, i] for j in ix] for i in ix])
        expected = textbook_inverse(a)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                inverse(a)
        else:
            assert entries_equal(inverse(a), expected)
            checked[isinstance(a._d, PolyEps)] += 1
    assert checked[False] >= 10 and checked[True] >= 10


def z_e_factor(rng):
    """A nonzero element of Z[e]: sometimes a negative constant, as an int
    or as a constant PolyEps."""
    kind = rng.randrange(4)
    if kind == 0:
        return -rng.randint(1, 6)
    if kind == 1:
        return PolyEps(-rng.randint(1, 6))
    while True:
        f = PolyEps([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        if f:
            return f


def assert_canonical(p, d):
    flat = [x for row in p for x in row]
    if type(d) is int:
        assert all(type(x) is int for x in flat)
        assert d > 0 and math.gcd(d, *flat) == 1
        return
    polys = [d] + [x for x in flat if isinstance(x, PolyEps)]
    assert d.lc > 0
    assert any(x.degree > 0 for x in polys)  # else all would be ints
    coeffs = [c for x in polys for c in x.coeffs]
    assert all(type(c) is int for c in coeffs)
    assert math.gcd(*coeffs, *(x for x in flat if type(x) is int)) == 1
    g = d
    for x in flat:
        g = PolyEps.gcd(g, PolyEps(x) if type(x) is int else x)
    assert g == 1


def test_scaled_pairs_canonicalize_to_the_same_matrix():
    rng = random.Random(72)
    for a, b in samples(73):
        for m in (a, b, a @ b, a - a, -b, b.T):
            assert_canonical(m._p, m._d)
            f = z_e_factor(rng)
            scaled = Mat._of(*_canonical([[f * x for x in row] for row in m._p], f * m._d))
            assert scaled == m and hash(scaled) == hash(m)
            assert scaled._p == m._p and scaled._d == m._d
            assert entries_equal(scaled, m.rows)


def test_canonical_pairs_never_run_the_remainder_sequence(monkeypatch):
    pairs = [(m._p, m._d) for a, b in samples(74) for m in (a, a @ b, b.T) if isinstance(m._d, PolyEps)]
    assert len(pairs) >= 20

    def refuse(a, b):
        raise AssertionError("the remainder sequence ran")

    monkeypatch.setattr(rotnear.field, "_prem", refuse)
    for p, d in pairs:
        assert _canonical(p, d) == (p, d)


def test_canonical_removes_a_factor_at_the_cauchy_bound():
    # d = (e - c)(e +- 1) with |d|_inf = |c| = 2^j - 1, the largest root
    # d's Cauchy bound allows
    rng = random.Random(75)
    for j in range(1, 9):
        c = 2**j - 1
        for root, other in ((c, 1), (-c, -1)):
            g = PolyEps((-root, 1))
            d = g * PolyEps((other, 1))
            rows = [[g * random_poly(rng, 2) for _ in range(3)] for _ in range(3)]
            want = Mat([[RatFuncEps(x, d) for x in row] for row in rows])
            got = Mat._of(*_canonical(rows, d))
            assert got == want
            assert_canonical(got._p, got._d)


def test_canonical_folds_pair_gcds_when_the_heuristic_fails(monkeypatch):
    # d = G e^64 and entries G (e + 2^64): every tried xi = 2^k divides
    # the values' gcd once more than G(xi) does, so the digits read back
    # as e G, which divides no entry, and both the matrix heuristic and
    # each pair's fall back
    calls = []
    real = rotnear.field._prem

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(rotnear.field, "_prem", counted)
    g = PolyEps((3, -1, 2))
    d = g * PolyEps([0] * 64 + [1])
    rows = [[g * PolyEps((2**64, 1)), 0], [0, g * PolyEps((2**64, 1))]]
    want = Mat([[RatFuncEps(x, d) for x in row] for row in rows])
    assert Mat._of(*_canonical(rows, d)) == want
    assert calls


def assert_trusted(x):
    """x holds what the normalizing constructor would make of its coefficients."""
    assert type(x.coeffs) is tuple and x == PolyEps(list(x.coeffs))
    assert all(type(c) is int for c in x.coeffs) and (not x.coeffs or x.coeffs[-1])


def test_trusted_results_are_normalized(monkeypatch):
    # pairs with zero entries, negative content, constant d and common
    # factors that GCDHEU removes; every PolyEps that _canonical returns
    # is built unchecked, so it must equal its normalized twin
    rng = random.Random(76)
    reduced = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        rows = [[PolyEps([rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]) for _ in range(n)]
                for _ in range(n)]
        d = PolyEps([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]) or PolyEps(-6)
        f = z_e_factor(rng) * rng.choice((1, -2, -3))
        p, e = _canonical([[f * x for x in row] for row in rows], f * d)
        assert_canonical(p, e)
        for x in [e, *(x for row in p for x in row)]:
            if type(x) is not int:
                assert_trusted(x)
        reduced += isinstance(f, PolyEps) and f.degree > 0
    assert reduced >= 20
    for v in (0, 1, -1, 2**70 + 3, -(2**70) - 3, rng.getrandbits(300) - 2**299):
        for k in (2, 5, 64):
            assert_trusted(_unpack(v, k))
            assert _pack(_unpack(v, k), k) == v
    assert _unpack(0, 7).coeffs == ()

    # PolyEps * int scales the coefficients through the normalizing
    # constructor, without a convolution (and so without _as_poly)
    p = PolyEps([Fraction(1, 2), 3, Fraction(-5, 2)])
    want = {c: p * PolyEps(c) for c in (2, -3, 0)}
    monkeypatch.setattr(rotnear.field, "_as_poly", None)
    assert PolyEps.__rmul__ is PolyEps.__mul__
    for c, w in want.items():
        assert p * c == w and c * p == w
        assert all(type(x) is int or x.denominator > 1 for x in (p * c).coeffs)
    assert (p * 2).coeffs == (1, 6, -5) and (p * 0).coeffs == ()


def test_constant_qe_matrix_equals_its_rational_twin():
    q = Mat([[Fraction(1, 2), 3], [0, Fraction(-5, 7)]])
    qe = Mat([[RatFuncEps(PolyEps(Fraction(1, 2))), RatFuncEps(3)], [RatFuncEps(0), RatFuncEps(Fraction(-5, 7))]])
    assert q == qe and hash(q) == hash(qe) and {q: 1}[qe] == 1
    # computed Q(e) matrices whose entries are all constant
    r = cayley(eps * Mat([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))
    i = Mat.identity(3)
    assert r @ r.T == i and hash(r @ r.T) == hash(i)
    shrink = Mat.diag([1 / eps, 1 / eps])
    assert (eps * q) @ shrink == q and hash((eps * q) @ shrink) == hash(q)
    assert q - qe == Mat.zero(2) and hash(q - qe) == hash(Mat.zero(2))


def pinned_cases():
    b1 = Mat([[0, 1, 0], [-1, 0, 2], [0, -2, 0]])
    b2 = Mat([[0, 3, 1], [-3, 0, 0], [-1, 0, 0]])
    # denominators 1+5e^2 and 1+10e^2
    yield "mixed Cayley product", lambda: cayley(eps * b1) @ cayley(eps * b2)
    yield "rational product", lambda: (
        Mat([[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 4)]])
        @ Mat([[Fraction(4, 7), 1], [0, Fraction(-1, 6)]])
    )
    yield "Q(e) inverse", lambda: inverse(Mat([[1 + eps, Fraction(1, 2)], [eps / (2 - eps), 3]]))
    yield "series", lambda: neumann_check(Mat([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]), 5).d
    yield "form isometry", lambda: compose(
        BilinearSpace([1, 2, 3]), [Vec([1, eps, 0]), Vec([Fraction(1, 3), 1, 1 - eps])]
    ).m


# format_elem strings of every entry, recorded while Mat stored reduced
# entries
PINNED = {
    'mixed Cayley product': [
        [
            '(1/50-19/50*e^2+4/25*e^3-3/5*e^4)/(1/50+3/10*e^2+e^4)',
            '(-4/25*e-1/25*e^3-12/25*e^4)/(1/50+3/10*e^2+e^4)',
            '(-1/25*e+2/25*e^2+3/25*e^3+16/25*e^4)/(1/50+3/10*e^2+e^4)',
        ],
        [
            '(4/25*e-4/25*e^2-e^3)/(1/50+3/10*e^2+e^4)',
            '(1/50-1/2*e^2+12/25*e^3+4/5*e^4)/(1/50+3/10*e^2+e^4)',
            '(-2/25*e-1/5*e^2-16/25*e^3+3/5*e^4)/(1/50+3/10*e^2+e^4)',
        ],
        [
            '(1/25*e+14/25*e^2-3/25*e^3-4/5*e^4)/(1/50+3/10*e^2+e^4)',
            '(2/25*e-3/25*e^2-28/25*e^3+9/25*e^4)/(1/50+3/10*e^2+e^4)',
            '(1/50+1/10*e^2-16/25*e^3-12/25*e^4)/(1/50+3/10*e^2+e^4)',
        ],
    ],
    'rational product': [
        ['2/7', '0'],
        ['-8/21', '-7/8'],
    ],
    'Q(e) inverse': [
        ['(-2+e)/(-2-5/6*e+e^2)', '(1/3-1/6*e)/(-2-5/6*e+e^2)'],
        ['1/3*e/(-2-5/6*e+e^2)', '(-2/3-1/3*e+1/3*e^2)/(-2-5/6*e+e^2)'],
    ],
    'series': [
        ['1-1/4*e^2+1/16*e^4', '-1/2*e+1/8*e^3'],
        ['1/2*e-1/8*e^3', '1-1/4*e^2+1/16*e^4'],
    ],
    'form isometry': [
        [
            '(-22/27+13/9*e+61/54*e^2-2*e^3+e^4)/(23/27-e+119/54*e^2-2*e^3+e^4)',
            '(2/9-20/27*e+32/9*e^2-2*e^3)/(23/27-e+119/54*e^2-2*e^3+e^4)',
            '(1/3+11/3*e-14/3*e^2+2/3*e^3)/(23/27-e+119/54*e^2-2*e^3+e^4)',
        ],
        [
            '(-1/9-44/27*e+20/9*e^2-e^3)/(23/27-e+119/54*e^2-2*e^3+e^4)',
            '(5/27-5/9*e+7/54*e^2+2*e^3-e^4)/(23/27-e+119/54*e^2-2*e^3+e^4)',
            '(-1+5/3*e+4/3*e^2-2*e^3)/(23/27-e+119/54*e^2-2*e^3+e^4)',
        ],
        [
            '(-2/9+2/9*e)/(46/27-2*e+e^2)',
            '(-4/3+4/3*e)/(46/27-2*e+e^2)',
            '(-8/27+2*e-e^2)/(46/27-2*e+e^2)',
        ],
    ],
}


@pytest.mark.parametrize("name,build", list(pinned_cases()))
def test_entries_read_as_pinned_strings(name, build):
    expected = PINNED[name]
    m = build()
    assert format_elem(m[0, 1]) == expected[0][1]  # a single entry read first
    assert [[format_elem(x) for x in row] for row in m.rows] == expected
    assert mat_to_json(m) == {"n": m.n, "entries": expected}
    assert mat_to_json(build()) == {"n": m.n, "entries": expected}  # nothing read before
    assert repr(build()) == "Mat([" + ", ".join("[" + ", ".join(r) + "]" for r in expected) + "])"
