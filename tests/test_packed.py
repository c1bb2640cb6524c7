"""The Z[e] kernels of `linalg` run on integers packed at e = 2^k.  Each
kernel is checked here against an oracle written over PolyEps in this
file: Bareiss's delta, sign and R against a Laplace-expansion
determinant and adjugate, the product, the isometry test and the sum of
squares against schoolbook sums.  The inputs include coefficients at
+-(2^b - 1) where a result meets its bound, zero entries, degree-0
PolyEps and singular matrices."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from rotnear.field import PolyEps, RatFuncEps, eps, format_elem
from rotnear.linalg import (
    Mat, SingularMatrixError, Vec, _bareiss, _canonical, _matmul, _pack, _preserves, _unpack,
    frob_sq,
)
from rotnear.quadspace import BilinearSpace, compose

ZERO = PolyEps()
BITS = (1, 3, 8, 64, 200)


def edge(b):
    return (1 << b) - 1


def rand_entry(rng, deg, b):
    r = rng.random()
    if r < 0.15:
        return ZERO
    if r < 0.3:
        return PolyEps(rng.randint(-edge(b), edge(b)))
    if r < 0.45:  # every coefficient at +-(2^b - 1)
        return PolyEps([rng.choice((-1, 1)) * edge(b) for _ in range(rng.randint(0, deg) + 1)])
    return PolyEps([rng.randint(-edge(b), edge(b)) for _ in range(rng.randint(0, deg) + 1)])


def rand_matrix(rng, n, deg, b):
    m = [[rand_entry(rng, deg, b) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.25:  # column c a Z[e] combination of the columns before it
        c = rng.randrange(n)
        lam = [PolyEps([rng.randint(-3, 3) for _ in range(2)]) for _ in range(c)]
        for row in m:
            row[c] = sum((x * y for x, y in zip(lam, row)), ZERO)
    return m


def matrices(seed, per_n=64):
    rng = random.Random(seed)
    for n in range(1, 6):
        for _ in range(per_n):
            yield rand_matrix(rng, n, rng.randint(0, 3 if n < 5 else 2), rng.choice(BITS))


def laplace(m):
    """det(m) by expansion along the first row, in PolyEps arithmetic."""
    if not m:
        return PolyEps(1)
    total = ZERO
    for j, x in enumerate(m[0]):
        if x:
            term = x * laplace([row[:j] + row[j + 1 :] for row in m[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def adjugate(m):
    n = len(m)

    def minor(i, j):
        return [r[:j] + r[j + 1 :] for k, r in enumerate(m) if k != i]

    return [[laplace(minor(j, i)) * (-1) ** (i + j) for j in range(n)] for i in range(n)]


def failing_column(m):
    """The first column k whose leading k+1 columns have rank k: every
    (k+1)-minor on them vanishes.  None when m is nonsingular."""
    n = len(m)
    for k in range(n):
        cols = [[row[j] for j in range(k + 1)] for row in m]
        if not any(laplace([cols[r] for r in rows]) for rows in combinations(range(n), k + 1)):
            return k
    return None


def schoolbook_product(p, q):
    n = len(p)
    return [[sum((p[i][l] * q[l][j] for l in range(n)), ZERO) for j in range(n)] for i in range(n)]


def test_pack_round_trip_at_both_edges():
    rng = random.Random(5)
    for k in (1, 2, 3, 7, 8, 9, 64, 65, 200):
        top = (1 << (k - 1)) - 1
        cases = [[top], [-top], [top, -top, top], [-top, top, -top], [-top - 1, top, -top - 1]]
        cases += [[rng.randint(-top, top) for _ in range(rng.randint(1, 6))] for _ in range(30)]
        for cs in cases:
            x = PolyEps(cs)
            assert _unpack(_pack(x, k), k) == x
    assert _unpack(_pack(ZERO, 5), 5) == ZERO and _pack(7, 5) == 7


def test_bareiss_against_laplace_and_adjugate():
    seen = {"singular": 0, "regular": 0}
    for m in matrices(13):
        expected = failing_column(m)
        for jordan in (False, True):
            if expected is not None:
                with pytest.raises(SingularMatrixError) as info:
                    _bareiss(m, jordan)
                assert info.value.column == expected
                continue
            sign, delta, r = _bareiss(m, jordan)
            assert sign in (1, -1) and isinstance(delta, PolyEps)
            assert sign * delta == laplace(m)
            if jordan:
                assert r == [[sign * x for x in row] for row in adjugate(m)]
            else:
                assert r is None
        seen["singular" if expected is not None else "regular"] += 1
    assert seen["singular"] >= 60 and seen["regular"] >= 200


def test_bareiss_results_at_their_bound():
    # diagonal matrices of constants: det is the product of the row L1
    # norms, the bound the slot width is chosen from
    for b in BITS:
        for n in range(1, 6):
            for signs in ((1,) * n, tuple((-1) ** i for i in range(n))):
                m = [[PolyEps(s * edge(b)) if i == j else ZERO for j in range(n)]
                     for i, s in enumerate(signs)]
                det = PolyEps(edge(b) ** n * (-1) ** signs.count(-1))
                sign, delta, _ = _bareiss(m)
                assert sign * delta == det
                sign, delta, r = _bareiss(m, True)
                assert sign * delta == det
                assert r == [[sign * x for x in row] for row in adjugate(m)]


def test_matmul_against_schoolbook_sums():
    rng = random.Random(17)
    for p in matrices(19):
        n = len(p)
        q = rand_matrix(rng, n, rng.randint(0, 3), rng.choice(BITS))
        assert _matmul(p, q) == schoolbook_product(p, q)
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]  # an integer factor
        assert _matmul(ints, q) == schoolbook_product(ints, q)
        assert _matmul(p, ints) == schoolbook_product(p, ints)


def test_matmul_results_at_their_bound():
    # constant entries of one sign: (PQ)_ij = n (2^b - 1)^2, the bound itself
    for b in BITS:
        for n in range(1, 6):
            for s in (1, -1):
                p = [[PolyEps(s * edge(b))] * n for _ in range(n)]
                q = [[PolyEps(edge(b))] * n for _ in range(n)]
                assert _matmul(p, q) == [[PolyEps(s * n * edge(b) ** 2)] * n for _ in range(n)]
                wide = [[PolyEps([edge(b)] * 3)] * n for _ in range(n)]
                assert _matmul(wide, wide) == schoolbook_product(wide, wide)


def schoolbook_preserves(p, dd, g):
    n = len(p)
    g = [Fraction(1)] * n if g is None else g
    for i in range(n):
        for j in range(n):
            s = sum((g[l] * p[l][i] * p[l][j] for l in range(n)), Fraction(0))
            if s != (dd * g[i] if i == j else 0):
                return False
    return True


def isometry_pairs(seed):
    """(P, dd, g) with dd = d^2 for isometries P/d of diag(g) over Q(e), g
    None for the identity form, then near misses and random matrices."""
    rng = random.Random(seed)
    forms = [None, (1, 1, 2), (2, 3, 5, 7), (1, Fraction(1, 2), 3, 1, Fraction(5, 3))]
    for _ in range(25):
        g = rng.choice(forms)
        n = rng.randint(2, 5) if g is None else len(g)
        sp = BilinearSpace.identity_form(n) if g is None else BilinearSpace(g)
        vs = [Vec([rng.randint(-2, 2) + rng.randint(0, 1) * eps for _ in range(n)])
              for _ in range(rng.randint(1, 3))]
        vs = [v for v in vs if any(v)] or [Vec([eps] * n)]
        m = compose(sp, vs).m
        p, d = m._p, m._d
        if type(d) is int:
            continue
        gg = None if g is None else sp.d
        yield p, d * d, gg
        bumped = [list(row) for row in p]
        i, j = rng.randrange(n), rng.randrange(n)
        bumped[i][j] = bumped[i][j] + PolyEps([0] * rng.randint(0, 3) + [1])
        yield bumped, d * d, gg
        yield p, d * d + 1, gg
        yield rand_matrix(rng, n, 2, rng.choice(BITS)), PolyEps([1, 1]), gg
    for b in BITS:  # c I with dd = c^2: the diagonal sum meets its bound
        for n in range(1, 6):
            c = PolyEps(edge(b))
            yield [[c if i == j else ZERO for j in range(n)] for i in range(n)], c * c, None


def test_isometry_test_against_schoolbook_sums():
    outcomes = []
    for p, dd, g in isometry_pairs(23):
        expected = schoolbook_preserves(p, dd, g)
        assert _preserves(p, dd, g) == expected
        outcomes.append(expected)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 40


def test_frob_sq_against_the_sum_of_squared_entries():
    rng = random.Random(29)
    for p in matrices(31, per_n=12):
        n = len(p)
        if not any(map(any, p)):
            continue
        d = PolyEps([rng.randint(1, 5), rng.randint(-3, 3), 1])
        a = Mat._of(*_canonical(p, d))
        assert frob_sq(a) == sum((a[i, j] * a[i, j] for i in range(n) for j in range(n)), Fraction(0))


def rand_elem(rng, qe):
    if not qe or rng.random() < 0.3:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    den = rng.choice((PolyEps(1), PolyEps([1, 1]), PolyEps([2, 0, 1])))
    return RatFuncEps(PolyEps([rng.randint(-4, 4) for _ in range(3)]), den)


def test_matrix_vector_product_against_the_entrywise_formula():
    rng = random.Random(37)
    for trial in range(120):
        n = rng.randint(1, 6)
        a = Mat([[rand_elem(rng, trial % 4 in (1, 3)) for _ in range(n)] for _ in range(n)])
        v = Vec([rand_elem(rng, trial % 4 in (2, 3)) for _ in range(n)])
        expected = [sum((a[i, j] * v[j] for j in range(n)), Fraction(0)) for i in range(n)]
        got = a @ v
        assert list(got) == expected
        assert [format_elem(x) for x in got] == [format_elem(x) for x in expected]
        assert [hash(x) for x in got] == [hash(x) for x in expected]


def test_isometry_test_width_covers_the_target_side():
    # P = I gives sums of 1, but dd = (1 + 2^k) - e equals 1 at e = 2^k for
    # any width k read off P alone: the width must cover dd as well
    for n in range(1, 5):
        p = [[PolyEps(int(i == j)) for j in range(n)] for i in range(n)]
        for k in range(1, 9):
            dd = PolyEps([1 + (1 << k), -1])
            assert not _preserves(p, dd)
            assert not _preserves(p, dd, (Fraction(1),) * n)
        assert _preserves(p, PolyEps(1)) and _preserves(p, PolyEps(1), (Fraction(2, 3),) * n)
