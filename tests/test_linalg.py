"""Exact linear algebra tests: products, inverses, determinants, and
the squared-norm calculus."""

import itertools
import random
from fractions import Fraction

import pytest

from rotnear.cayley import cayley
from rotnear.field import PolyEps, RatFuncEps, eps, is_infinitesimal, sign
from rotnear.linalg import (
    Mat,
    SingularMatrixError,
    Vec,
    _common,
    _over,
    _preserves,
    det,
    frob_sq,
    inverse,
    is_orthogonal,
    mat_from_json,
    mat_to_json,
)
from rotnear.quadspace import BilinearSpace, reflect
from rotnear.sampling import random_ratfunc, random_skew, random_vector


def rand_mat(rng, n, bound=3):
    return Mat([[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)])


def test_identity_product():
    a = Mat([[1, 2], [3, 4]])
    assert Mat.identity(2) @ a == a
    assert a @ Mat.identity(2) == a


def test_double_transpose():
    a = Mat([[1, 2], [3, 4]])
    assert a.T.T == a


def test_square_of_eps_rotation_generator():
    a = Mat([[0, eps], [-eps, 0]])
    assert a @ a == Mat([[-(eps**2), 0], [0, -(eps**2)]])


def test_inverse_unipotent():
    assert inverse(Mat([[1, eps], [0, 1]])) == Mat([[1, -eps], [0, 1]])


def test_inverse_2x2_matches_adjugate():
    m = Mat([[1, eps], [-eps, 1]])
    # adjugate oracle: inverse = adj / det for 2x2
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    adj = Mat([[m[1, 1] / d, -m[0, 1] / d], [-m[1, 0] / d, m[0, 0] / d]])
    assert inverse(m) == adj
    assert adj == Mat(
        [
            [1 / (1 + eps**2), -eps / (1 + eps**2)],
            [eps / (1 + eps**2), 1 / (1 + eps**2)],
        ]
    )
    assert m @ inverse(m) == Mat.identity(2)


def test_inverse_identity():
    assert inverse(Mat.identity(3)) == Mat.identity(3)


def test_singular_matrix_reports_column():
    with pytest.raises(SingularMatrixError) as err:
        inverse(Mat([[0, 0], [0, 1]]))
    assert err.value.column == 0
    with pytest.raises(SingularMatrixError) as err:
        inverse(Mat([[1, 1], [1, 1]]))
    assert err.value.column == 1


def test_det_examples():
    assert det(Mat.identity(3)) == 1
    assert det(Mat([[0, 1], [-1, 0]])) == 1
    assert det(Mat.diag([-1, 1, 1])) == -1
    assert det(Mat([[1, 1], [1, 1]])) == 0


def test_frob_sq_examples():
    assert frob_sq(Mat.identity(3)) == 3
    assert frob_sq(Mat.zero(4)) == 0


def test_frob_sq_contact_value():
    from rotnear.cayley import cayley

    c = cayley(eps * Mat([[0, 1], [-1, 0]]))
    assert frob_sq(Mat.identity(2) - c) == 8 * eps**2 / (1 + eps**2)


def test_is_orthogonal_examples():
    assert is_orthogonal(Mat.identity(4))
    assert not is_orthogonal(Mat.diag([1, 2]))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Mat.identity(2) @ Mat.identity(3)
    with pytest.raises(ValueError):
        Mat.identity(2) + Mat.identity(3)
    with pytest.raises(ValueError):
        Mat.identity(3) @ Vec([1, 2])
    with pytest.raises(ValueError):
        Vec([1, 2]) + Vec([1, 2, 3])


def test_entries_are_canonicalized_exact():
    m = Mat([[1, 0], [0, 1]])
    assert all(isinstance(x, Fraction) for x in m.entries())
    with pytest.raises(TypeError):
        Mat([[0.5, 0], [0, 1]])


def test_non_square_rejected():
    with pytest.raises(ValueError):
        Mat([[1, 2, 3], [4, 5, 6]])


def test_inverse_round_trip_and_det_on_samples():
    rng = random.Random(11)
    done = 0
    while done < 25:
        n = rng.randint(2, 4)
        a = rand_mat(rng, n)
        d = det(a)
        if d == 0:
            continue
        ai = inverse(a)
        assert ai @ a == Mat.identity(n)
        assert a @ ai == Mat.identity(n)
        assert det(ai) == 1 / d
        done += 1


def test_det_is_multiplicative_on_samples():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 4)
        a, b = rand_mat(rng, n), rand_mat(rng, n)
        assert det(a @ b) == det(a) * det(b)


def _mixed_sample(rng, n):
    # rational plus infinitesimal perturbation, to exercise Q(e) entries
    a = rand_mat(rng, n, 2)
    if rng.random() < 0.5:
        a = a + eps * random_skew(rng, n, 2)
    return a


def test_squared_submultiplicativity_on_samples():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 3)
        a, b = _mixed_sample(rng, n), _mixed_sample(rng, n)
        assert sign(frob_sq(a) * frob_sq(b) - frob_sq(a @ b)) >= 0


def test_weak_triangle_bound_on_samples():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 3)
        a, b = _mixed_sample(rng, n), _mixed_sample(rng, n)
        bound = 2 * frob_sq(a) + 2 * frob_sq(b)
        assert sign(bound - frob_sq(a + b)) >= 0


def test_frob_sq_zero_iff_zero_matrix():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(2, 3)
        a = _mixed_sample(rng, n)
        assert (frob_sq(a) == 0) == (a == Mat.zero(n))
    assert frob_sq(Mat.zero(3)) == 0


def test_frob_sq_of_infinitesimal_entries_is_infinitesimal():
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(2, 4)
        a = eps * rand_mat(rng, n)
        assert is_infinitesimal(frob_sq(a))


def test_matrix_json_round_trip():
    m = Mat([[1, eps], [-eps, Fraction(1, 2)]])
    obj = mat_to_json(m)
    assert obj["n"] == 2
    assert obj["entries"][0] == ["1", "e"]
    assert mat_from_json(obj) == m


def test_matrix_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mat_from_json({"n": 2, "entries": [["1", "0"]]})
    with pytest.raises(ValueError):
        mat_from_json({"n": 2, "entries": [["1", "0"], ["0", 1]]})
    with pytest.raises(ValueError):
        mat_from_json([["1"]])


def test_mat_pow():
    b = Mat([[0, 1], [-1, 0]])
    assert b**0 == Mat.identity(2)
    assert b**2 == -Mat.identity(2)
    assert b**3 == -b


def test_mat_pow_matches_repeated_products():
    rng = random.Random(17)
    for a in (rand_mat(rng, 3), Mat.identity(2) + eps * random_skew(rng, 2)):
        acc = Mat.identity(a.n)
        for k in range(9):
            assert a**k == acc
            acc = acc @ a
    with pytest.raises(ValueError, match="non-negative integers"):
        Mat.identity(2) ** -1


# ---------------------------------------------------------------------------
# independent oracles for the fraction-free kernel behind det, inverse,
# frob_sq, is_orthogonal and products


def leibniz_det(a):
    """Permutation-sum expansion, with field arithmetic entry by entry."""
    total = Fraction(0)
    for perm in itertools.permutations(range(a.n)):
        inversions = sum(
            1 for i in range(a.n) for j in range(i + 1, a.n) if perm[i] > perm[j]
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * a[i, j]
        total = total + term
    return total


def rand_q_mat(rng, n):
    return Mat(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def rand_qe_entry(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if kind == 1:
        return rng.randint(-2, 2) + rng.randint(-2, 2) * eps
    return random_ratfunc(rng, max_deg=2, bound=3)


def rand_qe_mat(rng, n):
    return Mat([[rand_qe_entry(rng) for _ in range(n)] for _ in range(n)])


def kernel_samples(seed, per_n=6):
    rng = random.Random(seed)
    for n in range(1, 5):
        for _ in range(per_n):
            yield rand_q_mat(rng, n)
            yield rand_qe_mat(rng, n)


def test_det_matches_leibniz_expansion():
    for a in kernel_samples(21):
        assert det(a) == leibniz_det(a)


def test_det_of_a_rank_deficient_matrix_is_zero():
    rng = random.Random(22)
    for a in kernel_samples(22):
        if a.n < 2:
            continue
        # last row := c * row 0 + row n-2 (for n = 2, a multiple of row 0)
        rows = [list(r) for r in a.rows]
        c = rand_qe_entry(rng)
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[-2])]
        b = Mat(rows)
        assert leibniz_det(b) == 0
        assert det(b) == 0


def test_inverse_is_a_two_sided_inverse():
    checked = 0
    for a in kernel_samples(23):
        if leibniz_det(a) == 0:
            with pytest.raises(SingularMatrixError):
                inverse(a)
            continue
        ai = inverse(a)
        assert a @ ai == Mat.identity(a.n)
        assert ai @ a == Mat.identity(a.n)
        checked += 1
    assert checked >= 40


def test_mixed_rational_and_qe_entries():
    a = Mat([[Fraction(1, 2), eps], [1 / (1 + eps), Fraction(3)]])
    assert any(isinstance(x, Fraction) for x in a.entries())
    assert any(isinstance(x, RatFuncEps) for x in a.entries())
    assert det(a) == leibniz_det(a) == Fraction(3, 2) - eps / (1 + eps)
    ai = inverse(a)
    assert a @ ai == Mat.identity(2) == ai @ a
    assert frob_sq(a) == Fraction(1, 4) + eps**2 + 1 / (1 + eps) ** 2 + 9
    # products with a purely rational factor on either side
    r = Mat([[1, 2], [Fraction(1, 3), 0]])
    assert (r @ a)[0, 1] == eps + 6
    assert (a @ r)[1, 0] == 1 / (1 + eps) + 1


def test_matrix_product_matches_entrywise_sums():
    for a, b in zip(kernel_samples(24), kernel_samples(25)):
        if a.n != b.n:
            continue
        expected = Mat(
            [
                [sum((a[i, k] * b[k, j] for k in range(a.n)), Fraction(0)) for j in range(a.n)]
                for i in range(a.n)
            ]
        )
        assert a @ b == expected


def test_frob_sq_and_orthogonality_match_entrywise_sums():
    for a in kernel_samples(26):
        assert frob_sq(a) == sum((x * x for x in a.entries()), Fraction(0))
        gram = Mat(
            [
                [sum((a[k, i] * a[k, j] for k in range(a.n)), Fraction(0)) for j in range(a.n)]
                for i in range(a.n)
            ]
        )
        assert is_orthogonal(a) == (gram == Mat.identity(a.n))


def test_singular_column_when_the_pivot_vanishes_only_after_elimination():
    # every listed column has nonzero entries before elimination starts
    cases = [
        (Mat([[1, 2, 3], [2, 4, 6], [1, 3, 5]]), 2),
        (Mat([[2, 1, 1], [4, 2, 3], [6, 3, 1]]), 1),
        (Mat([[1, eps], [eps, eps**2]]), 1),
        (Mat([[1, eps, 1], [eps, eps**2, eps], [1, 2, 3]]), 2),
        (Mat([[1 / (1 + eps), 1], [1, 1 + eps]]), 1),
    ]
    for a, column in cases:
        with pytest.raises(SingularMatrixError) as err:
            inverse(a)
        assert err.value.column == column
        assert det(a) == 0 == leibniz_det(a)


def test_rational_input_gives_rational_results():
    for a in kernel_samples(27):
        if not all(isinstance(x, Fraction) for x in a.entries()):
            continue
        assert isinstance(det(a), Fraction)
        assert isinstance(frob_sq(a), Fraction)
        assert all(isinstance(x, Fraction) for x in (a @ a).entries())
        if det(a) != 0:
            assert all(isinstance(x, Fraction) for x in inverse(a).entries())
    assert isinstance(det(Mat.zero(3)), Fraction)


def g_isometries(rng, n, g):
    """Isometries of diag(g) over Q and Q(e): Cayley images of
    G^-1 S and e G^-1 S for skew S, and reflections along rational and
    Q(e) vectors."""
    gi = Mat.diag([1 / x for x in g])
    out = [cayley(gi @ random_skew(rng, n)), cayley(eps * (gi @ random_skew(rng, n)))]
    for u in (random_vector(rng, n), Vec([rand_qe_entry(rng) for _ in range(n)])):
        if any(u):
            out.append(reflect(BilinearSpace(g), u).m)
    return out


def test_form_test_matches_the_gram_product():
    rng = random.Random(28)
    seen = {True: 0, False: 0}
    for n in range(2, 5):
        for g in ([Fraction(1)] * n, [Fraction(k) for k in range(1, n + 1)],
                  [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]):
            gram = Mat.diag(g)
            samples = [rand_q_mat(rng, n), rand_qe_mat(rng, n)]
            for m in g_isometries(rng, n, g):
                samples.append(m)
                # near-misses: one off-diagonal entry moved, or its sign
                # flipped, which keeps every column's q-length
                i, j = rng.sample(range(n), 2)
                for delta in (Fraction(1, 2), eps, eps**3, -2 * m[i, j]):
                    rows = [list(r) for r in m.rows]
                    rows[i][j] = rows[i][j] + delta
                    samples.append(Mat(rows))
            for m in samples:
                p, d = m._p, m._d
                expected = m.T @ gram @ m == gram
                assert _preserves(p, d * d, g) == expected
                if all(x == 1 for x in g):
                    assert _preserves(p, d * d) == expected == is_orthogonal(m)
                seen[expected] += 1
    assert seen[True] >= 30 and seen[False] >= 90


def test_common_denominator_over_qe_is_in_z_of_e():
    # P and d come back with int coefficients, and P_i / d is x_i again
    rng = random.Random(44)
    cases = [
        [Fraction(1, 2), Fraction(-3, 4) * eps, (1 + eps) / (3 - 2 * eps)],
        [RatFuncEps(PolyEps((Fraction(1, 3), Fraction(5, 7))))],
        [Fraction(2, 3), (Fraction(2, 5) + eps**2) / (Fraction(1, 3) - eps), Fraction(0)],
    ]
    for _ in range(60):
        xs = [random_ratfunc(rng, 4, 9) * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 9))]
        cases.append(xs + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
    for xs in cases:
        p, d = _common(xs)
        assert isinstance(d, PolyEps) and d
        for poly in p + [d]:
            assert all(type(c) is int for c in poly.coeffs), poly
        assert [_over(pi, d) for pi in p] == xs
