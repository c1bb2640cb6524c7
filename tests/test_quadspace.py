"""Bilinear spaces, reflections, factorization into reflections, and
spinor norms."""

import random
from fractions import Fraction

import pytest

from rotnear.cayley import cayley, infinitesimal_rotation
from rotnear.field import eps, square_class
from rotnear.linalg import Mat, Vec, det, frob_sq
from rotnear.quadspace import (
    BilinearSpace,
    Isometry,
    ReflectionSeq,
    check_neg_identity,
    compose,
    decompose,
    reflect,
    spinor_norm,
)
from rotnear.sampling import random_isometry, random_rotation, random_skew, random_vector

SP2 = BilinearSpace.identity_form(2)
SP3 = BilinearSpace.identity_form(3)


def test_space_validation():
    with pytest.raises(ValueError):
        BilinearSpace([Fraction(1)])
    with pytest.raises(ValueError):
        BilinearSpace([Fraction(1), Fraction(-2)])
    with pytest.raises(TypeError):
        BilinearSpace([Fraction(1), eps])


def test_q_and_b_values():
    assert SP2.q_value(Vec([3, 4])) == 25
    assert SP3.b_value(Vec.basis(3, 0), Vec.basis(3, 1)) == 0
    assert BilinearSpace([1, 2]).q_value(Vec([1, 1])) == 3


def test_q_vanishes_only_at_zero():
    rng = random.Random(5)
    for _ in range(20):
        v = random_vector(rng, 3)
        assert SP3.q_value(v) > 0
    # also over Q(e)
    w = Vec([eps, 1 + eps, eps**2])
    assert SP3.q_value(w) != 0


def test_reflect_basis_vector():
    assert reflect(SP2, Vec([1, 0])).m == Mat.diag([-1, 1])


def test_reflect_diagonal_vector():
    assert reflect(SP2, Vec([1, 1])).m == Mat([[0, -1], [-1, 0]])


def test_reflect_sends_u_to_minus_u():
    rng = random.Random(6)
    for _ in range(10):
        u = random_vector(rng, 3)
        assert reflect(SP3, u).apply(u) == -u


def test_reflect_fixes_orthogonal_complement():
    u = Vec([1, 2, -1])
    r = reflect(SP3, u)
    for w in (Vec([2, -1, 0]), Vec([1, 0, 1])):  # both orthogonal to u
        assert SP3.b_value(u, w) == 0
        assert r.apply(w) == w


def test_reflect_involution_det_and_scaling():
    rng = random.Random(7)
    for _ in range(10):
        u = random_vector(rng, 3)
        r = reflect(SP3, u)
        assert r.m @ r.m == Mat.identity(3)
        assert r.det == -1
        for lam in (2, Fraction(-3, 5)):
            assert reflect(SP3, lam * u) == r


def test_reflect_rejects_zero():
    with pytest.raises(ValueError):
        reflect(SP3, Vec([0, 0, 0]))


def test_isometry_validation():
    with pytest.raises(ValueError):
        Isometry(SP2, Mat.diag([1, 2]))
    iso = Isometry(SP2, Mat([[0, 1], [-1, 0]]))
    assert iso.is_rotation
    assert not reflect(SP2, Vec([1, 1])).is_rotation


def test_isometry_inverse_and_product():
    rng = random.Random(8)
    for _ in range(10):
        iso = random_isometry(SP3, rng)
        assert (iso @ iso.inverse()).m == Mat.identity(3)
        assert iso.inverse().det == iso.det


def test_built_isometries_pass_the_validating_constructor():
    # Products, inverses, reflections, compositions and +-identity are not
    # re-validated when built; re-check each through the public constructor.
    rng = random.Random(13)
    for n in range(3, 6):
        for sp in (BilinearSpace.identity_form(n), BilinearSpace(range(1, n + 1))):
            for _ in range(3):
                s, t = random_isometry(sp, rng), random_isometry(sp, rng)
                vs = [random_vector(rng, n) for _ in range(rng.randint(0, n))]
                r = reflect(sp, random_vector(rng, n))
                # a Q(e) entry matrix, so inverse scales RatFuncEps by d_j/d_i
                x = reflect(sp, Vec([eps, 1] + [0] * (n - 2))) @ s
                built = [s @ t, s.inverse(), r, compose(sp, vs), x, x.inverse()]
                built += [Isometry.identity(sp), Isometry.neg_identity(sp)]
                for b in built:
                    assert Isometry(sp, b.m).det == b.det


def test_decompose_identity_is_empty():
    assert len(decompose(SP3, Isometry.identity(SP3))) == 0
    assert compose(SP3, []).m == Mat.identity(3)


def test_decompose_single_reflection_spans_same_line():
    u = Vec([1, -2, 2])
    rs = decompose(SP3, reflect(SP3, u))
    assert len(rs) == 1
    v = rs[0]
    # v parallel to u: cross ratios agree
    assert all(v[i] * u[j] == v[j] * u[i] for i in range(3) for j in range(3))


def test_decompose_double_sign_flip():
    sigma = Isometry(SP3, Mat.diag([-1, -1, 1]))
    rs = decompose(SP3, sigma)
    assert len(rs) == 2
    assert compose(SP3, rs) == sigma
    for v, i in zip(rs, (0, 1)):
        assert all(v[j] == 0 for j in range(3) if j != i)


def test_compose_of_pair_is_involution():
    u = Vec([2, -1, 1])
    assert compose(SP3, [u, u]).m == Mat.identity(3)


def test_neg_identity_as_reflections_in_basis_vectors():
    assert compose(SP3, [Vec.basis(3, i) for i in range(3)]).m == -Mat.identity(3)


def test_decompose_round_trip_on_samples():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(3, 6)
        sp = BilinearSpace.identity_form(n)
        iso = random_isometry(sp, rng)
        rs = decompose(sp, iso)
        assert len(rs) <= n
        assert compose(sp, rs) == iso
        assert (-1) ** len(rs) == iso.det


def test_decompose_over_nonidentity_form():
    sp = BilinearSpace([1, 2, 3])
    rng = random.Random(10)
    for _ in range(10):
        iso = random_isometry(sp, rng)
        assert compose(sp, decompose(sp, iso)) == iso


def test_decompose_over_eps_field():
    from rotnear.cayley import infinitesimal_rotation
    from rotnear.subgroup import contact_generator

    iso = Isometry(SP3, infinitesimal_rotation(contact_generator(3)))
    rs = decompose(SP3, iso)
    assert compose(SP3, rs) == iso


def test_spinor_norm_of_identity_is_trivial():
    assert spinor_norm(SP3, Isometry.identity(SP3)).is_trivial


def test_spinor_norm_class_two_rotation():
    rot = reflect(SP2, Vec([1, 0])) @ reflect(SP2, Vec([1, 1]))
    cls = spinor_norm(SP2, rot)
    assert cls.rep == Fraction(2)
    assert not cls.is_trivial


def test_spinor_norm_neg_identity_even_dim():
    sp4 = BilinearSpace.identity_form(4)
    assert spinor_norm(sp4, Isometry.neg_identity(sp4)).is_trivial


def test_spinor_norm_well_defined_on_samples():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(3, 5)
        sp = BilinearSpace.identity_form(n)
        k = rng.randint(0, n)
        gens = [random_vector(rng, n) for _ in range(k)]
        iso = compose(sp, gens)
        assert spinor_norm(sp, ReflectionSeq(tuple(gens))) == spinor_norm(sp, iso)


def test_spinor_norm_homomorphism_on_samples():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(3, 5)
        sp = BilinearSpace.identity_form(n)
        s, t = random_rotation(sp, rng), random_rotation(sp, rng)
        assert spinor_norm(sp, s @ t) == spinor_norm(sp, s) * spinor_norm(sp, t)


def _zassenhaus_class(sigma):
    # Zassenhaus (1962): without the eigenvalue -1, the spinor norm is
    # the class of det((I + sigma)/2); None when that det vanishes
    h = det(Fraction(1, 2) * (Mat.identity(sigma.n) + sigma))
    return square_class(h) if h else None


def test_spinor_norm_matches_the_zassenhaus_oracle():
    rng = random.Random(5)
    agreed = skipped = 0
    for n in (2, 3, 4, 5):
        for sp in (BilinearSpace.identity_form(n), BilinearSpace(range(1, n + 1))):
            for _ in range(38):
                k = 2 * rng.randint(0, n // 2)
                iso = compose(sp, [random_vector(rng, n) for _ in range(k)])
                expected = _zassenhaus_class(iso.m)
                if expected is None:
                    skipped += 1
                    continue
                assert spinor_norm(sp, iso) == expected, (sp.d, iso.m)
                agreed += 1
    assert agreed > 5 * skipped
    for n in (2, 3, 4):
        sp = BilinearSpace.identity_form(n)
        for _ in range(2):
            a = infinitesimal_rotation(random_skew(rng, n))
            assert spinor_norm(sp, Isometry(sp, a)) == _zassenhaus_class(a)


def test_one_class_reflections_give_trivial_spinor():
    # all q-values in the trivial class: every rotation built from such
    # reflections has trivial spinor norm
    vs = [Vec([3, 4, 0]), Vec([1, 0, 0]), Vec([0, 3, 4]), Vec([0, 0, 2])]
    sp = SP3
    for u in vs:
        assert square_class(sp.q_value(u)).is_trivial
    for i in range(len(vs)):
        for j in range(len(vs)):
            assert spinor_norm(sp, [vs[i], vs[j]]).is_trivial


def test_check_neg_identity_examples():
    got, expected = check_neg_identity(SP2)
    assert got == expected and got.is_trivial
    got, expected = check_neg_identity(BilinearSpace([1, 2]))
    assert got == expected and got.rep == Fraction(2)
    sp4 = BilinearSpace.identity_form(4)
    got, expected = check_neg_identity(sp4)
    assert got == expected and got.is_trivial


def test_check_neg_identity_rejects_odd_dim():
    with pytest.raises(ValueError):
        check_neg_identity(SP3)


def test_space_json_round_trip():
    sp = BilinearSpace([Fraction(1), Fraction(3, 2)])
    assert BilinearSpace.from_json(sp.to_json()) == sp
    with pytest.raises(ValueError):
        BilinearSpace.from_json({"d": ["1", "e"]})


def test_reflection_seq_json_round_trip():
    rs = decompose(SP3, Isometry(SP3, Mat.diag([-1, -1, 1])))
    obj = rs.to_json()
    assert obj == [["-2", "0", "0"], ["0", "-2", "0"]]
    assert ReflectionSeq.from_json(obj) == rs


def test_certificate_of_moved_vector():
    # -tau_{e_1} in dimension 3 moves e_2 to -e_2: squared length 4
    sigma = Isometry(SP3, -reflect(SP3, Vec.basis(3, 0)).m)
    moved = Vec.basis(3, 1) - sigma.apply(Vec.basis(3, 1))
    assert SP3.q_value(moved) == 4
    assert frob_sq(Mat.identity(3) - sigma.m) == 8


def test_qe_isometries_of_determinant_minus_one():
    # det is read at e = 0; these Q(e) isometries must still give -1
    rng = random.Random(14)
    for n in (2, 3, 4, 5):
        for sp in (BilinearSpace.identity_form(n), BilinearSpace(range(1, n + 1))):
            gi = Mat.diag([1 / x for x in sp.d])
            rot = cayley(eps * (gi @ random_skew(rng, n)))
            assert Isometry(sp, rot).det == 1
            if n % 2:
                assert Isometry(sp, -rot).det == -1
            u = Vec(([eps + rng.randint(-2, 2), 1 / (1 + eps), eps**2] + [1] * n)[:n])
            r = reflect(sp, u).m
            assert Isometry(sp, r).det == -1
            assert Isometry(sp, r @ rot).det == -1


def test_non_isometry_with_a_pole_at_zero_is_rejected():
    for sp in (SP3, BilinearSpace([1, 2, 3])):
        for m in (Mat.diag([1 / eps, eps, 1]), Mat([[1, 1 / eps, 0], [0, 1, 0], [0, 0, 1]])):
            with pytest.raises(ValueError, match="does not preserve the form"):
                Isometry(sp, m)


def _forms(n):
    return (BilinearSpace.identity_form(n), BilinearSpace(range(1, n + 1)))


def _qe_vector(rng, n):
    while True:
        u = Vec([rng.randint(-2, 2) + rng.randint(-1, 1) * eps for _ in range(n)])
        if any(u):
            return u


def test_wall_route_matches_both_factorization_routes():
    # The Wall route for an Isometry against the product of q-values over
    # decompose's vectors and over the generating vectors; improper
    # isometries (odd counts) included.
    rng = random.Random(15)
    nontrivial = improper = 0
    for n in range(2, 7):
        for sp in _forms(n):
            for k in range(0, n + 2):
                gens = [random_vector(rng, n) for _ in range(k)]
                iso = compose(sp, gens)
                got = spinor_norm(sp, iso)
                assert got == spinor_norm(sp, decompose(sp, iso)), (sp.d, gens)
                assert got == spinor_norm(sp, gens), (sp.d, gens)
                nontrivial += not got.is_trivial
                improper += not iso.is_rotation
    assert nontrivial > 20 and improper > 20
    for n in (2, 3, 4):
        for sp in _forms(n):
            for k in (1, 2, 3):
                gens = [_qe_vector(rng, n) for _ in range(k)]
                if rng.randint(0, 1):
                    gens.append(random_vector(rng, n))
                iso = compose(sp, gens)
                got = spinor_norm(sp, iso)
                assert got == spinor_norm(sp, decompose(sp, iso)), (sp.d, gens)
                assert got == spinor_norm(sp, gens), (sp.d, gens)
    for n in (3, 5):
        for sp in _forms(n):
            gi = Mat.diag([1 / x for x in sp.d])
            sigma = Isometry(sp, -cayley(eps * (gi @ random_skew(rng, n))))
            assert not sigma.is_rotation
            assert spinor_norm(sp, sigma) == spinor_norm(sp, decompose(sp, sigma))


def test_spinor_norm_of_isometries_fixing_leading_basis_vectors():
    # Generating vectors with leading zeros give an isometry that fixes
    # e_0 (and e_1), so the elimination skips those indices; also the
    # identity and -I.
    rng = random.Random(16)

    def lead_zero(u, z):
        return Vec([0] * z + list(u)[z:])

    nontrivial = 0
    for n in range(2, 7):
        for sp in _forms(n):
            for z in {1, min(2, n - 1)}:
                for k in range(1, n + 1):
                    gens = []
                    while len(gens) < k:
                        u = lead_zero(random_vector(rng, n), z)
                        if any(u):
                            gens.append(u)
                    if n <= 4 and k <= 2:
                        gens[0] = lead_zero(_qe_vector(rng, n), z)
                        if not any(gens[0]):
                            gens[0] = Vec.basis(n, n - 1)
                    iso = compose(sp, gens)
                    assert iso.apply(Vec.basis(n, 0)) == Vec.basis(n, 0)
                    got = spinor_norm(sp, iso)
                    assert got == spinor_norm(sp, gens), (sp.d, gens)
                    nontrivial += not got.is_trivial
            ident = Isometry.identity(sp)
            assert spinor_norm(sp, ident) == spinor_norm(sp, [])
            assert spinor_norm(sp, ident).is_trivial
            neg = Isometry.neg_identity(sp)
            basis = [Vec.basis(n, i) for i in range(n)]
            assert spinor_norm(sp, neg) == spinor_norm(sp, basis)
    assert nontrivial > 30


def test_wall_route_on_a_product_with_a_large_square_cofactor():
    # Fifteen reflections under diag(1..8): the square-class input has a
    # squared prime near 2^29 left over from trial division.
    vs = [
        [0, -2, 1, -1, 0, -2, -2, 2], [0, 1, 0, 2, 1, 0, 2, 2],
        [1, -1, 1, 1, 2, 1, -2, -1], [1, 0, -2, 2, -2, 2, 1, -1],
        [-2, 2, 0, -2, -2, 0, 1, -1], [0, 0, -2, 0, -2, 2, -2, -2],
        [-2, 1, 2, 1, -1, 1, 0, -1], [1, 0, 2, 1, 2, -2, 2, -1],
        [0, -2, 2, 0, -2, 1, 0, 1], [-2, -1, 0, 1, -2, 0, -1, 0],
        [-2, 1, 0, -2, 1, 0, -2, 1], [-2, 2, -1, 0, 0, 0, 1, 2],
        [2, 0, 2, 2, -2, 2, 2, 1], [1, -1, 2, 1, 1, -2, -1, -2],
        [1, 0, -2, 0, 0, 1, 2, 2],
    ]
    sp = BilinearSpace(range(1, 9))
    vectors = [Vec(v) for v in vs]
    iso = compose(sp, vectors)
    assert not iso.is_rotation
    assert spinor_norm(sp, iso) == spinor_norm(sp, vectors)


def _textbook_reflection(sp, u):
    # I - 2 u (G u)^T / q(u), entry by entry in field arithmetic
    n, qu = sp.n, sp.q_value(u)
    return Mat(
        [
            [int(i == j) - 2 * u[i] * sp.d[j] * u[j] / qu for j in range(n)]
            for i in range(n)
        ]
    )


def test_compose_matches_the_product_of_textbook_reflections():
    rng = random.Random(16)
    for n in range(2, 6):
        for sp in _forms(n):
            for k in range(0, 2 * n + 1):
                qe = k and rng.randint(0, 1) and n <= 3
                gens = [
                    _qe_vector(rng, n) if qe and i % 2 == 0 else random_vector(rng, n)
                    for i in range(k)
                ]
                expected = Mat.identity(n)
                for u in gens:
                    expected = expected @ _textbook_reflection(sp, u)
                iso = compose(sp, gens)
                assert iso.m == expected, (sp.d, gens)
                assert iso.det == (-1) ** k
                if gens:
                    assert reflect(sp, gens[0]).m == _textbook_reflection(sp, gens[0])


def test_zero_vector_messages():
    zero = Vec([0, 0, 0])
    for build in (reflect, lambda sp, u: compose(sp, [Vec([1, 0, 0]), u])):
        with pytest.raises(ValueError, match=r"^reflection vector must be anisotropic \(nonzero\)$"):
            build(SP3, zero)
    with pytest.raises(ValueError, match=r"^reflection vector must be anisotropic$"):
        spinor_norm(SP3, ReflectionSeq((Vec([1, 0, 0]), zero)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        reflect(SP3, Vec([1, 0]))


def test_decompose_and_spinor_outputs_are_pinned():
    # exact strings of an earlier implementation that built every
    # reflection matrix and factored through decompose
    from rotnear.subgroup import contact_generator

    d3, d4 = BilinearSpace([1, 2, 3]), BilinearSpace([1, 2, 3, 4])
    den = "(8/3+4*e+10/3*e^2+2*e^3+e^4)"
    cases = [
        (
            SP3,
            compose(SP3, [Vec([1, 2, 2]), Vec([2, -1, 0]), Vec([0, 1, 1])]),
            [["-82/45", "16/45", "-4/9"], ["0", "-1/41", "-9/41"], ["0", "0", "-2"]],
            "10",
        ),
        (
            d3,
            compose(d3, [Vec([1, 1, 0]), Vec([0, 1, -1])]),
            [["-2/3", "-2/3", "0"], ["0", "-4/5", "4/5"]],
            "15",
        ),
        (
            d4,
            compose(d4, [Vec([1, -1, 2, 0]), Vec([0, 1, 1, 1]), Vec([2, 0, -1, 1])]),
            [
                ["-326/297", "134/297", "-8/27", "-28/99"],
                ["0", "-604/815", "348/815", "-468/815"],
                ["0", "0", "-294/151", "-42/151"],
            ],
            "165",
        ),
        (
            d3,
            compose(d3, [Vec([eps, 1, 0]), Vec([1, 0, 1 + eps])]),
            [
                [
                    f"(-4/3-2*e^2-4*e^3-2*e^4)/{den}",
                    f"(-4/3*e-4*e^2-2*e^3)/{den}",
                    "(-2/3-2/3*e)/(4/3+2*e+e^2)",
                ],
                [
                    "0",
                    "-4/3/(2/3+e^2+2*e^3+e^4)",
                    "(4/3*e+4/3*e^2)/(2/3+e^2+2*e^3+e^4)",
                ],
            ],
            "8+12*e+10*e^2+6*e^3+3*e^4",
        ),
        (
            SP3,
            Isometry(SP3, -infinitesimal_rotation(contact_generator(3))),
            [["-2/(1+e^2)", "-2*e/(1+e^2)", "0"], ["0", "-2", "0"], ["0", "0", "-2"]],
            "1+e^2",
        ),
    ]
    for sp, iso, vectors, theta in cases:
        assert decompose(sp, iso).to_json() == vectors
        assert str(spinor_norm(sp, iso)) == theta
