"""Near-identity subgroup tests: the membership oracle, witnesses, and
closure under the group operations."""

import random
from fractions import Fraction

import pytest

from rotnear.cayley import CayleyObstructionError, cayley, infinitesimal_rotation
from rotnear.field import eps, eps_order, format_elem, is_infinitesimal, is_square
from rotnear.linalg import Mat, Vec, frob_sq
from rotnear.quadspace import BilinearSpace, Isometry, reflect, spinor_norm
from rotnear.sampling import (
    random_member,
    random_nonidentity_rotation,
    random_rotation,
    random_skew,
    random_vector,
)
from rotnear.subgroup import closure_suite, contact_generator, in_n, witnesses

SP3 = BilinearSpace.identity_form(3)


def test_identity_is_a_member_with_zero_certificate():
    v = in_n(SP3, Isometry.identity(SP3))
    assert v.member
    assert v.certificate == 0
    assert v.order_at_zero is None


def test_contact_rotation_is_a_member():
    iso = Isometry(SP3, infinitesimal_rotation(contact_generator(3)))
    v = in_n(SP3, iso)
    assert v.member
    assert v.order_at_zero == 2


def test_neg_reflection_is_not_a_member():
    sigma = Isometry(SP3, -reflect(SP3, Vec.basis(3, 0)).m)
    v = in_n(SP3, sigma)
    assert not v.member
    # moving e_2 to -e_2 contributes squared length 4 to the certificate
    assert v.certificate >= 4
    assert v.certificate == 8


def test_in_n_rejects_wrong_inputs():
    with pytest.raises(ValueError):
        in_n(BilinearSpace([1, 2, 3]), Isometry.identity(BilinearSpace([1, 2, 3])))
    with pytest.raises(ValueError):
        in_n(SP3, reflect(SP3, Vec.basis(3, 0)))  # det -1


def test_witnesses_odd_dimension():
    inside, outside = witnesses(SP3)
    vi, vo = in_n(SP3, inside), in_n(SP3, outside)
    assert vi.member and vi.certificate == 8 * eps**2 / (1 + eps**2)
    assert format_elem(vi.certificate) == "8*e^2/(1+e^2)"
    assert not vo.member and vo.certificate >= 4
    i = Mat.identity(3)
    assert inside.m != i and inside.m != -i


def test_witnesses_even_dimension():
    sp4 = BilinearSpace.identity_form(4)
    inside, outside = witnesses(sp4)
    assert outside.m == Mat.diag([-1, -1, 1, 1])
    assert in_n(sp4, outside).certificate == 8
    assert in_n(sp4, inside).member


def test_witnesses_rejects_small_dimension():
    with pytest.raises(ValueError):
        witnesses(BilinearSpace.identity_form(2))
    with pytest.raises(ValueError):
        witnesses(BilinearSpace([1, 2, 3]))


def test_closure_identity_sample():
    records = closure_suite(SP3, [Isometry.identity(SP3)], [])
    assert all(r.passed for r in records)
    assert all(r.certificate == 0 for r in records)
    assert [r.check for r in records] == ["product[0,0]", "inverse[0]"]


def test_closure_products_inverses_conjugates():
    rng = random.Random(31)
    members = [random_member(SP3, rng) for _ in range(2)]
    conjugators = [random_nonidentity_rotation(SP3, rng)]
    records = closure_suite(SP3, members, conjugators)
    assert len(records) == 4 + 2 + 2
    assert all(r.passed for r in records)
    for r in records:
        if r.certificate != 0:
            assert eps_order(r.certificate) >= 2


def test_membership_is_conjugation_invariant():
    rng = random.Random(32)
    for _ in range(5):
        rho = random_rotation(SP3, rng)
        inside = random_member(SP3, rng)
        outside = Isometry(SP3, -reflect(SP3, random_vector(rng, 3)).m)
        conj_in = rho @ inside @ rho.inverse()
        conj_out = rho @ outside @ rho.inverse()
        assert in_n(SP3, conj_in).member == in_n(SP3, inside).member
        assert in_n(SP3, conj_out).member == in_n(SP3, outside).member


def test_pointwise_displacement_matches_matrix_certificate():
    # membership makes the relative squared displacement of every
    # sampled vector infinitesimal
    rng = random.Random(33)
    iso = random_member(SP3, rng)
    for _ in range(10):
        x = random_vector(rng, 3, bound=5)
        moved = x - iso.apply(x)
        assert is_infinitesimal(SP3.q_value(moved) / SP3.q_value(x))


def test_archimedean_contrast():
    rng = random.Random(34)
    assert in_n(SP3, Isometry.identity(SP3)).member
    for _ in range(10):
        iso = random_nonidentity_rotation(SP3, rng)
        v = in_n(SP3, iso)
        assert not v.member
        assert isinstance(v.certificate, Fraction)
        assert v.order_at_zero == 0


def test_verdict_and_record_json():
    v = in_n(SP3, Isometry.identity(SP3))
    assert v.to_json() == {"member": True, "certificate": "0", "order_at_zero": None}
    rec = closure_suite(SP3, [Isometry.identity(SP3)], [])[0]
    assert rec.to_json() == {
        "check": "product[0,0]",
        "certificate": "0",
        "member": True,
        "pass": True,
    }


def test_nverdict_invariant():
    rng = random.Random(35)
    for iso in (Isometry.identity(SP3), random_member(SP3, rng),
                random_nonidentity_rotation(SP3, rng)):
        v = in_n(SP3, iso)
        assert v.member == is_infinitesimal(v.certificate)
        assert v.certificate == frob_sq(Mat.identity(3) - iso.m)


def test_certificate_matches_the_frobenius_oracle():
    # in_n reads only the diagonal (the trace identity); the oracle forms
    # I - sigma entry by entry and sums the squares of all its entries.
    rng = random.Random(36)
    for n in range(2, 6):
        sp = BilinearSpace.identity_form(n)
        images = [Isometry(sp, cayley(eps * random_skew(rng, n))) for _ in range(2)]
        rots = [random_nonidentity_rotation(sp, rng), random_rotation(sp, rng)]
        s, t = images
        cases = images + rots + [s @ t, t @ s, s.inverse(), rots[0] @ s @ rots[0].inverse()]
        cases.append(rots[0] @ rots[1])
        for iso in cases:
            oracle = frob_sq(Mat.identity(n) - iso.m)
            v = in_n(sp, iso)
            assert v.certificate == oracle
            assert format_elem(v.certificate) == format_elem(oracle)
            assert v.member == is_infinitesimal(oracle)
            assert v.order_at_zero == eps_order(oracle)


def test_level_of_cayley_images_is_half_the_certificate_order():
    # sigma = cayley(e^k B) has level exactly k in N's congruence
    # filtration; the oracle reads the level off the entries of I - sigma
    rng = random.Random(37)
    for n in range(3, 6):
        sp = BilinearSpace.identity_form(n)
        i = Mat.identity(n)
        for k in range(1, 4):
            sigma = Isometry(sp, cayley(eps**k * random_skew(rng, n)))
            level = min(eps_order(x) for x in (i - sigma.m).entries() if x != 0)
            v = in_n(sp, sigma)
            assert level == k
            assert v.member and v.order_at_zero == 2 * k


def test_membership_matches_the_cayley_map_oracle():
    # for sigma without eigenvalue -1, sigma is in N exactly when its
    # Cayley image, a skew matrix, is infinitesimal
    rng = random.Random(38)
    verdicts = []
    for n in (3, 4):
        sp = BilinearSpace.identity_form(n)
        pool = [random_member(sp, rng) for _ in range(3)]
        pool += [random_nonidentity_rotation(sp, rng) for _ in range(3)]
        for sigma in pool + [s @ t for s in pool for t in pool]:
            try:
                skew = cayley(sigma.m)
            except CayleyObstructionError:
                continue
            member = in_n(sp, sigma).member
            assert member == is_infinitesimal(frob_sq(skew))
            verdicts.append(member)
    assert len(verdicts) > 60 and 0 < sum(verdicts) < len(verdicts)


def test_pythagorean_gap():
    # Q(e) is not pythagorean: 1 + e^2 is a sum of squares but not a
    # square, and the inside witness has that spinor class
    assert not is_square(1 + eps**2)
    inside, _ = witnesses(SP3)
    assert str(spinor_norm(SP3, inside)) == "1+e^2"
