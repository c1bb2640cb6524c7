"""Acceptance suite: every library-level guarantee at its full sample
count, with exact (zero-tolerance) equality in canonical forms.

Each test runs one checker from `rotnear.selftest` and prints a
PASS/FAIL line (also echoed in the terminal summary).  The same
checkers back the `rotnear selftest` CLI subcommand.
"""

from rotnear.selftest import (
    check_archimedean_degeneration,
    check_cayley_roundtrip,
    check_contact_construction,
    check_field_oracle,
    check_neg_identity_spinor,
    check_reflection_factorization,
    check_series_identity,
    check_spinor_homomorphism,
    check_subgroup_witnesses,
)

SEED = 0


def _assert_passed(result):
    assert result.passed, f"{result.name}: {result.failures}"


def test_cayley_roundtrip_200_samples(acceptance_report):
    # random rational skew, n in 2..5, entries in [-3, 3]: the image is
    # exactly orthogonal with det 1 and the map is an involution
    result = acceptance_report(
        check_cayley_roundtrip(seed=SEED, trials=200, dims=(2, 3, 4, 5))
    )
    _assert_passed(result)


def test_near_identity_construction_50_samples(acceptance_report):
    # cayley(e*B) != +-I, orthogonal, det 1, frob_sq(I-A) infinitesimal
    # of e-order exactly 2
    result = acceptance_report(
        check_contact_construction(seed=SEED, trials=50, dims=(2, 3, 4, 5))
    )
    _assert_passed(result)


def test_truncated_inverse_identity_50_samples(acceptance_report):
    # (I+eB) D = I + e^m B^m exactly for odd m in {1,3,5,7,9}; the gap
    # to the true inverse is infinitesimal for m >= 3
    result = acceptance_report(
        check_series_identity(
            seed=SEED, trials=50, dims=(2, 3, 4, 5), ms=(1, 3, 5, 7, 9)
        )
    )
    _assert_passed(result)


def test_reflection_factorization_100_samples(acceptance_report):
    # <= n reflections, exact recomposition, parity = det, and the
    # spinor norm is independent of the factorization
    result = acceptance_report(
        check_reflection_factorization(seed=SEED, trials=100, dims=(3, 4, 5, 6))
    )
    _assert_passed(result)


def test_spinor_homomorphism_100_pairs(acceptance_report):
    # multiplicativity on 100 pairs, plus the rotation
    # tau_{(1,0)} tau_{(1,1)} over Q whose class is 2 != 1
    result = acceptance_report(
        check_spinor_homomorphism(seed=SEED, pairs=100, dims=(3, 4, 5))
    )
    _assert_passed(result)


def test_neg_identity_spinor_matches_det(acceptance_report):
    # identity and diag(1..n) forms for n in {2,4,6}
    result = acceptance_report(check_neg_identity_spinor(dims=(2, 4, 6)))
    _assert_passed(result)


def test_subgroup_witnesses_and_closure(acceptance_report):
    # witnesses for n in {3,4,5}: inside member of certificate order 2,
    # outside non-member with rational certificate >= 4; closure on
    # at least 50 sampled product/inverse/conjugation checks
    result = acceptance_report(
        check_subgroup_witnesses(seed=SEED, dims=(3, 4, 5), samples=6, conjugators=3)
    )
    _assert_passed(result)
    assert result.details["closure_checks"] >= 50


def test_archimedean_degeneration_50_samples(acceptance_report):
    # over Q, membership holds exactly for the identity rotation
    result = acceptance_report(
        check_archimedean_degeneration(seed=SEED, trials=50, dims=(3, 4, 5))
    )
    _assert_passed(result)


def test_field_oracle_agreement_500_samples(acceptance_report):
    # square-class identities, and sign/infinitesimality agreeing with
    # the independent numeric probes at e = 10^-k, k = 1..12
    result = acceptance_report(check_field_oracle(seed=SEED, trials=500, max_deg=6))
    _assert_passed(result)


def test_field_oracle_reports_probe_errors_as_failures(monkeypatch):
    # a probe that cannot decide (all points poles, unstable signs)
    # raises ArithmeticError; the checker records it as a failed trial
    import rotnear.selftest as selftest

    def undecided(x):
        raise ArithmeticError("probe signs did not stabilize")

    monkeypatch.setattr(selftest, "numeric_sign_probe", undecided)
    result = selftest.check_field_oracle(seed=SEED, trials=3, max_deg=2)
    assert not result.passed
    assert result.failures[0] == "trial 0: probe failed: probe signs did not stabilize"
    assert len(result.failures) == 3


def test_reported_failures_are_capped(monkeypatch):
    # every trial fails once: eight messages are kept, the ninth becomes
    # "..." and the checker stops there
    import rotnear.selftest as selftest

    calls = []

    def never_orthogonal(q):
        calls.append(q)
        return False

    monkeypatch.setattr(selftest, "is_orthogonal", never_orthogonal)
    result = selftest.check_cayley_roundtrip(seed=SEED, trials=20, dims=(2, 3))
    assert not result.passed
    assert result.failures == [f"trial {t}: image not orthogonal" for t in range(8)] + ["..."]
    assert len(calls) == 9
