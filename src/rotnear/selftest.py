"""Self-verification suites: every check the library promises, runnable
both from pytest and from the `selftest` CLI subcommand.

Each checker draws its samples from a seeded generator, verifies exact
properties, and returns a CriterionResult with a deterministic details
dict and the first few failure descriptions.  The numeric probes used
by `check_field_oracle` are deliberately independent of the symbolic
order code: they evaluate elements at e = 10^-k (k = 1..12) in exact
rational arithmetic and inspect the limiting sign and the decay of the
values.  The probe thresholds are sound because sampled coefficients
are integers bounded by 9, which keeps every root of every sampled
numerator/denominator at distance > 1/10 from 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .cayley import cayley, infinitesimal_rotation, neumann_check
from .field import (
    RatFuncEps,
    eps,
    eps_order,
    is_infinitesimal,
    is_square,
    sign,
    square_class,
)
from .linalg import Mat, Vec, det, frob_sq, is_orthogonal
from .quadspace import (
    BilinearSpace,
    Isometry,
    ReflectionSeq,
    compose,
    check_neg_identity,
    decompose,
    reflect,
    spinor_norm,
)
from .sampling import (
    random_member,
    random_nonidentity_rotation,
    random_ratfunc,
    random_rotation,
    random_skew,
    random_vector,
)
from .subgroup import closure_suite, in_n, witnesses

__all__ = [
    "CriterionResult",
    "check_cayley_roundtrip",
    "check_contact_construction",
    "check_series_identity",
    "check_reflection_factorization",
    "check_spinor_homomorphism",
    "check_neg_identity_spinor",
    "check_subgroup_witnesses",
    "check_archimedean_degeneration",
    "check_field_oracle",
    "run_all",
    "numeric_sign_probe",
    "numeric_decay_probe",
]

_MAX_REPORTED_FAILURES = 8


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict
    failures: list = field(default_factory=list)

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
            "failures": self.failures,
        }


def _result(name, details, failures):
    """Collect the messages the generator `failures` yields, at most
    _MAX_REPORTED_FAILURES of them; one more is reported as "..." and
    stops the generator."""
    reported = []
    for msg in failures:
        if len(reported) == _MAX_REPORTED_FAILURES:
            reported.append("...")
            failures.close()
            break
        reported.append(msg)
    return CriterionResult(name, not reported, details, reported)


def _dims_cycle(dims, count):
    return [dims[i % len(dims)] for i in range(count)]


def check_cayley_roundtrip(seed=0, trials=200, dims=(2, 3, 4, 5)):
    """Random rational skew A: cayley(A) is orthogonal with det 1 and
    cayley(cayley(A)) = A, all exactly."""
    rng = random.Random(seed)

    def failures():
        for t, n in enumerate(_dims_cycle(dims, trials)):
            a = random_skew(rng, n, bound=3)
            q = cayley(a)
            if not is_orthogonal(q):
                yield f"trial {t}: image not orthogonal"
            if det(q) != 1:
                yield f"trial {t}: image determinant != 1"
            if cayley(q) != a:
                yield f"trial {t}: double application is not the identity"

    return _result(
        "cayley-roundtrip",
        {"seed": seed, "trials": trials, "dims": list(dims)},
        failures(),
    )


def _contact_samples(seed, trials, dims):
    rng = random.Random(seed)
    return [(n, random_skew(rng, n, bound=3)) for n in _dims_cycle(dims, trials)]


def check_contact_construction(seed=0, trials=50, dims=(2, 3, 4, 5)):
    """cayley(e*B) is a rotation != +-I whose squared distance from the
    identity is infinitesimal of e-order exactly 2."""

    def failures():
        for t, (n, b) in enumerate(_contact_samples(seed, trials, dims)):
            try:
                a = infinitesimal_rotation(b)  # self-checks its guarantees
            except ArithmeticError as exc:
                yield f"trial {t}: {exc}"
                continue
            order = eps_order(frob_sq(Mat.identity(n) - a))
            if order != 2:
                yield f"trial {t}: contact order {order} != 2"

    return _result(
        "near-identity-construction",
        {"seed": seed, "trials": trials, "dims": list(dims)},
        failures(),
    )


def check_series_identity(seed=0, trials=50, dims=(2, 3, 4, 5), ms=(1, 3, 5, 7, 9)):
    """`neumann_check` for each odd m: (I+eB) D = I + e^m B^m exactly,
    and the truncation gap to the true inverse is infinitesimal of
    e-order exactly 2m, since (I+eB)^-1 - D = (-eB)^m (I+eB)^-1 and
    B^m != 0 for a nonzero real skew B.  Uses the same B samples as the
    contact construction."""

    def failures():
        for t, (n, b) in enumerate(_contact_samples(seed, trials, dims)):
            for m in ms:
                rep = neumann_check(b, m)
                if not rep.identity_holds:
                    yield f"trial {t}, m={m}: series identity fails"
                if not rep.gap_infinitesimal:
                    yield f"trial {t}, m={m}: truncation gap not infinitesimal"
                order = eps_order(rep.gap_sq)
                if order != 2 * m:
                    yield f"trial {t}, m={m}: gap order {order} != {2 * m}"

    return _result(
        "truncated-inverse-identity",
        {"seed": seed, "trials": trials, "dims": list(dims), "ms": list(ms)},
        failures(),
    )


def check_reflection_factorization(seed=0, trials=100, dims=(3, 4, 5, 6)):
    """Rotations sampled as products of <= n integer reflections over
    the identity form: decompose returns <= n reflections composing back
    exactly, with length parity matching det, and the spinor norm from
    the generating list equals the one from the factorization."""
    rng = random.Random(seed)

    def failures():
        for t, n in enumerate(_dims_cycle(dims, trials)):
            sp = BilinearSpace.identity_form(n)
            k = 2 * rng.randint(0, n // 2)
            generators = [random_vector(rng, n, bound=2) for _ in range(k)]
            iso = compose(sp, generators)
            rs = decompose(sp, iso)
            if len(rs) > n:
                yield f"trial {t}: {len(rs)} reflections > n = {n}"
            if compose(sp, rs) != iso:
                yield f"trial {t}: factorization does not compose back"
            if (-1) ** len(rs) != iso.det:
                yield f"trial {t}: length parity disagrees with det"
            if spinor_norm(sp, ReflectionSeq(tuple(generators))) != spinor_norm(sp, rs):
                yield f"trial {t}: spinor norm depends on the factorization"

    return _result(
        "reflection-factorization",
        {"seed": seed, "trials": trials, "dims": list(dims)},
        failures(),
    )


def check_spinor_homomorphism(seed=0, pairs=100, dims=(3, 4, 5)):
    """spinor(sigma tau) = spinor(sigma) * spinor(tau) on random pairs;
    and the rotation tau_{(1,0)} tau_{(1,1)} over Q has class 2 != 1."""
    rng = random.Random(seed)

    def failures():
        for t, n in enumerate(_dims_cycle(dims, pairs)):
            sp = BilinearSpace.identity_form(n)
            s = random_rotation(sp, rng)
            u = random_rotation(sp, rng)
            if spinor_norm(sp, s @ u) != spinor_norm(sp, s) * spinor_norm(sp, u):
                yield f"pair {t}: homomorphism identity fails"
        sp2 = BilinearSpace.identity_form(2)
        rot = reflect(sp2, Vec([1, 0])) @ reflect(sp2, Vec([1, 1]))
        cls = spinor_norm(sp2, rot)
        if cls.rep != Fraction(2):
            yield f"one-class contrast: expected class 2, got {cls}"

    return _result(
        "spinor-homomorphism",
        {"seed": seed, "pairs": pairs, "dims": list(dims)},
        failures(),
    )


def check_neg_identity_spinor(dims=(2, 4, 6)):
    """spinor(-identity) equals the square class of det b, for the
    identity form and for diag(1, 2, ..., n)."""

    def failures():
        for n in dims:
            for d in ([Fraction(1)] * n, [Fraction(k) for k in range(1, n + 1)]):
                got, expected = check_neg_identity(BilinearSpace(d))
                if got != expected:
                    yield f"n={n}, d={d}: spinor(-I) = {got} != class(det b) = {expected}"

    return _result("neg-identity-determinant", {"dims": list(dims)}, failures())


def check_subgroup_witnesses(seed=0, dims=(3, 4, 5), samples=6, conjugators=3):
    """witnesses(n): inside member with certificate of e-order 2,
    outside non-member with rational certificate >= 4; closure of the
    subgroup on sampled products, inverses and conjugates."""
    rng = random.Random(seed)
    details = {
        "seed": seed,
        "dims": list(dims),
        "samples": samples,
        "conjugators": conjugators,
        "closure_checks": 0,
    }

    def failures():
        for n in dims:
            sp = BilinearSpace.identity_form(n)
            inside, outside = witnesses(sp)
            vi = in_n(sp, inside)
            vo = in_n(sp, outside)
            if not vi.member or vi.order_at_zero != 2:
                yield f"n={n}: inside witness certificate order != 2"
            if vo.member:
                yield f"n={n}: outside witness is a member"
            if not isinstance(vo.certificate, Fraction) or vo.certificate < 4:
                yield f"n={n}: outside certificate {vo.certificate} < 4"
        sp = BilinearSpace.identity_form(dims[0])
        members = [random_member(sp, rng) for _ in range(samples)]
        rotations = [random_nonidentity_rotation(sp, rng) for _ in range(conjugators)]
        records = closure_suite(sp, members, rotations)
        details["closure_checks"] = len(records)
        for rec in records:
            if not rec.passed:
                yield f"closure check failed: {rec.check}"

    return _result("normal-subgroup-witnesses", details, failures())


def check_archimedean_degeneration(seed=0, trials=50, dims=(3, 4, 5)):
    """Over Q, membership in N holds exactly for the identity."""
    rng = random.Random(seed)

    def failures():
        sp0 = BilinearSpace.identity_form(dims[0])
        v = in_n(sp0, Isometry.identity(sp0))
        if not v.member or v.certificate != 0:
            yield "identity rotation should be a member with certificate 0"
        for t, n in enumerate(_dims_cycle(dims, trials)):
            sp = BilinearSpace.identity_form(n)
            iso = random_nonidentity_rotation(sp, rng)
            if in_n(sp, iso).member:
                yield f"trial {t}: non-identity rational rotation admitted"

    return _result(
        "archimedean-degeneration",
        {"seed": seed, "trials": trials, "dims": list(dims)},
        failures(),
    )


_PROBE_POINTS = [Fraction(1, 10**k) for k in range(1, 13)]


def _probe_values(x):
    if isinstance(x, (int, Fraction)):
        return [Fraction(x)] * len(_PROBE_POINTS)
    out = []
    for t in _PROBE_POINTS:
        try:
            out.append(x.evaluate(t))
        except ZeroDivisionError:
            out.append(None)
    return out


def numeric_sign_probe(x):
    """Limiting sign of x as e -> 0+, read off exact evaluations at
    e = 10^-k; requires the tail signs to have stabilized."""
    tail = [v for v in _probe_values(x)[-5:] if v is not None]
    if not tail:
        raise ArithmeticError("all probe points were poles")
    signs = {(v > 0) - (v < 0) for v in tail}
    if len(signs) != 1:
        raise ArithmeticError("probe signs did not stabilize")
    return signs.pop()


def numeric_decay_probe(x):
    """True when the exact evaluations vanish in the limit: the value at
    e = 10^-12 is below 10^-6 and below the value at e = 10^-8."""
    vals = _probe_values(x)
    v8, v12 = vals[7], vals[11]
    if v8 is None or v12 is None:
        raise ArithmeticError("probe point was a pole")
    v8, v12 = abs(v8), abs(v12)
    if v8 == 0 and v12 == 0:
        return True
    return v12 < Fraction(1, 10**6) and v12 < v8


def check_field_oracle(seed=0, trials=500, max_deg=6):
    """Square-class identities on random elements of Q(e), plus
    agreement of sign/is_infinitesimal with the numeric probes."""
    rng = random.Random(seed)
    special = [RatFuncEps(0), eps, 1 + eps, -eps, 1 / eps]

    def failures():
        for t in range(trials):
            x = random_ratfunc(rng, max_deg, nonzero=True)
            y = random_ratfunc(rng, max_deg, nonzero=True)
            if not is_square(x * x):
                yield f"trial {t}: x^2 not recognized as a square"
            if is_square(x * x * eps):
                yield f"trial {t}: x^2*e claimed to be a square"
            if square_class(x * y * y) != square_class(x):
                yield f"trial {t}: class(x*y^2) != class(x)"
            probes = (special[t],) if t < len(special) else (x, x * eps)
            for z in probes:
                try:
                    probed_sign = numeric_sign_probe(z)
                    probed_decay = numeric_decay_probe(z)
                except ArithmeticError as exc:
                    yield f"trial {t}: probe failed: {exc}"
                    continue
                if probed_sign != sign(z):
                    yield f"trial {t}: sign disagrees with the probe"
                if probed_decay != is_infinitesimal(z):
                    yield f"trial {t}: infinitesimality disagrees with probe"

    return _result(
        "field-oracle-agreement",
        {"seed": seed, "trials": trials, "max_deg": max_deg},
        failures(),
    )


def run_all(seed=0, trials=None, max_dim=None):
    """Run every checker.  `trials` >= 1 overrides each checker's sample
    count; `max_dim` caps the sampled dimensions (each checker keeps at
    least its smallest dimension so it stays runnable)."""

    def dims(base):
        if max_dim is None:
            return base
        capped = tuple(d for d in base if d <= max_dim)
        return capped or (base[0],)

    def count(base):
        return base if trials is None else trials

    return [
        check_cayley_roundtrip(seed, count(200), dims((2, 3, 4, 5))),
        check_contact_construction(seed, count(50), dims((2, 3, 4, 5))),
        check_series_identity(seed, count(50), dims((2, 3, 4, 5))),
        check_reflection_factorization(seed, count(100), dims((3, 4, 5, 6))),
        check_spinor_homomorphism(seed, count(100), dims((3, 4, 5))),
        check_neg_identity_spinor(dims((2, 4, 6))),
        check_subgroup_witnesses(seed, dims((3, 4, 5))),
        check_archimedean_degeneration(seed, count(50), dims((3, 4, 5))),
        check_field_oracle(seed, count(500)),
    ]
