"""The benchmark's four workloads.

Each workload is built from an imported rotnear package and a seed.  Its
inputs come from the benchmark's own seeded generators below, never
from ``rotnear.sampling``, so a change to the library's samplers cannot
change a workload.  ``cycle(c)`` returns the c-th block of operations;
the same (seed, c) always gives the same inputs, and a run executes
whole cycles so that every run sees the workload's stated input mix.

An operation is a zero-argument ``run`` that calls rotnear's public API
and a ``check`` that verifies the result exactly and returns its
canonical text (``format_elem`` strings or CLI stdout), from which the
output digest is taken.  The checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable


class CheckError(Exception):
    """An operation's output failed its correctness check."""


def require(ok, what):
    if not ok:
        raise CheckError(what)


@dataclass(frozen=True)
class Op:
    label: str
    inputs: str
    run: Callable[[], object]
    check: Callable[[object], str]


# ---------------------------------------------------------------------------
# seeded input generators (plain integers; converted to rotnear types by
# the workloads)


def make_rng(workload, seed, part):
    return random.Random(f"{workload}:{seed}:{part}")


def int_skew(rng, n, bound=3):
    """Nonzero skew-symmetric integer matrix, entries in [-bound, bound]."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = rng.randint(-bound, bound)
                rows[i][j] = x
                rows[j][i] = -x
        if any(any(r) for r in rows):
            return rows


def int_vector(rng, n, bound=2):
    """Nonzero integer vector, entries in [-bound, bound]."""
    while True:
        v = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v):
            return v


def mat_text(rn, m):
    return json.dumps(rn.mat_to_json(m), sort_keys=True)


# ---------------------------------------------------------------------------


class QeBuild:
    """Near-identity rotations over Q(e): for a seeded skew B at each n in
    3..5, infinitesimal_rotation(B), cayley of it back to e*B, and
    neumann_check(B, m) for m = 3, 5, 7.  Each call is one operation.

    n = 6 is left out: one n = 6 chain takes about 6 s on a 2-core
    machine, so a run of reasonable length would hold only one or two of
    them and its figures would swing with those few inputs.  n = 2 is
    left out too: its skews have a single free entry, and with three
    dimensions the median call falls inside the n = 4 calls rather than
    on the step between two dimensions."""

    name = "qe_build"
    dims = range(3, 6)
    orders = (3, 5, 7)
    warm_ops = 5

    def __init__(self, rn, seed, workdir):
        self.rn = rn
        self.seed = seed

    def cycle(self, c):
        rng = make_rng(self.name, self.seed, c)
        ops = []
        for n in self.dims:
            ops += self._chain(int_skew(rng, n))
        return ops

    def _chain(self, raw):
        rn = self.rn
        b = rn.Mat(raw)
        n = b.n
        eb = rn.eps * b
        ident = rn.Mat.identity(n)
        inputs = json.dumps(raw)
        state = {}

        def build():
            state["a"] = rn.infinitesimal_rotation(b)
            return state["a"]

        def check_build(a):
            require(rn.is_orthogonal(a), "A^T A != I")
            require(rn.det(a) == 1, "det A != 1")
            require(a != ident and a != -ident, "A is +-I")
            require(rn.eps_order(rn.frob_sq(ident - a)) == 2, "contact order != 2")
            return mat_text(rn, a)

        def check_back(back):
            require(back == eb, "cayley(A) != e*B")
            return mat_text(rn, back)

        ops = [
            Op(f"infinitesimal_rotation n={n}", inputs, build, check_build),
            Op(f"cayley-back n={n}", inputs, lambda: rn.cayley(state["a"]), check_back),
        ]
        for m in self.orders:

            def check_neumann(rep, m=m):
                require(rep.m == m and rep.identity_holds, "series identity")
                require(
                    (ident + eb) @ rep.d == ident + (rn.eps**m) * (b**m),
                    "(I+eB) D != I + e^m B^m",
                )
                # (I+eB)^-1 - D = (-eB)^m (I+eB)^-1 and B^m != 0 for a
                # nonzero real skew B, so the gap has e-order exactly 2m.
                require(rep.gap_infinitesimal, "gap not infinitesimal")
                require(rn.eps_order(rep.gap_sq) == 2 * m, "gap order != 2m")
                return mat_text(rn, rep.d) + rn.format_elem(rep.gap_sq)

            ops.append(
                Op(
                    f"neumann_check n={n} m={m}",
                    inputs,
                    lambda m=m: rn.neumann_check(b, m),
                    check_neumann,
                )
            )
        return ops


class QeGroup:
    """Closure of N over Q(e) at n = 3: products, inverses and conjugates
    of pool members, each followed by in_n, plus one-sample closure
    suites.  The pools are built during set-up."""

    name = "qe_group"
    n = 3
    members = 12
    rotations = 4
    ops_per_cycle = 24
    kinds = ("product", "inverse", "conjugate", "suite")
    warm_ops = 4

    def __init__(self, rn, seed, workdir):
        self.rn = rn
        self.seed = seed
        rng = make_rng(self.name, seed, "pool")
        sp = rn.BilinearSpace.identity_form(self.n)
        self.sp = sp
        self.ident = rn.Mat.identity(self.n)
        skews = [int_skew(rng, self.n) for _ in range(self.members)]
        self.pool = [rn.Isometry(sp, rn.cayley(rn.eps * rn.Mat(s))) for s in skews]
        self.rots = []
        vecs = []
        while len(self.rots) < self.rotations:
            vs = [int_vector(rng, self.n), int_vector(rng, self.n)]
            iso = rn.compose(sp, [rn.Vec(v) for v in vs])
            if iso.m != self.ident:
                self.rots.append(iso)
                vecs.append(vs)
        # frob_sq(I - s) is invariant under s -> s^-1 and under conjugation
        # by a rotation, which gives an exact oracle for those verdicts.
        self.certs = [rn.frob_sq(self.ident - s.m) for s in self.pool]
        self.setup_inputs = json.dumps({"skews": skews, "rotations": vecs})

    def cycle(self, c):
        rng = make_rng(self.name, self.seed, c)
        ops = []
        for k in range(self.ops_per_cycle):
            kind = self.kinds[k % len(self.kinds)]
            i = rng.randrange(self.members)
            j = rng.randrange(self.members)
            r = rng.randrange(self.rotations)
            ops.append(self._op(kind, i, j, r))
        return ops

    def _verdict(self, res, cert=None):
        rn = self.rn
        iso, v = res
        require(iso.is_rotation, "not a rotation")
        require(v.member, "closure: result not in N")
        # the identity is a member too: certificate 0, order None
        order = rn.eps_order(v.certificate)
        require(order == v.order_at_zero and (order is None or order >= 1), "certificate order")
        if cert is not None:
            require(v.certificate == cert, "certificate differs from frob_sq(I - s)")
        return mat_text(rn, iso.m) + json.dumps(v.to_json(), sort_keys=True)

    def _op(self, kind, i, j, r):
        rn, sp = self.rn, self.sp
        s, t, rho = self.pool[i], self.pool[j], self.rots[r]
        inputs = f"{kind} {i} {j} {r}"
        if kind == "product":

            def run():
                p = s @ t
                return p, rn.in_n(sp, p)

            return Op(inputs, inputs, run, self._verdict)
        if kind == "inverse":

            def run():
                p = s.inverse()
                return p, rn.in_n(sp, p)

            def check(res):
                require((res[0].m @ s.m) == self.ident, "s^-1 s != I")
                return self._verdict(res, self.certs[i])

            return Op(inputs, inputs, run, check)
        if kind == "conjugate":

            def run():
                p = rho @ s @ rho.inverse()
                return p, rn.in_n(sp, p)

            return Op(inputs, inputs, run, lambda res: self._verdict(res, self.certs[i]))

        def check_suite(records):
            require(len(records) == 3, "suite size")
            require(all(rec.passed and rec.member for rec in records), "suite verdict")
            require(records[1].certificate == self.certs[i], "inverse certificate")
            require(records[2].certificate == self.certs[i], "conjugate certificate")
            return json.dumps([rec.to_json() for rec in records], sort_keys=True)

        return Op(inputs, inputs, lambda: rn.closure_suite(sp, [s], [rho]), check_suite)


class QReflect:
    """Rational reflections and spinor norms, Q only: for n in 3..8 and the
    forms I and diag(1..n), factor-and-recompose with spinor_norm, the
    spinor homomorphism on pairs, a Cayley round trip over Q and in_n
    over Q."""

    name = "q_reflect"
    dims = range(3, 9)
    warm_ops = 6

    def __init__(self, rn, seed, workdir):
        self.rn = rn
        self.seed = seed

    def cycle(self, c):
        rn = self.rn
        rng = make_rng(self.name, self.seed, c)
        ops = []
        for n in self.dims:
            # Reflection counts step through 1..n from cycle to cycle
            # instead of being drawn, so that runs of equal length share
            # one mix of product lengths and only the entries vary.
            def vectors(shift):
                return [int_vector(rng, n) for _ in range(1 + (c + shift) % n)]

            ident_sp = rn.BilinearSpace.identity_form(n)
            diag_sp = rn.BilinearSpace(list(range(1, n + 1)))
            for shift, sp in enumerate((ident_sp, diag_sp)):
                ops.append(self._factor(sp, vectors(shift)))
            for shift, sp in enumerate((ident_sp, diag_sp)):
                # x and y share n reflections, so x @ y is no longer than
                # a factor input.  Products of up to 2n reflections reach
                # rational heights at which squarefree_int's trial
                # division ran for minutes on single inputs at n = 8.
                k = 1 + (c + shift) % (n - 1)
                x = [int_vector(rng, n) for _ in range(k)]
                y = [int_vector(rng, n) for _ in range(n - k)]
                ops.append(self._pair(sp, n, [x, y]))
            ops.append(self._cayley(int_skew(rng, n)))
            u = int_vector(rng, n)
            # every fourth in_n input is u twice: the identity, a member
            v = u if (c + n) % 4 == 0 else int_vector(rng, n)
            ops.append(self._in_n(ident_sp, [u, v]))
        return ops

    def _form(self, sp):
        return "I" if sp.is_identity_form else "diag"

    def _factor(self, sp, raw):
        rn = self.rn
        vs = [rn.Vec(u) for u in raw]

        def run():
            iso = rn.compose(sp, vs)
            rs = rn.decompose(sp, iso)
            return iso, rs, rn.compose(sp, rs), rn.spinor_norm(sp, iso)

        def check(res):
            iso, rs, back, theta = res
            require(back == iso, "compose(decompose(x)) != x")
            require(len(rs) <= sp.n, "more than n reflections")
            require((-1) ** len(rs) == iso.det, "parity != det")
            require(rn.spinor_norm(sp, vs) == theta, "spinor norm depends on factorization")
            return json.dumps(rs.to_json()) + str(theta)

        label = f"factor n={sp.n} form={self._form(sp)}"
        return Op(label, json.dumps([sp.to_json(), raw]), run, check)

    def _pair(self, sp, n, raw):
        rn = self.rn
        a_vs, b_vs = ([rn.Vec(u) for u in vs] for vs in raw)

        def run():
            x, y = rn.compose(sp, a_vs), rn.compose(sp, b_vs)
            return (
                rn.spinor_norm(sp, x @ y),
                rn.spinor_norm(sp, x),
                rn.spinor_norm(sp, y),
            )

        def check(res):
            xy, x, y = res
            require(xy == x * y, "spinor norm is not multiplicative")
            return f"{xy} {x} {y}"

        label = f"spinor-pair n={n} form={self._form(sp)}"
        return Op(label, json.dumps([sp.to_json(), raw]), run, check)

    def _cayley(self, raw):
        rn = self.rn
        s = rn.Mat(raw)

        def run():
            a = rn.cayley(s)
            return a, rn.cayley(a)

        def check(res):
            a, back = res
            require(back == s, "cayley(cayley(S)) != S")
            require(rn.is_orthogonal(a) and rn.det(a) == 1, "cayley(S) not a rotation")
            return mat_text(rn, a)

        return Op(f"cayley-q n={s.n}", json.dumps(raw), run, check)

    def _in_n(self, sp, raw):
        rn = self.rn
        vs = [rn.Vec(u) for u in raw]
        ident = rn.Mat.identity(sp.n)

        def run():
            iso = rn.compose(sp, vs)
            return iso, rn.in_n(sp, iso)

        def check(res):
            iso, v = res
            trivial = iso.m == ident
            require(v.member == trivial, "over Q, N is the identity alone")
            require(v.order_at_zero == (None if trivial else 0), "certificate order")
            return json.dumps(v.to_json(), sort_keys=True)

        return Op(f"in_n-q n={sp.n}", json.dumps(raw), run, check)


class CliRoundtrip:
    """rotnear.cli.main(argv) in-process on JSON files, cycling through
    the subcommands; one document in five is malformed and must exit 2.
    Each cycle writes a fresh set of documents before it runs, so that a
    run's figures rest on many inputs rather than on one set repeated."""

    name = "cli_roundtrip"
    # the whole first cycle: a shuffled prefix would make set-up time
    # depend on which documents the seed put first
    warm_ops = None

    def __init__(self, rn, seed, workdir):
        self.rn = rn
        self.seed = seed
        self.cli = importlib.import_module("rotnear.cli")
        self.dir = workdir / f"cli-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def _write(self, name, obj):
        text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path), text

    def _case(self, template, doc, expect):
        # doc is (path, text) or None; the template holds "{}" where the
        # document's path goes.
        path, text = doc if doc else (None, "")
        self.cases.append((template, [path if a == "{}" else a for a in template], text, expect))

    def _build_cases(self, rng):
        rn = self.rn
        mj = rn.mat_to_json
        for n in (2, 3, 4):
            s = rn.Mat(int_skew(rng, n))
            skew_doc = self._write(f"skew{n}.json", mj(s))
            self._case(["cayley", "{}"], skew_doc, 0)
            self._case(["neumann", "{}", "--m", str(3 + 2 * (n % 2))], skew_doc, 0)
            rot_doc = self._write(f"rot{n}.json", mj(rn.cayley(rn.Mat(int_skew(rng, n)))))
            self._case(["inv-cayley", "{}"], rot_doc, 0)
            self._case(["in-n", "{}"], rot_doc, 0)
            for sp_name, sp in (
                ("I", rn.BilinearSpace.identity_form(n)),
                ("diag", rn.BilinearSpace(list(range(1, n + 1)))),
            ):
                k = rng.randint(1, n)
                iso = rn.compose(sp, [rn.Vec(int_vector(rng, n)) for _ in range(k)])
                iso_doc = self._write(f"iso{n}{sp_name}.json", mj(iso.m))
                extra = []
                if sp_name == "diag":
                    extra = ["--form", self._write(f"form{n}.json", sp.to_json())[0]]
                self._case(["decompose", "{}", *extra], iso_doc, 0)
                self._case(["spinor", "{}", *extra], iso_doc, 0)
        for n in (2, 3):
            b = rn.Mat(int_skew(rng, n))
            self._case(["cayley", "{}"], self._write(f"eskew{n}.json", mj(rn.eps * b)), 0)
            a_doc = self._write(f"erot{n}.json", mj(rn.infinitesimal_rotation(b)))
            self._case(["inv-cayley", "{}"], a_doc, 0)
            self._case(["in-n", "{}"], a_doc, 0)
        self._case(["demo", "--n", "3"], None, 0)
        self._case(["demo", "--n", "4"], None, 0)
        # malformed documents and arguments: each must exit 2
        bad = [
            ("badjson.json", '{"n": 2, "entries": [["1", "0"], ["0", "1"]]'),
            ("badelem.json", {"n": 2, "entries": [["1+*e", "0"], ["0", "1"]]}),
            ("nonsquare.json", {"n": 2, "entries": [["1", "0"], ["0"]]}),
            ("noniso.json", {"n": 2, "entries": [["1", "1"], ["0", "1"]]}),
            ("toolarge.json", {"n": 9, "entries": [["0"] * 9 for _ in range(9)]}),
        ]
        docs = {name: self._write(name, obj) for name, obj in bad}
        self._case(["cayley", "{}"], docs["badjson.json"], 2)
        self._case(["cayley", "{}"], docs["badelem.json"], 2)
        self._case(["decompose", "{}"], docs["nonsquare.json"], 2)
        self._case(["spinor", "{}"], docs["noniso.json"], 2)
        self._case(["in-n", "{}"], docs["noniso.json"], 2)
        self._case(["cayley", "{}"], docs["toolarge.json"], 2)
        self._case(["neumann", "{}", "--m", "4"], self._write("evenm.json", mj(rn.Mat(int_skew(rng, 2)))), 2)
        self._case(["demo", "--n", "9"], None, 2)
        # spread the malformed documents through the cycle
        rng.shuffle(self.cases)

    def cycle(self, c):
        self.cases = []
        self._build_cases(make_rng(self.name, self.seed, c))
        return [self._op(*case) for case in self.cases]

    def _op(self, template, argv, text, expect):
        main = self.cli.main

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(res):
            code, out, err = res
            require(code == expect, f"exit {code}, expected {expect}")
            if expect == 0:
                try:
                    json.loads(out)
                except ValueError as exc:
                    raise CheckError(f"stdout is not JSON: {exc}") from exc
                require(err == "", "stderr on success")
            else:
                require(out == "" and err.startswith("error: "), "exit-2 output")
            return f"{code}\n{out}"

        label = " ".join(template)
        return Op(label, label + "\n" + text, run, check)


WORKLOADS = {w.name: w for w in (QeBuild, QeGroup, QReflect, CliRoundtrip)}
