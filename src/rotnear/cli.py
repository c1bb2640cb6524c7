"""Command-line front end.

Subcommands read matrices as JSON ({"n": ..., "entries": [[elem
strings]]}) from a file argument or stdin ('-'), emit a single JSON
document on stdout, and report problems on stderr.  Exit codes: 0 on
success, 1 when a verification check fails, 2 on bad input (or a result
too long to print).  Inputs are kept desk-scale: dimension <= 8 (checked
before any entry is parsed), exponents of e and neumann --m <= 64,
numbers of at most 4000 digits, selftest --trials in 1..1000 and
--max-dim in 2..8 (no checker samples a dimension below 2).
All sampling is seeded and the seed is echoed into the report, so
identical inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cayley import CayleyObstructionError, cayley, is_skew, neumann_check
from .field import MAX_DEGREE, MAX_DIGITS, ElemSyntaxError, FormatLimitError, SquarefreeBoundError, format_elem
from .linalg import is_orthogonal, mat_from_json, mat_to_json
from .quadspace import BilinearSpace, Isometry, decompose, spinor_norm
from .selftest import run_all
from .subgroup import contact_generator, in_n, witnesses

MAX_DIM = 8
MAX_TRIALS = 1000  # largest selftest --trials; the largest default sample count is 500


class InputError(Exception):
    """Problem with the inputs; exits with status 2."""


class CheckFailure(Exception):
    """A verification check failed; exits with status 1."""


def _parse_int(text):
    digits = len(text) - text.startswith("-")
    if digits > MAX_DIGITS:
        raise ValueError(f"integer with {digits} digits exceeds the limit {MAX_DIGITS}")
    return int(text)


def _read_json(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from exc
    # ValueError covers syntax errors and integers past MAX_DIGITS;
    # RecursionError covers arrays or objects nested too deeply
    try:
        return json.loads(text, parse_int=_parse_int)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _load_matrix(path):
    obj = _read_json(path)
    # refuse a large n before any of its n^2 entries is parsed
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is int and n > MAX_DIM:
        raise InputError(f"dimension {n} exceeds the limit {MAX_DIM}")
    try:
        return mat_from_json(obj)
    except (ElemSyntaxError, ZeroDivisionError, ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def _load_space(path, n):
    try:
        if path is None:
            return BilinearSpace.identity_form(n)
        sp = BilinearSpace.from_json(_read_json(path))
    except (ElemSyntaxError, ZeroDivisionError, ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    if sp.n != n:
        raise InputError(f"form dimension {sp.n} does not match matrix dimension {n}")
    return sp


def _as_isometry(sp, m):
    try:
        return Isometry(sp, m)
    except (ValueError, ArithmeticError) as exc:
        raise InputError(str(exc)) from exc


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_cayley(args):
    m = _load_matrix(args.matrix)
    try:
        _emit(mat_to_json(cayley(m)))
    except CayleyObstructionError as exc:
        raise InputError(str(exc)) from exc
    return 0


def cmd_inv_cayley(args):
    m = _load_matrix(args.matrix)
    if not is_orthogonal(m):
        raise InputError("orthogonal matrix required")
    try:
        out = cayley(m)
    except CayleyObstructionError as exc:
        raise InputError(str(exc)) from exc
    if not is_skew(out):
        raise CheckFailure("image of an orthogonal matrix is not skew-symmetric")
    _emit(mat_to_json(out))
    return 0


def cmd_decompose(args):
    m = _load_matrix(args.matrix)
    sp = _load_space(args.form, m.n)
    iso = _as_isometry(sp, m)
    _emit(decompose(sp, iso).to_json())
    return 0


def cmd_spinor(args):
    m = _load_matrix(args.matrix)
    sp = _load_space(args.form, m.n)
    iso = _as_isometry(sp, m)
    try:
        _emit(str(spinor_norm(sp, iso)))
    except SquarefreeBoundError as exc:
        raise InputError(str(exc)) from exc
    return 0


def cmd_in_n(args):
    m = _load_matrix(args.matrix)
    sp = _load_space(None, m.n)
    iso = _as_isometry(sp, m)
    try:
        verdict = in_n(sp, iso)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(verdict.to_json())
    return 0


def cmd_neumann(args):
    m = _load_matrix(args.matrix)
    if args.m < 1 or args.m % 2 == 0 or args.m > MAX_DEGREE:
        raise InputError(f"--m must be an odd positive integer at most {MAX_DEGREE}")
    try:
        rep = neumann_check(m, args.m)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(
        {
            "m": rep.m,
            "identity_holds": rep.identity_holds,
            "inverse_gap_sq": format_elem(rep.gap_sq),
            "inverse_gap_infinitesimal": rep.gap_infinitesimal,
            "d": mat_to_json(rep.d),
        }
    )
    if not rep.identity_holds:
        raise CheckFailure("truncated-series identity failed")
    return 0


def cmd_demo(args):
    n = args.n
    if n < 3 or n > MAX_DIM:
        raise InputError(f"--n must be between 3 and {MAX_DIM}")
    sp = BilinearSpace.identity_form(n)
    try:
        inside, outside = witnesses(sp)
    except ArithmeticError as exc:
        raise CheckFailure(str(exc)) from exc
    vi = in_n(sp, inside)
    vo = in_n(sp, outside)
    series = neumann_check(contact_generator(n), 5)
    _emit(
        {
            "n": n,
            "inside": {
                "matrix": mat_to_json(inside.m),
                "verdict": vi.to_json(),
            },
            "outside": {
                "matrix": mat_to_json(outside.m),
                "verdict": vo.to_json(),
            },
            "series": {
                "m": series.m,
                "identity_holds": series.identity_holds,
                "inverse_gap_infinitesimal": series.gap_infinitesimal,
            },
        }
    )
    if not (vi.member and not vo.member and series.identity_holds):
        raise CheckFailure("demo certificates did not verify")
    return 0


def cmd_selftest(args):
    if args.max_dim is not None and not 2 <= args.max_dim <= MAX_DIM:
        raise InputError(f"--max-dim must be between 2 and {MAX_DIM}")
    if args.trials is not None and not 1 <= args.trials <= MAX_TRIALS:
        raise InputError(f"--trials must be between 1 and {MAX_TRIALS}")
    results = run_all(seed=args.seed, trials=args.trials, max_dim=args.max_dim)
    ok = all(r.passed for r in results)
    _emit(
        {
            "seed": args.seed,
            "trials": args.trials,
            "max_dim": args.max_dim,
            "results": [r.to_json() for r in results],
            "all_passed": ok,
        }
    )
    if not ok:
        raise CheckFailure("self-test failures (see report)")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rotnear",
        description="Exact rotation-group computations over ordered fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, matrix=True):
        p = sub.add_parser(name, help=help_text)
        if matrix:
            p.add_argument(
                "matrix",
                nargs="?",
                default="-",
                help="matrix JSON file, or '-' for stdin (default)",
            )
        p.set_defaults(func=func)
        return p

    add("cayley", cmd_cayley, "apply the Cayley map to a matrix")
    add("inv-cayley", cmd_inv_cayley, "map a rotation back to a skew matrix")
    p = add("decompose", cmd_decompose, "factor an isometry into reflections")
    p.add_argument("--form", help="bilinear-space JSON file (default: identity form)")
    p = add("spinor", cmd_spinor, "spinor norm (square class) of an isometry")
    p.add_argument("--form", help="bilinear-space JSON file (default: identity form)")
    add("in-n", cmd_in_n, "membership of a rotation in the near-identity subgroup")
    p = add("neumann", cmd_neumann, "verify the truncated-series inverse identity")
    p.add_argument("--m", type=int, default=5, help="odd truncation order (default 5)")
    p = add("demo", cmd_demo, "near-identity witness certificates", matrix=False)
    p.add_argument("--n", type=int, required=True, help="dimension (3..8)")
    p = add("selftest", cmd_selftest, "run the verification suites", matrix=False)
    p.add_argument("--trials", type=int, default=None, help="override sample counts")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--max-dim", type=int, default=None, help="cap sampled dimensions")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
