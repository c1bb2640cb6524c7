"""CLI tests: subcommands, JSON output, exit codes, and determinism."""

import json
import time

from rotnear.cli import main
from rotnear.field import parse_elem
from rotnear.linalg import Mat, mat_from_json, mat_to_json

ZERO3 = {"n": 3, "entries": [["0"] * 3 for _ in range(3)]}
ROT2 = {"n": 2, "entries": [["0", "1"], ["-1", "0"]]}
SKEW2 = {"n": 2, "entries": [["0", "1"], ["-1", "0"]]}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cayley_zero_matrix(tmp_path, capsys):
    code, out, _ = run(capsys, ["cayley", write(tmp_path, "m.json", ZERO3)])
    assert code == 0
    assert mat_from_json(json.loads(out)) == Mat.identity(3)


def test_cayley_then_inv_cayley_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, ["cayley", write(tmp_path, "m.json", SKEW2)])
    assert code == 0
    rot = json.loads(out)
    code, out, _ = run(capsys, ["inv-cayley", write(tmp_path, "r.json", rot)])
    assert code == 0
    assert mat_from_json(json.loads(out)) == mat_from_json(SKEW2)


def test_inv_cayley_rejects_non_orthogonal(tmp_path, capsys):
    bad = {"n": 2, "entries": [["1", "1"], ["0", "1"]]}
    code, _, err = run(capsys, ["inv-cayley", write(tmp_path, "m.json", bad)])
    assert code == 2
    assert "orthogonal" in err


def test_cayley_obstruction_is_input_error(tmp_path, capsys):
    neg_i = {"n": 2, "entries": [["-1", "0"], ["0", "-1"]]}
    code, _, err = run(capsys, ["cayley", write(tmp_path, "m.json", neg_i)])
    assert code == 2
    assert "eigenvalue obstruction" in err


def test_decompose_and_spinor(tmp_path, capsys):
    path = write(tmp_path, "m.json", ROT2)
    code, out, _ = run(capsys, ["decompose", path])
    assert code == 0
    vectors = json.loads(out)
    assert len(vectors) == 2
    code, out, _ = run(capsys, ["spinor", path])
    assert code == 0
    assert json.loads(out) == "2"


def test_spinor_with_form_file(tmp_path, capsys):
    neg_i = {"n": 2, "entries": [["-1", "0"], ["0", "-1"]]}
    form = {"d": ["1", "2"]}
    code, out, _ = run(
        capsys,
        ["spinor", write(tmp_path, "m.json", neg_i), "--form", write(tmp_path, "f.json", form)],
    )
    assert code == 0
    assert json.loads(out) == "2"


def test_form_dimension_mismatch(tmp_path, capsys):
    form = {"d": ["1", "1", "1"]}
    code, _, err = run(
        capsys,
        ["spinor", write(tmp_path, "m.json", ROT2), "--form", write(tmp_path, "f.json", form)],
    )
    assert code == 2
    assert "match" in err


def test_selftest_max_dim_guard(capsys):
    code, _, err = run(capsys, ["selftest", "--trials", "1", "--max-dim", "9"])
    assert code == 2
    assert "max-dim" in err


def test_selftest_trials_guard_runs_no_checker(capsys, monkeypatch):
    from rotnear import cli

    calls = []
    monkeypatch.setattr(cli, "run_all", lambda **kw: calls.append(kw) or [])
    code, _, err = run(capsys, ["selftest", "--trials", str(cli.MAX_TRIALS + 1)])
    assert code == 2 and "trials" in err and calls == []
    code, out, _ = run(capsys, ["selftest", "--trials", str(cli.MAX_TRIALS)])
    assert code == 0 and calls[0]["trials"] == cli.MAX_TRIALS
    assert json.loads(out)["trials"] == cli.MAX_TRIALS


def test_selftest_lower_bounds_run_no_checker(capsys, monkeypatch):
    from rotnear import cli

    calls = []
    monkeypatch.setattr(cli, "run_all", lambda **kw: calls.append(kw) or [])
    for argv, word in (
        (["--trials", "0"], "trials"),
        (["--trials", "-5", "--max-dim", "2"], "trials"),
        (["--max-dim", "1"], "max-dim"),
        (["--max-dim", "-3"], "max-dim"),
    ):
        code, out, err = run(capsys, ["selftest", *argv])
        assert code == 2 and word in err and out == "" and calls == []
    code, out, _ = run(capsys, ["selftest", "--trials", "1", "--max-dim", "2"])
    assert code == 0 and calls == [{"seed": 0, "trials": 1, "max_dim": 2}]
    assert json.loads(out)["max_dim"] == 2


def test_in_n_identity(tmp_path, capsys):
    ident = {"n": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    code, out, _ = run(capsys, ["in-n", write(tmp_path, "m.json", ident)])
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"member": True, "certificate": "0", "order_at_zero": None}


def test_in_n_rejects_non_rotation(tmp_path, capsys):
    refl = {"n": 2, "entries": [["-1", "0"], ["0", "1"]]}
    code, _, err = run(capsys, ["in-n", write(tmp_path, "m.json", refl)])
    assert code == 2
    assert "rotation" in err


def test_one_by_one_matrix_is_input_error(tmp_path, capsys):
    tiny = {"n": 1, "entries": [["1"]]}
    code, _, err = run(capsys, ["in-n", write(tmp_path, "m.json", tiny)])
    assert code == 2
    assert "dimension" in err


def test_neumann_default_m(tmp_path, capsys):
    code, out, _ = run(capsys, ["neumann", write(tmp_path, "m.json", SKEW2)])
    assert code == 0
    rep = json.loads(out)
    assert rep["m"] == 5
    assert rep["identity_holds"] is True
    assert rep["inverse_gap_infinitesimal"] is True


def test_neumann_rejects_even_m(tmp_path, capsys):
    code, _, err = run(capsys, ["neumann", write(tmp_path, "m.json", SKEW2), "--m", "4"])
    assert code == 2
    assert "odd" in err


def test_neumann_rejects_m_above_the_degree_limit(tmp_path, capsys):
    code, _, err = run(capsys, ["neumann", write(tmp_path, "m.json", SKEW2), "--m", "65"])
    assert code == 2
    assert "64" in err


def test_demo_certificates(tmp_path, capsys):
    code, out, _ = run(capsys, ["demo", "--n", "3"])
    assert code == 0
    bundle = json.loads(out)
    assert bundle["inside"]["verdict"]["certificate"] == "8*e^2/(1+e^2)"
    assert bundle["inside"]["verdict"]["member"] is True
    assert bundle["inside"]["verdict"]["order_at_zero"] == 2
    outside_cert = parse_elem(bundle["outside"]["verdict"]["certificate"])
    assert bundle["outside"]["verdict"]["member"] is False
    assert outside_cert >= 4
    assert bundle["series"]["identity_holds"] is True


def test_demo_is_deterministic(capsys):
    code, out1, _ = run(capsys, ["demo", "--n", "4"])
    assert code == 0
    code, out2, _ = run(capsys, ["demo", "--n", "4"])
    assert out1 == out2


def test_demo_rejects_small_n(capsys):
    code, _, err = run(capsys, ["demo", "--n", "2"])
    assert code == 2


def test_selftest_small(capsys):
    code, out, _ = run(capsys, ["selftest", "--trials", "3", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["seed"] == 7
    assert len(report["results"]) == 9


def test_selftest_determinism(capsys):
    code, out1, _ = run(capsys, ["selftest", "--trials", "2", "--seed", "3", "--max-dim", "3"])
    assert code == 0
    _, out2, _ = run(capsys, ["selftest", "--trials", "2", "--seed", "3", "--max-dim", "3"])
    assert out1 == out2


def test_parse_error_reports_offset(tmp_path, capsys):
    bad = {"n": 2, "entries": [["1", "2*x"], ["0", "1"]]}
    code, _, err = run(capsys, ["cayley", write(tmp_path, "m.json", bad)])
    assert code == 2
    assert "offset" in err


def test_invalid_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["cayley", str(p)])
    assert code == 2
    assert "invalid JSON" in err


MALFORMED = {
    "utf8": b"\xff{",
    "digits": b'{"n": ' + b"7" * 5000 + b', "entries": [["1"]]}',
    "nesting": b"[" * 100_000,
}


def test_malformed_files_exit_2_without_a_traceback(tmp_path, capsys):
    # invalid UTF-8, an integer past Python's digit limit and deep nesting,
    # as the matrix and as the --form file
    ident = write(tmp_path, "i.json", {"n": 2, "entries": [["1", "0"], ["0", "1"]]})
    for name, raw in MALFORMED.items():
        p = tmp_path / f"{name}.json"
        p.write_bytes(raw)
        for argv in (["in-n", str(p)], ["spinor", ident, "--form", str(p)]):
            code, out, err = run(capsys, argv)
            assert code == 2, (name, argv)
            assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_malformed_stdin_exits_2(capsys, monkeypatch):
    import io

    for raw in MALFORMED.values():
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, ["cayley"])
        assert code == 2
        assert out == "" and err.startswith("error: ")


def test_size_guard_dimension(tmp_path, capsys):
    n = 9
    big = {"n": n, "entries": [["0"] * n for _ in range(n)]}
    code, _, err = run(capsys, ["cayley", write(tmp_path, "m.json", big)])
    assert code == 2
    assert "dimension" in err


def test_size_guard_degree(tmp_path, capsys):
    huge = "1/(1+e^65)"
    bad = {"n": 2, "entries": [["0", huge], ["0", "0"]]}
    code, _, err = run(capsys, ["cayley", write(tmp_path, "m.json", bad)])
    assert code == 2
    assert "degree" in err


def test_boolean_dimension_is_input_error(tmp_path, capsys):
    bad = {"n": True, "entries": [["3"]]}
    code, out, _ = run(capsys, ["cayley", write(tmp_path, "m.json", bad)])
    assert code == 2
    assert out == ""


def test_non_integer_dimension_names_the_n_field(tmp_path, capsys):
    for n in (True, 2.0, "2", 0):
        bad = {"n": n, "entries": [["3"]]}
        code, out, err = run(capsys, ["cayley", write(tmp_path, "m.json", bad)])
        assert code == 2
        assert out == ""
        assert err == "error: matrix JSON: 'n' must be a positive integer\n"


def test_stdin_roundtrip(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SKEW2)))
    code, out, _ = run(capsys, ["cayley"])
    assert code == 0
    m = mat_from_json(json.loads(out))
    assert mat_to_json(m) == json.loads(out)


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, ["cayley", "/nonexistent/m.json"])
    assert code == 2


def test_spinor_above_the_trial_bound_exits_2(tmp_path, capsys):
    # the Cayley image of [[0, x], [-x, 0]] has class input about x^2 with
    # large prime factors: refused at the bound, not factored for hours
    x = str(10**30 + 57)
    skew = {"n": 2, "entries": [["0", x], ["-" + x, "0"]]}
    code, out, _ = run(capsys, ["cayley", write(tmp_path, "s.json", skew)])
    assert code == 0
    start = time.perf_counter()
    code, out, err = run(capsys, ["spinor", write(tmp_path, "r.json", json.loads(out))])
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "2^22" in err and "Traceback" not in err
    assert elapsed < 5.0, elapsed
