"""Typed input is bounded before work is done on it: digit runs in the
element grammar, and the matrix dimension before any entry is parsed."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rotnear.cli import MAX_DIM, main
from rotnear.field import MAX_DIGITS, ElemSyntaxError, parse_elem, parse_rat


def test_digit_runs_are_bounded_with_an_offset():
    assert parse_elem("9" * MAX_DIGITS) == int("9" * MAX_DIGITS)
    too_long = "1" * (MAX_DIGITS + 1)
    for text, offset in ((too_long, 0), ("e+" + too_long, 2), ("(1+e)/(2+" + too_long + "*e)", 9)):
        with pytest.raises(ElemSyntaxError, match=rf"exceeds the limit {MAX_DIGITS} \(offset {offset}\)$"):
            parse_elem(text)
    with pytest.raises(ElemSyntaxError):
        parse_rat("1/" + too_long)


def run(tmp_path, capsys, obj):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    code = main(["in-n", str(path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr()
    return code, out.out, out.err, elapsed


def test_cli_rejects_a_long_number_with_its_own_message(tmp_path, capsys):
    big = "1" + "0" * 5000
    code, out, err, _ = run(tmp_path, capsys, {"n": 2, "entries": [["1", "0"], ["0", big]]})
    assert code == 2 and out == ""
    assert err == f"error: number with 5001 digits exceeds the limit {MAX_DIGITS} (offset 0)\n"


def test_cli_rejects_a_large_dimension_before_parsing_entries(tmp_path, capsys):
    n = 300
    obj = {"n": n, "entries": [["1/3+e"] * n for _ in range(n)]}
    code, out, err, elapsed = run(tmp_path, capsys, obj)
    assert code == 2 and out == ""
    assert err == f"error: dimension {n} exceeds the limit {MAX_DIM}\n"
    assert elapsed < 1.0


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_a_result_too_long_to_print_exits_2(tmp_path):
    # the image of a 2500-digit entry has coefficients of about 5000 digits,
    # past Python's default limit of 4300 digits for int-to-str conversion
    sevens = "7" * 2500
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [["0", sevens], ["-" + sevens, "0"]]}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "rotnear", "cayley", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stderr == "error: the result has a coefficient too long to print\n"


def test_json_integers_are_bounded_by_rotnear_own_digit_limit(tmp_path, capsys):
    # past MAX_DIGITS, below Python's own limit of 4300 digits or above it,
    # the message names rotnear's limit, not a Python call the user cannot make
    path = tmp_path / "m.json"
    for digits in (MAX_DIGITS + 1000, MAX_DIGITS + 1):
        path.write_text('{"n": ' + "7" * digits + ', "entries": [["1"]]}')
        code = main(["in-n", str(path)])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == f"error: invalid JSON: integer with {digits} digits exceeds the limit {MAX_DIGITS}\n"
        assert "set_int_max_str_digits" not in out.err
    n = "7" * MAX_DIGITS
    path.write_text('{"n": ' + n + ', "entries": [["1"]]}')
    code = main(["in-n", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: dimension {n} exceeds the limit {MAX_DIM}\n"
