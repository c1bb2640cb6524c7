"""The README's library quick tour runs as written, and each expression in
it evaluates to the value its comment states."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour():
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_states_its_values():
    ns = {}
    stated = []
    for line in _tour().splitlines():
        code, _, comment = line.partition("  #")
        body = ast.parse(code).body
        if body and isinstance(body[0], ast.Expr):
            value = eval(compile(ast.Expression(body[0].value), "README.md", "eval"), ns)
            want = re.match(r"\s*([^\s:,]+)", comment).group(1)
            stated.append((code.strip(), str(value), want))
        else:
            exec(code, ns)
    assert ns["x"] == 1
    for code, got, want in stated:
        assert got == want, code
    assert [want for *_, want in stated] == ["-1", "8*e^2/(1+e^2)", "8*e^2/(1+e^2)", "2"]
