"""`src/` computes with exact numbers only.  An integral Q coefficient is a
plain int, so `a / b` on two coefficients would give a float where a
`Fraction` used to absorb it; nothing would fail, the answer would just be
inexact.  An AST scan of `src/strathom/*.py` rejects every true division
(`/` and `/=`) and every call of `float`."""

import ast
import textwrap
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "strathom"


def inexact(sources):
    """(module, line, what) for each true division and `float` call in
    `sources` (module name -> source text), sorted."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)):
                what = "/=" if isinstance(node, ast.AugAssign) else "/"
                found.append((module, node.lineno, what))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append((module, node.lineno, "float("))
    return sorted(found)


def test_src_has_no_true_division_and_no_float_call():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert inexact(sources) == [], (
        "exact code divides with `//`, `Fraction(p, q)` or `pow(a, -1, p)`")


def test_scanner_reports_each_inexact_form():
    source = textwrap.dedent("""
        def f(a, b):
            c = a // b + a % b
            d = a / b
            c /= b
            return float(c), d, x.float(c)
        """)
    assert inexact({"mod": source}) == [
        ("mod", 4, "/"), ("mod", 5, "/="), ("mod", 6, "float(")]
