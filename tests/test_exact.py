"""Exact arithmetic in the package (stdlib ast only): no float or complex
literal, no `float(...)` call, and no `math` log, square root or
exponential, whether called as `math.log(...)` or imported by name.

Every result of dworklab is an integer, a residue or a Fraction; a
floating-point step can misround (int(math.log(243, 3)) is 4).  Wall-clock
timings (`time.time()`) are reported, never computed with.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dworklab"
MODULES = sorted(PACKAGE.glob("*.py"))
INEXACT_MATH = {"log", "log2", "log10", "log1p", "sqrt", "exp", "exp2", "expm1"}


def inexact_uses(source: str) -> list:
    """(line, what) of every float/complex literal, `float` call and inexact
    `math` function in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append((node.lineno, "float()"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in INEXACT_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(
                (node.lineno, f"math.{a.name}") for a in node.names if a.name in INEXACT_MATH
            )
    return sorted(found)


def test_checker_flags_inexact_arithmetic():
    source = (
        "import math\n"
        "from math import gcd, sqrt as root\n"
        "elapsed: float = 0\n"
        "x = 0.5 + 2j\n"
        "y = float('3')\n"
        "z = int(math.log(243, 3)) + math.isqrt(9) + gcd(4, 6)\n"
        "w = math.exp\n"
    )
    assert inexact_uses(source) == [
        (2, "math.sqrt"),
        (4, "0.5"),
        (4, "2j"),
        (5, "float()"),
        (6, "math.log"),
        (7, "math.exp"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    assert inexact_uses(path.read_text()) == []
