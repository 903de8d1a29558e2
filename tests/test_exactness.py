"""No float in the package, so no float can decide a verdict.

The scan reads the syntax tree of every module of ``couplingdirac`` and
finds each float or complex literal and each use of the name ``float``
(a conversion, an annotation or a type test alike).  The exact-division
steps of the Pfaffian expansion and of decompose stay under it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "couplingdirac"


def float_uses(source: str) -> list:
    """(line, what) of every float literal and every ``float`` name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (
                float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
    return found


def test_the_scan_sees_floats():
    assert sorted(float_uses("x = 0.5\ny = float(x)\nz: float = 1j\nw = 2")) \
        == [(1, "0.5"), (2, "float"), (3, "1j"), (3, "float")]


def test_the_package_uses_no_float():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        assert float_uses(path.read_text()) == [], path.name
