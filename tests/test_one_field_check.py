import ast
import re
from pathlib import Path

import pytest

import galecubics

PACKAGE = Path(galecubics.__file__).parent
# a field refused by hand; a characteristic polynomial is a matrix invariant
REFUSAL = re.compile(r"prime[- ]field|characteristic(?! polynomial)", re.I)


def refusals(source, filename="<source>"):
    """(line, text) of each ``raise`` whose literal text reads as a refusal
    of the field."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = "".join(n.value for n in ast.walk(node.exc)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if REFUSAL.search(text):
                out.append((node.lineno, text))
    return out


def test_fields_require_is_the_only_field_refusal():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [f"{path.name}:{line}: {text}" for path in modules
             if path.name != "fields.py"
             for line, text in refusals(path.read_text(), str(path))]
    assert found == []
    assert refusals((PACKAGE / "fields.py").read_text())


@pytest.mark.parametrize("source", [
    'raise ValueError("scanning requires a prime field")',
    'raise ValueError("prime-field coefficients only")',
    'raise ValueError(f"the A4 family needs characteristic other than "\n'
    '                 f"2 and 3, not {p}")',
])
def test_the_guard_sees_a_hand_written_refusal(source):
    assert len(refusals(source)) == 1
