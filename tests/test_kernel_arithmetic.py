"""The publisher's kernels rank their candidates on integers.

Scores are rationals, but phase 2 compares them as cross-multiplied
integer pairs and the two partitioners as integer numerators over a shared
denominator; `Fraction` belongs only to the wrappers that report a score
(`assignment_score`, `split_score`).  An `ast` walk of each kernel, nested
functions and annotations included, keeps it that way.
"""

import ast
from pathlib import Path

import mdistinct

ENGINE = Path(mdistinct.__file__).parent / "engine.py"
KERNELS = ("phase2_assign", "static_partition", "phase3_split")


def names_used(node: ast.AST) -> set[str]:
    """Every identifier a node mentions as a name or an attribute."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def functions(source: str) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def test_collector_sees_nested_functions_attributes_and_annotations():
    source = (
        "def kernel(x: int) -> int:\n"
        "    '''No Fraction here: a docstring is text.'''\n"
        "    def inner():\n"
        "        return fractions.Fraction(1)\n"
        "    return x\n"
        "def typed():\n"
        "    best: Fraction | None = None\n"
        "def plain():\n"
        "    return 'Fraction'\n")
    found = functions(source)
    assert "Fraction" in names_used(found["kernel"])
    assert "Fraction" in names_used(found["typed"])
    assert "Fraction" not in names_used(found["plain"])


def test_kernels_do_not_name_fraction():
    found = functions(ENGINE.read_text())
    for name in KERNELS:
        assert "Fraction" not in names_used(found[name]), name
