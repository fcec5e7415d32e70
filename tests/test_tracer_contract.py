"""The benchmark tracer finds every method it wraps on the class that owns it.

perfbench/spans.py looks each traced method up in its class's own __dict__,
so moving one of them into a base class would silently stop it being traced.
The file is parsed, not imported or executed.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_methods():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no METHODS list")


def test_every_traced_method_is_defined_on_its_own_class():
    methods = traced_methods()
    assert ("poly", "BracketPoly", "__mul__", "poly.mul") in methods
    for module, cls, meth, _ in methods:
        owner = getattr(importlib.import_module(f"bracketforge.{module}"), cls)
        assert meth in owner.__dict__, f"{module}.{cls}.{meth} is not in {cls}.__dict__"
