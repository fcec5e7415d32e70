"""The benchmark tracer finds every method it wraps on the class that owns it.

perfbench/spans.py looks each traced method up in its class's own __dict__,
so moving one of them into a base class would silently stop it being traced.
The file is parsed, not imported or executed.
"""

import ast
import importlib
from pathlib import Path

from bracketforge.config import Config

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def spans_constant(name: str):
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py defines no {name}")


def test_every_traced_method_is_defined_on_its_own_class():
    methods = spans_constant("METHODS")
    assert ("poly", "BracketPoly", "__mul__", "poly.mul") in methods
    for module, cls, meth, _ in methods:
        owner = getattr(importlib.import_module(f"bracketforge.{module}"), cls)
        assert meth in owner.__dict__, f"{module}.{cls}.{meth} is not in {cls}.__dict__"


def test_every_traced_config_method_is_defined_on_config():
    methods = spans_constant("CONFIG_METHODS")
    assert "is_dependent_triple" in methods
    for meth in methods:
        assert meth in Config.__dict__, f"config.Config.{meth} is not in Config.__dict__"
