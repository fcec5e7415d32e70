"""The benchmark tracer finds every method and function it reads by name.

perfbench/spans.py looks each traced method up in its class's own __dict__,
so moving one of them into a base class would silently stop it being traced.
It wraps only public module-level functions, and the benchmark looks some of
them up by span name, so inlining one would crash a traced run.  The file is
parsed, not imported or executed.
"""

import ast
import importlib
import inspect
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


def test_every_function_read_by_name_is_a_traced_public_function():
    names = {"gc.gm_rewrite_combo", "gc.gm_generators", "harness.in_realization_space",
             "lifting.q_general_position"}
    names |= set(spans_constant("SAMPLERS")) | set(spans_constant("ATTEMPT_CHECKS"))
    for name in sorted(names):
        module, attr = name.split(".")
        mod = importlib.import_module(f"bracketforge.{module}")
        fn = vars(mod).get(attr)
        assert not attr.startswith("_") and inspect.isfunction(fn), f"{name} is not a function"
        assert fn.__module__ == mod.__name__, f"{name} is defined in {fn.__module__}"
        assert not inspect.isgeneratorfunction(fn), f"{name} is a generator function"
