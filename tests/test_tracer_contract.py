"""The benchmark finds every method and function it reads by name.

perfbench/spans.py looks each traced method up in its class's own __dict__,
so moving one of them into a base class would silently stop it being traced.
It wraps only public module-level functions, and the benchmark looks some of
them up by span name, so inlining one would crash a traced run.  The
workloads and the runner call the package through attribute chains such as
bf.lifting.QScheme.symbolic, so deleting or renaming one of those names
would crash a benchmark run.  The files are parsed, not imported or executed.
"""

import ast
import importlib
import inspect
from pathlib import Path

from bracketforge.config import Config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def _chain(node) -> list[str]:
    """The dotted names of an attribute chain a.b.c, or [] if it does not
    start at a plain name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else []


def package_chains(path: Path) -> set[tuple[str, ...]]:
    """Every chain a file reads from the package `bf`, as (module, name, ...).

    Inside each function, a name bound to a package module (h = bf.harness)
    stands for that module, so h.generic_q is read as harness.generic_q.
    """
    out = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        roots = {"bf": ()}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(_chain(node.value)) == 2:
                root, module = _chain(node.value)
                if root == "bf":
                    roots.update({t.id: (module,) for t in node.targets
                                  if isinstance(t, ast.Name)})
        for node in ast.walk(fn):
            chain = _chain(node)
            if len(chain) > 1 and chain[0] in roots:
                out.add(roots[chain[0]] + tuple(chain[1:]))
    return out


def test_every_package_name_the_benchmark_reads_exists():
    import bracketforge

    chains = package_chains(PERFBENCH / "workloads.py") | package_chains(PERFBENCH / "run.py")
    # the parse sees direct chains, chains through a module alias, and the runner
    assert {("lifting", "QScheme", "symbolic"), ("harness", "collinear_realization"),
            ("gc", "rewrite_choices"), ("gc", "DEFAULT_TERM_CEILING")} <= chains
    for chain in sorted(chains):
        owner = bracketforge
        for i, attr in enumerate(chain):
            assert hasattr(owner, attr), f"bf.{'.'.join(chain[:i + 1])} does not exist"
            owner = getattr(owner, attr)
