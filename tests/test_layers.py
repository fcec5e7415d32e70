"""The package's import layering, read from the source with `ast`.

Every package import sits at the top of its module, and the module import
graph has no cycle, so each layer can be read, imported and tested without
the layers above it.  Only `config` reads a `Config`'s private dependency
data (`_rep`, `_collapsed`).
"""

import ast
from pathlib import Path

import bracketforge

PACKAGE = Path(bracketforge.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(node) -> list[str]:
    """The package modules an import statement names; [] for any other import."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module is None:
            return [a.name if a.name in MODULES else "__init__" for a in node.names]
        return [node.module.split(".")[0]]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] == "bracketforge":
            return [parts[1] if len(parts) > 1 else "__init__"]
    if isinstance(node, ast.Import):
        return [parts[1] if len(parts) > 1 else "__init__"
                for parts in (a.name.split(".") for a in node.names)
                if parts[0] == "bracketforge"]
    return []


def _import_graph() -> dict[str, set[str]]:
    """Module -> the package modules it imports anywhere in its source."""
    return {name: {m for node in ast.walk(tree) for m in _package_imports(node)}
            for name, tree in MODULES.items()}


def test_package_imports_are_at_module_top():
    top = {id(node) for tree in MODULES.values() for node in tree.body}
    nested = [f"{name}.py:{node.lineno}"
              for name, tree in MODULES.items() for node in ast.walk(tree)
              if _package_imports(node) and id(node) not in top]
    assert nested == []


def test_module_import_graph_has_no_cycle():
    graph = _import_graph()
    state: dict[str, str] = {}

    def visit(name: str, path: list[str]):
        state[name] = "open"
        for dep in sorted(graph[name]):
            assert state.get(dep) != "open", " -> ".join(path + [name, dep])
            if dep not in state:
                visit(dep, path + [name])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [])


def test_only_config_reads_its_dependency_data():
    readers = sorted({name for name, tree in MODULES.items() if name != "config"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("_rep", "_collapsed")})
    assert readers == []
