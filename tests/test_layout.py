"""Module boundaries of the package, read from its source with ``ast``."""

import ast
from pathlib import Path

import illposed

MODULES = sorted(Path(illposed.__file__).parent.glob("*.py"))
KIND_NAMES = {"LINEAR_DENSE", "LINEAR_DIAGONAL"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(tree):
    """(module, name) of every ``from`` import of another package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("illposed")):
            for alias in node.names:
                yield node.module, alias.name


def test_no_private_name_crosses_modules():
    private = [f"{path.name}: {module}.{name}" for path in MODULES
               for module, name in package_imports(parse(path)) if name.startswith("_")]
    assert not private, f"private names imported across modules: {private}"


def test_only_operators_tells_operator_kinds_apart():
    assert "operators.py" in {path.name for path in MODULES}
    reads = []
    for path in MODULES:
        if path.name == "operators.py":
            continue
        tree = parse(path)
        reads += [f"{path.name}:{node.lineno} .kind" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "kind"]
        reads += [f"{path.name}:{node.lineno} {node.id}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in KIND_NAMES]
        reads += [f"{path.name} imports {name}" for _, name in package_imports(tree)
                  if name in KIND_NAMES]
    assert not reads, f"operator kinds read outside operators.py: {reads}"
