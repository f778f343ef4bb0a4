"""Module boundaries of the package, read from its source with ``ast``, and
the library example of the README, run as written."""

import ast
from pathlib import Path

import illposed

MODULES = sorted(Path(illposed.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"
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



def inverse_uses(nodes):
    """Reads of ``.inv`` and imports of ``inv`` from numpy.linalg under ``nodes``."""
    return [node for top in nodes for node in ast.walk(top)
            if (isinstance(node, ast.Attribute) and node.attr == "inv")
            or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                and any(alias.name == "inv" for alias in node.names))]


def test_general_inverse_only_in_the_triangular_leaf():
    """np.linalg.inv is used once: on the small blocks of tikhonov.lower_inverse."""
    in_leaf, outside = [], []
    for path in MODULES:
        tree = parse(path)
        leaf = {node for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and func.name == "lower_inverse"
                for branch in ast.walk(func)
                if isinstance(branch, ast.If) and "INVERSE_LEAF" in ast.unparse(branch.test)
                for node in inverse_uses(branch.body)}
        for node in inverse_uses([tree]):
            (in_leaf if node in leaf else outside).append(f"{path.name}:{node.lineno}")
    assert len(in_leaf) == 1 and not outside, (
        f"np.linalg.inv outside the leaf of lower_inverse: {outside}, in it: {in_leaf}")


def calls_by_function(tree):
    """(name of the innermost enclosing function, call) of every call."""
    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield name, child
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            yield from visit(child, inner)

    return visit(tree, "<module>")


def test_only_gauss_newton_loosens_a_root_find():
    """Linear solves find their root to ROOT_TOL from lam = 1.

    Only tikhonov.gauss_newton passes ``tol`` or ``start``, and only to
    ``path_solve``, which hands its own two on to ``path_root``.
    """
    passes = []
    for path in MODULES:
        for where, call in calls_by_function(parse(path)):
            callee = getattr(call.func, "attr", getattr(call.func, "id", None))
            given = tuple((kw.arg, ast.unparse(kw.value)) for kw in call.keywords
                          if kw.arg in {"tol", "start", None})
            if callee in {"solve", "path_solve", "path_root"} and given:
                passes.append((path.name, where, callee, given))
    through = ("tikhonov.py", "path_solve", "path_root",
               (("tol", "tol"), ("start", "start")))
    loosened = [entry[:3] for entry in passes if entry != through]
    assert through in passes
    assert loosened == [("tikhonov.py", "gauss_newton", "path_solve")], (
        f"root finds loosened outside gauss_newton: {passes}")


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines] == ["True", "True"]
