"""Module boundaries of the package, read from its source with ``ast``, the
independence of the test suite's oracle from the package, the names of the
package that the benchmark reaches into, and the library example of the
README, run as written."""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import illposed

MODULES = sorted(Path(illposed.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
ORACLE = ROOT / "tests" / "oracle.py"
README = ROOT / "README.md"
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
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


def test_the_oracle_imports_nothing_from_the_package():
    """The brute-force oracle is ground truth for the solvers, so it shares no
    code with them: it imports no ``illposed`` module, absolutely or
    relatively, and the package does not load it."""
    reached = []
    for node in ast.walk(parse(ORACLE)):
        if isinstance(node, ast.Import):
            reached += [alias.name for alias in node.names
                        if alias.name.split(".")[0] == "illposed"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "illposed"):
            reached.append("." * node.level + (node.module or ""))
    assert not reached, f"tests/oracle.py imports from the package: {reached}"
    assert "illposed.oracle" not in sys.modules


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
    ``path_solve``, which hands its own two on to ``path_root``: on O(k)
    points, where a provider has them, to max(tol, COARSE_TOL) from
    ``start``, then on direct points to ``tol`` from the O(k) root, or from
    ``start`` where there is none.
    """
    passes = []
    for path in MODULES:
        for where, call in calls_by_function(parse(path)):
            callee = getattr(call.func, "attr", getattr(call.func, "id", None))
            given = tuple((kw.arg, ast.unparse(kw.value)) for kw in call.keywords
                          if kw.arg in {"tol", "start", None})
            if callee in {"solve", "path_solve", "path_root"} and given:
                passes.append((path.name, where, callee, given))
    through = [("tikhonov.py", "path_solve", "path_root",
                (("tol", "max(tol, COARSE_TOL)"), ("start", "start"))),
               ("tikhonov.py", "path_solve", "path_root",
                (("tol", "tol"), ("start", "start if coarse is None else coarse")))]
    loosened = [entry[:3] for entry in passes if entry not in through]
    assert [entry for entry in passes if entry in through] == through
    assert loosened == [("tikhonov.py", "gauss_newton", "path_solve")], (
        f"root finds loosened outside gauss_newton: {passes}")


def test_the_path_seam_is_its_protocol():
    """tikhonov.path_solve reads a point provider through its protocol alone:
    tikhonov.py asks no object for its class, and path_solve names none of
    the module's classes; a provider fails by the package's SolverFailureError."""
    tree = parse(Path(illposed.__file__).parent / "tikhonov.py")
    asked = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in {"isinstance", "type"}]
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    solve = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "path_solve")
    named = {node.id for node in ast.walk(solve) if isinstance(node, ast.Name)}
    assert not asked, f"tikhonov.py asks for a class at lines {asked}"
    assert not named & classes, named & classes


def dotted(node):
    """``a.b.c`` of a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def resolves(chain):
    """Whether the dotted ``illposed.a.b`` chain reads from the imported package."""
    obj = illposed
    for attr in chain.split(".")[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def module_constants(tree):
    """Module-level ``NAME = <literal>`` assignments."""
    return {target.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Tuple)}


def test_names_the_benchmark_reaches_into_exist():
    """Every name of the package that perfbench/ imports, reads, patches, traces
    or passes to ``SweepConfig`` exists, so a change that deletes one fails here
    rather than in the benchmark."""
    config_fields = {f.name for f in dataclasses.fields(illposed.SweepConfig)}
    checked, missing = [], []

    def check(path, what, ok):
        checked.append(what.split(" ", 1)[0])
        if not ok:
            missing.append(f"{path.name}: {what}")

    for path in PERFBENCH:
        tree = parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "illposed"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    check(path, f"import {node.module}.{alias.name}",
                          hasattr(module, alias.name))
            elif isinstance(node, ast.Attribute) and (dotted(node) or "").startswith(
                    "illposed."):
                check(path, f"read {dotted(node)}", resolves(dotted(node)))
            elif isinstance(node, ast.Call) and dotted(node.func) == "Patched":
                attr = ast.literal_eval(node.args[0])
                check(path, f"patch illposed.sweep.{attr}", hasattr(illposed.sweep, attr))
            elif isinstance(node, ast.Call) and (dotted(node.func) or "").endswith(
                    "SweepConfig"):
                for kw in node.keywords:
                    check(path, f"config SweepConfig({kw.arg}=)", kw.arg in config_fields)
        if path.name == "tracer.py":
            constants = module_constants(tree)
            for short in constants["LAYER_MODULES"]:
                check(path, f"trace illposed.{short}", resolves(f"illposed.{short}"))
            for attr in constants["SWEEP_FUNCTIONS"]:
                check(path, f"trace illposed.sweep.{attr}",
                      hasattr(illposed.sweep, attr))
    assert not missing, f"perfbench/ reaches names the package lacks: {missing}"
    # each kind of reach is present, so none of the checks above is vacuous
    assert set(checked) == {"import", "read", "patch", "config", "trace"}, checked


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines] == ["True", "True"]


SMALL_MODULE = '''"""Module docstring
on two lines."""

import math  # a comment


def f(x):
    """One line."""
    # a comment alone
    return math.sqrt(
        x)


class C:
    """Class
    docstring."""
    s = """a string
    that is code"""
'''


def test_line_count_script_counts_a_known_module(tmp_path):
    # 18 lines: docstrings on 2 + 1 + 2 lines, code on lines 4, 7, 10, 11, 14,
    # 17 and 18 (a string that is not a docstring is code on each of its lines)
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    (first / "small.py").write_text(SMALL_MODULE, encoding="utf-8")
    (second / "small.py").write_text(SMALL_MODULE.split("\n\n\nclass")[0] + "\n",
                                     encoding="utf-8")
    (second / "empty.py").write_text("", encoding="utf-8")
    script = [sys.executable, str(ROOT / "scripts" / "line_count.py")]
    one = subprocess.run(script + [str(first)], capture_output=True, text=True)
    assert one.returncode == 0, one.stderr
    rows = [line.split() for line in one.stdout.splitlines()]
    assert rows == [["module", "lines", "code", "docstring"],
                    ["small.py", "18", "7", "5"], ["total", "18", "7", "5"]]
    two = subprocess.run(script + [str(first), str(second)], capture_output=True,
                         text=True)
    assert two.returncode == 0, two.stderr
    rows = [line.split() for line in two.stdout.splitlines()]
    # the class is gone from the second: 7 lines, 3 of them code and 2 docstring;
    # the empty module of the second alone changes no count, so it has no row
    assert rows[1:] == [["small.py", "-7", "-3", "-2"],
                        ["total", str(first), "18", "7", "5"],
                        ["total", str(second), "11", "4", "3"],
                        ["difference", "-7", "-3", "-2"]]
