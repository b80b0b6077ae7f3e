"""No dead code surface: every name the package exports, and every public
module-level function and class of a library module, has a code caller.

A caller is a Name or Attribute node (not a docstring, comment, import or
the definition itself) in a library module other than
``oscsurf/__init__.py`` or in one of the benchmark's ``perfbench/*.py``
files.  Tests do not count: a name only the tests reach is library surface
that nothing else uses.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oscsurf"

# exported without a caller, on purpose
ALLOWED = {
    "FDField": "the finite-difference reference that the closed-form "
               "derivative tests compare against; it serves as Phi or the "
               "amplitude of a custom instance, never as rho, which must be "
               "a PolynomialField",
    "psi_map": "the change-of-variables map itself; the Jacobian test "
               "differentiates it to check psi_jacobian, which criterion 6 "
               "uses",
}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _public_definitions():
    return [node.name
            for path in PACKAGE.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    exports = _exports()
    assert set(ALLOWED) <= set(exports)
    referenced = _referenced_names()
    assert not set(ALLOWED) & referenced  # a stale entry hides nothing
    public = dict.fromkeys(exports + _public_definitions())
    dead = [name for name in public
            if name not in referenced and name not in ALLOWED]
    assert dead == []
