"""No dead exports: every name the package exports has a code caller.

A caller is a Name or Attribute node (not a docstring, comment or import)
in a library module other than ``oscsurf/__init__.py`` or in one of the
benchmark's ``perfbench/*.py`` files.  Tests do not count: a name only the
tests reach is library surface that nothing else uses.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oscsurf"

# exported without a caller, on purpose
ALLOWED = {
    "FDField": "the only field for a user-supplied callable; its derivative "
               "oracle is finite differences, so no built-in instance uses it",
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
    dead = [name for name in exports
            if name not in referenced and name not in ALLOWED]
    assert dead == []
