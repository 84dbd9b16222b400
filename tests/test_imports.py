"""Static checks over the package source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mifht"


def _unused_imports(tree):
    """Names bound by import statements that no expression ever loads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_use_every_imported_name():
    # __init__ imports to re-export, so it is exempt
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def _defined(tree):
    """Names of the functions, methods and properties a module defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _referenced(tree):
    """Names a module loads, reads as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names}
    return out


def test_every_defined_function_is_referenced():
    # dunders are called by the interpreter, so they are exempt
    sources = sorted(SRC.glob("*.py"))
    defined = set().union(*(_defined(ast.parse(p.read_text())) for p in sources))
    files = sources + sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "demos").glob("*.py"))
    referenced = set().union(*(_referenced(ast.parse(p.read_text())) for p in files))
    assert sorted(defined - referenced) == []
