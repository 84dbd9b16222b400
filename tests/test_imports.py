"""Static checks over the package source."""

import ast
import os
import subprocess
import sys
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


def _callers(tree, callee):
    """Name of the innermost function around each call of ``callee``."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                fn = child.func
                if getattr(fn, "id", getattr(fn, "attr", None)) == callee:
                    out.append(owner)
            visit(child, getattr(child, "name", owner)
                  if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else owner)

    visit(tree, None)
    return out


def test_the_kernel_reads_the_radical_in_one_place():
    # g_a = theta_ak / (theta_aa R_a) is the only use of R_a outside its own
    # interval: the Nystrom matrix, Gamma and the range moments all read g
    callers = [f"{name}:{owner}" for name in ("solver.py", "gamma.py")
               for owner in _callers(ast.parse((SRC / name).read_text()), "radical_eval")]
    assert callers == ["solver.py:kernel_g"]


def test_every_attribute_set_on_self_is_read():
    # an attribute the package stores but nothing reads is dead state
    def attrs(path, ctx):
        return {node.attr for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)
                and (ctx is ast.Load or getattr(node.value, "id", None) == "self")}

    assigned = set().union(*(attrs(p, ast.Store) for p in sorted(SRC.glob("*.py"))))
    files = [p for d in ("src", "tests", "demos", "bench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    read = set().union(*(attrs(p, ast.Load) for p in files))
    assert sorted(assigned - read) == []


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # nothing in the package uses scipy.integrate (the quadrature oracles run
    # fixed Gauss-Legendre rules), so a cold start of the package or the CLI
    # must not load it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, mifht, mifht.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
