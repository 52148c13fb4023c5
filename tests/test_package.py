import ast
import importlib
import pkgutil

import pytest

import slowfast

MODULES = [m.name for m in pkgutil.iter_modules(slowfast.__path__, "slowfast.")]


def test_package_imports():
    assert slowfast.__version__
    assert "slowfast.control" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


class _CodeRunners(ast.NodeVisitor):
    """(module, enclosing function, builtin) of each call of exec, eval or compile."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval", "compile"):
            self.found.append((self.module, ".".join(self.scope), node.func.id))
        self.generic_visit(node)


def test_generated_code_runs_only_in_compile_functions():
    found = []
    for name in MODULES:
        visitor = _CodeRunners(name)
        with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
            visitor.visit(ast.parse(fh.read()))
        found += visitor.found
    assert sorted(found) == [("slowfast.normal_form", "compile_functions", "compile"),
                             ("slowfast.normal_form", "compile_functions", "exec")]
