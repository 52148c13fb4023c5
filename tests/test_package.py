import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

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


class _Scoped(ast.NodeVisitor):
    """Collects into ``found`` what a subclass finds, knowing the module and
    the enclosing function, ``where``."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    @property
    def where(self) -> tuple[str, str]:
        return self.module, ".".join(self.scope)

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _found(visitor) -> list:
    """What ``visitor(module)`` finds in every module of the package."""
    found = []
    for name in MODULES:
        v = visitor(name)
        with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
            v.visit(ast.parse(fh.read()))
        found += v.found
    return found


class _CodeRunners(_Scoped):
    """(module, enclosing function, builtin) of each call of exec, eval or compile."""

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval", "compile"):
            self.found.append((*self.where, node.func.id))
        self.generic_visit(node)


def test_generated_code_runs_only_in_compile_functions():
    assert sorted(_found(_CodeRunners)) == [("slowfast.sim", "compile_functions", "compile"),
                             ("slowfast.sim", "compile_functions", "exec")]


def test_loops_are_generated_only_in_sim():
    # one builder turns a field into a generated loop, for slow time and the charts
    callers = set()
    for name in MODULES:
        with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        callers.update(name for node in ast.walk(tree) if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "compile_functions")
    assert callers == {"slowfast.sim"}


def test_only_sim_writes_generated_source():
    # compile_loop's callers pass checked trees and names: no source text
    callers, text = set(), []
    for name in MODULES:
        with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "compile_loop":
                continue
            callers.add(name)
            text += [(name, node.lineno) for arg in [*node.args, *node.keywords]
                     for sub in ast.walk(arg) if isinstance(sub, ast.JoinedStr)
                     or isinstance(sub, ast.Constant) and isinstance(sub.value, str)]
    assert callers == {"slowfast.blowup", "slowfast.closedloop"}
    assert text == []


def test_only_the_model_walks_checked_trees():
    # one point evaluator: normal_form.evaluate walks what the loops compile
    callers = set()
    for name in MODULES:
        with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        callers.update(name for node in ast.walk(tree) if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "walk")
    assert callers == {"slowfast.expr", "slowfast.normal_form"}
    from slowfast import control, normal_form

    assert control.evaluate is normal_form.evaluate
    assert not hasattr(normal_form, "_drift")


class _NonFiniteHandlers(_Scoped):
    """(module, enclosing function) of each except clause that names NonFiniteError."""

    def visit_ExceptHandler(self, node):
        if node.type is not None and any(
                getattr(sub, "id", getattr(sub, "attr", None)) == "NonFiniteError"
                for sub in ast.walk(node.type)):
            self.found.append(self.where)
        self.generic_visit(node)


def test_one_rule_turns_a_failed_run_into_an_outcome():
    # sim.attempt alone catches NonFiniteError: sweep cells and configured
    # runs both become outcomes through it
    assert _found(_NonFiniteHandlers) == [("slowfast.sim", "attempt")]


def _imported_modules(tree: ast.Module, package: str) -> set[str]:
    """Every module an import statement anywhere in ``tree`` names, made absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            found.update([module] if node.module else
                         [f"{module}.{alias.name}" for alias in node.names])
    return found


# the modules a simulation, reproduction or sweep runs through
RUN_PATH = ["sim", "closedloop", "control", "normal_form", "roa", "scenarios", "systems",
            "lyapunov", "poly", "cli", "expr"]


def _imports(module: str) -> set[str]:
    with open(importlib.import_module(f"slowfast.{module}").__file__, encoding="utf-8") as fh:
        return _imported_modules(ast.parse(fh.read()), "slowfast")


def test_control_imports_nothing_from_blowup():
    # the laws and the loops sit below the charts: blowup uses control and
    # closedloop's law and variant records, and no module on a run path
    # imports blowup, not even inside a function
    assert {"slowfast.normal_form"} <= _imports("control")
    assert {"slowfast.closedloop", "slowfast.control"} <= _imports("blowup")
    assert set(RUN_PATH) < {name.split(".")[1] for name in MODULES}
    for module in RUN_PATH:
        found = [m for m in _imports(module) if m.split(".")[:2] == ["slowfast", "blowup"]]
        assert not found, (module, found)


def test_the_grammar_sits_below_the_integrator_and_the_model():
    # the grammar imports no module of the package, and the integrator and
    # the model each import only the grammar
    def own(module: str) -> set[str]:
        return {m for m in _imports(module) if m.split(".")[0] == "slowfast"}

    assert own("expr") == set()
    assert own("sim") == {"slowfast.expr"}
    assert own("normal_form") == {"slowfast.expr"}


# the names ``slowfast`` re-exports, by the module that defines them
EXPORTS = {
    "blowup": "DirectionalChartState FamilyChartState family_time_rescale "
              "from_directional_zneg from_family_chart to_directional_zneg to_family_chart",
    "control": "Theorem2Params Theorem3Params closed_loop_jacobian_origin eigenvalues_origin",
    "normal_form": "NormalFormSystem State degeneracy_order eval_g eval_rhs_fast "
                   "eval_rhs_slow",
    "roa": "GridSpec RoAReport compare sweep",
    "sim": "IntegratorConfig Outcome Trajectory classify config_for control_sup_norm "
           "integrate write_trajectory_csv",
    "systems": "TunnelDiodeSystem build_planar_example diode_fold_points",
}

# modules that scenario runs never use, those of a process pool (which no
# sweep needs) and the blow-up charts first
UNUSED = ["concurrent.futures.process", "multiprocessing", "slowfast.blowup",
          "slowfast.poly", "slowfast.verification", "slowfast.lyapunov"]


def test_import_loads_only_what_a_run_uses():
    code = textwrap.dedent(f"""
        import importlib, sys
        import slowfast
        loaded = [m for m in sys.modules if m.startswith("slowfast.")]
        assert not loaded, loaded
        import slowfast.scenarios, slowfast.cli
        loaded = [m for m in {UNUSED!r} if m in sys.modules]
        assert not loaded, loaded
        from slowfast.closedloop import Thm2
        from slowfast.control import Theorem2Params
        from slowfast.roa import GridSpec, sweep
        from slowfast.sim import config_for
        from slowfast.systems import build_planar_example
        system = build_planar_example(0.01)
        variant = Thm2(Theorem2Params(c=[1.0], a=[1.0], b=3.0))
        cfg = config_for(0.01, 1.0)
        two = GridSpec(((-1.0, 1.0, 2),), (0.0, 0.0, 1))
        sweep(system, variant, two, cfg, jobs=1)
        sweep(system, variant, GridSpec(((0.0, 0.0, 1),), (0.0, 0.0, 1)), cfg, jobs=8)
        sweep(system, variant, two, cfg, jobs=2)  # fans out wherever two cores are
        loaded = [m for m in {UNUSED[:3]!r} if m in sys.modules]
        assert not loaded, loaded  # no sweep, serial or fanned, needs a pool or the charts

        exports = {EXPORTS!r}
        names = [n for names in exports.values() for n in names.split()]
        assert len(names) == 32 and sorted(slowfast.__all__) == sorted(names)
        for module, names in exports.items():
            mod = importlib.import_module("slowfast." + module)
            for name in names.split():
                assert getattr(slowfast, name) is getattr(mod, name), name
        assert slowfast.sweep is slowfast.roa.sweep
        assert not hasattr(slowfast, "no_such_name")
        assert "slowfast.verification" not in sys.modules
        from slowfast import verification  # a submodule is imported, not looked up
        assert verification is sys.modules["slowfast.verification"]
    """)
    src = os.path.dirname(os.path.dirname(slowfast.__file__))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_benchmark_tracer_restores_every_binding():
    # the benchmark's tracer looks names up in the package (among them
    # ``systems.TunnelDiodeSystem``) and must put back all it patches
    root = os.path.dirname(os.path.dirname(os.path.dirname(slowfast.__file__)))
    code = "import sys, selftest\nsys.exit(0 if selftest.tracer_restores() else 1)"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=os.path.join(root, "perfbench"),
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
