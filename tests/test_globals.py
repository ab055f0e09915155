"""Every global name the package's code reads is bound in its module.

A function that reads a name its module never defines or imports raises
NameError only when it is called, so a rarely used path can ship broken
while every import succeeds.  This walks the bytecode of the package and
each submodule and checks each LOAD_GLOBAL against the module namespace
and builtins, and each name a module exports in ``__all__`` against the
module itself: a stale ``__all__`` entry fails only on ``import *``.
The same holds for the benchmark's workloads, whose imports from lognls
are checked by parsing their source.  Every public function that takes
omega rejects a non-finite one, so a new entry point cannot skip the check.
"""

import ast
import builtins
import dis
import importlib.util
import inspect
import math
import os
import pkgutil
import subprocess
import sys
import types

import numpy as np
import pytest

import lognls
from lognls import corefn, dynamics, fields, stationary
from lognls.stationary import Branch

MODULES = ["lognls"] + sorted(
    info.name for info in pkgutil.iter_modules(lognls.__path__, prefix="lognls.")
)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def undefined_globals(code, namespace) -> list[str]:
    """``function -> name`` for each LOAD_GLOBAL in code (and the code
    nested in it) that namespace and builtins leave unbound."""
    known = set(namespace) | set(vars(builtins))
    missing = set()
    for c in _code_objects(code):
        for ins in dis.get_instructions(c):
            if ins.opname == "LOAD_GLOBAL" and ins.argval not in known:
                missing.add(f"{getattr(c, 'co_qualname', c.co_name)} -> {ins.argval}")
    return sorted(missing)


def test_all_submodules_found():
    assert {"lognls.cli", "lognls.corefn", "lognls.dynamics",
            "lognls.fields", "lognls.stationary"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_no_undefined_globals(name):
    module = importlib.import_module(name)
    code = importlib.util.find_spec(name).loader.get_code(name)
    assert undefined_globals(code, vars(module)) == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_bound(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", ["lognls.corefn", "lognls.dynamics", "lognls.fields",
                                  "lognls.stationary"])
def test_package_exports_all(name):
    # the package namespace is the union of these modules' __all__ lists
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if getattr(lognls, n, None) is not getattr(module, n)] == []


def test_detects_unbound_name():
    source = "import math\n\ndef f(x):\n    return math.pi * x + missing_name(x)\n"
    namespace = {}
    code = compile(source, "probe", "exec")
    exec(code, namespace)
    assert undefined_globals(code, namespace) == ["f -> missing_name"]


def unbound_lognls_names(source: str) -> list[str]:
    """Each name that source imports from a lognls module, and each
    attribute it reads off an imported lognls module, that is not bound.
    The source is parsed, never run."""
    tree = ast.parse(source)
    modules = {}  # local name -> imported lognls module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lognls":
            parent = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    obj = getattr(parent, alias.name, None)
                    if obj is None:
                        missing.append(f"{node.module}.{alias.name}")
                if isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return sorted(set(missing))


def test_benchmark_imports_bound():
    # the benchmark's workloads call lognls through these names; a deletion
    # that breaks them fails here instead of in a benchmark run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        assert unbound_lognls_names(fh.read()) == []


def test_detects_unbound_benchmark_name():
    source = ("from lognls import fields\nfrom lognls.fields import Grid, gone\n"
              "fields.report(fields.missing, Grid)\n")
    assert unbound_lognls_names(source) == ["lognls.fields.gone", "lognls.fields.missing"]


@pytest.mark.parametrize("name", MODULES)
def test_no_thread_pool_import(name):
    # trials and sweep points run on one serial path.  This reads the
    # bytecode, function bodies included, rather than sys.modules:
    # scipy.linalg itself loads concurrent.futures at import.
    code = importlib.util.find_spec(name).loader.get_code(name)
    imported = {ins.argval for c in _code_objects(code) for ins in dis.get_instructions(c)
                if ins.opname == "IMPORT_NAME"}
    assert not {m for m in imported if m.split(".")[0] in ("concurrent", "threading")}


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports lognls from
    this checkout."""
    src = os.path.dirname(os.path.dirname(lognls.__file__))
    head = f"import sys; sys.path.insert(0, {src!r})\n"
    out = subprocess.run([sys.executable, "-c", head + code], capture_output=True, text=True,
                         check=True)
    return out.stdout


def test_classification_leaves_out_scipy():
    # scipy.linalg costs about 0.3 s to import and is needed only to solve
    # a tridiagonal system; classifying the ground states solves none
    probe = ("import contextlib, io, lognls, lognls.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [lognls.cli.main(['ground', '--gamma', '3']), "
             "lognls.cli.main(['bifurcate'])]\n"
             "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh(probe).strip() == "[0, 0] []"


_SOLVE_SETUP = """\
import hashlib
import numpy as np
from lognls import dynamics, fields, stationary
grid = fields.Grid(20.0, 256)
u = fields.sample_profile(
    stationary.branch_params(3.0, 0.0, stationary.Branch.ASYMMETRIC_LEFT), grid)
op, tau = fields.form_operator(grid, 3.0), fields.TAU0
"""

# one expression per LAPACK or BLAS entry point: gtsv, ztbsv, dstebz and
# ptsv, the last on the descent's system I + tau L- at tau = TAU0 from the
# ground state u, where it is positive definite
_FIRST_SOLVES = {
    "FormOperator.solve": "op.solve(0.5, 1.0, u.values.real)",
    "FormOperator._definite_sweep":
        "op._definite_sweep(1.0 - tau * np.log(u.values.real ** 2) + tau / grid.dx * op.diag, "
        "tau / grid.dx, u.values.real)",
    "ShiftedSolver": "dynamics.linear_step(u, 3.0, 1e-3).values",
    "morse_index": "np.array(fields.morse_index(u, 3.0, 0.0))",
}


@pytest.mark.parametrize("entry", sorted(_FIRST_SOLVES))
def test_first_solve_imports_lapack(entry):
    # each entry point imports scipy.linalg itself when it is the process's
    # first solve, and gives the bits it gives in a process that has it
    digest = "hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()"
    probe = (_SOLVE_SETUP + "before = 'scipy' in sys.modules\n"
             f"value = {_FIRST_SOLVES[entry]}\n"
             f"print(before, 'scipy.linalg' in sys.modules, {digest})")
    namespace = {}
    exec(_SOLVE_SETUP + f"value = {_FIRST_SOLVES[entry]}\nout = {digest}", namespace)
    assert _fresh(probe).split() == ["False", "True", namespace["out"]]


_GRID = fields.Grid(20.0, 256)
_U = fields.Field(_GRID, math.exp(0.5) * np.exp(-0.5 * _GRID.nodes() ** 2))

# one call per public function with an omega parameter, omega left open
_OMEGA_CALLS = {
    "fields.report": lambda w: fields.report(_U, 1.0, w),
    "fields.action_gradient": lambda w: fields.action_gradient(_U, 1.0, w),
    "fields.nehari_project": lambda w: fields.nehari_project(_U, 1.0, w),
    "fields.stationary_residual": lambda w: fields.stationary_residual(_U, 1.0, w),
    "fields.morse_index": lambda w: fields.morse_index(_U, 1.0, w),
    "fields.stationary_newton": lambda w: fields.stationary_newton(_U, 1.0, w),
    "fields.minimize_dgamma": lambda w: fields.minimize_dgamma(1.0, w, grid=_GRID),
    "stationary.d_gamma": lambda w: stationary.d_gamma(1.0, w),
    "stationary.dgamma_lower_bound": lambda w: stationary.dgamma_lower_bound(1.0, w),
    "stationary.d_zero": stationary.d_zero,
    "stationary.d_free_line": stationary.d_free_line,
    "stationary.ground_states": lambda w: stationary.ground_states(1.0, w),
    "stationary.branch_params": lambda w: stationary.branch_params(1.0, w, Branch.SYMMETRIC),
    "stationary.bifurcation_sweep": lambda w: stationary.bifurcation_sweep(1.0, 3.0, 3, w),
    "dynamics.stability_experiment": lambda w: dynamics.stability_experiment(
        1.0, w, Branch.SYMMETRIC, 1e-2, 1e-2, 1, 0, grid=_GRID),
}


def test_omega_table_covers_every_entry():
    takes_omega = {
        f"{mod.__name__.split('.')[-1]}.{name}"
        for mod in (corefn, dynamics, fields, stationary) for name in mod.__all__
        if inspect.isfunction(getattr(mod, name))
        and "omega" in inspect.signature(getattr(mod, name)).parameters}
    assert set(_OMEGA_CALLS) == takes_omega


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_OMEGA_CALLS))
def test_nonfinite_omega_rejected(entry, omega):
    with pytest.raises(ValueError, match="omega must be finite"):
        _OMEGA_CALLS[entry](omega)


@pytest.mark.parametrize("call", [lambda g: fields.quadratic_form(_U, g),
                                  lambda g: fields.report(_U, g, 0.0),
                                  lambda g: dynamics.linear_step(_U, g, 1e-3)],
                         ids=["quadratic_form", "report", "linear_step"])
def test_nan_gamma_rejected_by_form(call):
    # the form takes gamma in (0, inf) only, with the check of every other function
    for gamma in (math.nan, -1.0, 0.0, math.inf, -math.inf):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            call(gamma)
