"""Every global name the package's code reads is bound in its module.

A function that reads a name its module never defines or imports raises
NameError only when it is called, so a rarely used path can ship broken
while every import succeeds.  This walks the bytecode of the package and
each submodule and checks each LOAD_GLOBAL against the module namespace
and builtins, and each name a module exports in ``__all__`` against the
module itself: a stale ``__all__`` entry fails only on ``import *``.
"""

import builtins
import dis
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import lognls

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


@pytest.mark.parametrize("name", MODULES)
def test_no_thread_pool_import(name):
    # trials and sweep points run on one serial path.  This reads the
    # bytecode, function bodies included, rather than sys.modules:
    # scipy.linalg itself loads concurrent.futures at import.
    code = importlib.util.find_spec(name).loader.get_code(name)
    imported = {ins.argval for c in _code_objects(code) for ins in dis.get_instructions(c)
                if ins.opname == "IMPORT_NAME"}
    assert not {m for m in imported if m.split(".")[0] in ("concurrent", "threading")}


def test_import_leaves_out_scipy_sparse():
    # the form operator is tridiagonal plus rank one; no sparse matrices
    src = os.path.dirname(os.path.dirname(lognls.__file__))
    probe = (f"import sys; sys.path.insert(0, {src!r}); import lognls, lognls.cli; "
             "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
