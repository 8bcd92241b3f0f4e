"""Rules on the package source that no runtime test can see."""

import ast
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

import gkernel

SRC = Path(__file__).resolve().parents[1] / "src" / "gkernel"


def _catch_alls(tree):
    """(line, text) of every bare ``except`` and ``except (Base)Exception``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for exc in caught:
            if exc is None or (isinstance(exc, ast.Name)
                               and exc.id in ("Exception", "BaseException")):
                yield node.lineno, "except" if exc is None else f"except {exc.id}"


def test_no_swallow_all_except():
    # failures raise the typed errors of gkernel.errors; a catch-all would hide them
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(SRC.glob("*.py"))
             for line, text in _catch_alls(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_rule_sees_every_catch_all_form():
    source = ("try:\n    pass\nexcept:\n    pass\n"
              "try:\n    pass\nexcept Exception:\n    pass\n"
              "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
              "try:\n    pass\nexcept (ValueError, TypeError):\n    pass\n")
    assert [text for _, text in _catch_alls(ast.parse(source))] == [
        "except", "except Exception", "except BaseException"]


# numpy is the one declared dependency (pyproject.toml); anything else that
# happens to be installed, scipy say, would pass here and fail for users
ALLOWED_THIRD_PARTY = {"numpy", "gkernel"}


def _foreign_imports(tree):
    """(line, module) of every absolute import outside the standard library,
    numpy and gkernel; relative imports stay inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ALLOWED_THIRD_PARTY:
                yield node.lineno, name


def test_imports_are_stdlib_numpy_or_gkernel():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _foreign_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_rule_sees_every_import_form():
    source = ("import os, scipy.linalg\n"
              "from numpy.linalg import solve\n"
              "from scipy import sparse\n"
              "from . import pde\n"
              "from .gcore import g_value\n"
              "import gkernel.pde\n"
              "from __future__ import annotations\n"
              "def f():\n    import pandas as pd\n")
    assert [name for _, name in _foreign_imports(ast.parse(source))] == [
        "scipy.linalg", "scipy", "pandas"]


def _deferred_package_imports(tree):
    """(line, module) of every gkernel import below the top level of a module:
    the package has no import cycle to break, so each module states its
    dependencies up front."""
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if id(node) in top:
            continue
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.level > 0 or name.split(".")[0] == "gkernel":
                yield node.lineno, name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gkernel":
                    yield node.lineno, alias.name


def test_package_imports_at_module_level():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _deferred_package_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_rule_sees_every_deferred_import_form():
    source = ("from . import pde\n"
              "from .gcore import g_value\n"
              "import gkernel.io\n"
              "def f():\n    import json\n    from .sim import simulate_gsde\n"
              "class C:\n    def g(self):\n        from .. import errors\n"
              "        import gkernel.pde, numpy\n"
              "if True:\n    from .model import ModelSpec\n")
    assert sorted(_deferred_package_imports(ast.parse(source))) == [
        (6, ".sim"), (9, ".."), (10, "gkernel.pde"), (12, ".model")]


# names that start a thread, or a process pool with its own threads, outside the
# one allowed form
THREAD_STARTERS = {"Thread", "Timer", "start_new_thread", "ThreadPool", "ProcessPoolExecutor"}


def _stray_threads(tree):
    """(line, text) of every way to start a thread but a ``ThreadPoolExecutor``
    built as the context manager of a ``with`` inside a function, bound to no
    name or to a local one: a pool bound to a module or an attribute, or one
    built anywhere else, would be hidden state and could outlive the call."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.With, ast.AsyncWith)):
                    allowed.update(id(item.context_expr) for item in inner.items
                                   if item.optional_vars is None
                                   or isinstance(item.optional_vars, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ThreadPoolExecutor" and id(node) not in allowed:
                yield node.lineno, "ThreadPoolExecutor outside a with"
        if isinstance(node, ast.Name) and node.id in THREAD_STARTERS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in THREAD_STARTERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names if a.name in THREAD_STARTERS)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name == "_thread")


def test_threads_start_only_in_a_with_block():
    # the one thread the package starts is joined before the call that needs it returns
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(SRC.glob("*.py"))
             for line, text in _stray_threads(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_rule_sees_every_thread_form():
    source = ("import threading, _thread\n"
              "from threading import Thread\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "POOL = ThreadPoolExecutor(2)\n"
              "with ThreadPoolExecutor() as pool:\n    pass\n"
              "def f(self):\n"
              "    with ThreadPoolExecutor(max_workers=1) as pool:\n        pass\n"
              "    with ThreadPoolExecutor(), open('x') as (a, b):\n        pass\n"
              "    with futures.ThreadPoolExecutor() as self.pool:\n        pass\n"
              "    self.pool = ThreadPoolExecutor()\n"
              "    threading.Thread(target=f).start()\n"
              "    threading.Timer(1.0, f)\n"
              "    _thread.start_new_thread(f, ())\n")
    assert sorted(_stray_threads(ast.parse(source))) == [
        (1, "_thread"), (2, "Thread"), (4, "ThreadPoolExecutor outside a with"),
        (5, "ThreadPoolExecutor outside a with"), (12, "ThreadPoolExecutor outside a with"),
        (14, "ThreadPoolExecutor outside a with"), (15, "Thread"), (16, "Timer"),
        (17, "start_new_thread")]


PUBLIC_MODULES = ("coefficients", "config", "decomp", "errors", "gcore", "io", "model", "pde",
                  "sim")


def test_package_api_is_the_module_apis():
    # each module's __all__ is its public API, declared there and nowhere else;
    # the command line is the one module that exports nothing
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(PUBLIC_MODULES + ("__init__", "cli"))
    modules = [importlib.import_module(f"gkernel.{name}") for name in PUBLIC_MODULES]
    assert gkernel.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(gkernel.__all__)) == len(gkernel.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gkernel, name) is getattr(module, name), f"{module.__name__}.{name}"


def _parameters(module, name):
    """Names of the functions in ``module.__all__`` that take a parameter ``name``."""
    return [fn for fn in module.__all__
            if inspect.isfunction(getattr(module, fn))
            and name in inspect.signature(getattr(module, fn)).parameters]


def _takers(name):
    """``module.function`` of every solver, residual and policy that takes ``name``."""
    return [f"{module}.{fn}" for module in ("pde", "sim", "decomp")
            for fn in _parameters(importlib.import_module(f"gkernel.{module}"), name)]


# the settings of the damped continuation that solve_ergodic no longer runs
RETIRED = ("delta0", "tol_inner", "max_halvings", "mode", "gradient_cap")


@pytest.mark.parametrize("name", RETIRED)
def test_no_solver_takes_a_retired_setting(name):
    # one Newton solve from u = 0 and one driver, with no gradient cap, leave
    # these settings nothing to set; solve_ergodic keeps each as a keyword-only
    # None, and refuses any other value, while the benchmark still passes them
    assert _takers(name) == ["pde.solve_ergodic"]
    parameter = inspect.signature(gkernel.pde.solve_ergodic).parameters[name]
    assert (parameter.kind, parameter.default) == (inspect.Parameter.KEYWORD_ONLY, None)


@pytest.mark.parametrize("name", RETIRED)
def test_rule_sees_every_parameter(name):
    module = types.ModuleType("probe")
    exec(f"def a(x, {name}=None): pass\n"
         f"def b(x, *, {name}): pass\n"
         f"def c(x, {name}_name=None): pass\n"
         f"class D:\n    def __init__(self, {name}): pass\n", module.__dict__)
    module.__all__ = ["a", "b", "c", "D"]
    assert _parameters(module, name) == ["a", "b"]


REPO = SRC.parents[1]
# the trees whose code reads the public API: the package, the demos and the benchmark
READER_TREES = ("src", "demos", "perfbench")
# public names that nothing there reads, and why each stays
UNREAD_ALLOWED = set()


def _read_names(tree):
    """The names ``tree`` reads: as a name, as an attribute or by an import.

    A top-level definition's reads of its own name, as in a recursive call,
    do not count, and neither do assignments or the strings of ``__all__``.
    """
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name.split(".")[-1] for alias in node.names)
                continue
            else:
                continue
            if name != own:
                found.add(name)
    return found


def _unread(public, trees):
    """The names of ``public`` that none of ``trees`` reads, in order."""
    read = set().union(*map(_read_names, trees))
    return [name for name in public if name not in read]


def test_every_public_name_has_a_reader():
    # a public name that no command, demo or benchmark reads is API kept for its own tests
    trees = [ast.parse(path.read_text(), str(path))
             for top in READER_TREES for path in sorted((REPO / top).rglob("*.py"))]
    unread = _unread(gkernel.__all__, trees)
    assert [name for name in unread if name not in UNREAD_ALLOWED] == []
    assert sorted(UNREAD_ALLOWED) == sorted(unread)  # an allowed name that gains a reader leaves


def test_rule_sees_every_read_form():
    defining = ast.parse(
        '__all__ = ["by_name", "by_attribute", "by_import", "recursive", "CONST", "unread"]\n'
        "def by_name(): pass\n"
        "def by_attribute(): pass\n"
        "def by_import(): pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "CONST = 1\n"
        "def unread(): pass\n")
    reader = ast.parse(
        "from probe import by_import\n"
        "import probe\n"
        "by_name()\n"
        "probe.by_attribute()\n"
        "probe.CONST = 2\n"
        "text = 'unread'\n")
    public = ["by_name", "by_attribute", "by_import", "recursive", "CONST", "unread"]
    assert _unread(public, [defining, reader]) == ["recursive", "CONST", "unread"]
