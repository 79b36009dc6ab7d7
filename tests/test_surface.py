"""Guards on what the code defines and imports.

Every function src/hhdx defines is reached by the package itself, by the
acceptance criteria and their oracles, or by the benchmark's traced entry
points, so API that only unit tests call cannot grow back unnoticed.  A
module-level function is reached by any reference to its name; a method only
by an attribute reference (`.name`) or a `LAYERS` entry, so a local variable
or a function that shares a method's name no longer hides it.  That guard
matches names, not definitions: two methods of one name are one name to it.
So a second guard runs the nine goldens, the acceptance criteria and the tiny
benchmark workloads under `sys.setprofile` and requires every function
src/hhdx defines to run there (the `LAYERS` entry points aside).  Operators
are dunders, which no name reference reaches, so the same run is the guard on
them: every dunder src/hhdx defines but `__repr__` must run there too.
A cache hit makes no call event, so every cache hhdx binds is emptied first.

Every name a module in src/hhdx or tests/ imports is used in that module.

Every double complex src/hhdx builds comes from `linalg.face_double_complex`:
it alone constructs a `DoubleComplex`.

A failed certificate is a named failing assertion in a schema-valid report,
so src/hhdx raises AssertionError once: for a constant tower that does not
certify at dim + 1 levels, a precondition of its report.

No report imports `numpy.ma`: src/hhdx uses neither `np.isin` nor
`np.unique`, whose sort path imports it on first use (the first
`np.unique` of a process took 12-17 ms on a 2-vCPU Xeon, numpy 2.4).
"""

import ast
import collections
import contextlib
import importlib.util
import io
import json
import pathlib
import subprocess
import sys
import types

import pytest
import test_acceptance
from hhdx.cli import main
from test_cli import GOLDEN_CASES

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hhdx"
TESTS = ROOT / "tests"
TRACER = ROOT / "perfbench" / "tracer.py"
REFERENCES = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py", TRACER]


def _references(tree):
    """Counts of the identifiers a tree uses: (bare and imported names,
    attribute names)."""
    names, attrs = collections.Counter(), collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def _layer_entry_points():
    """The qualnames ("Class.method") of perfbench's LAYERS entry points."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            specs = ast.literal_eval(node.value)
            return {spec.split(":")[1] for entries in specs.values() for spec in entries}
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _unreached(trees, outside_names, outside_attrs):
    """The non-dunder defs of trees (path -> module ast) that nothing but
    unit tests reaches, as "file:line name"."""
    src_names, src_attrs = collections.Counter(), collections.Counter()
    for tree in trees.values():
        names, attrs = _references(tree)
        src_names += names
        src_attrs += attrs
    out = []
    for path, tree in trees.items():
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attrs = _references(node)
            reached = src_attrs[name] - own_attrs[name] > 0 or name in outside_attrs
            if id(node) not in methods:
                reached = reached or src_names[name] - own_names[name] > 0 \
                    or name in outside_names
            if not reached:
                out.append(f"{pathlib.Path(path).name}:{node.lineno} {name}")
    return out


def _unused_imports(tree):
    """Names a module imports and never uses, `from __future__` and the
    names its `__all__` re-exports aside."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_src_function_is_reached_outside_unit_tests():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    outside_names = set()
    outside_attrs = {part for name in _layer_entry_points() for part in name.split(".")}
    for path in REFERENCES:
        names, attrs = _references(ast.parse(path.read_text()))
        outside_names |= set(names)
        outside_attrs |= set(attrs)
    unreached = _unreached(trees, outside_names, outside_attrs)
    assert not unreached, f"defined but reached only by unit tests: {unreached}"


def _defined(trees):
    """(path, first line, qualname) of every function the module trees
    define; the first line is a decorated function's first decorator's, as
    on its code object."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((path, line, f"{prefix}{child.name}"))
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, prefix)

    for path, tree in trees.items():
        walk(tree, path, "")
    return out


def _profiled(modules, run):
    """(file, first line) of every Python function that run() calls, after
    emptying every cache (anything with `cache_clear`) the modules or their
    classes bind, so that a cached function counts as run only when run()
    calls it."""
    for module in modules:
        for value in vars(module).values():
            for obj in [value, *(vars(value).values() if isinstance(value, type) else ())]:
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return ran


@pytest.fixture(scope="module")
def unran():
    """(qualname, "file:line qualname") of every function src/hhdx defines
    that the goldens, the acceptance criteria and the tiny workloads do not
    run."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    goldens, cases = [], []

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, _ in GOLDEN_CASES:
                goldens.append(main([*argv, "--json"]))
            for name in sorted(vars(test_acceptance)):
                if name.startswith("test_criterion_"):
                    getattr(test_acceptance, name)()
            for workload in sorted(workloads.WORKLOADS):
                for case in workloads.generate(workload, 1, "tiny"):
                    cases.append((main(list(case.argv)), case.expect))

    hhdx_modules = [module for name, module in sys.modules.items()
                    if name == "hhdx" or name.startswith("hhdx.")]
    ran = _profiled(hhdx_modules, run)
    assert goldens == [0] * len(GOLDEN_CASES)
    assert all(rc == expect for rc, expect in cases)
    ran = {(pathlib.Path(path).resolve(), line) for path, line in ran}
    trees = {path.resolve(): ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    return [(name, f"{path.name}:{line} {name}") for path, line, name in _defined(trees)
            if (path, line) not in ran]


def _is_dunder(qualname):
    name = qualname.rpartition(".")[2]
    return name.startswith("__") and name.endswith("__")


def test_every_src_function_runs_outside_unit_tests(unran):
    traced = _layer_entry_points()
    functions = [where for name, where in unran if not _is_dunder(name) and name not in traced]
    assert not functions, f"defined but run only by unit tests: {functions}"


def test_every_src_dunder_but_repr_runs_outside_unit_tests(unran):
    """An operator such as `+` or `__array__` is reached by no name, so it
    must run in the same pass; `__repr__` serves debugging alone."""
    dunders = [where for name, where in unran
               if _is_dunder(name) and not name.endswith(".__repr__")]
    assert not dunders, f"dunders run only by unit tests: {dunders}"


def test_a_cached_function_runs_in_the_profile_only_when_called():
    module = types.ModuleType("synthetic")
    exec("import functools\n"
         "class Table:\n"
         "    @functools.cache\n"
         "    def row(self, n):\n"
         "        return n\n"
         "@functools.cache\n"
         "def digits(n):\n"
         "    return n\n", vars(module))
    table = module.Table()
    module.digits(3), table.row(3)   # an earlier test filled both caches
    keys = {(f.__code__.co_filename, f.__code__.co_firstlineno)
            for f in (module.digits.__wrapped__, module.Table.row.__wrapped__)}
    assert keys <= _profiled([module], lambda: (module.digits(3), table.row(3)))
    assert not keys & _profiled([module], lambda: None)


def test_a_method_is_reached_only_through_attributes():
    tree = ast.parse(
        "class A:\n"
        "    def order(self): pass\n"
        "    def degree(self): pass\n"
        "def helper(): pass\n"
        "def caller(a):\n"
        "    order = a.degree()\n"
        "    return helper(), order\n")
    assert sorted(_unreached({"m.py": tree}, set(), set())) == ["m.py:2 order", "m.py:5 caller"]
    assert _unreached({"m.py": tree}, set(), {"order", "caller"}) == []


def test_every_import_is_used():
    unused = {}
    for path in [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        names = _unused_imports(ast.parse(path.read_text()))
        if names:
            unused[path.name] = names
    assert not unused, f"imported but never used: {unused}"
    assert _unused_imports(ast.parse(
        "from __future__ import annotations\nimport a.b\nimport c as d\n"
        "from e import f, g\n__all__ = ['g']\na.b()\n")) == ["d", "f"]


def _assertion_raises(tree):
    """The innermost enclosing function (or "<module>") of every
    `raise AssertionError` in a module tree."""
    out = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None and any(
                    isinstance(n, ast.Name) and n.id == "AssertionError"
                    for n in ast.walk(child.exc)):
                out.append(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            walk(child, child.name if is_def else owner)

    walk(tree, "<module>")
    return out


def test_only_the_tower_precondition_raises_assertion_error():
    sites = [f"{path.name}:{owner}" for path in sorted(SRC.glob("*.py"))
             for owner in _assertion_raises(ast.parse(path.read_text()))]
    assert sites == ["tower.py:proper_tower_report"]
    assert _assertion_raises(ast.parse(
        "raise AssertionError\n"
        "def f():\n"
        "    def g():\n"
        "        raise AssertionError('x')\n"
        "    raise ValueError\n")) == ["<module>", "g"]


def _calls(tree):
    """(enclosing qualname or "<module>", callee name) of every call in a
    module tree whose callee is a name or an attribute; `cls(...)` is a call
    of the enclosing class."""
    out = []

    def walk(node, owner, prefix, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.append((owner, cls_name if name == "cls" else name))
            if isinstance(child, ast.ClassDef):
                walk(child, owner, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{prefix}{child.name}", f"{prefix}{child.name}.", cls_name)
            else:
                walk(child, owner, prefix, cls_name)

    walk(tree, "<module>", "", None)
    return out


def test_only_the_face_double_complex_builds_a_double_complex():
    sites = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for owner, callee in _calls(ast.parse(path.read_text())):
            if callee == "DoubleComplex":
                sites[callee].append(f"{path.name}:{owner}")
    assert sites == {"DoubleComplex": ["linalg.py:face_double_complex"]}
    assert _calls(ast.parse(
        "class DoubleComplex:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n"
        "def build():\n"
        "    return DoubleComplex.make()\n"
        "DoubleComplex()\n")) == [("DoubleComplex.make", "DoubleComplex"),
                                  ("build", "make"), ("<module>", "DoubleComplex")]


_GOLDENS_THEN_MODULES = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from hhdx.cli import main
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if main([*argv, "--json"]) != 0:
            sys.exit(f"{argv} did not report")
print(json.dumps(sorted(sys.modules)))
"""


def test_no_report_imports_numpy_ma():
    uses = [f"{path.name}:{node.lineno} np.{node.attr}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("isin", "unique")
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert not uses, f"numpy set operations in src/hhdx: {uses}"
    argv = json.dumps([argv for argv, _ in GOLDEN_CASES])
    run = subprocess.run([sys.executable, "-c", _GOLDENS_THEN_MODULES, str(SRC.parent), argv],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    modules = json.loads(run.stdout)
    assert "hhdx.linalg" in modules and "numpy.ma" not in modules
