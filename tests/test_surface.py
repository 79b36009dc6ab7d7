"""Guard: every function src/hhdx defines is reached by the package itself,
by the acceptance criteria and their oracles, or by the benchmark's traced
entry points.  API that only unit tests call cannot grow back unnoticed."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hhdx"
TRACER = ROOT / "perfbench" / "tracer.py"
REFERENCES = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py", TRACER]


def _references(tree):
    """Counts of the identifiers a tree uses: names, attributes and imports."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def _layer_entry_points(tree):
    """The qualname parts of perfbench's LAYERS ("module:Class.method")."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            specs = ast.literal_eval(node.value)
            return {part for entries in specs.values() for spec in entries
                    for part in spec.split(":")[1].split(".")}
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_src_function_is_reached_outside_unit_tests():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    in_src = sum((_references(tree) for tree in trees.values()), collections.Counter())
    outside = set()
    for path in REFERENCES:
        tree = ast.parse(path.read_text())
        outside |= set(_references(tree))
    outside |= _layer_entry_points(ast.parse(TRACER.read_text()))

    unreached = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if in_src[name] - _references(node)[name] > 0 or name in outside:
                continue
            unreached.append(f"{path.name}:{node.lineno} {name}")
    assert not unreached, f"defined but reached only by unit tests: {unreached}"
