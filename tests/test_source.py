"""Every top-level function and class of the package, and every method of
those classes, is used by other package code: an API only the tests
call belongs in the tests."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tdxray"

# bound by name from outside the package: the benchmark's tracer counts
# the rays traced through it
OUTSIDE_CALLERS = {"geodesic_trace"}


def definitions(tree):
    """(name, node, is_method) for each top-level function and class of
    the module and each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield sub.name, sub, True


def uses(tree):
    """Counts of the names loaded and of the attributes read in tree."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def unused_definitions(src: Path) -> list[str]:
    modules = {path: ast.parse(path.read_text())
               for path in sorted(src.rglob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in modules.values():
        n, a = uses(tree)
        names += n
        attrs += a
    unused = []
    for path, tree in modules.items():
        for name, node, is_method in definitions(tree):
            # a definition's uses inside itself (recursion) do not count
            own_names, own_attrs = uses(node)
            count = attrs[name] - own_attrs[name]
            if not is_method:
                count += names[name] - own_names[name]
            if count == 0 and name not in OUTSIDE_CALLERS:
                unused.append(f"{path.relative_to(src)}:{node.lineno} {name}")
    return unused


def test_every_definition_has_a_caller_in_src():
    assert unused_definitions(SRC) == []
