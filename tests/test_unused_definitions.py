"""The library keeps only what the program reaches.

Every top-level function and class of ``src/latticehk``, and every method
of those classes, must be named somewhere in ``src/latticehk`` or
``perfbench`` besides its own definition; ``__init__.py`` re-exports do not
count.  A helper that only a test calls belongs in that test.  Dunders and
the ``@register`` check runners, which the registry calls by id, are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticehk"


def _is_runner(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "register" for d in node.decorator_list)


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and
    of each method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    yield f"{node.name}.{sub.name}", sub


def _unused():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    named = Counter()
    for p in modules + sorted((ROOT / "perfbench").glob("*.py")):
        named.update(re.findall(r"\w+", p.read_text()))
    trees = {p.name: ast.parse(p.read_text()) for p in modules}
    # a name defined n times is named n times by its own definitions
    defined = Counter(n.name for tree in trees.values()
                      for n in ast.walk(tree)
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef)))
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or \
                    _is_runner(node):
                continue
            if named[name] <= defined[name]:
                out.append(f"{module}:{node.lineno} {qualname}")
    return out


def test_every_library_definition_is_reached_outside_the_tests():
    assert _unused() == []
