"""The library keeps only what the program reaches.

Every top-level function and class of ``src/latticehk``, and every method
of those classes, must be referenced somewhere in ``src/latticehk`` or
``perfbench``; ``__init__.py`` re-exports do not count.  A helper that only
a test calls belongs in that test.  References are read off the syntax
tree, so a docstring, a comment or a local variable of the same name does
not count: a function or class is referenced by a loaded name, an attribute
or an imported name, a method by an attribute, and both by the dotted
paths of ``perfbench/spans.py``'s ``TRACED``, which the tracer looks up.
Dunders and the ``@register`` check runners, which the registry calls by
id, are exempt.

Every field of a top-level ``@dataclass`` must also be read as an
attribute somewhere in ``src/latticehk`` or ``perfbench``: a field that is
only set holds data nothing uses.

No library module reaches into another one's underscore names, by import or
through an imported module: each module owns its private formats (the grid
of ``geometry`` is read only through its public functions).

Only ``geometry`` touches a spacetime's orbit memo, so that no caller reads
a stored result past the window check the geometry operations make.

No test imports or reads an underscore name of ``checks``, ``instances`` or
``oracles``: what a test draws, builds or confirms with is public there.

Only ``RunContext`` turns a truth value into ``"pass"`` or ``"fail"``: a
runner hands ``record`` a bool or ``tally_over`` its instances, so that no
runner grows a verdict rule of its own.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticehk"


def _is_runner(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "register" for d in node.decorator_list)


def _definitions(tree):
    """(qualified name, node, is a method) of each top-level function and
    class and of each method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    yield f"{node.name}.{sub.name}", sub, True


def _traced_names(tree) -> set:
    """Every component of the attribute paths in ``TRACED``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            for entry in node.value.elts:
                out.update(entry.elts[2].value.split("."))
    return out


def _dataclass_fields(tree):
    """(qualified name, line) of each field of a top-level ``@dataclass``,
    whether the decorator is called or not."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                == "dataclass" for d in node.decorator_list):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and \
                        isinstance(sub.target, ast.Name):
                    yield f"{node.name}.{sub.target.id}", sub.lineno


def _loaded_attributes(trees) -> set:
    """The attribute names read (not set) in ``trees``."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _references(trees):
    """(names, attributes) referenced in ``trees``: loaded names and
    imported names, and attribute names."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _trees():
    """The syntax trees of the library modules, by file name, and of the
    benchmark's modules."""
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    trees = {p.name: ast.parse(p.read_text()) for p in modules}
    bench = [ast.parse(p.read_text())
             for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return trees, bench


def _unused():
    trees, bench = _trees()
    names, attrs = _references([*trees.values(), *bench])
    traced = set().union(*map(_traced_names, bench))
    out = []
    for module, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or \
                    _is_runner(node):
                continue
            used = attrs | traced if method else names | attrs | traced
            if name not in used:
                out.append(f"{module}:{node.lineno} {qualname}")
    return out


def test_every_library_definition_is_reached_outside_the_tests():
    assert _unused() == []


def test_every_dataclass_field_is_read():
    trees, bench = _trees()
    read = _loaded_attributes([*trees.values(), *bench])
    unread = [f"{module}:{line} {qualname}"
              for module, tree in trees.items()
              for qualname, line in _dataclass_fields(tree)
              if qualname.split(".")[1] not in read]
    assert unread == []


def _private_reaches():
    """``importer <- module.name`` for each underscore name that a library
    module imports from another library module, or reads off one it
    imported."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").startswith("latticehk")):
                continue
            source = (node.module or "").split(".")[-1]
            for a in node.names:
                if a.name.startswith("_"):
                    out.append(f"{path.stem} <- "
                               + (f"{source}." if source else "") + a.name)
                elif not source:
                    aliases[a.asname or a.name] = a.name
        out += [f"{path.stem} <- {aliases[node.value.id]}.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")]
    return out


def test_no_module_reaches_into_another_modules_private_names():
    assert _private_reaches() == []


def _memo_touches():
    """``module:line`` of each attribute ``_orbits``, or string naming it,
    in each library module."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "_orbits"
            or isinstance(node, ast.Constant) and node.value == "_orbits"]


def test_only_geometry_reads_the_orbit_memo():
    touches = _memo_touches()
    assert any(t.startswith("geometry.py:") for t in touches)
    assert [t for t in touches if not t.startswith("geometry.py:")] == []


# the modules whose underscore names no test may reach
_PUBLIC_TO_TESTS = ("checks", "instances", "oracles")


def _test_reaches():
    """``test file:line name`` for each underscore name of the modules above
    that a test imports, or reads off such a module it imported."""
    out = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    *(f"latticehk.{m}" for m in _PUBLIC_TO_TESTS),
                    "latticehk"):
                whole = node.module == "latticehk"
                for a in node.names:
                    if whole and a.name in _PUBLIC_TO_TESTS:
                        aliases.add(a.asname or a.name)
                    elif not whole and a.name.startswith("_"):
                        out.append(f"{path.name}:{node.lineno} {a.name}")
            elif isinstance(node, ast.Import):
                aliases.update(a.asname for a in node.names
                               if a.asname and a.name in
                               (f"latticehk.{m}" for m in _PUBLIC_TO_TESTS))
        out += [f"{path.name}:{node.lineno} {node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")]
    return out


def test_no_test_reaches_into_the_registrys_private_names():
    assert _test_reaches() == []


def _verdict_expressions():
    """``checks.py:line`` of each conditional expression choosing between
    ``"pass"`` and ``"fail"`` outside ``RunContext``."""
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "RunContext"
              for node in ast.walk(cls)}
    return [f"checks.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.IfExp) and id(node) not in inside
            and {getattr(node.body, "value", None),
                 getattr(node.orelse, "value", None)} == {"pass", "fail"}]


def test_only_the_run_context_writes_pass_or_fail():
    assert _verdict_expressions() == []
