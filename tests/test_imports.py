"""No module of the package or of the tests imports a name at module level
that it never uses, no top-level name or method goes unused by the program, no
function assigns a name it never reads, validation does not drift back
onto assert statements, and checks return verdicts rather than bare bools."""

import ast
from collections import Counter
from pathlib import Path

import mfsym

SOURCES = sorted(Path(mfsym.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_unused_module_level_imports():
    unused = {}
    for path in SOURCES + sorted(Path(__file__).parent.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[path.name] = names
    assert not unused, unused


ROOT = Path(__file__).resolve().parent.parent


def _uses(node) -> Counter:
    """Names read or attributes accessed anywhere under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _program_trees() -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for folder in ("src", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))}


def test_every_public_top_level_name_is_used():
    """Each function and class of the package, private ones too, is named
    in src/ or perfbench/ outside its own definition: what only the tests
    reach is not part of the program (tests/oracles.py holds the references
    the tests compare against)."""
    trees = _program_trees()
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{path.name}:{node.name}"
              for path in SOURCES
              for node in trees[path.resolve()].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and uses[node.name] <= _uses(node)[node.name]]
    assert not unused, unused


def test_every_method_is_used():
    """Each method of a package class, dunders aside, is named in src/ or
    perfbench/ outside its own body, as a name or an attribute.  A string
    constant in perfbench/ counts as a use: its tracer wraps methods by the
    names in its tables."""
    trees = _program_trees()
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    uses.update(n.value for path, tree in trees.items() if "perfbench" in path.parts
                for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str))
    unused = [f"{path.name}:{cls.name}.{fn.name}"
              for path in SOURCES
              for cls in ast.walk(trees[path.resolve()]) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not (fn.name.startswith("__") and fn.name.endswith("__"))
              and uses[fn.name] <= _uses(fn)[fn.name]]
    assert not unused, unused


def _dead_assignments(tree: ast.Module) -> list[str]:
    """Plain `name = value` statements in a function that never reads name.
    Loop targets and tuple unpacking are not plain assignments."""
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        dead += [f"{fn.name}:{t.id} (line {node.lineno})"
                 for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name) and t.id not in read]
    return dead


def test_no_function_assigns_a_name_it_never_reads():
    dead = {path.name: names for path in SOURCES
            if (names := _dead_assignments(ast.parse(path.read_text(), filename=str(path))))}
    assert not dead, dead


# Asserts left in src/mfsym; python -O strips them, so none may guard input.
ASSERT_CEILING = 0


def test_assert_count_does_not_grow():
    count = sum(isinstance(node, ast.Assert)
                for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))
    assert count <= ASSERT_CEILING, count


def _bare_bool_checks(tree: ast.Module) -> list[str]:
    """Module-level functions named verify_*, validate_* or *_check that
    return a literal True or False instead of a Verdict."""
    return [f"{fn.name} (line {node.lineno})"
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            and (fn.name.startswith(("verify_", "validate_")) or fn.name.endswith("_check"))
            for node in ast.walk(fn)
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, bool)]


def test_checks_return_verdicts_not_bare_bools():
    bare = {path.name: names for path in SOURCES
            if (names := _bare_bool_checks(ast.parse(path.read_text(), filename=str(path))))}
    assert not bare, bare
