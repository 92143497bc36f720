"""The package imports nothing outside the standard library, exports
nothing that is dead, and defines nothing dead that it does not export."""

import ast
import functools
import sys
from pathlib import Path

import simplexboundary

PACKAGE = Path(simplexboundary.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

#: Exported names that no package code uses: the tests reach them, and
#: README says why each stays public.
TEST_REACHED = {
    "check_comfort",
    "extend_from_layer",
    "min_value",
    "on_boundary",
    "on_cross",
    "pl_compose",
    "point_homology",
    "tau_polygon",
}


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


def _defined_names(node: ast.stmt) -> list:
    """The names a top-level statement defines: a function, a class or a
    constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


@functools.cache
def _modules() -> dict:
    """Every package module but ``__init__``, parsed, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _used_by_package(name: str, home: str) -> bool:
    """Whether package code uses ``name``, defined in module ``home``: ``home``
    reads it outside its own definition, or another module imports it from
    ``home``.  A local of the same name elsewhere is another object."""
    for module, tree in _modules().items():
        if module == home:
            definitions = [n for n in tree.body if name in _defined_names(n)]
            inside = {id(node) for d in definitions for node in ast.walk(d)}
            uses = (n for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            if any(n.id == name and id(n) not in inside for n in uses):
                return True
        else:
            imports = (n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1)
            if any(n.module == home and name in {alias.name for alias in n.names} for n in imports):
                return True
    return False


def _exports() -> list:
    """The (name, module) pairs that ``__init__`` imports."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [(alias.name, node.module) for node in init.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_every_export_is_used_or_test_reached():
    exports = _exports()
    assert len(exports) > len(TEST_REACHED)
    assert {name for name, home in exports if not _used_by_package(name, home)} == TEST_REACHED
    readme = README.read_text(encoding="utf-8")
    assert [name for name in sorted(TEST_REACHED) if f"`{name}`" not in readme] == []


def test_every_unexported_name_is_used():
    exports = set(_exports())
    for module, tree in _modules().items():
        names = [name for node in tree.body for name in _defined_names(node)]
        assert names
        dead = [name for name in names if (name, module) not in exports and not _used_by_package(name, module)]
        assert dead == [], f"{module} defines names that nothing uses"
