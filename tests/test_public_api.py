import ast
import importlib
import inspect
import pathlib
import pkgutil

import eigmatch

# modules whose names are reached through their module, not re-exported
_NOT_REEXPORTED = ("cli", "problems")


def _library_modules():
    return [importlib.import_module(f"eigmatch.{info.name}")
            for info in pkgutil.iter_modules(eigmatch.__path__)
            if info.name not in _NOT_REEXPORTED]


def test_package_reexports_exactly_the_library_all():
    modules = _library_modules()
    assert {m.__name__ for m in modules} >= {"eigmatch.core", "eigmatch.toeplitz"}
    declared = set().union(*(m.__all__ for m in modules))
    exported = {name for name, value in vars(eigmatch).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == declared
    for module in modules:
        for name in module.__all__:  # a name left in __all__ after its deletion fails here
            assert getattr(eigmatch, name) is getattr(module, name)


def _loaded_names(node):
    """Every name and attribute that ``node`` reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_public_name_is_used_in_the_package():
    # a name only the tests call belongs under tests/, not in the library;
    # neither its own definition nor the __init__ re-export counts as a use
    declared, used = {}, set()
    for path in sorted(pathlib.Path(eigmatch.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = [ast.unparse(t) for t in getattr(stmt, "targets", ())]
            if targets == ["__all__"]:
                declared.update((name, path.stem) for name in ast.literal_eval(stmt.value))
                continue
            own = getattr(stmt, "name", None)
            used.update(name for name in _loaded_names(stmt) if name != own)
    assert {"core", "problems"} <= set(declared.values())
    unused = {name: module for name, module in declared.items() if name not in used}
    assert unused == {}
