import importlib
import inspect
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
