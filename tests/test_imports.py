"""Every module imports and every package ``__all__`` resolves."""

import importlib
import pkgutil

import repro


def test_every_module_imports_and_every_export_resolves():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + ".")
    ]
    assert len(names) > 50  # the walk really descended into the packages
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"{name}.__all__ names {export!r}"
