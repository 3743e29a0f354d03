"""Every exported name resolves."""

import importlib
import pkgutil

import pencilkde


def test_every_export_resolves():
    modules = [pencilkde] + [
        importlib.import_module(f"pencilkde.{info.name}")
        for info in pkgutil.iter_modules(pencilkde.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
