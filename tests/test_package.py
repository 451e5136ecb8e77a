"""The package's export lists name only objects that exist."""

import importlib
import pkgutil

import awsde


def test_every_exported_name_resolves():
    modules = [awsde] + [
        importlib.import_module(f"awsde.{info.name}")
        for info in pkgutil.iter_modules(awsde.__path__)
    ]
    for module in modules:
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
        assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
