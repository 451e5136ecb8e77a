"""The package's export lists name only objects that exist, each exported where it lives."""

import importlib
import pkgutil

import awsde


def _submodules():
    return [importlib.import_module(f"awsde.{info.name}")
            for info in pkgutil.iter_modules(awsde.__path__)]


def test_every_exported_name_resolves():
    for module in [awsde] + _submodules():
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
        assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"


def test_every_package_export_is_exported_by_its_submodule():
    # a re-export of a name its submodule no longer exports is stale
    submodules = _submodules()
    stale = [
        name for name in awsde.__all__
        if name != "__version__"
        and not any(name in getattr(module, "__all__", ())
                    and getattr(module, name) is getattr(awsde, name)
                    for module in submodules)
    ]
    assert not stale, f"awsde.__all__ names no submodule exports: {stale}"
