"""Every exported name resolves, so deletions cannot leave stale exports."""

import importlib
import pkgutil

import ensq


def test_every_exported_name_resolves():
    modules = [ensq] + [
        importlib.import_module(f"ensq.{info.name}")
        for info in pkgutil.iter_modules(ensq.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
