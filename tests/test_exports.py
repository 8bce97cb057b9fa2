import importlib
import pkgutil

import minrep


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone fails here, not at
    # a user's `from minrep import *`
    modules = [minrep] + [
        importlib.import_module(f"minrep.{info.name}")
        for info in pkgutil.iter_modules(minrep.__path__)
    ]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
