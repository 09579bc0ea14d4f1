import importlib
import pkgutil

import overlap


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(overlap.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        mod = importlib.import_module("overlap." + info.name)
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
