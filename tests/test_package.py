import ast
import importlib
import pkgutil
from pathlib import Path

import overlap


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(overlap.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        mod = importlib.import_module("overlap." + info.name)
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (info.name, missing)


def test_no_argsort_in_package():
    """Every ordering goes through family.sort_order's packed sort: no
    name, attribute or import called argsort appears in the package."""
    found = []
    for path in sorted(Path(overlap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (getattr(node, "attr", None), getattr(node, "id", None),
                     getattr(node, "name", None))
            if "argsort" in names:
                found.append((path.name, node.lineno))
    assert found == []
