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


def argsort_uses(node, func=None):
    """The enclosing function of every name, attribute or import called
    argsort under node (None at module level)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    names = (getattr(node, "attr", None), getattr(node, "id", None),
             getattr(node, "name", None))
    uses = [func] if "argsort" in names else []
    for child in ast.iter_child_nodes(node):
        uses += argsort_uses(child, func)
    return uses


def test_argsort_only_in_sort_order_fallback():
    """Every ordering goes through family.sort_order; np.argsort appears
    once in the package, in its fallback for keys wider than 63 bits."""
    found = []
    for path in sorted(Path(overlap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, func) for func in argsort_uses(tree)]
    assert found == [("family.py", "sort_order")]
