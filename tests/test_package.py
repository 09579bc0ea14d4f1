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


def package_trees():
    """The syntax tree of each module of the package, by file name."""
    root = Path(overlap.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def loaded_names(tree):
    """Every name the tree reads: plain names, attributes and the names
    an import takes from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def exported(tree):
    """The names in the module's __all__, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used_or_exported():
    unused = []
    for name, tree in package_trees().items():
        if name == "__init__.py":
            continue  # the package's imports are its public names
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name for alias in node.names]
                unused += [(name, b) for b in bound
                           if b.split(".")[0] not in used]
    assert unused == []


def test_every_private_name_is_referenced():
    """A module-level _name that nothing in the package reads is dead."""
    trees = package_trees()
    read = set().union(*map(loaded_names, trees.values()))
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            else:
                continue
            dead += [(name, d) for d in defined
                     if d.startswith("_") and not d.startswith("__")
                     and d not in read]
    assert dead == []
