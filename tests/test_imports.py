"""Every module-level import in the package is read by its module, and
every module-level private name is read somewhere in the package.

No linter ships with the package's dependencies, so these tests stand in
for the unused-import and dead-code rules. An import counts as used if the
module reads it anywhere or lists it in __all__; a private function, class
or constant (one leading underscore) if any module of the package reads it,
by name or as an attribute.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "kostant_toda")

# kept on purpose: perfbench patches resolvent.integrate by name (ROADMAP item 6)
KEPT = {("resolvent", "integrate")}


def _unused_imports(path):
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return sorted(name for name in imported if name not in read)


MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.basename(p)[:-3])
def test_no_unused_module_level_import(path):
    module = os.path.basename(path)[:-3]
    unused = [name for name in _unused_imports(path) if (module, name) not in KEPT]
    assert not unused, f"{module}: unused imports {unused}"


def _unread_privates(paths):
    """(module, name) of each module-level private function, class or
    constant in paths that no module among them reads."""
    defined, read = [], set()
    for path in paths:
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return sorted((module, name) for module, name in defined if name not in read)


def test_no_unread_module_level_private_name():
    assert _unread_privates(MODULES) == []


def test_the_checker_flags_an_unused_import(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text("import json\nimport os\nfrom math import pi, tau\n"
                    "__all__ = ['tau']\nprint(os.sep)\n")
    assert _unused_imports(str(path)) == ["json", "pi"]


def test_the_checker_flags_an_unread_private_name(tmp_path):
    (tmp_path / "one.py").write_text(
        "import two\n_LIMIT = 3\n_DEAD: int = 4\n__all__ = ['run']\n"
        "def _used():\n    return _LIMIT\n"
        "def _dead():\n    pass\n"
        "class _Gone:\n    pass\n"
        "def run():\n    return _used() + two._helper()\n"
    )
    (tmp_path / "two.py").write_text("def _helper():\n    return 1\n_x = _y = 0\n")
    paths = [str(tmp_path / "one.py"), str(tmp_path / "two.py")]
    assert _unread_privates(paths) == [
        ("one", "_DEAD"), ("one", "_Gone"), ("one", "_dead"), ("two", "_x"), ("two", "_y"),
    ]
