"""Every module-level import in the package is read by its module.

No linter ships with the package's dependencies, so this test stands in
for the unused-import rule. A name counts as used if the module reads it
anywhere or lists it in __all__.
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


def test_the_checker_flags_an_unused_import(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text("import json\nimport os\nfrom math import pi, tau\n"
                    "__all__ = ['tau']\nprint(os.sep)\n")
    assert _unused_imports(str(path)) == ["json", "pi"]
