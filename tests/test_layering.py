"""Source rules checked on the syntax tree of every module in the package."""

import ast
from pathlib import Path

import esbsim

PACKAGE = Path(esbsim.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each `_private` name the module imports from another
    module, or reads as an attribute of a name it imported."""
    imported: set[str] = set()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
                if any(map(_private, alias.name.split("."))):
                    uses.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                uses.append((node.lineno, ast.unparse(node)))
    return sorted(uses)


def test_no_module_uses_another_modules_private_names():
    found = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := _foreign_private_uses(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_the_rule_sees_imports_and_attribute_reads():
    tree = ast.parse(
        "from .link import STAGES, _hidden\n"
        "from . import link\n"
        "import numpy as np\n"
        "x = link._table\n"
        "y = np.random._philox\n"
        "z = link.__doc__\n"
        "self._own = 1\n"
    )
    assert _foreign_private_uses(tree) == [(1, "_hidden"), (4, "link._table"), (5, "np.random._philox")]
