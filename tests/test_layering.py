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


# Public names that no other code in the package reads, each with the reason
# it stays public.  Every other public name needs a reader in the package:
# one that only tests read is dead code.
API = {
    "retransmission_delay_moments": "the closed-form copy mixture the attempt kernel is tested against (README)",
}


def _public_definitions(tree: ast.Module):
    """(label, name, node, is_method) of each public top-level name and each
    public method and property of a public top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                yield name, name, node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _unread_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """Labels of the public definitions with no read outside their own
    body.  A read is a loaded name or, for a method, a loaded attribute of
    that name; the match is by name, so a read of an equal name elsewhere
    counts."""
    reads: dict[str, list[tuple[str, int, bool]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, node.lineno, True))
    unread = []
    for module, tree in trees.items():
        for label, name, node, is_method in _public_definitions(tree):
            if not any(
                (where != module or not node.lineno <= line <= node.end_lineno) and (attribute or not is_method)
                for where, line, attribute in reads.get(name, [])
            ):
                unread.append(label)
    return sorted(unread)


def test_every_public_name_has_a_reader_in_the_package_or_a_reason():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_public_names(trees) == sorted(API)


def test_the_reader_rule_sees_definitions_reads_and_bodies():
    defining = ast.parse(
        "LIMIT = 3\n"
        "A, B = 1, 2\n"
        "def used(): return LIMIT\n"
        "def recursive(): return recursive()\n"
        "def _private(): pass\n"
        "class Box:\n"
        "    size: int = A\n"
        "    def read(self): return self.write()\n"
        "    def write(self): return Box\n"
        "    @property\n"
        "    def depth(self): return 0\n"
        "    def __len__(self): return 0\n"
    )
    # a bare `read` is no read of the method Box.read
    reading = ast.parse("from .defining import used\ndef _run(box):\n    return used(), box.depth, read\n")
    assert _unread_public_names({"defining.py": defining, "reading.py": reading}) == [
        "B", "Box", "Box.read", "recursive",
    ]


# Defaulted parameters of public functions and methods that no call in the
# package passes, each with the reason it stays.  Every other default needs a
# call in the package that passes it: a parameter only tests pass is dead code.
API_PARAMETERS = {
    "main(argv=)": "tests and the benchmark run the command line in-process",
}


def _defaulted_parameters(node: ast.FunctionDef, is_method: bool) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default; the position counts
    a call's positional arguments (a method's first parameter is its
    object's), and a keyword-only parameter has none."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    bound = is_method and not any(
        isinstance(decorator, ast.Name) and decorator.id == "staticmethod" for decorator in node.decorator_list
    )
    first_default = len(positional) - len(args.defaults)
    defaulted = [(index - bound, arg.arg) for index, arg in enumerate(positional) if index >= first_default]
    return defaulted + [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call passes the parameter: by keyword, by position, or
    through a `*` or `**` argument."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (starred or len(call.args) > position)


def _unpassed_parameters(trees: dict[str, ast.Module]) -> list[str]:
    """`label(name=)` of each defaulted parameter of a public function or
    method that no call outside its own body passes.  A call is matched by
    the called name, as reads are; a method only by an attribute call."""
    calls: dict[str, list[tuple[str, ast.Call, bool]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.setdefault(node.func.id, []).append((module, node, False))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.setdefault(node.func.attr, []).append((module, node, True))
    unpassed = []
    for module, tree in trees.items():
        for label, name, node, is_method in _public_definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for position, parameter in _defaulted_parameters(node, is_method):
                if not any(
                    (where != module or not node.lineno <= call.lineno <= node.end_lineno)
                    and (attribute or not is_method)
                    and _passes(call, position, parameter)
                    for where, call, attribute in calls.get(name, [])
                ):
                    unpassed.append(f"{label}({parameter}=)")
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed_in_the_package_or_has_a_reason():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert _unpassed_parameters(trees) == sorted(API_PARAMETERS)


def test_the_parameter_rule_sees_positions_keywords_and_bodies():
    defining = ast.parse(
        "def f(a, b=1, *, c=2, d=3): return f(a, d=0)\n"
        "def g(a=1, b=2): pass\n"
        "def _private(a=1): pass\n"
        "class Box:\n"
        "    def put(self, item=None, *, force=False): pass\n"
        "    @staticmethod\n"
        "    def make(size=0): pass\n"
    )
    # a bare `put` call is no call of the method Box.put
    calling = ast.parse(
        "from .defining import Box, f, g\n"
        "def _run(box, args, options):\n"
        "    f(0, 1)\n"
        "    g(*args)\n"
        "    box.put(1)\n"
        "    Box.make(**options)\n"
        "    put(force=True)\n"
    )
    assert _unpassed_parameters({"defining.py": defining, "calling.py": calling}) == [
        "Box.put(force=)", "f(c=)", "f(d=)",
    ]
