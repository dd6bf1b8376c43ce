"""Every public function and method of ``volseg`` has a caller.

The package is parsed with ``ast``.  A public module-level function, or
a public method of a public module-level class, passes when its name is
used somewhere in ``src/volseg`` outside its own body (as a name or as
an attribute, so a method is matched by name whatever the receiver), or
when it is exported in ``volseg.__all__``.  Code that only tests call
fails here: give it a caller or delete it with its tests.
"""

import ast
from collections import Counter
from pathlib import Path

import volseg

SRC = Path(volseg.__file__).resolve().parent


def used_names(node: ast.AST) -> Counter:
    """Names read as identifiers or attributes anywhere under ``node``."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def public_definitions(tree: ast.Module):
    """(qualified name, def node) of public functions and of the public
    methods of public classes, all at module level."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def uncalled() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    everywhere: Counter = Counter()
    for tree in modules.values():
        everywhere.update(used_names(tree))
    exported = set(volseg.__all__)
    out = []
    for module, tree in modules.items():
        for qualname, node in public_definitions(tree):
            if qualname in exported:
                continue
            elsewhere = everywhere[node.name] - used_names(node)[node.name]
            if elsewhere <= 0:
                out.append(f"{module}.{qualname}")
    return out


def test_every_public_function_has_a_caller():
    assert uncalled() == []


def test_guard_sees_functions_and_methods():
    tree = ast.parse(
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class C:\n    def method(self):\n        return self.other()\n"
        "    def other(self):\n        return 2\n"
        "    def _private(self):\n        return 3\n"
        "class _Hidden:\n    def hook(self):\n        return 4\n"
    )
    names = {q: node for q, node in public_definitions(tree)}
    assert sorted(names) == ["C.method", "C.other", "helper", "recursive", "used"]
    everywhere = used_names(tree)
    unused = sorted(q for q, node in names.items() if everywhere[node.name] - used_names(node)[node.name] <= 0)
    assert unused == ["C.method", "recursive", "used"]
