"""Every public function and method of ``volseg`` has a caller, and
every field of its public dataclasses a reader.

The package is parsed with ``ast``.  A public module-level function, or
a public method of a public module-level class, passes when its name is
used somewhere in ``src/volseg`` outside its own body (as a name or as
an attribute, so a method is matched by name whatever the receiver), or
when it is exported in ``volseg.__all__``.  Code that only tests call
fails here: give it a caller or delete it with its tests.

A field of a public module-level ``@dataclass`` passes when its name is
read as an attribute somewhere in ``src/volseg`` outside its own class
body, whatever the receiver.  A field that is only written is state
every run builds and throws away: give it a reader or delete it.

An option that ``volseg.cli`` declares with ``add_argument`` passes when
``volseg.cli`` reads it as ``args.<dest>``.  An option that no command
reads only echoes into ``resolved_config.json``: read it or delete it.
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


def attributes_read(node: ast.AST) -> Counter:
    """Names read as attributes anywhere under ``node``."""
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def is_dataclass_decorator(node: ast.expr) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or the same through a module attribute."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass") or (
        isinstance(node, ast.Attribute) and node.attr == "dataclass"
    )


def dataclass_fields(tree: ast.Module):
    """(qualified name, field name, class node) of each field of each
    public module-level dataclass."""
    for node in tree.body:
        if (
            isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")
            and any(map(is_dataclass_decorator, node.decorator_list))
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id, node


# fields no stage reads that stay, with the reason each stays
UNREAD_FIELDS = {
    "analysis.MatchedGroup.missing": "the release criterion 8 test builds MatchedGroup(reference, shocks, missing)",
    "cluster.ClusterAssignment.policy": "criterion 7 builds ClusterAssignment(..., policy=...)",
}


def unread(modules: dict[str, ast.Module]) -> list[str]:
    """Qualified names of the dataclass fields of ``modules`` (module
    name -> parsed source) that no code outside their class reads."""
    everywhere: Counter = Counter()
    for tree in modules.values():
        everywhere.update(attributes_read(tree))
    out = []
    for module, tree in modules.items():
        for qualname, name, owner in dataclass_fields(tree):
            if everywhere[name] - attributes_read(owner)[name] <= 0:
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


def test_every_dataclass_field_has_a_reader():
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert unread(modules) == sorted(UNREAD_FIELDS)


def test_guard_sees_unread_fields():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n    x: float\n    y: float\n    z: float\n"
        "    label: str = ''\n    tags: list = field(default_factory=list)\n"
        "    def norm(self):\n        return self.x + self.label\n"
        "@dataclasses.dataclass\n"
        "class Box:\n    corner: Point\n    LIMIT = 3\n"
        "@dataclass\n"
        "class _Hidden:\n    secret: int\n"
        "class Plain:\n    size: int\n"
        "def area(box, p):\n"
        "    p.z = 2\n"
        "    return box.corner.y * p.tags\n"
    )
    fields = [(q, name) for q, name, _ in dataclass_fields(tree)]
    assert fields == [
        ("Point.x", "x"), ("Point.y", "y"), ("Point.z", "z"), ("Point.label", "label"), ("Point.tags", "tags"),
        ("Box.corner", "corner"),
    ]
    # x and label are read only in their own class, and z is only written
    assert unread({"m": tree}) == ["m.Point.x", "m.Point.z", "m.Point.label"]


# options no command reads that stay, with the reason each stays
UNREAD_OPTIONS = {
    "seed": "the release criterion 10 test passes --seed; resolved_config.json records it",
}


def option_dests(tree: ast.AST):
    """The dest of each option an ``add_argument`` call under ``tree``
    declares: its ``dest=``, else its first long name, else its first name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
            dest = [k.value.value for k in node.keywords if k.arg == "dest"]
            names = [a.value for a in node.args if isinstance(a, ast.Constant)]
            names = dest or [n for n in names if n.startswith("--")] or names
            yield names[0].lstrip("-").replace("-", "_")


def unread_options(tree: ast.AST) -> list[str]:
    """Sorted dests of the options under ``tree`` never read as ``args.<dest>``."""
    read = {
        sub.attr
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Load)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "args"
    }
    return sorted(set(option_dests(tree)) - read)


def test_every_option_is_read():
    assert unread_options(ast.parse((SRC / "cli.py").read_text())) == sorted(UNREAD_OPTIONS)


def test_guard_sees_unread_options():
    tree = ast.parse(
        "def build(p):\n"
        "    p.add_argument('inputs', nargs='+')\n"
        "    p.add_argument('--k-min', type=int)\n"
        "    p.add_argument('-q', '--quiet', action='store_true')\n"
        "    p.add_argument('--level', dest='depth')\n"
        "    p.add_argument('--unused')\n"
        "def run(args, other):\n"
        "    args.unused = other.depth\n"
        "    return args.inputs, args.k_min, args.quiet\n"
    )
    assert list(option_dests(tree)) == ["inputs", "k_min", "quiet", "depth", "unused"]
    # depth is read from another object, and unused is only written
    assert unread_options(tree) == ["depth", "unused"]
