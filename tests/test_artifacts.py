"""The one way volseg writes a CSV or JSON artifact.

``volseg.artifacts`` holds the cell rule and both file layouts.  The cell
rule is checked against exact output bytes, and an ``ast`` guard fails
when any other module builds a ``csv`` writer or an indented
``json.dumps`` of its own.
"""

import ast
import datetime as dt
from pathlib import Path

import pytest

import volseg
from volseg.artifacts import write_csv, write_json

SRC = Path(volseg.__file__).resolve().parent

CELLS = [
    (None, b""),
    (True, b"true"),
    (False, b"false"),
    (0.1 + 0.2, b"0.30000000000000004"),
    (-0.0, b"-0.0"),
    (float("inf"), b"inf"),
    (float("nan"), b"nan"),
    (1e-300, b"1e-300"),
    (dt.date(2006, 3, 1), b"2006-03-01"),
    (
        dt.datetime(2006, 3, 1, 14, 30, tzinfo=dt.timezone(dt.timedelta(hours=-5))),
        b"2006-03-01T14:30:00-05:00",
    ),
    (7, b"7"),
    ('a,"b"\nc', b'"a,""b""\nc"'),
]


@pytest.mark.parametrize("value, text", CELLS, ids=[repr(v) for v, _ in CELLS])
def test_cell_rule(tmp_path, value, text):
    path = tmp_path / "t.csv"
    write_csv(path, ("x", "y"), [(value, 1)])
    assert path.read_bytes() == b"x,y\n" + text + b",1\n"


def test_json_layout(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": [0.1], "a": {"d": None, "c": True}})
    assert path.read_bytes() == b'{\n "a": {\n  "c": true,\n  "d": null\n },\n "b": [\n  0.1\n ]\n}\n'


def test_json_rejects_other_objects(tmp_path):
    with pytest.raises(TypeError, match="Path"):
        write_json(tmp_path / "t.json", {"source": tmp_path})


def own_writers(tree: ast.AST) -> list[int]:
    """Lines that call ``csv.writer``, ``csv.DictWriter`` or ``json.dumps``
    with an ``indent``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if not isinstance(owner, ast.Name):
            continue
        call = f"{owner.id}.{node.func.attr}"
        indented = any(k.arg == "indent" for k in node.keywords)
        if call in ("csv.writer", "csv.DictWriter") or (call == "json.dumps" and indented):
            found.append(node.lineno)
    return found


def test_only_artifacts_writes_csv_and_indented_json():
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "artifacts.py"
        for line in own_writers(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []
    assert own_writers(ast.parse((SRC / "artifacts.py").read_text())) != []


def test_guard_sees_writers():
    tree = ast.parse(
        "w = csv.writer(fh)\n"
        "d = csv.DictWriter(fh, fields)\n"
        "s = json.dumps(x, sort_keys=True, indent=1)\n"
        "t = json.dumps(x)\n"
        "w.writerow(row)\n"
        "r = csv.reader(fh)\n"
    )
    assert own_writers(tree) == [1, 2, 3]
