"""Every call the benchmark's workloads make into volseg still binds.

``bench/workloads.py`` writes each workload's inputs with
``volseg.synthetic`` and builds ``manyleaf``'s calendar with
``TradingCalendar``.  A change to one of those signatures would break
the benchmark's set-up, which no other test runs.  The workloads file is
parsed with ``ast`` and not modified or imported; each call is bound to
the callee's ``inspect.signature`` with placeholder arguments.
"""

import ast
import inspect
from pathlib import Path

import pytest

from volseg import synthetic
from volseg.calendar import TradingCalendar

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
OWNERS = {"synthetic": synthetic, "TradingCalendar": TradingCalendar}


def owned_calls(tree: ast.AST):
    """(line, dotted name, call node) of each call of ``TradingCalendar``
    or of an attribute of ``synthetic`` or ``TradingCalendar``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "TradingCalendar":
            yield node.lineno, "TradingCalendar", node
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in OWNERS:
            yield node.lineno, f"{func.value.id}.{func.attr}", node


def binding_problem(name: str, call: ast.Call) -> str | None:
    """Why ``call`` cannot bind to the callee ``name`` names, or None."""
    owner, _, attr = name.partition(".")
    target = OWNERS[owner]
    if attr:
        if not hasattr(target, attr):
            return f"{owner} has no attribute {attr!r}"
        target = getattr(target, attr)
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return "unpacked arguments cannot be checked"
    args = [object()] * len(call.args)
    kwargs = {k.arg: object() for k in call.keywords}
    try:
        inspect.signature(target).bind(*args, **kwargs)
    except TypeError as exc:
        return str(exc)
    return None


CALLS = list(owned_calls(ast.parse(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH))))


def test_guard_sees_the_workload_calls():
    assert {name for _, name, _ in CALLS} == {
        "synthetic.make_demo_corpus", "synthetic.demo_sector_pieces", "synthetic.regime_returns",
        "synthetic.levels_from_returns", "synthetic.write_tick_file", "TradingCalendar",
        "TradingCalendar.from_range",
    }


@pytest.mark.parametrize("line, name, call", CALLS, ids=[f"{name}@{line}" for line, name, _ in CALLS])
def test_workload_call_binds(line, name, call):
    problem = binding_problem(name, call)
    assert problem is None, f"bench/workloads.py:{line}: {name}: {problem}"


def test_workload_attributes_exist():
    tree = ast.parse(WORKLOADS_PATH.read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "synthetic"
    }
    assert read and all(hasattr(synthetic, attr) for attr in read), sorted(read)


@pytest.mark.parametrize(
    "source",
    [
        "synthetic.write_tick_file(p, s, c, v, seed=1, ticks_per_half_hour=3)",
        "synthetic.make_demo_corpus(root, start=d)",
        "synthetic.demo_sector_pieces(0, 120, 14)",
        "synthetic.no_such_writer(p)",
        "TradingCalendar.from_range()",
        "synthetic.regime_returns(*pieces)",
    ],
)
def test_guard_rejects_calls_that_do_not_bind(source):
    ((_, name, call),) = owned_calls(ast.parse(source))
    assert binding_problem(name, call) is not None
