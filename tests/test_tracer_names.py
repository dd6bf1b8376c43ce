"""Every span name the benchmark tracer maps to a layer or counter exists.

``bench/tracer.py`` wraps volseg's public functions by name and files
their self time under ``LAYER_OF``.  A renamed function would silently
move its time into ``<module>.other``, so this checks each listed name
against the functions and methods the tracer actually wraps.  The tracer
is loaded by path and not modified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("volseg_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def is_wrapped(name: str) -> bool:
    """Whether ``Tracer.install`` puts a span of this name on a volseg function."""
    short, *rest = name.split(".")
    if short not in tracer.CLI_MODULES:
        return False
    module = importlib.import_module(f"volseg.{short}")
    if len(rest) == 1:
        fn = vars(module).get(rest[0])
        return (
            not rest[0].startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
        )
    if len(rest) == 2:
        cls_name, attr = rest
        classes = tracer.TRACED_METHODS.get(short, {})
        if cls_name not in classes or attr.startswith("_"):
            return False
        methods = classes[cls_name]
        if methods is not None and attr not in methods:
            return False
        raw = vars(getattr(module, cls_name)).get(attr)
        return inspect.isfunction(raw) or isinstance(raw, classmethod)
    return False


@pytest.mark.parametrize("name", sorted(set(tracer.LAYER_OF) | set(tracer.COUNTERS)))
def test_traced_name_resolves(name):
    assert is_wrapped(name), f"{name} names no function the tracer wraps"


def test_guard_rejects_unknown_names():
    assert not is_wrapped("ingest.series_to_parquet")
    assert not is_wrapped("divergence.PrefixSums.no_such_method")
    assert not is_wrapped("divergence.PrefixSums.__init__")
    assert not is_wrapped("nosuchmodule.f")
