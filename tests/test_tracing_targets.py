"""Every span target of the benchmark's tracer resolves in the library.

``bench/tracing.py`` wraps functions by replacing module attributes: the
defining module's and each importer's that looks the name up by itself.  A
target that no longer resolves makes ``bench/run.py --trace 1`` fail, so
each is checked here without running the benchmark.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module, attr, importers", _targets())
def test_tracing_target_resolves(name, module, attr, importers):
    mod = importlib.import_module("mealyforge." + module)
    owner, _, leaf = attr.rpartition(".")
    holder = getattr(mod, owner) if owner else mod
    original = getattr(holder, leaf)
    assert callable(original), name
    for importer in importers:
        place = importlib.import_module("mealyforge." + importer)
        assert getattr(place, leaf) is original, (name, importer)
