"""The benchmark tracer wraps package functions by name; those names must exist.

``perfbench/tracer.py`` replaces the functions in ``FUNCTIONS`` and the
methods in ``METHODS`` with timing wrappers and reads ``cache_info()`` of the
functions in ``CACHES``.  A refactor that renames one of them, or drops its
``lru_cache``, would otherwise show up only as a failed traced benchmark run.
The tracer is loaded from its file and only read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"gerstenhaber.{name}")


def test_wrapped_functions_exist(tracer):
    assert tracer.FUNCTIONS
    for module_name, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_wrapped_methods_exist(tracer):
    cochains = _module("cochains")
    assert tracer.METHODS
    for class_name, attr, _ in tracer.METHODS:
        cls = getattr(cochains, class_name, None)
        assert isinstance(cls, type), class_name
        assert callable(getattr(cls, attr, None)), f"{class_name}.{attr}"


def test_read_caches_have_cache_info(tracer):
    assert tracer.CACHES
    for module_name, attr, _ in tracer.CACHES:
        fn = getattr(_module(module_name), attr, None)
        assert callable(getattr(fn, "cache_info", None)), f"{module_name}.{attr}"
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0 and info.currsize >= 0
