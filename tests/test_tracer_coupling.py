"""The benchmark tracer wraps package functions by name; those names must exist.

``perfbench/tracer.py`` replaces the functions in ``FUNCTIONS`` and the
methods in ``METHODS`` with timing wrappers and reads ``cache_info()`` of the
functions in ``CACHES``.  A refactor that renames one of them, or drops its
``lru_cache``, would otherwise show up only as a failed traced benchmark run.
The tracer is loaded from its file and only read, never installed, except in
the last test, which runs it as a script on one job.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_tracer_runs_a_cli_job(tmp_path):
    """The tracer installs its wrappers and runs one ``delta`` job end to end:
    same stdout and exit code as the untraced CLI, and the s-expression spans
    see the bytes read and written."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    cochain = tmp_path / "c.sexp"
    cochain.write_text("(cochain 2 (term 1 (0 0) (2 0)) (term 1/2 (1 0) (1 1)))", encoding="utf-8")
    out = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(TRACER_PATH), str(out), "delta", "delta", str(cochain)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "gerstenhaber.cli", "delta", str(cochain)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (traced.returncode, traced.stderr) == (0, "")
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout != ""
    stats = json.loads(out.read_text(encoding="utf-8"))["stats"]
    assert stats["sexpr.parse"]["bytes"] > 0
    assert stats["sexpr.print"]["bytes"] > 0
