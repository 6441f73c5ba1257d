"""The benchmark tracer wraps package functions by name; those names must exist.

``perfbench/tracer.py`` replaces the functions in ``FUNCTIONS`` and the
methods in ``METHODS`` with timing wrappers and reads ``cache_info()`` of the
functions in ``CACHES``.  A refactor that renames one of them, or drops its
``lru_cache``, would otherwise show up only as a failed traced benchmark run.
The tracer is loaded from its file and only read, never installed, except in
the test that runs it as a script on one job.  After ``import gerstenhaber.cli``
it reads the package's modules as attributes, so the import must bind them,
and a fresh ``gerst`` process should load nothing its run does not use.
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
SRC = Path(__file__).resolve().parent.parent / "src"


def _bench_env():
    """The benchmark's job environment: the checkout's ``src`` and no other ``PYTHON*`` variable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


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


def test_read_caches_are_the_kernels_tables(tracer):
    """Every cache the tracer reads is one the kernels look up: after the
    caches are cleared, an ``x1*x2`` solve to order 4 in this process hits
    each of them."""
    from gerstenhaber import BasisTerm, Cochain
    from gerstenhaber.starproduct import solve_maurer_cartan

    caches = {attr: getattr(_module(module_name), attr) for module_name, attr, _ in tracer.CACHES}
    for fn in caches.values():
        fn.cache_clear()
    x1x2 = Cochain(2, {BasisTerm(2, (1, 1), ((1, 0), (0, 1))): 1, BasisTerm(2, (1, 1), ((0, 1), (1, 0))): -1})
    solve_maurer_cartan(x1x2, 4)
    hits = {attr: fn.cache_info().hits for attr, fn in caches.items()}
    assert all(hits.values()), hits


def test_tracer_runs_a_cli_job(tmp_path):
    """The tracer installs its wrappers and runs one ``delta`` job end to end:
    same stdout and exit code as the untraced CLI, and the s-expression spans
    see the bytes read and written."""
    env = _bench_env()
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


def test_cli_import_binds_the_traced_modules_and_loads_nothing_unused():
    """In a fresh interpreter, ``import gerstenhaber.cli`` binds every module
    the tracer reads and adds none of ``dataclasses``, ``inspect``, ``ast``,
    ``dis``, ``json``, ``pickle``, ``multiprocessing`` or ``concurrent`` to what
    the bare interpreter holds (site hooks may preload modules, so only the
    modules the import adds are compared)."""
    probe = (
        "import sys; bare = set(sys.modules); import gerstenhaber, gerstenhaber.cli; "
        "print(*sorted(set(sys.modules) - bare)); "
        "print(*sorted(k for k, v in vars(gerstenhaber).items() if type(v) is type(sys)))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_bench_env(), timeout=60
    )
    assert (run.returncode, run.stderr) == (0, "")
    added, bound = (set(line.split()) for line in run.stdout.splitlines())
    unused = {"dataclasses", "inspect", "ast", "dis", "json", "pickle", "multiprocessing", "concurrent"}
    assert not added & unused
    traced = {"axioms", "cli", "cochains", "grading", "linsolve", "operations", "sexpr", "starproduct"}
    assert traced <= bound
    assert {f"gerstenhaber.{name}" for name in traced} <= added


def test_cli_json_run_loads_no_json_module(tmp_path):
    """A fresh ``gerst --json delta DOC`` process writes its JSON without
    adding ``json`` to what the bare interpreter holds."""
    cochain = tmp_path / "c.sexp"
    cochain.write_text("(cochain 2 (term 1 (0 0) (2 0)) (term 1/2 (1 0) (1 1)))", encoding="utf-8")
    probe = (
        f"import sys; bare = set(sys.modules); sys.argv = ['gerst', '--json', 'delta', {str(cochain)!r}]; "
        "from gerstenhaber.cli import _run; code = _run(); "
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - bare))); sys.exit(code)"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_bench_env(), timeout=60
    )
    assert run.returncode == 0
    assert json.loads(run.stdout)["kind"] == "cochain"
    added = set(run.stderr.split())
    assert "gerstenhaber.sexpr" in added
    assert not {name for name in added if name == "json" or name.startswith("json.")}
