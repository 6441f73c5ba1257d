"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They check that wrong outputs and tampered golden data count as failures,
that the metric names the benchmark prints are those of BENCHMARK.json, and
that a seed always generates the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import sexp  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _files(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


# -- a wrong output or a tampered golden counts as a failure ------------------


def _solve_job(tmp_path, index=0):
    return workloads.prepare("solve", 3, str(tmp_path))[index]


def test_solve_check_accepts_rescaled_golden_and_rejects_a_changed_coefficient(tmp_path):
    key, order, _ = workloads.SOLVE_JOBS[0]
    job = _solve_job(tmp_path)
    with open(job.args[2], encoding="utf-8") as handle:
        c = sexp.parse(handle.read())[2][1]
    good = workloads.scaled_golden(key, order, c).encode()
    assert job.check(good, 0) is None
    first = sexp.parse(good.decode())[3][2]
    tampered = good.replace(f"(term {first[1]} ".encode(), f"(term {first[1] * 2} ".encode(), 1)
    assert tampered != good
    assert job.check(tampered, 0) is not None
    assert job.check(good, 1) is not None
    assert job.check(b"Traceback (most recent call last):", 0) is not None


def test_tampered_golden_fails_every_job_that_uses_it(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    for name, _ in workloads.GOLDEN.values():
        with open(os.path.join(workloads.DATA, name), encoding="utf-8") as handle:
            text = handle.read()
        (data / name).write_text(text.replace("1/2", "1/3", 1), encoding="utf-8")
    monkeypatch.setattr(workloads, "DATA", str(data))
    inputs = tmp_path / "in"
    inputs.mkdir()
    with pytest.raises(workloads.GoldenError):
        workloads.load_golden("const")
    for job in workloads.prepare("solve", 1, str(inputs)):
        assert job.check(b"(deformation 2 (order 1))\n", 0) is not None
    for job in workloads.prepare("eval", 1, str(inputs)):
        assert job.check(b"(report 2 (order 6) (zero yes))\n", 0) is not None


def test_docs_checks_reject_a_flipped_sign_and_a_lost_term(tmp_path):
    theta, bigrade, project, filtration = workloads.prepare("docs", 2, str(tmp_path))
    with open(theta.args[1], encoding="utf-8") as handle:
        terms = sexp.term_map(sexp.parse(handle.read())[2:])
    indices = tuple(int(i) for i in theta.args[2].split("=")[1].split(","))
    signed = {
        key: -c if sum(workloads.weight(key)[i - 1] for i in indices) % 2 else c
        for key, c in terms.items()
    }
    nodes = [("term", c) + key for key, c in signed.items()]
    good = sexp.pretty(("cochain", 2) + tuple(nodes)).encode()
    assert theta.check(good, 0) is None
    flipped = [("term", -nodes[0][1]) + nodes[0][2:]] + nodes[1:]
    assert theta.check(sexp.pretty(("cochain", 2) + tuple(flipped)).encode(), 0) is not None
    assert theta.check(sexp.pretty(("cochain", 2) + tuple(nodes[1:])).encode(), 0) is not None
    assert bigrade.check(b"(report 2 (bigrade (0 0) (0 0)))\n", 0) is not None
    assert project.check(b"(report 2 (member yes) (projection))\n", 0) is not None
    assert filtration.check(b"(report 2 (mode cumulative) (index (0 0) (0 0)))\n", 0) is not None


def test_eval_checks_use_the_closed_form_series():
    f = {(3, 1): Fraction(1, 2), (0, 2): Fraction(-2)}
    g = {(1, 4): Fraction(3), (2, 0): Fraction(1, 3)}
    with open(os.path.join(workloads.DATA, workloads.GOLDEN["const"][0]), encoding="utf-8") as handle:
        text = handle.read()
    assert workloads.deformation_series(text, f, g) == workloads.moyal_series(f, g, 6)
    check = workloads._series_check(lambda: workloads.moyal_series(f, g, 6))
    assert check(b"(report 2 (order 6) (tpow 0 (term 1 (0 0))))\n", 0) is not None
    assert workloads._assoc_check(b"(report 2 (order 6) (zero no) (tpow 3 (term 1 (0 0))))\n", 0) is not None
    assert workloads._assoc_check(b"(report 2 (order 6) (zero yes))\n", 0) is None


def test_a_failing_job_is_counted_and_the_round_goes_on(tmp_path):
    runner = run.Runner("laws", 1, str(tmp_path))
    good = workloads.Job("passes", ["verify-axioms", "--law", "canonical-form", "--trials", "2"], lambda out, code: None if code == 0 else "exit")
    wrong = workloads.Job("wrong output", good.args, lambda out, code: "wrong")
    crash = workloads.Job("bad usage", ["no-such-command"], lambda out, code: None if code == 0 else f"exit code {code}")
    runner.jobs = [wrong, crash, good]
    rnd = runner.run_round(False)
    assert [r.reason is None for r in rnd.results] == [False, False, True]
    values = run.end_to_end(runner, 0.1)
    assert values["ok_ratio"] == pytest.approx(1 / 3)
    assert set(values) == {m["name"] for m in _spec()["end_to_end"]}


# -- metric names -------------------------------------------------------------


def test_layer_metric_names_match_benchmark_json():
    record = {"import_s": 0.1, "wall_s": 1.0, "stats": {}, "spans": [],
              "caches": {key: {"hits": 0, "misses": 0, "size": 0} for _, _, key in tracer.CACHES}}
    names = set(run.layer_metrics([record])) | {"trace.overhead_s", "host.canary_s"}
    assert names == {m["name"] for m in _spec()["per_layer"]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "eval", "--seed", "5",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[1] for line in lines[:-1] if line.startswith("eval ")}
    assert printed == {m["name"] for m in spec}


# -- determinism of the generated inputs -------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    jobs_a = workloads.prepare(workload, 7, str(dirs[0]))
    jobs_b = workloads.prepare(workload, 7, str(dirs[1]))
    workloads.prepare(workload, 8, str(dirs[2]))
    assert _files(str(dirs[0])) == _files(str(dirs[1]))
    strip = lambda jobs, d: [[a.replace(str(d), "") for a in job.args] for job in jobs]  # noqa: E731
    assert strip(jobs_a, dirs[0]) == strip(jobs_b, dirs[1])
    if workload != "laws":  # laws writes no files; its seed picks the law-suite seed
        assert _files(str(dirs[0])) != _files(str(dirs[2]))


def test_golden_data_matches_recorded_hashes():
    for name, digest in workloads.GOLDEN.values():
        with open(os.path.join(workloads.DATA, name), "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest
