"""Benchmark of the ``gerst`` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each job is a fresh ``python -m gerstenhaber.cli ...`` process, started one
at a time, so every ``lru_cache`` starts empty as in a user's ``gerst`` call.
A round runs the workload's whole job list; rounds repeat until the next one
would not end within ``--seconds``.
Every output is checked (workloads.py); a wrong output, a nonzero exit, a
timeout or a traceback counts as a failed job and never stops the run.

With ``--trace 0`` the end-to-end metrics are reported: ``wall_s`` (time
for the job list, each job's slowest round), ``peak_rss_mb``
(largest max-RSS of one job process, from ``os.wait4``), ``ok_ratio``
(jobs that succeeded / jobs attempted) and ``setup_s`` (median over repeats
of a fresh interpreter importing ``gerstenhaber.cli`` plus generating the
inputs).  With ``--trace 1`` untraced and traced rounds alternate; traced
jobs run under tracer.py and the per-layer metrics come from their spans.
The last line of stdout is one JSON object; the lines before it print each
metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(HERE, "tracer.py")

JOB_TIMEOUT_S = 120
SETUP_REPEATS = 3
LAYERS = ("linsolve", "starproduct", "operations", "cochains", "grading", "sexpr", "axioms", "cli")

perf = time.perf_counter


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class JobResult:
    name: str
    wall_s: float
    maxrss_mb: float
    code: int
    timed_out: bool
    reason: Optional[str] = None  # None when the job succeeded
    trace: Optional[dict] = None


@dataclass
class Round:
    traced: bool
    results: list = field(default_factory=list)


def spawn(argv: list, out_path: str, err_path: str, timeout: float):
    """Run one process to completion; returns (wall s, exit code, max RSS MB, timed out).

    The child is reaped with ``os.wait4`` so that the resource usage is its
    own: ``RUSAGE_CHILDREN`` keeps the maximum over every child reaped so far.
    """
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, timed_out.is_set()


class Runner:
    """Runs one workload's rounds and checks their outputs."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.jobs: list = []
        self.verified: dict = {}  # job index -> (stdout sha256, reason)
        self.rounds: list = []

    def setup(self) -> float:
        """Median over repeats of (fresh import of gerstenhaber.cli + input generation)."""
        probe = [sys.executable, "-c", "import gerstenhaber.cli"]
        os.makedirs(self.workdir, exist_ok=True)
        scratch = (os.path.join(self.workdir, "probe.out"), os.path.join(self.workdir, "probe.err"))
        _, code, _, _ = spawn(probe, *scratch, JOB_TIMEOUT_S)  # compiles bytecode, untimed
        if code != 0:
            raise SystemExit(f"cannot import gerstenhaber.cli from {SRC} (exit {code})")
        times = []
        for _ in range(SETUP_REPEATS):
            import_s, code, _, _ = spawn(probe, *scratch, JOB_TIMEOUT_S)
            if code != 0:
                raise SystemExit(f"cannot import gerstenhaber.cli from {SRC} (exit {code})")
            inputs = os.path.join(self.workdir, "inputs")
            shutil.rmtree(inputs, ignore_errors=True)
            os.makedirs(inputs)
            start = perf()
            self.jobs = workloads.prepare(self.workload, self.seed, inputs)
            times.append(import_s + perf() - start)
        return statistics.median(times)

    def run_round(self, traced: bool) -> Round:
        rnd = Round(traced)
        number = len(self.rounds)
        outdir = os.path.join(self.workdir, f"round{number}")
        os.makedirs(outdir, exist_ok=True)
        for i, job in enumerate(self.jobs):
            out_path = os.path.join(outdir, f"job{i}.out")
            err_path = os.path.join(outdir, f"job{i}.err")
            trace_path = os.path.join(outdir, f"job{i}.trace.json")
            if traced:
                argv = [sys.executable, TRACER, trace_path, f"r{number}j{i}", *job.args]
            else:
                argv = [sys.executable, "-m", "gerstenhaber.cli", *job.args]
            wall, code, rss, timed_out = spawn(argv, out_path, err_path, JOB_TIMEOUT_S)
            rnd.results.append(JobResult(job.name, wall, rss, code, timed_out))
        # Checks run after the round, outside the timed jobs.
        for i, (job, result) in enumerate(zip(self.jobs, rnd.results)):
            result.reason = self._check(i, job, outdir, result)
            trace_path = os.path.join(outdir, f"job{i}.trace.json")
            if traced and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as handle:
                    result.trace = json.load(handle)
        self.rounds.append(rnd)
        return rnd

    def _check(self, i: int, job, outdir: str, result: JobResult) -> Optional[str]:
        with open(os.path.join(outdir, f"job{i}.out"), "rb") as handle:
            out = handle.read()
        with open(os.path.join(outdir, f"job{i}.err"), "rb") as handle:
            err = handle.read()
        if result.timed_out:
            return f"timed out after {JOB_TIMEOUT_S} s"
        if b"Traceback" in err:
            return "traceback on stderr"
        digest = hashlib.sha256(out).hexdigest() + f":{result.code}"
        # Later rounds repeat the same inputs: an output identical to one
        # already checked has the same verdict.
        if i in self.verified and self.verified[i][0] == digest:
            return self.verified[i][1]
        reason = job.check(out, result.code)
        self.verified[i] = (digest, reason)
        return reason

    def measure(self, seconds: float, traced: bool) -> None:
        """Rounds until the next would end after ``seconds``; at least one of each kind."""
        start = perf()
        while True:
            pair = [self.run_round(False)]
            if traced:
                pair.append(self.run_round(True))
            elapsed = perf() - start
            if elapsed + (elapsed / len(self.rounds)) * len(pair) > seconds:
                break

    def job_walls(self, i: int, traced: bool = False) -> list:
        return [rnd.results[i].wall_s for rnd in self.rounds if rnd.traced == traced]

    def wall_s(self, traced: bool = False) -> float:
        """Time for the job list: each job's slowest round, summed.

        The reference host runs at one speed most of the time and up to 2x
        faster in bursts of a few seconds, when other tenants go idle.  The
        slowest round of each job is that common speed; a median moves with
        the share of rounds that fell in a burst (README.md, Steadiness).
        """
        return sum(max(self.job_walls(i, traced)) for i in range(len(self.jobs)))

    def results(self, traced: Optional[bool] = None) -> list:
        return [r for rnd in self.rounds if traced is None or rnd.traced == traced for r in rnd.results]


def canary_s(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python Fraction loop: the host's speed, for the record only."""
    times = []
    for _ in range(repeats):
        start = perf()
        total = Fraction(0)
        for i in range(1, 20_000):
            total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        times.append(perf() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced rounds
# ---------------------------------------------------------------------------


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(records: list) -> dict:
    """Per-layer numbers of one traced round (one record per job)."""

    def stat(name: str, key: str) -> float:
        return sum(r["stats"].get(name, {}).get(key, 0) for r in records)

    def cache(key: str, what: str) -> float:
        return sum(r["caches"][key][what] for r in records)

    def hit_ratio(key: str) -> float:
        return _ratio(cache(key, "hits"), cache(key, "hits") + cache(key, "misses"))

    verify_s = top_order_s = slowest_law_s = 0.0
    for r in records:
        spans = r["spans"]
        solves = {i for i, s in enumerate(spans) if s[0] == "starproduct.solve_maurer_cartan"}
        last_order: dict = {}
        for s in spans:
            name, start, end, parent, self_s, _ = s
            if name == "operations.delta" and parent in solves:
                verify_s += self_s
            elif name == "starproduct.obstruction" and parent in solves:
                if parent not in last_order or start > last_order[parent]:
                    last_order[parent] = start
            elif name == "axioms.laws":
                slowest_law_s = max(slowest_law_s, end - start)
        top_order_s += sum(spans[p][2] - t for p, t in last_order.items())

    m = {
        "linsolve.solve.calls": stat("linsolve.solve", "calls"),
        "linsolve.solve.self_s": stat("linsolve.solve", "self_s"),
        "linsolve.solve.cells": stat("linsolve.solve", "cells"),
        "linsolve.solve.rows_max": max((r["stats"].get("linsolve.solve", {}).get("rows_max", 0) for r in records), default=0),
        "linsolve.solve_unique.calls": stat("linsolve.solve_unique", "calls"),
        "linsolve.solve_unique.self_s": stat("linsolve.solve_unique", "self_s"),
        "starproduct.obstruction.self_s": stat("starproduct.obstruction", "self_s"),
        "starproduct.build_block.calls": stat("starproduct.build_block", "calls"),
        "starproduct.build_block.self_s": stat("starproduct.build_block", "self_s"),
        "starproduct.build_block.hit_ratio": hit_ratio("build_block"),
        "starproduct.solve_delta.self_s": stat("starproduct.solve_delta", "self_s"),
        "starproduct.blocks": cache("build_block", "size"),
        "starproduct.verify.self_s": verify_s,
        "starproduct.top_order.s": top_order_s,
        "starproduct.star_series.self_s": stat("starproduct.star_series", "self_s"),
        "starproduct.assoc_defect.self_s": stat("starproduct.assoc_defect", "self_s"),
        "operations.bracket.calls": stat("operations.bracket", "calls"),
        "operations.bracket.self_s": stat("operations.bracket", "self_s"),
        "operations.delta.calls": stat("operations.delta", "calls"),
        "operations.delta.self_s": stat("operations.delta", "self_s"),
        "operations.cup.self_s": stat("operations.cup", "self_s"),
        "operations.insert_term.hit_ratio": hit_ratio("insert_term"),
        "operations.insert_term.cache_size": max((r["caches"]["insert_term"]["size"] for r in records), default=0),
        "operations.delta_term.hit_ratio": hit_ratio("delta_term"),
        "cochains.cochain_new.calls": stat("cochains.cochain_new", "calls"),
        "cochains.cochain_new.self_s": stat("cochains.cochain_new", "self_s"),
        "cochains.basisterm_new.calls": stat("cochains.basisterm_new", "calls"),
        "cochains.cochain_add.calls": stat("cochains.cochain_add", "calls"),
        "cochains.cochain_add.self_s": stat("cochains.cochain_add", "self_s"),
        "cochains.apply.calls": stat("cochains.apply", "calls"),
        "cochains.apply.self_s": stat("cochains.apply", "self_s"),
        "cochains.poly_mul.calls": stat("cochains.poly_mul", "calls"),
        "cochains.poly_mul.self_s": stat("cochains.poly_mul", "self_s"),
        "cochains.index_splits.hit_ratio": hit_ratio("index_splits"),
        "grading.decompose.self_s": stat("grading.decompose", "self_s"),
        "grading.semigroup_member.calls": stat("grading.semigroup_member", "calls"),
        "grading.semigroup_member.self_s": stat("grading.semigroup_member", "self_s"),
        "grading.in_ideal.self_s": stat("grading.in_ideal", "self_s"),
        "grading.project.self_s": stat("grading.project", "self_s"),
        "sexpr.parse.self_s": stat("sexpr.parse", "self_s"),
        "sexpr.parse.bytes": stat("sexpr.parse", "bytes"),
        "sexpr.print.self_s": stat("sexpr.print", "self_s"),
        "sexpr.print.bytes": stat("sexpr.print", "bytes"),
        "axioms.laws.self_s": stat("axioms.laws", "self_s"),
        "axioms.checks": stat("axioms.laws", "checks"),
        "axioms.slowest_law.s": slowest_law_s,
        "cli.import_s": _ratio(sum(r["import_s"] for r in records), len(records)),
        "cli.main.self_s": stat("cli.main", "self_s"),
    }
    # Each layer's share of the traced jobs' in-process time.
    wall = sum(r["wall_s"] for r in records)
    for layer in LAYERS:
        self_s = sum(
            s.get("self_s", 0.0) for r in records for name, s in r["stats"].items() if name.split(".")[0] == layer
        )
        if layer == "cli":
            self_s += sum(r["import_s"] for r in records)
        m[f"{layer}.share"] = _ratio(self_s, wall)
    return m


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(runner: Runner, setup_s: float) -> dict:
    done = runner.results()
    failed = sum(r.reason is not None for r in done)
    return {
        "wall_s": runner.wall_s(),
        "peak_rss_mb": max(r.maxrss_mb for r in runner.results(traced=False)),
        "ok_ratio": 1 - failed / len(done),
        "setup_s": setup_s,
    }


def per_layer(runner: Runner, host_s: float) -> dict:
    """Medians over the traced rounds, plus the tracing overhead and host speed."""
    traced = [rnd for rnd in runner.rounds if rnd.traced]
    per_round = [layer_metrics([r.trace for r in rnd.results if r.trace]) for rnd in traced]
    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    values["trace.overhead_s"] = runner.wall_s(traced=True) - runner.wall_s()
    values["host.canary_s"] = host_s
    return values


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(workload, seed, workdir)
    host_s = canary_s()
    setup_s = runner.setup()
    runner.measure(seconds, traced)
    values = per_layer(runner, host_s) if traced else end_to_end(runner, setup_s)

    spec = _spec()["per_layer" if traced else "end_to_end"]
    if {m["name"] for m in spec} != set(values):
        raise SystemExit(f"metrics {sorted({m['name'] for m in spec} ^ set(values))} do not match BENCHMARK.json")
    done = runner.results()
    failed = [r for r in done if r.reason is not None]
    for r in failed:
        print(f"FAILED {workload}: {r.name}: {r.reason}", file=sys.stderr)
    print(f"# {workload}: seed {seed}, {len(runner.rounds)} rounds of {len(runner.jobs)} jobs, "
          f"{len(done)} attempted, {len(failed)} failed, fail_ratio {len(failed) / len(done):.4f}, "
          f"host canary {host_s:.4f} s")
    for i, job in enumerate(runner.jobs):
        walls = runner.job_walls(i)
        print(f"#   job {job.name}: slowest {max(walls):.3f} s of {' '.join(f'{w:.3f}' for w in walls)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, entry in metrics.items():
        print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
    return {"correct": not failed, "attempted": len(done), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that a running job is killed and reaped (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "gerstenhaber", "cli.py")):
        print(f"no program to measure: {SRC}/gerstenhaber/cli.py is missing", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {w: run_workload(w, args.seed, seconds, bool(args.trace)) for w in workloads.WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
