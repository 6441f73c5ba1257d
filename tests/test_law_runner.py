"""The law suites shared out with a forked child report what one process reports.

``run_laws`` hands suite indices to this process and, where two CPUs are
usable, to one forked child through a pipe.  These tests force the forked
path by reporting two usable CPUs (so it runs on a one-CPU host too), force
the one-process path by reporting one CPU or by making ``os.fork`` fail, and
check that every report, exit code and stderr line is the same, that a child
which raises or dies changes nothing, and that no child is left behind, not
even when the run itself is killed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gerstenhaber import axioms, bracket
from gerstenhaber.cli import main

SUBSETS = {
    "all": None,
    "one": ["jacobi-identity"],
    "two": ["semigroup-closure", "subgroup-criterion"],
}


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def no_fork(*args):
    raise OSError("fork refused")


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def wait_for(marker):
    deadline = time.monotonic() + 30
    while not marker.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def in_children(monkeypatch, marker, action):
    """Wrap every suite: in a child, create ``marker`` and call ``action(name)``
    before the suite runs; here, wait for ``marker`` before the first suite, so
    a child has surely claimed one."""
    parent = os.getpid()

    def wrap(name, law):
        def run(rng, trials):
            if os.getpid() != parent:
                marker.touch()
                action(name)
            else:
                wait_for(marker)
            return law(rng, trials)

        return run

    monkeypatch.setattr(axioms, "ALL_LAWS", tuple((n, wrap(n, law)) for n, law in axioms.ALL_LAWS))


def pipes_refused_after(count):
    """An ``os.pipe`` that opens ``count`` pipes and then fails."""
    pipe, opened = os.pipe, []

    def limited():
        if len(opened) == count:
            raise OSError("pipe refused")
        opened.append(1)
        return pipe()

    return limited


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("subset", sorted(SUBSETS))
@pytest.mark.parametrize("seed", [3, 5])
def test_forked_and_one_process_runs_give_equal_results(monkeypatch, seed, subset):
    """Two usable CPUs fork a child; a refused ``os.fork``, no pipe at all, or
    no pipe for the child's results leave the run in this process."""
    names = SUBSETS[subset]
    with monkeypatch.context() as m:
        cpus(m, 1)
        serial = axioms.run_laws(seed, 8, names)
    assert [r.name for r in serial] == [n for n, _ in axioms.ALL_LAWS if not names or n in names]
    fds = open_fds()
    refusals = ({}, {"fork": no_fork}, {"pipe": pipes_refused_after(0)}, {"pipe": pipes_refused_after(1)})
    for refused in refusals:
        with monkeypatch.context() as m:
            cpus(m, 2)
            for attr, refusal in refused.items():
                m.setattr(os, attr, refusal)
            assert axioms.run_laws(seed, 8, names) == serial
    assert open_fds() == fds
    assert_no_children()


def counted_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize(
    "usable, names, children",
    [(8, SUBSETS["two"], 1), (8, SUBSETS["one"], 0), (1, None, 0), (2, None, 1), (64, None, 1)],
)
def test_a_run_forks_one_child_only_where_two_cpus_are_usable(monkeypatch, usable, names, children):
    cpus(monkeypatch, usable)
    forks = counted_forks(monkeypatch)
    axioms.run_laws(5, 2, names)
    assert len(forks) == children
    assert_no_children()


@pytest.mark.parametrize("count, children", [(None, 0), (1, 0), (4, 1)])
def test_without_an_affinity_set_the_cpu_count_decides(monkeypatch, count, children):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    forks = counted_forks(monkeypatch)
    assert axioms.run_laws(5, 2, SUBSETS["two"]) == [
        law(axioms._law_rng(5, name), 2) for name, law in axioms.ALL_LAWS if name in SUBSETS["two"]
    ]
    assert len(forks) == children
    assert_no_children()


def test_suites_raising_only_in_a_child_report_as_one_process_does(monkeypatch, capsys, tmp_path):
    argv = ["verify-axioms", "--seed", "3", "--trials", "8"]
    cpus(monkeypatch, 1)
    serial = cli(capsys, *argv)
    cpus(monkeypatch, 2)
    marker = tmp_path / "raised"

    def fail(name):
        raise ValueError(f"{name} refused in a child")

    in_children(monkeypatch, marker, fail)
    assert cli(capsys, *argv) == serial
    assert marker.exists() and serial[0] == 0 and serial[2] == ""
    assert_no_children()


def test_a_suite_raising_everywhere_exits_and_writes_as_one_process_does(monkeypatch, capsys):
    argv = ["verify-axioms", "--seed", "5", "--trials", "8"]

    def broken(rng, trials):
        raise ValueError("jacobi-identity cannot run")

    laws = tuple((n, broken if n == "jacobi-identity" else law) for n, law in axioms.ALL_LAWS)
    monkeypatch.setattr(axioms, "ALL_LAWS", laws)
    cpus(monkeypatch, 1)
    serial = cli(capsys, *argv)
    assert serial == (1, "", "error: jacobi-identity cannot run\n")
    for usable in (2, 3):
        cpus(monkeypatch, usable)
        assert cli(capsys, *argv) == serial
    assert_no_children()


def test_a_child_killed_mid_suite_leaves_the_report_unchanged(monkeypatch, capsys, tmp_path):
    argv = ["verify-axioms", "--seed", "5", "--trials", "8"]
    cpus(monkeypatch, 1)
    serial = cli(capsys, *argv)
    cpus(monkeypatch, 2)
    marker = tmp_path / "killed"
    in_children(monkeypatch, marker, lambda name: os.kill(os.getpid(), signal.SIGKILL))
    assert cli(capsys, *argv) == serial
    assert marker.exists()
    assert_no_children()


def test_a_failing_law_reports_as_one_process_does_and_leaves_no_child(monkeypatch, capsys):
    argv = ["verify-axioms", "--seed", "3", "--trials", "8"]
    monkeypatch.setattr(axioms, "bracket", lambda f, g: bracket(f, g) * 2)
    cpus(monkeypatch, 1)
    serial = cli(capsys, *argv)
    assert serial[0] == 2
    cpus(monkeypatch, 2)
    assert cli(capsys, *argv) == serial
    assert_no_children()


class Interrupted(BaseException):
    pass


def test_an_interrupt_here_kills_and_reaps_every_child(monkeypatch, tmp_path):
    """A ``BaseException`` raised in this process mid-run, while a child is
    still busy, propagates at once, and the child is killed and reaped."""
    parent = os.getpid()
    marker = tmp_path / "busy"
    seen = []

    def wrap(law):
        def run(rng, trials):
            if os.getpid() != parent:
                marker.touch()
                time.sleep(60)
            seen.append(1)
            if len(seen) == 2:
                wait_for(marker)
                raise Interrupted
            return law(rng, trials)

        return run

    monkeypatch.setattr(axioms, "ALL_LAWS", tuple((n, wrap(law)) for n, law in axioms.ALL_LAWS))
    cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(Interrupted):
        axioms.run_laws(5, 2)
    assert marker.exists() and time.monotonic() - start < 30
    assert_no_children()


def process_gone(pid):
    """True once ``pid`` has exited (a zombie nobody reaps has exited too)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_killed_run_leaves_its_child_one_suite_at_most(tmp_path):
    """SIGKILL a run while its child is busy: the orphaned child runs no suite
    after the one it was running, so it is gone long before the suites left
    (0.5 s each, over 10 s in all) could have run."""
    log = tmp_path / "claims"
    script = "\n".join([
        "import os, time",
        "from gerstenhaber import axioms",
        "def slow(rng, trials):",
        f"    with open({str(log)!r}, 'a') as f: f.write(f'{{os.getpid()}}\\n')",
        "    time.sleep(0.5)",
        "axioms.ALL_LAWS = tuple((name, slow) for name, _ in axioms.ALL_LAWS)",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "axioms.run_laws(5, 1)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.DEVNULL)

    def claims():
        lines = log.read_text().split("\n")[:-1] if log.exists() else []
        return [int(line) for line in lines if int(line) != run.pid]

    deadline = time.monotonic() + 30
    while not claims() and time.monotonic() < deadline:
        time.sleep(0.01)
    run.kill()
    run.wait()
    at_kill = claims()
    assert at_kill, "the child never claimed a suite"
    deadline = time.monotonic() + 8
    while not process_gone(at_kill[0]) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert process_gone(at_kill[0])
    assert len(claims()) <= len(at_kill) + 1
