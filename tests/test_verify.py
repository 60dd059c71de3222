"""run_suites: the forked pool and the in-process loop give the same reports
and the same faults.  Patching `verify.available_cpus` picks the path: one
CPU runs the suites in-process, two or more fork a pool."""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import orbitstar
from orbitstar import cli, verify
from orbitstar.exprs import parse_hpoly

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _cpus(monkeypatch, n):
    monkeypatch.setattr(verify, "available_cpus", lambda: n)


@pytest.mark.parametrize("names, options", [
    (None, {}),
    (None, {"max_degree": 3, "seed": 5}),
    (["orbit-star", "centrality"], {"c0": 2, "lift": parse_hpoly("2 + h*(1/3)")}),
], ids=["defaults", "degree-3-seed-5", "level-2-lift"])
def test_pool_matches_in_process_loop(monkeypatch, names, options):
    _cpus(monkeypatch, 1)
    serial = verify.run_suites(names, **options)
    _cpus(monkeypatch, 2)
    assert verify.run_suites(names, **options) == serial
    # the pool's threads are gone, so the next call may fork again
    assert threading.active_count() == 1


def _pid_suite(**_):
    return [{"suite": "pid", "case": str(os.getpid()), "status": "pass"}]


def test_pool_runs_suites_in_children(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "centrality", _pid_suite)
    names = ["centrality", "grading"]
    here = str(os.getpid())
    _cpus(monkeypatch, 1)
    assert verify.run_suites(names)[0]["case"] == here
    if HAS_FORK:
        _cpus(monkeypatch, 2)
        assert verify.run_suites(names)[0]["case"] != here


def test_pool_has_at_most_two_workers(monkeypatch):
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, _pid_suite)
    _cpus(monkeypatch, 8)
    assert len({rep["case"] for rep in verify.run_suites()}) <= 2


def test_single_suite_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked for a single suite")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 2)
    assert verify.run_suites(["centrality"]) == verify.run_suite("centrality")


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_fault_in_suite_order(monkeypatch, cpus):
    def broken(**_):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.SUITES, "grading", broken)
    monkeypatch.setitem(verify.SUITES, "lemma", broken)
    _cpus(monkeypatch, cpus)
    names = ["centrality", "lemma", "reps", "grading"]
    with pytest.raises(verify.InternalError, match=r"^suite lemma: RuntimeError: boom$"):
        verify.run_suites(names)


def test_in_process_fault_keeps_its_cause(monkeypatch):
    err = RuntimeError("boom")

    def broken(**_):
        raise err

    monkeypatch.setitem(verify.SUITES, "lemma", broken)
    _cpus(monkeypatch, 1)
    with pytest.raises(verify.InternalError) as info:
        verify.run_suites(["centrality", "lemma"])
    assert info.value.__cause__ is err


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
def test_dead_worker_names_its_suite(monkeypatch, capsys):
    def killed(**_):
        os._exit(9)

    monkeypatch.setitem(verify.SUITES, "lemma", killed)
    _cpus(monkeypatch, 2)
    with pytest.raises(verify.InternalError,
                       match=r"^suite lemma: BrokenProcessPool: ") as info:
        verify.run_suites(["lemma", "grading"])
    assert type(info.value.__cause__).__name__ == "BrokenProcessPool"
    monkeypatch.setitem(verify.SUITES, "pbw", killed)
    assert cli.main(["verify", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: suite pbw: BrokenProcessPool: ")


def test_unknown_suite_is_bad_input(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(KeyError):
        verify.run_suites(["centrality", "nope"])


def test_unpicklable_exception_in_child_exits_3(monkeypatch, capsys):
    class Unpicklable(Exception):
        """A local class holding a lock: pickling it fails twice over."""

        def __init__(self):
            super().__init__("cannot travel")
            self.lock = threading.Lock()

    def broken(**_):
        raise Unpicklable()

    monkeypatch.setitem(verify.SUITES, "lemma", broken)
    _cpus(monkeypatch, 2)
    assert cli.main(["verify", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: suite lemma: Unpicklable: cannot travel\n"


def test_import_leaves_pool_modules_unloaded():
    src = str(Path(orbitstar.__file__).resolve().parents[1])
    code = ("import sys, orbitstar, orbitstar.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
