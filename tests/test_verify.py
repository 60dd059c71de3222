"""run_suites: the caller with its forked child (the "pool" of the older
test names) and the in-process loop give the same reports and the same
faults, and the child is reaped on every path.  Patching
`verify.available_cpus` picks the path: one CPU runs the suites
in-process; two or more make the caller share them with one forked
child, taking suite 0 before it forks.  A test that needs a suite to run in
the child puts it at index 1 or later, behind a suite 0 that naps, and
guards it with `_in_child`, so that it fails instead of ending pytest if
the caller takes it.  Also: the suite registry keeps its order and names,
`verify` hands its options to run_suites unchanged, and the pbw suite's
per-word associativity sweep gives the verdict, count and witness of a
plain triple loop."""

import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orbitstar
from orbitstar import cli, verify
from orbitstar.envelope import NCPoly
from orbitstar.exprs import parse_hpoly
from orbitstar.lie import LieAlgebra, predefined

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


def test_suites_keep_their_order():
    assert list(verify.SUITES) == [
        "pbw", "centrality", "sym-star", "orbit-star", "lemma", "bidiff",
        "tangential", "invariant-mult", "reps", "cohomology", "grading"]


def test_reports_carry_their_suite_name():
    # run_suites concatenates the suites' reports in order, so the runs of
    # equal "suite" fields must name the suites in SUITES order
    runs = []
    for rep in verify.run_suites(max_degree=3):
        if not runs or runs[-1] != rep["suite"]:
            runs.append(rep["suite"])
    assert runs == list(verify.SUITES)


@pytest.mark.parametrize("argv, options", [
    ([], {}),
    (["--max-degree", "3", "--seed", "5", "--c", "2", "--lift", "2+h"],
     {"max_degree": 3, "seed": 5, "c0": Fraction(2), "lift": parse_hpoly("2+h")}),
], ids=["defaults", "all-options"])
def test_cli_verify_passes_its_options(monkeypatch, capsys, argv, options):
    want = json.loads(json.dumps(verify.run_suites(**options), default=str))
    seen = []
    run_suites = verify.run_suites

    def recording(names, **kwargs):
        seen.append({k: v for k, v in kwargs.items() if v is not None})
        return run_suites(names, **kwargs)

    monkeypatch.setattr(verify, "run_suites", recording)
    failed = any(rep["status"] != "pass" for rep in want)
    assert cli.main(["verify", "all", "--format", "json"] + argv) == int(failed)
    assert json.loads(capsys.readouterr().out) == want
    assert seen == [{"seed": 0, **options}]


def test_verify_all_names_a_nonzero_seed(capsys):
    assert cli.main(["verify", "all"]) == 0
    default = capsys.readouterr().out
    assert cli.main(["verify", "all", "--seed", "5"]) == 0
    seeded = capsys.readouterr().out
    assert "seed" not in default and seeded != default
    # the six random-draw cases of cohomology and grading
    assert seeded.count("seed 5") == 6
    assert "(deg<=4, seed 5)" in seeded


def _pid_suite(**_):
    return [{"suite": "pid", "case": str(os.getpid()), "status": "pass"}]


def _napping_suite(**_):
    """Suite 0 of a forked run: the caller sleeps in it while its child
    takes suite 1."""
    time.sleep(0.2)
    return _pid_suite()


def _in_child(action):
    """A suite that runs `action` in a forked child; in the caller it raises
    AssertionError at once, so it can neither end nor hang the tests."""
    caller = os.getpid()

    def suite(**_):
        if os.getpid() == caller:
            raise AssertionError("the caller took a suite meant for its child")
        return action()
    return suite


def test_pool_runs_suites_in_children(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "centrality", _napping_suite)
    monkeypatch.setitem(verify.SUITES, "grading", _pid_suite)
    names = ["centrality", "grading"]
    here = str(os.getpid())
    _cpus(monkeypatch, 1)
    assert [rep["case"] for rep in verify.run_suites(names)] == [here, here]
    if HAS_FORK:
        _cpus(monkeypatch, 2)
        first, later = verify.run_suites(names)
        assert first["case"] == here and later["case"] != here


def test_pool_has_at_most_two_workers(monkeypatch):
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, _pid_suite)
    _cpus(monkeypatch, 8)
    pids = {rep["case"] for rep in verify.run_suites()}
    assert str(os.getpid()) in pids and len(pids) <= 2


def test_single_suite_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked for a single suite")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 2)
    assert verify.run_suites(["centrality"]) == verify.run_suite("centrality")


def test_more_suites_than_task_bytes_run_in_process(monkeypatch):
    # a suite index travels as one byte, so 257 suites never fork
    def no_fork():
        raise AssertionError("forked for 257 suites")

    monkeypatch.setitem(verify.SUITES, "centrality", _pid_suite)
    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 2)
    assert len(verify.run_suites(["centrality"] * 257)) == 257


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
    killed = _in_child(lambda: os._exit(9))
    monkeypatch.setitem(verify.SUITES, "centrality", _napping_suite)
    monkeypatch.setitem(verify.SUITES, "lemma", killed)
    _cpus(monkeypatch, 2)
    with pytest.raises(verify.InternalError,
                       match=r"^suite lemma: child process exited with status 9$") as info:
        verify.run_suites(["centrality", "lemma", "grading"])
    assert info.value.__cause__ is None
    monkeypatch.setitem(verify.SUITES, "pbw", _napping_suite)
    monkeypatch.setitem(verify.SUITES, "centrality", killed)
    assert cli.main(["verify", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["internal error: suite centrality: child process exited with status 9"]


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
def test_dead_child_is_blamed_for_its_last_suite(monkeypatch):
    # the child finishes lemma, then dies in reps; lemma's outcome reached
    # the caller before the death, so reps is the suite named
    monkeypatch.setitem(verify.SUITES, "centrality", _napping_suite)
    monkeypatch.setitem(verify.SUITES, "lemma", _in_child(lambda: []))
    monkeypatch.setitem(verify.SUITES, "reps", _in_child(lambda: os._exit(9)))
    _cpus(monkeypatch, 2)
    with pytest.raises(verify.InternalError,
                       match=r"^suite reps: child process exited with status 9$"):
        verify.run_suites(["centrality", "lemma", "reps"])
    _assert_no_children()


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

    def broken():
        raise Unpicklable()

    monkeypatch.setitem(verify.SUITES, "pbw", _napping_suite)
    monkeypatch.setitem(verify.SUITES, "centrality", _in_child(broken))
    _cpus(monkeypatch, 2)
    assert cli.main(["verify", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: suite centrality: Unpicklable: cannot travel\n"


def test_import_leaves_pool_modules_unloaded():
    # star and reduce never run the suites, the representations or the
    # cohomology solver, so importing the package and its CLI compiles none
    # of them; verify all forks its children without multiprocessing
    src = str(Path(orbitstar.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys, orbitstar, orbitstar.cli\n"
        "def loaded(names): return sorted(m for m in names if m in sys.modules)\n"
        "print(loaded(('orbitstar.verify', 'orbitstar.cohomology', 'orbitstar.reps',"
        " 'multiprocessing', 'concurrent.futures')))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = orbitstar.cli.main(['verify', 'all'])\n"
        "print(code, loaded(('multiprocessing', 'concurrent.futures')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n0 []\n"


def _sleeping_suite(**_):
    time.sleep(60)
    return []


def _exiting_suite():
    raise SystemExit(0)


def _signalled_suite():
    os.kill(os.getpid(), signal.SIGKILL)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("suite, error", [
    (_pid_suite, None),
    (_in_child(_exiting_suite), r"^suite lemma: child process exited with status 1$"),
    (_in_child(_signalled_suite),
     rf"^suite lemma: child process killed by signal {signal.SIGKILL:d}$"),
], ids=["pass", "system-exit", "signal"])
def test_runner_reaps_every_child(monkeypatch, suite, error):
    # a child that is killed, or that meets an exception no suite fault
    # covers, still ends in os._exit and never returns into the caller
    monkeypatch.setitem(verify.SUITES, "centrality", _napping_suite)
    monkeypatch.setitem(verify.SUITES, "lemma", suite)
    _cpus(monkeypatch, 2)
    if error is None:
        assert len(verify.run_suites(["centrality", "lemma", "grading"])) > 1
    else:
        with pytest.raises(verify.InternalError, match=error):
            verify.run_suites(["centrality", "lemma", "grading"])
    _assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fault_in_parent_kills_and_reaps_children(monkeypatch):
    def refused(stream):
        raise RuntimeError("refused")

    # the caller runs centrality itself, then meets the fault reading the
    # outcome of the child that sleeps in lemma
    monkeypatch.setitem(verify.SUITES, "centrality", _napping_suite)
    monkeypatch.setitem(verify.SUITES, "lemma", _in_child(_sleeping_suite))
    monkeypatch.setattr(verify.pickle, "load", refused)
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^refused$"):
        verify.run_suites(["centrality", "lemma"])
    assert time.monotonic() - start < 30
    _assert_no_children()


def test_suite_fault_reaps_every_child(monkeypatch):
    def broken(**_):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.SUITES, "centrality", broken)
    _cpus(monkeypatch, 2)
    with pytest.raises(verify.InternalError, match=r"^suite centrality: RuntimeError: boom$"):
        verify.run_suites(["lemma", "centrality", "grading"])
    _assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_caller_fault_keeps_its_cause(monkeypatch, capsys):
    # suite 0 runs in the caller, so its exception travels as the cause,
    # as on one CPU, and the child forked for the other suites is reaped
    err = RuntimeError("boom")

    def broken(**_):
        raise err

    monkeypatch.setitem(verify.SUITES, "pbw", broken)
    _cpus(monkeypatch, 2)
    with pytest.raises(verify.InternalError, match=r"^suite pbw: RuntimeError: boom$") as info:
        verify.run_suites(["pbw", "centrality", "grading"])
    assert info.value.__cause__ is err
    _assert_no_children()
    assert cli.main(["verify", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: suite pbw: RuntimeError: boom\n"
    _assert_no_children()


def _raising_suite():
    """A suite whose exception names the process that ran it."""
    caller = os.getpid()

    def suite(**_):
        raise RuntimeError(f"boom in the {'caller' if os.getpid() == caller else 'child'}")
    return suite


def _slow_suite(**_):
    time.sleep(0.5)
    return []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("suites, error", [
    # the caller fails at once in suite 0, so its child takes suites 1 and 2
    ((_raising_suite(), _pid_suite, _raising_suite()),
     r"^suite centrality: RuntimeError: boom in the caller$"),
    # the child fails in suite 1 and sleeps in suite 2 while the caller,
    # done napping in suite 0, takes suite 3 and fails there
    ((_napping_suite, _raising_suite(), _slow_suite, _raising_suite()),
     r"^suite lemma: RuntimeError: boom in the child$"),
], ids=["caller-first", "child-first"])
def test_first_fault_wins_across_processes(monkeypatch, suites, error):
    names = ["centrality", "lemma", "reps", "grading"][:len(suites)]
    for name, suite in zip(names, suites):
        monkeypatch.setitem(verify.SUITES, name, suite)
    _cpus(monkeypatch, 2)
    with pytest.raises(verify.InternalError, match=error) as info:
        verify.run_suites(names)
    assert (info.value.__cause__ is not None) == error.endswith("caller$")
    _assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_caller_keeps_the_pbw_memos():
    # the caller runs pbw, suite 0 of verify all, so the su2 normal forms it
    # builds stay here for the next call and the child that call forks
    src = str(Path(orbitstar.__file__).resolve().parents[1])
    code = (
        "from orbitstar import verify\n"
        "from orbitstar.lie import predefined\n"
        "verify.available_cpus = lambda: 2\n"
        "first = verify.run_suites()\n"
        "print(len(predefined('su2')._nf_cache['engine']) > 0,"
        " verify.run_suites() == first)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"


def _reference_associativity(L, bound):
    """(triples checked, first failing triple or None): every split of
    words wa wb wc with total length <= bound, each side multiplied out."""
    checked = 0
    for la in range(1, bound - 1):
        for lb in range(1, bound - la):
            for lc in range(1, bound - la - lb + 1):
                for wa, wb, wc in itertools.product(
                        itertools.product(range(3), repeat=la),
                        itertools.product(range(3), repeat=lb),
                        itertools.product(range(3), repeat=lc)):
                    checked += 1
                    a, b, c = (NCPoly.word(L, w) for w in (wa, wb, wc))
                    if (a * b) * c != a * (b * c):
                        return checked, (wa, wb, wc)
    return checked, None


def _associativity_case(reports):
    case, = (r for r in reports if r["case"].startswith("associativity"))
    return case


@pytest.mark.parametrize("bound", range(1, 7))
def test_pbw_counts_every_word_triple(bound):
    case = _associativity_case(verify.run_suite("pbw", max_degree=bound))
    count = sum(math.comb(n - 1, 2) * 3 ** n for n in range(3, bound + 1))
    assert case == {"suite": "pbw", "status": "pass",
                    "case": f"associativity on {count} word triples (len<={bound})"}
    if bound == 6:
        assert count == 9018


def test_pbw_keeps_the_triple_loop_witness(monkeypatch):
    # su2 with [X, Y] = Z + X: antisymmetric, but the Jacobiator is Y, so
    # the rewriting is not associative; a fresh instance keeps its memos apart
    su2 = predefined("su2")
    broken = LieAlgebra(su2.names, su2.c)
    nz = [list(row) for row in broken._bracket_nz]
    nz[0][1] += ((0, su2.c[0][1][2]),)
    nz[1][0] += ((0, -su2.c[0][1][2]),)
    broken._bracket_nz = tuple(tuple(row) for row in nz)
    monkeypatch.setattr(verify, "predefined", lambda name: broken)
    case = _associativity_case(verify.run_suite("pbw", max_degree=4))
    checked, bad = _reference_associativity(broken, 4)
    assert bad is not None
    assert case == {"suite": "pbw", "status": "fail", "witness": bad,
                    "case": f"associativity on {checked} word triples (len<=4)"}
