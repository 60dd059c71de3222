"""run_suites: the caller with its forked child (the "pool" of the older
test names) and the in-process loop give the same reports and the same
faults, and the child is reaped on every path.  Patching
`verify.available_cpus` picks the path: one CPU runs the suites
in-process; two or more make the caller share them with one forked
child, taking suite 0 before it forks.  A test that needs a suite to run in
the child puts it at index 1 or later, behind a suite 0 that naps, and
guards it with `_in_child`, so that it fails instead of ending pytest if
the caller takes it.  Also: the suite registry keeps its order and names,
`verify` hands its options to run_suites unchanged, the pbw suite's
per-word associativity sweep gives the verdict, count and witness of a
plain triple loop, each golden value's mismatch report is pinned under a
mutation that reaches it, and a seeded sweep stops drawing at its first
failure."""

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import orbitstar
from orbitstar import cli, verify
from orbitstar.envelope import NCPoly
from orbitstar.exprs import parse_hpoly
from orbitstar.lie import LieAlgebra, predefined
from orbitstar.poly import CPoly
from orbitstar.reps import sl2_casimir
from orbitstar.scalars import H, H_ONE

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


def _broken_su2():
    """su2 with [X, Y] = Z + X: antisymmetric, but the Jacobiator is Y, so
    the rewriting is not associative; a fresh instance keeps its memos apart."""
    su2 = predefined("su2")
    broken = LieAlgebra(su2.names, su2.c)
    nz = [list(row) for row in broken._bracket_nz]
    nz[0][1] += ((0, su2.c[0][1][2]),)
    nz[1][0] += ((0, -su2.c[0][1][2]),)
    broken._bracket_nz = tuple(tuple(row) for row in nz)
    return broken


def test_pbw_keeps_the_triple_loop_witness(monkeypatch):
    broken = _broken_su2()
    monkeypatch.setattr(verify, "predefined", lambda name: broken)
    case = _associativity_case(verify.run_suite("pbw", max_degree=4))
    checked, bad = _reference_associativity(broken, 4)
    assert bad is not None
    assert case == {"suite": "pbw", "status": "fail", "witness": bad,
                    "case": f"associativity on {checked} word triples (len<=4)"}


def _su2_times(k):
    """su2 with every bracket times k: still semisimple with the invariant
    x^2 + y^2 + z^2, so every suite runs, but each golden value with h moves."""
    su2 = predefined("su2")
    return LieAlgebra(su2.names, [[[k * v for v in row] for row in plane]
                                  for plane in su2.c])


def _on_su2(monkeypatch, algebra, patch=lambda orb: None):
    """Run the suites on `algebra` in place of su2: both `predefined("su2")`
    and the suites' spheres, each of which `patch` may then alter."""
    real_predefined, real_sphere = verify.predefined, verify.sphere_orbit

    def sphere(c0=1, lift=None):
        orb = real_sphere(c0, lift, algebra=algebra)
        patch(orb)
        return orb
    monkeypatch.setattr(verify, "predefined", lambda name: (
        algebra if name == "su2" else real_predefined(name)))
    monkeypatch.setattr(verify, "sphere_orbit", sphere)


def _lift_ideal(orb):
    # the deformed ideal is reduced at 1 + h while the orbit says lift 1
    ideal_reduce = orb.ideal_reduce
    orb.ideal_reduce = lambda u, **kw: ideal_reduce(u, lift=H_ONE + H, **kw)


def _feasible_bidiff(orb):
    # the first-order ansatz gets the fault-injected control's data
    x, y, z = (CPoly.variable(3, i) for i in range(3))
    obstruction = orb.bidifferential_obstruction
    orb.bidifferential_obstruction = lambda bound, zz_data=None: obstruction(
        bound, zz_data=-(x * y * z))


def _tangential_split(orb):
    # the split embed is the tangential one, which preserves every level
    orb.split_embed = orb.tangential_embed


def _double_sl2_casimir(monkeypatch):
    monkeypatch.setattr(verify, "sl2_casimir", lambda L: sl2_casimir(L) * 2)


MUTANTS = {
    "su2 x 2": lambda mp: _on_su2(mp, _su2_times(2)),
    "broken su2": lambda mp: _on_su2(mp, _broken_su2()),
    "ideal at 1 + h": lambda mp: _on_su2(mp, predefined("su2"), _lift_ideal),
    "feasible bidiff": lambda mp: _on_su2(mp, predefined("su2"), _feasible_bidiff),
    "split = tangential": lambda mp: _on_su2(mp, predefined("su2"), _tangential_split),
    "sl2 casimir x 2": _double_sl2_casimir,
}


@pytest.mark.parametrize("suite, options, mutant, failing, digest", [
    ("pbw", {"max_degree": 3}, "su2 x 2",
     ["normal_form(Y*X)", "normal_form(Z*X)", "normal_form(Z*Y)"],
     "1faf0cd302675e8d35d726f3ef4909ad5fd36ec7ee3b9fea4e9ae300e690b0a0"),
    ("centrality", {}, "broken su2", ["[P, X] == 0", "[P, Y] == 0"],
     "66ac56fa0a4b5c35a60d61d8ce8d6c2b80b4f7d04a6b150dbe4774749c3becad"),
    ("sym-star", {"max_degree": 2}, "su2 x 2", ["x * y == x*y + (h/2) z"],
     "36ae365041add9f4afd3a79ed2535c6dbd2ba215544dfded7282bbd449f60c46"),
    ("sym-star", {"max_degree": 2}, "broken su2",
     ["axioms on 28 pairs (deg<=2) and 220 triples (deg<=3)"],
     "d4e07f9d2e683fb74550951e3b59ad763459fdecb9a2a6016165cdeef3be2562"),
    ("orbit-star", {"max_degree": 2}, "su2 x 2", ["y * x == xy - hz"],
     "29fdead588964059316ee0403b6186dd4a0fed50b6a1f5ae82716f5e55dec8f4"),
    ("orbit-star", {"max_degree": 2}, "ideal at 1 + h", ["z * z == 1 - x^2 - y^2"],
     "a81ca0ae1809ff2027dc185722952f5a3cc572cb5dadf40430350bca9711c262"),
    ("lemma", {"max_degree": 4}, "su2 x 2",
     ["first-order rule on 18 x,y-monomial pairs (deg<=4)"],
     "f790c15a13e80b4babc496af52191dc1b3b4e4021ad6bb0d5a3eb9628941f3a9"),
    ("bidiff", {"max_degree": 2}, "su2 x 2", ["certificate equation 0 == -x*y*z"],
     "21232c835edae244a6d9e50bc25b07656935d4b19920a6a01fb0c5f1a80c705b"),
    ("bidiff", {"max_degree": 2}, "feasible bidiff",
     ["certificate equation 0 == -x*y*z"],
     "af7bd6f2e453b5b3ab0d15fc3bc638eaa0075c07550a1886c26354804cbc40d8"),
    ("tangential", {"max_degree": 2}, "su2 x 2",
     ["failure witness is y z^2 with remainder (h/2) X*Z + (h^2/4) Y"],
     "4e55a08c65db8673fd15499c6dbab165f1c85bd8a4199088cbbdca0ad5ede137"),
    ("tangential", {"max_degree": 2}, "split = tangential",
     ["failure witness is y z^2 with remainder (h/2) X*Z + (h^2/4) Y"],
     "5e05c8005970e2b6da13db1fbaa20d5a5ede41db513a28913e974dc97fd78ae2"),
    ("invariant-mult", {"max_degree": 2}, "su2 x 2",
     ["symmetrizer product: x * p - x p == -(h^2/3) x"],
     "085cf5bcfa016fa43859fe92eca08484ac0c85d9f4ddb88233b71955d3601192"),
    ("reps", {"lambda_bound": 4}, "sl2 casimir x 2",
     ["highest-weight casimir == lambda^2/2 + h lambda"],
     "e782bb025bb15de31cf6710e13d4678fdb173b9f6130571f670cdfc028c1b36f"),
])
def test_mismatch_report_digests(monkeypatch, suite, options, mutant, failing, digest):
    # each golden value, checker report and sweep witness is reached by one
    # mutation of the algebra, the orbit or a product; the suite's whole
    # report (case texts, statuses, witnesses) is pinned byte for byte
    MUTANTS[mutant](monkeypatch)
    reports = verify.run_suite(suite, **options)
    failed = [r["case"] for r in reports if r["status"] == "fail"]
    assert set(failing) <= set(failed), failed
    text = repr(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


class _CountingRandom(random.Random):
    """random.Random counting its draws: every randint and randrange of the
    suites takes its bits through getrandbits."""
    draws = 0

    def getrandbits(self, k):
        type(self).draws += 1
        return super().getrandbits(k)


def _fails_at(n, real, wrong=lambda *args: None):
    """`real`, but `wrong` on its n-th call."""
    calls = itertools.count(1)
    return lambda *args: wrong(*args) if next(calls) == n else real(*args)


def _failing_sweeps(monkeypatch):
    # cohomology's third degree, grading's third projection pair (each pair
    # makes three projections), fourth word and fifth specialization
    monkeypatch.setattr(verify, "d2", _fails_at(
        3, verify.d2, lambda L, c: {(0, 1, 2): CPoly.one(L.dim)}))
    monkeypatch.setattr(NCPoly, "project_h0", _fails_at(7, NCPoly.project_h0))
    monkeypatch.setattr(NCPoly, "graded_degree", _fails_at(
        4, NCPoly.graded_degree, lambda e: -1))
    monkeypatch.setattr(verify, "multiply_at", _fails_at(5, verify.multiply_at))


@pytest.mark.parametrize("mutate, suite, seed, failing, draws", [
    (False, "cohomology", 0, [], 198),
    (False, "grading", 3, [], 3278),
    (True, "cohomology", 0, ["d2(d1(C)) == 0 on random cochains (deg<=4)"], 109),
    (True, "grading", 3, [
        "h -> 0 projection is multiplicative on random pairs (seed 3)",
        "normal form preserves the graded degree of words (seed 3)",
        "specialization commutes with multiplication (seed 3)"], 1079),
])
def test_seeded_sweeps_stop_at_their_first_failure(monkeypatch, mutate, suite,
                                                   seed, failing, draws):
    # a sweep stops at its first failing draw and the draws after it are
    # never made, so each later case sees the generator where it is left
    if mutate:
        _failing_sweeps(monkeypatch)
    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=_CountingRandom))
    monkeypatch.setattr(_CountingRandom, "draws", 0)
    reports = verify.run_suite(suite, seed=seed)
    assert [r["case"] for r in reports if r["status"] == "fail"] == failing
    assert _CountingRandom.draws == draws
