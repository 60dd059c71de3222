"""Named verification suites.

Each suite exercises one cluster of the engine's claims with exact
expectations.  A suite is registered once, by name, with @_suite; its body
yields (case, ok[, witness]) and SUITES[name] runs it to completion,
returning case reports shaped as
{"suite": ..., "case": ..., "status": "pass"|"fail", "witness": ...?}.
Every option defaults to None (seed to 0), which a suite reads as its own
default.  The CLI's verify subcommand and the acceptance tests both run these.

The suites are independent and deterministic, so on two or more CPUs
`run_suites` shares them between the caller and one forked child, and
returns the same reports, in the same order, as the in-process loop.  The
caller takes suite 0 (pbw in `verify all`) before it forks, so the memos its
suites fill outlive the call.  Both take suite indices from one shared pipe;
the child pickles each outcome back over a pipe of its own as its suite
ends, with no multiprocessing.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
from fractions import Fraction
from functools import cache

from .cohomology import Cochain2, d1, d2, h2_dimension, solve_coboundary
from .cohomology import coboundary_roundtrip, random_cochain1
from .envelope import NCPoly, multiply_at, substitute_generators
from .exprs import format_cpoly, format_ncpoly
from .lie import LieAlgebra, adjoint_rep, predefined
from .orbit import sphere_orbit
from .poly import CPoly, monomials_up_to
from .quantize import (
    check_deformation_axioms,
    symmetrize,
    symmetrizer_product,
)
from .reps import (
    casimir_scalar,
    highest_weight_casimir,
    nonisomorphism_witness,
    sl2_casimir,
    su2_defining_rep,
    validate_rep,
)
from .scalars import H, H_ONE, I, HPoly


SUITES_VERSION = "1"

# suite name -> options -> case reports, in the order of definition below
SUITES = {}


def _case(suite, name, ok, witness=None):
    report = {"suite": suite, "case": name, "status": "pass" if ok else "fail"}
    if witness is not None:
        report["witness"] = witness
    return report


def _suite(name):
    """Register a suite under `name`.  Its body yields (case, ok) or (case,
    ok, witness); the registered function runs the body to completion and
    returns the case reports."""
    def register(body):
        def run(**options):
            return [_case(name, *case) for case in body(**options)]
        SUITES[name] = run
        return run
    return register


def _vars(L):
    return [CPoly.variable(L.dim, i) for i in range(L.dim)]


def _fmt(p, L):
    return format_cpoly(p, L.varnames)


def _expect(case, got, want, show):
    """A golden-value case: `show(got)` is its witness where got != want."""
    ok = got == want
    return case, ok, None if ok else show(got)


def _axioms(star, bound, assoc_degree, scope=""):
    """check_deformation_axioms as one case, with its first failure as the
    witness; the pairs' degree is named where the triples' differs."""
    report = check_deformation_axioms(star, bound, assoc_degree=assoc_degree)
    pairs = f" (deg<={bound})" if assoc_degree != bound else ""
    return (f"axioms{scope} on {report['pairs']} pairs{pairs} and "
            f"{report['triples']} triples (deg<={assoc_degree})",
            not report["failures"], report["failures"][:1] or None)


# ---------------------------------------------------------------------------

@_suite("pbw")
def suite_pbw(max_degree=None, **_):
    """Rewriting kernel: golden normal forms, associativity, confluence of
    the reference rewriter, and the engine's table path against it."""
    L = predefined("su2")
    bound = max_degree or 6
    golden = [
        ("Y*X", (1, 0), {(0, 1): H_ONE, (2,): -H}),
        ("Z*X", (2, 0), {(0, 2): H_ONE, (1,): H}),
        ("Z*Y", (2, 1), {(1, 2): H_ONE, (0,): -H}),
    ]
    for label, word, want in golden:
        yield _expect(f"normal_form({label})", NCPoly.word(L, word).normal_form(),
                      NCPoly(L, want), format_ncpoly)

    words_by_len = {0: [()]}
    for n in range(1, max(bound, 5) + 1):
        words_by_len[n] = [w + (g,) for w in words_by_len[n - 1] for g in range(3)]
    # each word of a triple within the bound has at most bound - 2 letters
    elem = {w: NCPoly.word(L, w) for n in range(1, bound - 1) for w in words_by_len[n]}

    @cache
    def prod(v, w):
        """elem[v] * elem[w], built once per pair of words."""
        return elem[v] * elem[w]

    def per_word():
        """The number of word triples if every one associates, else None.

        elem[v] * elem[w] is the normal form of the word v + w, so a triple's
        left side (wa wb) wc depends only on (wa + wb, wc) and its right side
        wa (wb wc) only on (wa, wb + wc).  For a word W of length n, the
        right sides R_i = W[:i] (W[i:]), i = 1..n-2, and the left sides
        L_j = (W[:j]) W[j:], j = 2..n-1, meet in the C(n-1, 2) triples
        i < j.  Each R_i and L_j meets R_1 or L_(n-1) there, so all those
        triples pass exactly when every R_i and L_j equals R_1."""
        count = 0
        for n in range(3, bound + 1):
            for w in words_by_len[n]:
                r1 = elem[w[:1]] * prod(w[1:2], w[2:])
                if any(elem[w[:i]] * prod(w[i:i + 1], w[i + 1:]) != r1
                       for i in range(2, n - 1)):
                    return None
                if any(prod(w[:1], w[1:j]) * elem[w[j:]] != r1
                       for j in range(2, n)):
                    return None
            count += (n - 1) * (n - 2) // 2 * len(words_by_len[n])
        return count

    def first_bad():
        """The first failing triple of the reference sweep, counting the
        triples checked; the witness when per_word finds a failure."""
        nonlocal checked
        for la in range(1, bound - 1):
            for lb in range(1, bound - la):
                for lc in range(1, bound - la - lb + 1):
                    for wa in words_by_len[la]:
                        for wb in words_by_len[lb]:
                            ab = prod(wa, wb)
                            for wc in words_by_len[lc]:
                                checked += 1
                                if ab * elem[wc] != elem[wa] * prod(wb, wc):
                                    return (wa, wb, wc)
        return None

    checked, bad = per_word(), None
    if checked is None:
        checked = 0
        bad = first_bad()
    yield (f"associativity on {checked} word triples (len<={bound})",
           bad is None, bad)

    yxz = NCPoly.word(L, (1, 0, 2))
    ok = yxz.normal_form("leftmost") == yxz.normal_form("rightmost")
    yield "confluence witness YXZ (leftmost vs rightmost)", ok
    mismatch = None
    for n in range(1, 6):
        for w in words_by_len[n]:
            e = NCPoly.word(L, w)
            if not (e.normal_form() == e.normal_form("leftmost")
                    == e.normal_form("rightmost")):
                mismatch = w
                break
    yield ("confluence on all words of length <= 5",
           mismatch is None, mismatch)


@_suite("centrality")
def suite_centrality(**_):
    """The symmetrized invariant commutes with every generator."""
    L = predefined("su2")
    x, y, z = _vars(L)
    P = symmetrize(L, x * x + y * y + z * z)
    yield ("P = X^2 + Y^2 + Z^2 form",
           P == NCPoly(L, {(0, 0): H_ONE, (1, 1): H_ONE, (2, 2): H_ONE}))
    for i in range(3):
        g = NCPoly.generator(L, i)
        yield _expect(f"[P, {L.names[i]}] == 0", P * g - g * P, 0, format_ncpoly)
    yield "is_central(P)", P.is_central()
    yield "is_central(1)", NCPoly.one(L).is_central()
    yield ("X is not central",
           not NCPoly.generator(L, 0).is_central())


@_suite("sym-star")
def suite_sym_star(max_degree=None, **_):
    """Deformation axioms of the symmetrizer product."""
    L = predefined("su2")
    bound = max_degree or 4
    star = symmetrizer_product(L)
    x, y, z = _vars(L)
    yield _expect("x * y == x*y + (h/2) z", star.star(x, y),
                  x * y + z * (H * Fraction(1, 2)), lambda p: _fmt(p, L))
    comm = star.star(x, y) - star.star(y, x)
    yield "x*y - y*x == h z", comm == z * H
    yield "B0(x, y) == xy", star.bn(x, y, 0) == x * y
    yield ("B1(x,y) - B1(y,x) == {x,y}",
           star.bn(x, y, 1) - star.bn(y, x, 1) == z)
    yield _axioms(star, bound, bound + 1)


@_suite("orbit-star")
def suite_orbit_star(max_degree=None, c0=None, lift=None, **_):
    """The orbit product at level 1: golden values and axioms."""
    orb = sphere_orbit(c0 if c0 is not None else 1, lift=lift)
    L = orb.algebra
    bound = max_degree or 4
    x, y, z = _vars(L)
    star = orb.star_product()
    show = lambda p: _fmt(p, L)
    if orb.constants[0] == 1 and orb.lifts[0] == H_ONE:
        yield _expect("z * z == 1 - x^2 - y^2", star.star(z, z),
                      CPoly.one(3) - x * x - y * y, show)
    yield _expect("y * x == xy - hz", star.star(y, x), x * y - z * H, show)
    yield ("f * 1 == f",
           star.star(x * y, CPoly.one(3)) == x * y)
    yield _axioms(star, bound, bound, " with the reduced bracket")


@_suite("lemma")
def suite_lemma(max_degree=None, **_):
    """First-order rule p1 * p2 = p1 p2 - h z (dp1/dy)(dp2/dx) mod h^2 on
    the unit level, for all pairs of x,y-monomials within the bound."""
    orb = sphere_orbit(1)
    L = orb.algebra
    bound = max_degree or 6
    monos = [
        e for e in monomials_up_to(3, bound) if e[2] == 0
    ]
    pairs = ((e1, e2) for e1 in monos for e2 in monos
             if sum(e1) + sum(e2) <= bound)
    bad = None
    checked = 0
    for e1, e2 in pairs:
        checked += 1
        res = orb.first_order_check(
            CPoly.monomial(3, e1), CPoly.monomial(3, e2)
        )
        if res["got"] != res["expected"]:
            bad = {
                "pair": (str(e1), str(e2)),
                "got": _fmt(res["got"], L),
                "expected": _fmt(res["expected"], L),
            }
            break
    yield (f"first-order rule on {checked} x,y-monomial "
           f"pairs (deg<={bound})", bad is None, bad)


@_suite("bidiff")
def suite_bidiff(max_degree=None, **_):
    """Non-differentiability certificate for the orbit product."""
    orb = sphere_orbit(1)
    L = orb.algebra
    bound = max_degree or 3
    x, y, z = _vars(L)
    res = orb.bidifferential_obstruction(bound)
    yield (f"first-order ansatz infeasible (coeff deg<={bound})",
           not res["feasible"])
    yield _expect("certificate equation 0 == -x*y*z", res["certificate"],
                  -(x * y * z), lambda c: _fmt(c, L) if c else "none")
    yield ("engine B1(z,z) == 0",
           orb.star_product().bn(z, z, 1).is_zero())
    ctrl = orb.bidifferential_obstruction(bound, zz_data=-(x * y * z))
    ok = ctrl["feasible"] and ctrl["coefficients"][(1, 0)] == -z
    yield ("fault-injected control is feasible with "
           "b_yx == -z", ok)


@_suite("tangential")
def suite_tangential(max_degree=None, **_):
    """Ideal preservation of the two embeddings across nearby levels."""
    orb = sphere_orbit(1)
    L = orb.algebra
    bound = max_degree or 4
    shifts = [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)]
    for s in shifts:
        w = orb.tangentiality_check(orb.tangential_embed, 1 + s, bound)
        yield (f"tangential embed preserves the level {1 + s} ideal "
               f"(deg<={bound})", w is None)
    yield ("split embed preserves its own ideal",
           orb.tangentiality_check(orb.split_embed, 1, bound) is None)
    # the frozen witness needs degree 5, whatever the bound
    w = orb.tangentiality_check(orb.split_embed, Fraction(5, 4), max(bound + 1, 5))
    want = {"cofactor": CPoly.monomial(3, (0, 1, 2)),
            "remainder": NCPoly(L, {(0, 2): H * Fraction(1, 2),
                                    (1,): H * H * Fraction(1, 4)})}
    yield "split embed fails on the shifted level 5/4", w is not None
    yield _expect("failure witness is y z^2 with remainder "
                  "(h/2) X*Z + (h^2/4) Y", w, want, lambda got: {
                      "cofactor": _fmt(got["cofactor"], L),
                      "remainder": format_ncpoly(got["remainder"]),
                  } if got else "check passed unexpectedly")
    for embed, label in ((orb.split_embed, "split"),
                         (orb.tangential_embed, "tangential")):
        yield (f"{label} embed commutes with reduction (deg<={bound})",
               orb.reduction_compatibility_check(embed, bound) is None)


@_suite("invariant-mult")
def suite_invariant_mult(max_degree=None, **_):
    """Invariants multiply undeformed under the tangential product; the
    symmetrizer product violates this."""
    orb = sphere_orbit(1)
    L = orb.algebra
    bound = max_degree or 3
    x, y, z = _vars(L)
    p = x * x + y * y + z * z
    w = orb.invariant_product_check(orb.tangential_product(), bound)
    yield (f"tangential product: g * p == g p (deg g <= {bound})",
           w is None, w)
    star = symmetrizer_product(L)
    yield _expect("symmetrizer product: x * p - x p == -(h^2/3) x",
                  star.star(x, p) - x * p, x * (H * H * Fraction(-1, 3)),
                  lambda d: _fmt(d, L))
    w = orb.invariant_product_check(star, bound)
    yield ("symmetrizer product violates invariant multiplication",
           w is not None, None if w is None else {
               "factor": _fmt(w["factor"], L),
               "invariant": _fmt(w["invariant"], L),
               "discrepancy": _fmt(w["got"] - w["expected"], L),
           })


@_suite("reps")
def suite_reps(lambda_bound=None, **_):
    """Casimir scalars, highest-weight values, and the spectrum witness."""
    su2 = predefined("su2")
    sl2 = predefined("sl2")
    bound = lambda_bound or 20
    defining = su2_defining_rep()
    adj = adjoint_rep(su2)
    yield ("defining rep satisfies the brackets",
           validate_rep(su2, defining))
    yield ("adjoint rep satisfies the brackets",
           validate_rep(su2, adj))
    P = NCPoly(su2, {(0, 0): H_ONE, (1, 1): H_ONE, (2, 2): H_ONE})
    scalars = [casimir_scalar(P, rep, 1) for rep in (defining, adj)]
    yield "casimir scalar -3/4 on the defining rep", scalars[0] == Fraction(-3, 4)
    yield "casimir scalar -2 on the adjoint rep", scalars[1] == -2

    omega = sl2_casimir(sl2)
    hw = highest_weight_casimir(sl2, omega)
    yield _expect("highest-weight casimir == lambda^2/2 + h lambda", hw,
                  CPoly(1, {(2,): HPoly.const(Fraction(1, 2)), (1,): H}),
                  lambda p: format_cpoly(p, ("lambda",)))
    # cross identity: omega maps to -2 P under F -> iX + Y, H -> 2iZ, E -> iX - Y
    X, Y, Z = (NCPoly.generator(su2, k) for k in range(3))
    images = [X * I + Y, Z * (2 * I), X * I - Y]
    yield ("casimir cross identity omega == -2 P",
           substitute_generators(omega, images) == P * (-2))
    # spin values lambda = d - 1 tie the two computations together
    for d, scalar in zip((2, 3), scalars):
        yield (f"hw value at lambda={d - 1} matches the "
               f"{d}-dim rep", hw.evaluate((d - 1,)).evaluate(1) == scalar * (-2))
    report = nonisomorphism_witness(HPoly.const(4),
                                    HPoly.const(4) + H * Fraction(1, 3), bound)
    ok = (report["spectrum_a"] == [2] and report["spectrum_b"] == []
          and report["witness_found"])
    yield ("lifts 4 and 4 + h/3 give disjoint spectra "
           f"{{2}} vs {{}} (bound {bound})", ok, report)
    same = nonisomorphism_witness(HPoly.const(4), HPoly.const(4), bound)
    yield ("equal lifts give no witness",
           not same["witness_found"])
    zero = nonisomorphism_witness(HPoly.const(0), HPoly.const(0), bound)
    yield ("zero lift admits the trivial weight",
           zero["spectrum_a"] == [0])


@_suite("cohomology")
def suite_cohomology(max_degree=None, seed=0, **_):
    """Differential identities, vanishing H^2, and the solver round trip."""
    su2 = predefined("su2")
    bound = max_degree if max_degree is not None else 4
    rng = random.Random(seed)
    images = (d2(su2, d1(su2, random_cochain1(su2, d, rng))) for d in range(bound + 1))
    drawn, note = (f", seed {seed}", f" (seed {seed})") if seed else ("", "")
    yield (f"d2(d1(C)) == 0 on random cochains "
           f"(deg<={bound}{drawn})",
           all(v.is_zero() for image in images for v in image.values()))

    dims = [h2_dimension(su2, d) for d in range(bound + 1)]
    yield (f"h2 dimensions 0..{bound} all vanish",
           all(v == 0 for v in dims), dims)

    ok = all(coboundary_roundtrip(su2, d, rng) for d in range(min(bound, 3) + 1))
    yield f"coboundary solver round-trips d1 images{note}", ok

    ab = LieAlgebra(("A", "B"), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    nonzero = h2_dimension(ab, 0)
    yield ("abelian control has nonzero H^2",
           nonzero > 0, nonzero)
    stuck = solve_coboundary(ab, Cochain2(ab, {(0, 1): CPoly.one(2)}), 0)
    yield ("constant cocycle on the abelian algebra "
           "is not a coboundary", stuck is None)


@_suite("grading")
def suite_grading(seed=0, **_):
    """Grading of the defining relations, multiplicativity of the h -> 0
    projection, and specialization compatibility."""
    L = predefined("su2")
    rng = random.Random(seed)
    note = f" (seed {seed})" if seed else ""
    relations = (NCPoly.word(L, (i, j)) - NCPoly.word(L, (j, i))
                 - NCPoly(L, {(k,): H * v for k, v in L.bracket_terms(i, j)})
                 for i in range(3) for j in range(3) if i != j)
    yield ("defining relations are graded-homogeneous "
           "(deg X_i = deg h = 1)",
           all(rel.is_graded_homogeneous() for rel in relations))

    def rand_element(max_len=4, nterms=4):
        terms = {}
        for _ in range(nterms):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, max_len)))
            terms[w] = HPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        return NCPoly(L, terms)

    # each sweep draws until its first failure, so a later one starts
    # where the generator is left
    def projects():
        a, b = rand_element(), rand_element()
        return (a * b).project_h0() == a.project_h0() * b.project_h0()
    yield ("h -> 0 projection is multiplicative on "
           f"random pairs{note}", all(projects() for _ in range(20)))

    def keeps_degree():
        w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
        e = NCPoly.word(L, w).normal_form()
        return e.is_graded_homogeneous() and e.graded_degree() == len(w)
    yield ("normal form preserves the graded degree of "
           f"words{note}", all(keeps_degree() for _ in range(20)))

    def specializes():
        a, b = rand_element(), rand_element()
        h0 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        return (a * b).specialize(h0) == multiply_at(a.specialize(h0),
                                                     b.specialize(h0), h0)
    yield (f"specialization commutes with multiplication{note}",
           all(specializes() for _ in range(20)))

    def ring_map():
        pa = HPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        pb = HPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        h0 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        k = rng.randint(0, 4)
        ab = pa * pb
        return (ab.evaluate(h0) == pa.evaluate(h0) * pb.evaluate(h0)
                and ab.truncate(k) == (pa.truncate(k) * pb.truncate(k)).truncate(k))
    # this sweep makes all its draws, whichever of them fails
    yield ("h-evaluation is a ring map and truncation "
           f"is compatible with products{note}",
           all([ring_map() for _ in range(30)]))


def _check_known(names):
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")


def run_suite(name, **options):
    _check_known([name])
    return SUITES[name](**options)


class InternalError(Exception):
    """A fault of the engine itself; the CLI reports it with exit code 3."""


def describe(exc):
    """One line naming an unexpected exception."""
    return " ".join(f"{type(exc).__name__}: {exc}".split())


def available_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# a suite index travels as one byte of the task pipe
_MAX_FORKED_SUITES = 256


def _serve(tasks, results, names, options):
    """The forked child's whole life: take suite indices from the `tasks`
    pipe one byte at a time until it is empty, and pickle each (index,
    reports) onto the `results` pipe as its suite ends, or (index, the
    fault's one-line text): the text travels instead of the exception, so
    one that cannot be pickled reaches the parent unchanged.  Ends the
    process on every path, so it never returns into the caller."""
    status = 1
    try:
        with open(results, "wb") as out:
            while taken := os.read(tasks, 1):
                try:
                    outcome = _run_here(names[taken[0]], options)
                except InternalError as err:
                    outcome = str(err)
                pickle.dump((taken[0], outcome), out)
                out.flush()  # a child that dies later is not blamed for this suite
        status = 0
    finally:
        os._exit(status)


def _run_here(name, options):
    """One suite's reports; an exception escaping it causes InternalError."""
    try:
        return run_suite(name, **options)
    except Exception as exc:
        raise InternalError(f"suite {name}: {describe(exc)}") from exc


def _run_forked(names, options):
    """run_suites' reports from this process and one forked child.  The
    caller takes suite 0 before it forks, then more until the queue is
    empty or one of its suites fails; the child takes the others.  The child
    is reaped before this returns or raises; on an exception here, it is
    killed first."""
    tasks, feed = os.pipe()
    # fewer than 512 bytes (POSIX's least PIPE_BUF) always fit, so every
    # index is queued before the child starts and the write end is closed:
    # a process reads EOF once the queue is empty
    os.write(feed, bytes(range(len(names))))
    os.close(feed)
    pid = stream = status = None
    outcomes = {}  # suite index -> reports or InternalError
    try:
        mine = os.read(tasks, 1)
        out, into = os.pipe()
        stream = open(out, "rb")
        # pbw, the largest suite, is about 30% of `verify all`, so the caller,
        # starting with it, and one child end within a few ms of each other;
        # a second child would hold one more copy of the memo tables
        try:
            pid = os.fork()
            if pid == 0:
                _serve(tasks, into, names, options)
        finally:
            os.close(into)
        try:
            while mine:
                outcomes[mine[0]] = _run_here(names[mine[0]], options)
                mine = os.read(tasks, 1)
        except InternalError as err:  # the caller stops at its first fault
            outcomes[mine[0]] = err
        # the stream ends when the child exits; a child blocked on a full
        # pipe takes no more suites, so the caller drains the queue meanwhile
        while True:
            try:
                index, outcome = pickle.load(stream)
            except (EOFError, pickle.UnpicklingError):  # cut off where the child ended
                break
            outcomes[index] = (InternalError(outcome) if isinstance(outcome, str)
                               else outcome)
        status = os.waitpid(pid, 0)[1]
    finally:
        if pid and status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if stream is not None:
            stream.close()
        os.close(tasks)
    reports = []
    for index, name in enumerate(names):
        outcome = outcomes.get(index)
        if outcome is None:
            # the child sends each outcome as its suite ends, so it died here
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise InternalError(f"suite {name}: child process {how}")
        if isinstance(outcome, InternalError):
            raise outcome
        reports.extend(outcome)
    return reports


def run_suites(names=None, **options):
    """The reports of the named suites (all of them by default), in order.

    With more than one suite and more than one available CPU, where the
    platform can fork and no other thread runs, this process shares the
    suites with one forked child, keeping the memos of those it runs; the
    reports are those of the in-process loop.  An exception escaping a
    suite, or a child that dies, raises InternalError for the first such
    suite in the order of `names`; for a suite run here, it is the cause.
    """
    names = list(SUITES if names is None else names)
    _check_known(names)
    if (1 < len(names) <= _MAX_FORKED_SUITES and available_cpus() > 1
            and hasattr(os, "fork") and threading.active_count() == 1):
        return _run_forked(names, options)
    return [report for name in names for report in _run_here(name, options)]
