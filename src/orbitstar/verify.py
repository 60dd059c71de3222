"""Named verification suites.

Each suite exercises one cluster of the engine's claims with exact
expectations and returns a list of case reports shaped as
{"suite": ..., "case": ..., "status": "pass"|"fail", "witness": ...?}.
The CLI's verify subcommand and the acceptance tests both run these.

The suites are independent and deterministic, so `run_suites` runs several
in up to min(#suites, #CPUs, 2) forked worker processes and returns the
same reports, in the same order, as the in-process loop.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

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
from .scalars import H, H_ONE, GaussianRational, HPoly


def _case(suite, name, ok, witness=None):
    report = {"suite": suite, "case": name, "status": "pass" if ok else "fail"}
    if witness is not None:
        report["witness"] = witness
    return report


def _su2():
    return predefined("su2")


def _vars(L):
    return [CPoly.variable(L.dim, i) for i in range(L.dim)]


def _fmt(p, L):
    return format_cpoly(p, L.varnames)


# ---------------------------------------------------------------------------

def suite_pbw(max_degree=None, **_):
    """Rewriting kernel: golden normal forms, associativity, confluence of
    the reference rewriter, and the engine's table path against it."""
    L = _su2()
    bound = max_degree or 6
    out = []
    golden = [
        ("Y*X", (1, 0), {(0, 1): H_ONE, (2,): -H}),
        ("Z*X", (2, 0), {(0, 2): H_ONE, (1,): H}),
        ("Z*Y", (2, 1), {(1, 2): H_ONE, (0,): -H}),
    ]
    for label, word, want in golden:
        got = NCPoly.word(L, word).normal_form()
        ok = got == NCPoly(L, want)
        out.append(_case("pbw", f"normal_form({label})", ok,
                         None if ok else format_ncpoly(got)))

    words_by_len = {0: [()]}
    for n in range(1, max(bound, 5) + 1):
        words_by_len[n] = [w + (g,) for w in words_by_len[n - 1] for g in range(3)]
    elem = {w: NCPoly.word(L, w) for n in range(1, bound) for w in words_by_len[n]}
    products = {}

    def prod(v, w):
        """elem[v] * elem[w], built once per pair of words."""
        p = products.get((v, w))
        if p is None:
            p = products[v, w] = elem[v] * elem[w]
        return p

    def first_bad():
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

    checked = 0
    bad = first_bad()
    out.append(_case("pbw", f"associativity on {checked} word triples (len<={bound})",
                     bad is None, bad))

    yxz = NCPoly.word(L, (1, 0, 2))
    ok = yxz.normal_form("leftmost") == yxz.normal_form("rightmost")
    out.append(_case("pbw", "confluence witness YXZ (leftmost vs rightmost)", ok))
    mismatch = None
    for n in range(1, 6):
        for w in words_by_len[n]:
            e = NCPoly.word(L, w)
            if not (e.normal_form() == e.normal_form("leftmost")
                    == e.normal_form("rightmost")):
                mismatch = w
                break
    out.append(_case("pbw", "confluence on all words of length <= 5",
                     mismatch is None, mismatch))
    return out


def suite_centrality(**_):
    """The symmetrized invariant commutes with every generator."""
    L = _su2()
    x, y, z = _vars(L)
    P = symmetrize(L, x * x + y * y + z * z)
    out = []
    out.append(_case("centrality", "P = X^2 + Y^2 + Z^2 form",
                     P == NCPoly(L, {(0, 0): H_ONE, (1, 1): H_ONE, (2, 2): H_ONE})))
    for i in range(3):
        g = NCPoly.generator(L, i)
        comm = P * g - g * P
        out.append(_case("centrality", f"[P, {L.names[i]}] == 0", comm.is_zero(),
                         None if comm.is_zero() else format_ncpoly(comm)))
    out.append(_case("centrality", "is_central(P)", P.is_central()))
    out.append(_case("centrality", "is_central(1)", NCPoly.one(L).is_central()))
    out.append(_case("centrality", "X is not central",
                     not NCPoly.generator(L, 0).is_central()))
    return out


def suite_sym_star(max_degree=None, **_):
    """Deformation axioms of the symmetrizer product."""
    L = _su2()
    bound = max_degree or 4
    star = symmetrizer_product(L)
    x, y, z = _vars(L)
    out = []
    want = x * y + z * (H * Fraction(1, 2))
    got = star.star(x, y)
    out.append(_case("sym-star", "x * y == x*y + (h/2) z", got == want,
                     None if got == want else _fmt(got, L)))
    comm = star.star(x, y) - star.star(y, x)
    out.append(_case("sym-star", "x*y - y*x == h z", comm == z * H))
    out.append(_case("sym-star", "B0(x, y) == xy", star.bn(x, y, 0) == x * y))
    out.append(_case("sym-star", "B1(x,y) - B1(y,x) == {x,y}",
                     star.bn(x, y, 1) - star.bn(y, x, 1) == z))
    report = check_deformation_axioms(star, bound, assoc_degree=bound + 1)
    out.append(_case(
        "sym-star",
        f"axioms on {report['pairs']} pairs (deg<={bound}) and "
        f"{report['triples']} triples (deg<={bound + 1})",
        report["passed"],
        report["failures"][:1] or None,
    ))
    return out


def suite_orbit_star(max_degree=None, c0=None, lift=None, **_):
    """The orbit product at level 1: golden values and axioms."""
    orb = sphere_orbit(c0 if c0 is not None else 1, lift=lift)
    L = orb.algebra
    bound = max_degree or 4
    x, y, z = _vars(L)
    star = orb.star_product()
    out = []
    if orb.constants[0] == GaussianRational(1) and orb.lifts[0] == H_ONE:
        want = CPoly.one(3) - x * x - y * y
        got = star.star(z, z)
        out.append(_case("orbit-star", "z * z == 1 - x^2 - y^2", got == want,
                         None if got == want else _fmt(got, L)))
    got = star.star(y, x)
    want = x * y - z * H
    out.append(_case("orbit-star", "y * x == xy - hz", got == want,
                     None if got == want else _fmt(got, L)))
    out.append(_case("orbit-star", "f * 1 == f",
                     star.star(x * y, CPoly.one(3)) == x * y))
    report = check_deformation_axioms(star, bound, assoc_degree=bound)
    out.append(_case(
        "orbit-star",
        f"axioms with the reduced bracket on {report['pairs']} pairs and "
        f"{report['triples']} triples (deg<={bound})",
        report["passed"],
        report["failures"][:1] or None,
    ))
    return out


def suite_lemma(max_degree=None, **_):
    """First-order rule p1 * p2 = p1 p2 - h z (dp1/dy)(dp2/dx) mod h^2 on
    the unit level, for all pairs of x,y-monomials within the bound."""
    orb = sphere_orbit(1)
    L = orb.algebra
    bound = max_degree or 6
    out = []
    monos = [
        e for e in monomials_up_to(3, bound) if e[2] == 0
    ]
    bad = None
    checked = 0
    for e1 in monos:
        for e2 in monos:
            if sum(e1) + sum(e2) > bound:
                continue
            checked += 1
            res = orb.first_order_check(
                CPoly.monomial(3, e1), CPoly.monomial(3, e2)
            )
            if not res["passed"]:
                bad = {
                    "pair": (str(e1), str(e2)),
                    "got": _fmt(res["got"], L),
                    "expected": _fmt(res["expected"], L),
                }
                break
        if bad:
            break
    out.append(_case("lemma", f"first-order rule on {checked} x,y-monomial "
                     f"pairs (deg<={bound})", bad is None, bad))
    return out


def suite_bidiff(max_degree=None, **_):
    """Non-differentiability certificate for the orbit product."""
    orb = sphere_orbit(1)
    L = orb.algebra
    bound = max_degree or 3
    x, y, z = _vars(L)
    out = []
    res = orb.bidifferential_obstruction(bound)
    out.append(_case("bidiff", f"first-order ansatz infeasible (coeff deg<={bound})",
                     not res["feasible"]))
    want_cert = -(x * y * z)
    got = res["certificate"]
    out.append(_case("bidiff", "certificate equation 0 == -x*y*z",
                     got == want_cert,
                     None if got == want_cert else _fmt(got, L) if got else "none"))
    out.append(_case("bidiff", "engine B1(z,z) == 0",
                     orb.star_product().bn(z, z, 1).is_zero()))
    ctrl = orb.bidifferential_obstruction(bound, zz_data=-(x * y * z))
    ok = ctrl["feasible"] and ctrl["coefficients"][(1, 0)] == -z
    out.append(_case("bidiff", "fault-injected control is feasible with "
                     "b_yx == -z", ok))
    return out


def suite_tangential(max_degree=None, **_):
    """Ideal preservation of the two embeddings across nearby levels."""
    orb = sphere_orbit(1)
    L = orb.algebra
    bound = max_degree or 4
    out = []
    shifts = [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)]
    for s in shifts:
        res = orb.tangentiality_check(orb.tangential_embed, 1 + s, bound)
        out.append(_case("tangential",
                         f"tangential embed preserves the level {1 + s} ideal "
                         f"(deg<={bound})", res["passed"]))
    res = orb.tangentiality_check(orb.split_embed, 1, bound)
    out.append(_case("tangential", "split embed preserves its own ideal",
                     res["passed"]))
    # the frozen witness needs degree 5, whatever the bound
    res = orb.tangentiality_check(orb.split_embed, Fraction(5, 4), max(bound + 1, 5))
    ok = not res["passed"]
    witness_ok = False
    if ok:
        w = res["witness"]
        want_cof = CPoly.monomial(3, (0, 1, 2))
        want_rem = NCPoly(L, {(0, 2): H * Fraction(1, 2),
                              (1,): H * H * Fraction(1, 4)})
        witness_ok = w["cofactor"] == want_cof and w["remainder"] == want_rem
    out.append(_case("tangential",
                     "split embed fails on the shifted level 5/4", ok))
    out.append(_case("tangential",
                     "failure witness is y z^2 with remainder "
                     "(h/2) X*Z + (h^2/4) Y", witness_ok,
                     None if witness_ok else {
                         "cofactor": _fmt(res["witness"]["cofactor"], L),
                         "remainder": format_ncpoly(res["witness"]["remainder"]),
                     } if not res["passed"] else "check passed unexpectedly"))
    for embed, label in ((orb.split_embed, "split"),
                         (orb.tangential_embed, "tangential")):
        res = orb.reduction_compatibility_check(embed, bound)
        out.append(_case("tangential",
                         f"{label} embed commutes with reduction (deg<={bound})",
                         res["passed"]))
    return out


def suite_invariant_mult(max_degree=None, **_):
    """Invariants multiply undeformed under the tangential product; the
    symmetrizer product violates this."""
    orb = sphere_orbit(1)
    L = orb.algebra
    bound = max_degree or 3
    x, y, z = _vars(L)
    p = x * x + y * y + z * z
    out = []
    res = orb.invariant_product_check(orb.tangential_product(), bound)
    out.append(_case("invariant-mult",
                     f"tangential product: g * p == g p (deg g <= {bound})",
                     res["passed"], res["witness"]))
    star = symmetrizer_product(L)
    diff = star.star(x, p) - x * p
    want = x * (H * H * Fraction(-1, 3))
    out.append(_case("invariant-mult",
                     "symmetrizer product: x * p - x p == -(h^2/3) x",
                     diff == want, None if diff == want else _fmt(diff, L)))
    res = orb.invariant_product_check(star, bound)
    witness = None
    if not res["passed"]:
        w = res["witness"]
        witness = {
            "factor": _fmt(w["factor"], L),
            "invariant": _fmt(w["invariant"], L),
            "discrepancy": _fmt(w["got"] - w["expected"], L),
        }
    out.append(_case("invariant-mult",
                     "symmetrizer product violates invariant multiplication",
                     not res["passed"], witness))
    return out


def suite_reps(lambda_bound=None, **_):
    """Casimir scalars, highest-weight values, and the spectrum witness."""
    su2 = _su2()
    sl2 = predefined("sl2")
    bound = lambda_bound or 20
    out = []
    defining = su2_defining_rep()
    adj = adjoint_rep(su2)
    out.append(_case("reps", "defining rep satisfies the brackets",
                     validate_rep(su2, defining)))
    out.append(_case("reps", "adjoint rep satisfies the brackets",
                     validate_rep(su2, adj)))
    P = NCPoly(su2, {(0, 0): H_ONE, (1, 1): H_ONE, (2, 2): H_ONE})
    ok = casimir_scalar(P, defining, 1) == GaussianRational(Fraction(-3, 4))
    out.append(_case("reps", "casimir scalar -3/4 on the defining rep", ok))
    ok = casimir_scalar(P, adj, 1) == GaussianRational(-2)
    out.append(_case("reps", "casimir scalar -2 on the adjoint rep", ok))

    omega = sl2_casimir(sl2)
    hw = highest_weight_casimir(sl2, omega)
    want = CPoly(1, {(2,): HPoly.const(Fraction(1, 2)), (1,): H})
    out.append(_case("reps", "highest-weight casimir == lambda^2/2 + h lambda",
                     hw == want, None if hw == want else format_cpoly(hw, ("lambda",))))
    # cross identity: omega maps to -2 P under F -> iX + Y, H -> 2iZ, E -> iX - Y
    i = GaussianRational(0, 1)
    X, Y, Z = (NCPoly.generator(su2, k) for k in range(3))
    images = [X * i + Y, Z * (2 * i), X * i - Y]
    out.append(_case("reps", "casimir cross identity omega == -2 P",
                     substitute_generators(omega, images) == P * (-2)))
    # spin values lambda = d - 1 tie the two computations together
    for d, rep in ((2, defining), (3, adj)):
        lam = GaussianRational(d - 1)
        hw_val = hw.evaluate((lam,)).evaluate(1)
        omega_val = casimir_scalar(P, rep, 1) * (-2)
        out.append(_case("reps", f"hw value at lambda={d - 1} matches the "
                         f"{d}-dim rep", hw_val == omega_val))
    report = nonisomorphism_witness(HPoly.const(4),
                                    HPoly.const(4) + H * Fraction(1, 3), bound)
    ok = (report["spectrum_a"] == [2] and report["spectrum_b"] == []
          and report["witness_found"])
    out.append(_case("reps", "lifts 4 and 4 + h/3 give disjoint spectra "
                     f"{{2}} vs {{}} (bound {bound})", ok, report))
    same = nonisomorphism_witness(HPoly.const(4), HPoly.const(4), bound)
    out.append(_case("reps", "equal lifts give no witness",
                     not same["witness_found"]))
    zero = nonisomorphism_witness(HPoly.const(0), HPoly.const(0), bound)
    out.append(_case("reps", "zero lift admits the trivial weight",
                     zero["spectrum_a"] == [0]))
    return out


def suite_cohomology(max_degree=None, seed=0, **_):
    """Differential identities, vanishing H^2, and the solver round trip."""
    su2 = _su2()
    bound = max_degree if max_degree is not None else 4
    rng = random.Random(seed)
    out = []
    ok = True
    for d in range(bound + 1):
        image = d2(su2, d1(su2, random_cochain1(su2, d, rng)))
        if not all(v.is_zero() for v in image.values()):
            ok = False
            break
    out.append(_case("cohomology", f"d2(d1(C)) == 0 on random cochains "
                     f"(deg<={bound})", ok))

    dims = [h2_dimension(su2, d) for d in range(bound + 1)]
    out.append(_case("cohomology", f"h2 dimensions 0..{bound} all vanish",
                     all(v == 0 for v in dims), dims))

    ok = all(coboundary_roundtrip(su2, d, rng) for d in range(min(bound, 3) + 1))
    out.append(_case("cohomology", "coboundary solver round-trips d1 images", ok))

    ab = LieAlgebra(("A", "B"), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    nonzero = h2_dimension(ab, 0)
    out.append(_case("cohomology", "abelian control has nonzero H^2",
                     nonzero > 0, nonzero))
    stuck = solve_coboundary(ab, Cochain2(ab, {(0, 1): CPoly.one(2)}), 0)
    out.append(_case("cohomology", "constant cocycle on the abelian algebra "
                     "is not a coboundary", stuck is None))
    return out


def suite_grading(seed=0, **_):
    """Grading of the defining relations, multiplicativity of the h -> 0
    projection, and specialization compatibility."""
    L = _su2()
    rng = random.Random(seed)
    out = []
    ok = True
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            rel = NCPoly.word(L, (i, j)) - NCPoly.word(L, (j, i))
            for k, v in L.bracket_terms(i, j):
                rel = rel - NCPoly(L, {(k,): H * v})
            if not rel.is_graded_homogeneous():
                ok = False
    out.append(_case("grading", "defining relations are graded-homogeneous "
                     "(deg X_i = deg h = 1)", ok))

    def rand_element(max_len=4, nterms=4):
        terms = {}
        for _ in range(nterms):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, max_len)))
            terms[w] = HPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        return NCPoly(L, terms)

    ok = True
    for _ in range(20):
        a, b = rand_element(), rand_element()
        if (a * b).project_h0() != a.project_h0() * b.project_h0():
            ok = False
            break
    out.append(_case("grading", "h -> 0 projection is multiplicative on "
                     "random pairs", ok))

    ok = True
    for _ in range(20):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
        e = NCPoly.word(L, w).normal_form()
        if not e.is_graded_homogeneous():
            ok = False
            break
        if e.graded_degree() != len(w):
            ok = False
            break
    out.append(_case("grading", "normal form preserves the graded degree of "
                     "words", ok))

    ok = True
    for _ in range(20):
        a, b = rand_element(), rand_element()
        h0 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        lhs = (a * b).specialize(h0)
        rhs = multiply_at(a.specialize(h0), b.specialize(h0), h0)
        if lhs != rhs:
            ok = False
            break
    out.append(_case("grading", "specialization commutes with multiplication",
                     ok))

    ok = True
    for _ in range(30):
        pa = HPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        pb = HPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        h0 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if (pa * pb).evaluate(h0) != pa.evaluate(h0) * pb.evaluate(h0):
            ok = False
        k = rng.randint(0, 4)
        if (pa * pb).truncate(k) != (pa.truncate(k) * pb.truncate(k)).truncate(k):
            ok = False
    out.append(_case("grading", "h-evaluation is a ring map and truncation "
                     "is compatible with products", ok))
    return out


SUITES_VERSION = "1"

SUITES = {
    "pbw": suite_pbw,
    "centrality": suite_centrality,
    "sym-star": suite_sym_star,
    "orbit-star": suite_orbit_star,
    "lemma": suite_lemma,
    "bidiff": suite_bidiff,
    "tangential": suite_tangential,
    "invariant-mult": suite_invariant_mult,
    "reps": suite_reps,
    "cohomology": suite_cohomology,
    "grading": suite_grading,
}


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


# pbw is about half of `verify all` (0.35-0.43 s against 0.44 s for the
# other ten suites together, on 2 CPUs), so with two workers it already
# sets the wall time and a third worker would only add a copy of the memos.
_MAX_WORKERS = 2


def _guarded(name, options):
    """A pool worker's outcome: (reports, None), or (None, the one-line
    description of the fault).  The description travels instead of the
    exception, so an exception that cannot be pickled reaches the parent
    unchanged."""
    try:
        return run_suite(name, **options), None
    except Exception as exc:
        return None, describe(exc)


def _fork_context():
    """The fork start method, or None where the platform lacks it or
    another thread runs (forking then may deadlock the child)."""
    import multiprocessing
    import threading

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    if threading.active_count() > 1:
        return None
    return multiprocessing.get_context("fork")


def _run_in_pool(names, workers, context, options):
    from concurrent.futures import ProcessPoolExecutor

    reports = []
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        # submitted in order, so the longest suite, pbw, starts first
        futures = [pool.submit(_guarded, name, options) for name in names]
        try:
            for name, future in zip(names, futures):
                try:
                    cases, fault = future.result()
                except Exception as exc:  # a worker died (BrokenProcessPool)
                    raise InternalError(f"suite {name}: {describe(exc)}") from exc
                if fault is not None:
                    raise InternalError(f"suite {name}: {fault}")
                reports.extend(cases)
        finally:
            pool.shutdown(cancel_futures=True)
    return reports


def run_suites(names=None, **options):
    """The reports of the named suites (all of them by default), in order.

    With more than one suite and more than one available CPU the suites run
    in a pool of up to two forked processes, which inherit this
    process's memo tables; the reports are the same as those of the
    in-process loop.  An exception escaping a suite raises InternalError
    for the first such suite in the order of `names`; in-process, the
    exception is its cause.
    """
    names = list(SUITES if names is None else names)
    _check_known(names)
    workers = min(len(names), available_cpus(), _MAX_WORKERS)
    context = _fork_context() if workers > 1 else None
    if context is not None:
        return _run_in_pool(names, workers, context, options)
    reports = []
    for name in names:
        try:
            reports.extend(run_suite(name, **options))
        except Exception as exc:
            raise InternalError(f"suite {name}: {describe(exc)}") from exc
    return reports
