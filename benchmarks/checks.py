"""The benchmark's correctness gate.

Each printed result is compared with the digest recorded in golden.json.
The independent checks below test results against facts that do not come
from the word-rewriting kernel:

- products: the h^0 coefficient is f*g multiplied as commutative
  polynomials (orbit-reduced for the orbit product), and the antisymmetric
  h^1 part B1(f,g) - B1(g,f) is the Kirillov bracket {f,g};
- reduce --mode ideal: the remainder r is canonical with Z-exponent <= 1,
  and u = q*(P - c(h)) + r holds in the defining representation of su2 at
  the operation's rational h0;
- reduce --mode orbit: the remainder has z-exponent <= 1 and agrees with
  the input at rational points of the sphere x^2 + y^2 + z^2 = 2;
- verify all: exactly EXPECTED_CASES cases, every one passing, exit 0.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
EXPECTED_CASES = 60

# Rational points on x^2 + y^2 + z^2 = 2: the second intersection of the
# line through (1, 1, 0) with direction d.
_DIRECTIONS = ((1, 2, 3), (2, -1, 1), (3, 1, -2), (1, 0, 1), (-2, 3, 1))


def _sphere_points():
    base = (Fraction(1), Fraction(1), Fraction(0))
    out = []
    for d in _DIRECTIONS:
        t = Fraction(-2 * sum(b * x for b, x in zip(base, d)), sum(x * x for x in d))
        out.append(tuple(b + t * x for b, x in zip(base, d)))
    return out


SPHERE_POINTS = _sphere_points()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def count_attempted(ops):
    return sum(EXPECTED_CASES if op["kind"] == "verify" else 1 for op in ops)


def _verify_failures(text):
    data = json.loads(text)
    reports = data["reports"]
    failed = sum(1 for r in reports if r["status"] != "pass")
    failed += abs(EXPECTED_CASES - len(reports))
    if data["exit"] != 0:
        failed = max(failed, 1)
    return min(failed, EXPECTED_CASES)


def count_failures(ops, outs, golden):
    """Failed operations of one pass: raised, or printed a result whose
    digest differs from the golden one."""
    failed = 0
    for op, text in zip(ops, outs):
        if op["kind"] == "verify":
            bad = EXPECTED_CASES if text is None else _verify_failures(text)
            if bad:
                print(f"verify all: {bad} cases failed or missing", file=sys.stderr)
            failed += bad
        elif text is None or golden.get(op["id"]) != digest(text):
            failed += 1
            print(f"operation {op['id']} does not match its golden digest",
                  file=sys.stderr)
    return failed


def _check_star(engine, op, text):
    from orbitstar import kirillov_bracket

    f, g = (engine.parse(a) for a in op["args"])
    got = engine.parse(text)
    if op["product"] == "orbit":
        reduce = engine.orbit.orbit_reduce
    else:
        reduce = lambda p: p
    if got.h_coefficient(0) != reduce(f * g):
        return "h^0 coefficient is not f*g"
    swapped = engine.products[op["product"]].star(g, f)
    antisym = got.h_coefficient(1) - swapped.h_coefficient(1)
    if antisym != reduce(kirillov_bracket(engine.L, f, g)):
        return "antisymmetric h^1 part is not the Kirillov bracket"
    return None


def _check_ideal(engine, op, text):
    from orbitstar import evaluate, su2_defining_rep
    from orbitstar.linalg import mat_add, mat_mul

    z = engine.L.dim - 1
    rem = engine.parse(text, noncommutative=True)
    for w in rem.terms:
        if any(a > b for a, b in zip(w, w[1:])) or w.count(z) > 1:
            return f"remainder word {w} is not reduced"
    u = engine.parse(op["args"][0], noncommutative=True)
    q, r = engine.orbit.ideal_reduce(u.normal_form(), track_quotient=True)
    if r != rem:
        return "remainder differs from the tracked reduction"
    rep = su2_defining_rep()
    h0 = Fraction(op["h0"])
    lhs = evaluate(u, rep, h0)
    rhs = mat_add(
        mat_mul(evaluate(q, rep, h0),
                evaluate(engine.orbit.casimir_minus_lift(), rep, h0)),
        evaluate(r, rep, h0),
    )
    if lhs != rhs:
        return "u != q*(P - c(h)) + r in the defining representation"
    return None


def _check_orbit_reduce(engine, op, text):
    f = engine.parse(op["args"][0])
    rem = engine.parse(text)
    if any(e[-1] > 1 for e in rem.terms):
        return "remainder has z-exponent above 1"
    for pt in SPHERE_POINTS:
        if f.evaluate(pt) != rem.evaluate(pt):
            return f"remainder differs from the input at {pt}"
    return None


def independent_failures(engine, ops, outs):
    """Number of operations whose result fails an independent check."""
    failed = 0
    for op, text in zip(ops, outs):
        if text is None or op["kind"] == "verify":
            continue  # already counted by count_failures
        if op["kind"] == "star":
            problem = _check_star(engine, op, text)
        elif op["mode"] == "ideal":
            problem = _check_ideal(engine, op, text)
        else:
            problem = _check_orbit_reduce(engine, op, text)
        if problem:
            failed += 1
            print(f"operation {op['id']}: {problem}", file=sys.stderr)
    return failed
