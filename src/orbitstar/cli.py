"""Command-line front end.

Subcommands: algebra, nf, star, reduce, verify, rep, cohomology.  Exit
codes: 0 on success, 1 when a verification suite fails, 2 on configuration,
parse or option errors (a negative bound, or a zero one in verify), 3 on an
internal fault (an exception escaping a verification suite, or any other
unexpected exception).  A closed stdout ends the command silently.
`verify all` runs its suites through `verify.run_suites`, in up to two
forked child processes when more than one CPU is available; its output
and exit code do not depend on that.  The modules only `verify`, `rep` and
`cohomology` run are imported by those subcommands (and by the exit-3
handler, for `verify.describe`), so the other commands never compile them.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
from fractions import Fraction

from . import linalg
from .envelope import NCPoly
from .exprs import (
    ExprSyntaxError,
    format_cpoly,
    format_ncpoly,
    parse_expression,
    parse_hpoly,
    parse_rational,
)
from .lie import (
    LieAlgebra,
    adjoint_rep,
    algebra_from_json,
    killing_form,
    orbit_algebra,
    predefined,
)
from .orbit import Orbit, orbit_from_json, sphere_orbit
from .quantize import symmetrizer_product, pbw_basis_product
from .scalars import H_ONE, format_scalar


class CLIError(Exception):
    """A configuration problem; reported on stderr with exit code 2."""


def _check_bound(flag, value, least):
    """Reject a bound below `least` as bad input."""
    if value is not None and value < least:
        raise CLIError(f"{flag} must be at least {least}, not {value}")


def _load_config(args):
    """The --config file's top-level JSON object, or None without --config."""
    path = args.config
    if not path:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CLIError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CLIError(f"config {path}: the top level must be a JSON object")
    return data


def _from_config(path, load, *args, **kwargs):
    """Call a JSON loader, turning a malformed description into a CLIError."""
    try:
        return load(*args, **kwargs)
    except KeyError as exc:
        raise CLIError(f"config {path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise CLIError(f"config {path}: {exc}") from exc


def _resolve_algebra(args, data) -> LieAlgebra:
    """The algebra of the loaded config `data`, else --name, else su2."""
    if data is None:
        return predefined(args.name or "su2")
    if "dim" not in data and data.keys() & {"algebra", "invariants", "orbit"}:
        return _from_config(args.config, orbit_algebra, data)
    return _from_config(args.config, algebra_from_json, data)


def _level_and_lift(args):
    """--c and --lift parsed, each None when not given.  Bad text is bad
    input whether or not the command goes on to read the orbit."""
    c0 = None if args.c is None else parse_rational(args.c)
    lift = None if args.lift is None else parse_hpoly(args.lift)
    return c0, lift


def _resolve_orbit(args, data, algebra) -> Orbit:
    """The orbit of the loaded config `data`, else the sphere of --c/--lift."""
    c0, lift = _level_and_lift(args)
    if data is not None:
        if "invariants" in data:
            return _from_config(args.config, orbit_from_json, data, algebra=algebra)
        if "orbit" in data:
            if not isinstance(data["orbit"], dict):
                raise CLIError(f"config {args.config}: \"orbit\" must be a JSON object")
            return _from_config(args.config, orbit_from_json, data["orbit"],
                                algebra=algebra)
    return sphere_orbit(Fraction(1) if c0 is None else c0, lift=lift, algebra=algebra)


def _emit(args, text_lines, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_algebra(args):
    L = _resolve_algebra(args, _load_config(args))
    K = killing_form(L)
    det = linalg.det(K)
    payload = {
        "dim": L.dim,
        "names": list(L.names),
        "varnames": list(L.varnames),
        "jacobi": True,  # the LieAlgebra constructor rejects a failing table
        "killing": [[format_scalar(x) for x in row] for row in K],
        "killing_det": format_scalar(det),
        "semisimple": bool(det),
    }
    lines = [
        f"algebra: dim {L.dim}, generators {', '.join(L.names)}",
        "jacobi identity: ok",
        f"killing determinant: {payload['killing_det']}"
        f" ({'semisimple' if payload['semisimple'] else 'degenerate'})",
    ]
    _emit(args, lines, payload)
    return 0


def cmd_nf(args):
    L = _resolve_algebra(args, _load_config(args))
    value = parse_expression(args.expr, mode="noncommutative", algebra=L)
    nf = value.normal_form()
    text = format_ncpoly(nf)
    _emit(args, [text], {"input": args.expr, "normal_form": text})
    return 0


def _select_product(args, data, L):
    name = args.product
    if name in ("sym", "pbw"):
        _level_and_lift(args)  # unread here, but bad text is still bad input
        return symmetrizer_product(L) if name == "sym" else pbw_basis_product(L)
    orbit = _resolve_orbit(args, data, L)
    if name == "orbit":
        return orbit.star_product()
    if name == "tangential":
        return orbit.tangential_product()
    if name == "split":
        return orbit.split_product()
    raise CLIError(f"unknown product {name!r}")


def cmd_star(args):
    data = _load_config(args)
    L = _resolve_algebra(args, data)
    star = _select_product(args, data, L)
    f = parse_expression(args.left, mode="commutative", algebra=L)
    g = parse_expression(args.right, mode="commutative", algebra=L)
    result = star.star(f, g)
    text = format_cpoly(result, L.varnames)
    orders = {}
    max_h = result.h_degree() or 0
    for n in range(max_h + 1):
        layer = result.h_coefficient(n)
        if not layer.is_zero() or n == 0:
            orders[str(n)] = format_cpoly(layer, L.varnames)
    lines = [text]
    for n, layer in orders.items():
        lines.append(f"h^{n}: {layer}")
    _emit(args, lines, {"product": star.name, "result": text, "orders": orders})
    return 0


def cmd_reduce(args):
    data = _load_config(args)
    L = _resolve_algebra(args, data)
    orbit = _resolve_orbit(args, data, L)
    if args.mode == "orbit":
        f = parse_expression(args.expr, mode="commutative", algebra=L)
        out = orbit.orbit_reduce(f)
        text = format_cpoly(out, L.varnames)
    else:
        u = parse_expression(args.expr, mode="noncommutative", algebra=L)
        out = orbit.ideal_reduce(u)
        text = format_ncpoly(out)
    _emit(args, [text], {"mode": args.mode, "input": args.expr, "result": text})
    return 0


def cmd_verify(args):
    from . import verify

    # a suite reads 0 as its default bound, so only positive bounds are honoured
    _check_bound("--max-degree", args.max_degree, 1)
    _check_bound("--lambda-bound", args.lambda_bound, 1)
    if args.list:
        lines = sorted(verify.SUITES)
        _emit(args, lines, {"suites": lines, "version": verify.SUITES_VERSION})
        return 0
    c0, lift = _level_and_lift(args)
    if c0 is not None or lift is not None:
        # a bad level or lift is an input error, not a fault of a suite
        sphere_orbit(1 if c0 is None else c0, lift=lift)
    if args.suite in (None, "all"):
        names = list(verify.SUITES)
    elif args.suite in verify.SUITES:
        names = [args.suite]
    else:
        raise CLIError(f"unknown suite {args.suite!r}; use verify --list")
    reports = verify.run_suites(names, max_degree=args.max_degree,
                                lambda_bound=args.lambda_bound, seed=args.seed,
                                c0=c0, lift=lift)
    lines = []
    for rep in reports:
        mark = "PASS" if rep["status"] == "pass" else "FAIL"
        lines.append(f"[{mark}] {rep['suite']}: {rep['case']}")
        if rep["status"] != "pass" and rep.get("witness") is not None:
            lines.append(f"       witness: {rep['witness']}")
    failed = [r for r in reports if r["status"] != "pass"]
    lines.append(f"{len(reports) - len(failed)}/{len(reports)} cases passed")
    _emit(args, lines, reports)
    return 1 if failed else 0


def cmd_rep(args):
    from .reps import (casimir_scalar, highest_weight_casimir, nonisomorphism_witness,
                       sl2_casimir, su2_defining_rep)

    _check_bound("--lambda-bound", args.lambda_bound, 0)
    su2 = predefined("su2")
    sl2 = predefined("sl2")
    P = NCPoly(su2, {(0, 0): H_ONE, (1, 1): H_ONE, (2, 2): H_ONE})
    scalars = {
        "defining": format_scalar(casimir_scalar(P, su2_defining_rep(), 1)),
        "adjoint": format_scalar(casimir_scalar(P, adjoint_rep(su2), 1)),
    }
    omega = sl2_casimir(sl2)
    hw = highest_weight_casimir(sl2, omega)
    lift_a = parse_hpoly(args.lift) if args.lift else parse_hpoly("4")
    lift_b = parse_hpoly(args.lift_b) if args.lift_b else parse_hpoly("4 + h*(1/3)")
    witness = nonisomorphism_witness(lift_a, lift_b, args.lambda_bound)
    payload = {
        "casimir_scalars_h1": scalars,
        "highest_weight_casimir": format_cpoly(hw, ("lambda",)),
        "witness": witness,
    }
    lines = [
        f"casimir scalar on the defining rep (h=1): {scalars['defining']}",
        f"casimir scalar on the adjoint rep (h=1): {scalars['adjoint']}",
        f"highest-weight casimir: {payload['highest_weight_casimir']}",
        f"lift {witness['lift_a']}: weights {witness['spectrum_a']}",
        f"lift {witness['lift_b']}: weights {witness['spectrum_b']}",
        ("disjoint spectra witness found" if witness["witness_found"]
         else "no disjointness witness"),
    ]
    _emit(args, lines, payload)
    return 0


def cmd_cohomology(args):
    from .cohomology import coboundary_roundtrip, h2_dimension

    _check_bound("--max-degree", args.max_degree, 0)
    L = _resolve_algebra(args, _load_config(args))
    bound = args.max_degree if args.max_degree is not None else 4
    dims = {d: h2_dimension(L, d) for d in range(bound + 1)}
    rng = random.Random(args.seed)
    certificates = {d: coboundary_roundtrip(L, d, rng) for d in range(bound + 1)}
    payload = {
        "h2_dimension": {str(d): v for d, v in dims.items()},
        "solver_roundtrip": {str(d): v for d, v in certificates.items()},
    }
    lines = [f"h2 dimension at degree {d}: {v}" for d, v in dims.items()]
    lines += [
        f"coboundary solver round-trip at degree {d}: "
        f"{'ok' if v else 'FAILS'}"
        for d, v in certificates.items()
    ]
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: one `error: ...` line and exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="orbitstar",
        description="Exact star products on coadjoint orbits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, orbit_flags=True, algebra_flags=True):
        if algebra_flags:
            p.add_argument("--config", help="JSON config file (algebra/orbit)")
            p.add_argument("--name", choices=("su2", "sl2"),
                           help="predefined algebra (default su2)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if orbit_flags:
            p.add_argument("--c", help="orbit level constant (rational)")
            p.add_argument("--lift", help="ideal lift, a polynomial in h")

    p = sub.add_parser("algebra", help="validate and inspect an algebra")
    common(p, orbit_flags=False)
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("nf", help="normal form of a noncommutative expression")
    common(p, orbit_flags=False)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("star", help="star product of two polynomials")
    common(p)
    p.add_argument("--product", default="sym",
                   choices=("sym", "pbw", "orbit", "tangential", "split"))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("reduce", help="reduce modulo the orbit ideal")
    common(p)
    p.add_argument("--mode", choices=("orbit", "ideal"), default="orbit",
                   help="orbit: commutative input; ideal: noncommutative")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", help="run a named verification suite")
    common(p, algebra_flags=False)  # the suites fix their own algebra, su2
    p.add_argument("suite", nargs="?", help="suite name, or 'all'")
    p.add_argument("--list", action="store_true", help="list suites")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--lambda-bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rep", help="casimir scalars and the spectrum witness")
    common(p, orbit_flags=False, algebra_flags=False)
    p.add_argument("--lift", help="first ideal lift (default 4)")
    p.add_argument("--lift-b", help="second ideal lift (default 4 + h/3)")
    p.add_argument("--lambda-bound", type=int, default=20)
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("cohomology", help="h2 dimensions and solver runs")
    common(p, orbit_flags=False)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_cohomology)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CLIError, ExprSyntaxError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        from .verify import InternalError, describe

        text = str(exc) if isinstance(exc, InternalError) else describe(exc)
        print(f"internal error: {text}", file=sys.stderr)
        return 3


def run():
    # a closed stdout ends the process silently, as it does other tools
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    run()
