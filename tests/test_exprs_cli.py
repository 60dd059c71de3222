import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orbitstar
from orbitstar import cli
from orbitstar.envelope import NCPoly
from orbitstar.exprs import (
    ExprSyntaxError,
    format_cpoly,
    format_ncpoly,
    parse_expression,
    parse_hpoly,
    parse_rational,
    parse_scalar,
)
from orbitstar.poly import CPoly, monomials_up_to
from orbitstar.scalars import HPoly, I, format_hpoly


def test_parse_invariant(su2, casimir_poly):
    assert parse_expression("x^2+y^2+z^2", algebra=su2) == casimir_poly


def test_parse_scalars_and_h():
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("i") == I
    assert parse_hpoly("3/2 + 2*i*h^2") == HPoly([Fraction(3, 2), 0, 2 * I])
    assert parse_rational("-5/3") == Fraction(-5, 3)
    with pytest.raises(ValueError):
        parse_rational("i")


def test_parse_noncommutative_preserves_order(su2):
    value = parse_expression("Y*X", mode="noncommutative", algebra=su2)
    assert value == NCPoly.word(su2, (1, 0))
    assert not value.is_canonical()


def test_parse_power_and_groups(su2):
    value = parse_expression("(x + y)^2", algebra=su2)
    x, y = CPoly.variable(3, 0), CPoly.variable(3, 1)
    assert value == x * x + x * y * 2 + y * y


def test_parse_noncommutative_power_concatenates(su2):
    parse = lambda text: parse_expression(text, mode="noncommutative", algebra=su2)
    assert parse("(Y*X)^2") == NCPoly.word(su2, (1, 0, 1, 0))
    assert parse("(X + Y)^3") == parse("(X + Y)*(X + Y)*(X + Y)")
    assert parse("(Y*X)^2").normal_form() == parse("Y*X") * parse("Y*X")


def test_exponent_cap(su2):
    value = parse_expression("(x + y)^64", algebra=su2)
    assert len(value.terms) == 65
    assert value.coeff((32, 32, 0)) == math.comb(64, 32)
    assert parse_expression("x^0064", algebra=su2) == CPoly.monomial(3, (64, 0, 0))
    for text in ("x^65", "x^99999999999", "(x + 1)^100"):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, algebra=su2)
        assert str(err.value) == f"exponent above 64 at offset {text.index('^') + 1}"


def test_syntax_error_position(su2):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x + * y", algebra=su2)
    assert err.value.position == 4
    assert "offset 4" in str(err.value)


def test_unknown_name(su2):
    with pytest.raises(ExprSyntaxError):
        parse_expression("x + w", algebra=su2)
    with pytest.raises(ExprSyntaxError):
        parse_expression("X*Q", mode="noncommutative", algebra=su2)


def test_leading_minus(su2):
    x = CPoly.variable(3, 0)
    assert parse_expression("-x", algebra=su2) == -x
    assert parse_expression("(-x)^2", algebra=su2) == x * x


def test_format_golden(su2):
    nf = NCPoly.word(su2, (1, 0)).normal_form()
    assert format_ncpoly(nf) == "X*Y - h*Z"
    x, y = CPoly.variable(3, 0), CPoly.variable(3, 1)
    assert format_cpoly(CPoly.one(3) - x * x - y * y, su2.varnames) == "1 - x^2 - y^2"
    assert format_cpoly(CPoly.zero(3), su2.varnames) == "0"


def test_cpoly_roundtrip_random(su2):
    rng = random.Random(61)
    monos = monomials_up_to(3, 4)
    for _ in range(40):
        f = CPoly.zero(3)
        for _ in range(rng.randint(1, 5)):
            coeff = HPoly(
                [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    + rng.randint(-2, 2) * I
                    for _ in range(rng.randint(1, 3))
                ]
            )
            f = f + CPoly.monomial(3, rng.choice(monos), coeff)
        text = format_cpoly(f, su2.varnames)
        assert parse_expression(text, algebra=su2) == f
        assert format_cpoly(parse_expression(text, algebra=su2), su2.varnames) == text


def test_ncpoly_roundtrip_random(su2):
    rng = random.Random(62)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
            terms[word] = HPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        u = NCPoly(su2, terms)
        if u.is_zero():
            continue
        text = format_ncpoly(u)
        assert parse_expression(text, mode="noncommutative", algebra=su2) == u


def test_hpoly_roundtrip_random():
    rng = random.Random(63)
    for _ in range(50):
        p = HPoly(
            [
                Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                + Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * I
                for _ in range(rng.randint(0, 4))
            ]
        )
        assert parse_hpoly(format_hpoly(p)) == p


# ---------------------------------------------------------------------------
# CLI behavior.

def test_cli_nf(capsys):
    assert cli.main(["nf", "Y*X"]) == 0
    assert capsys.readouterr().out.strip() == "X*Y - h*Z"


def test_cli_star_orbit(capsys):
    assert cli.main(["star", "--product", "orbit", "--c", "1", "z", "z"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 - x^2 - y^2"
    assert out[1] == "h^0: 1 - x^2 - y^2"


def test_cli_star_sym_orders(capsys):
    assert cli.main(["star", "x", "y", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orders"]["1"] == "1/2*z"
    assert payload["orders"]["0"] == "x*y"


def test_cli_reduce(capsys):
    assert cli.main(["reduce", "--mode", "ideal", "--c", "1", "Z*Z"]) == 0
    assert capsys.readouterr().out.strip() == "-X^2 - Y^2 + 1"
    assert cli.main(["reduce", "--c", "1", "z^3"]) == 0
    assert capsys.readouterr().out.strip() == "z - x^2*z - y^2*z"


def test_cli_parse_error_exit_code(capsys):
    assert cli.main(["star", "x + * y", "y"]) == 2
    assert "offset 4" in capsys.readouterr().err
    assert cli.main(["nf", "Y*X*"]) == 2


def _run_cli(*args, module="orbitstar.cli"):
    src = str(Path(orbitstar.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


def test_cli_zero_denominator_exit_code():
    proc = _run_cli("star", "1/0", "x")
    assert proc.returncode == 2
    assert proc.stderr == "error: zero denominator at offset 0\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "left, char, offset",
    [("x^\u0663", "\u0663", 2), ("\u0663*x", "\u0663", 0), ("2\u00b2", "\u00b2", 1)],
    ids=["arabic-indic-exponent", "arabic-indic-factor", "superscript-two"],
)
def test_cli_digits_are_ascii(capsys, left, char, offset):
    assert cli.main(["star", left, "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unexpected character {char!r} at offset {offset}\n"


def test_cli_huge_exponent_exits_2():
    proc = _run_cli("star", "x^99999999999", "x", module="orbitstar")
    assert proc.returncode == 2
    assert proc.stderr == "error: exponent above 64 at offset 2\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "left, offset",
    [("1" * 5000, 0), ("x + 1/" + "1" * 5000, 4), ("x^" + "0" * 5000 + "5", 2)],
    ids=["long-literal", "long-denominator", "zero-padded-exponent"],
)
def test_cli_long_number_is_a_syntax_error(capsys, left, offset):
    # Python's int refuses more than 4300 digits (leading zeros count), and
    # the parser reports that at the number's offset
    assert cli.main(["star", left, "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: number too long at offset {offset}\n"


def test_long_number_below_the_limit_parses(su2):
    digits = "7" * 4000
    value = parse_expression(f"{digits}/{digits}1 * x^{'0' * 4000}2", algebra=su2)
    assert value == CPoly.monomial(3, (2, 0, 0), Fraction(int(digits), int(digits + "1")))


NINES = "9" * 3000


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("left", [NINES, f"{NINES}/7*i", f"({NINES} + {NINES}*i)*h"],
                         ids=["integer", "imaginary-fraction", "complex"])
def test_cli_long_coefficient_is_bad_input(capsys, left, fmt):
    # the product has a 6000-digit coefficient, past Python's integer-string
    # limit, so it has no printed form that re-parses
    assert cli.main(["star", left, NINES, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == f"error: coefficient too long to print: more than {limit} digits\n"


def test_cli_coefficient_at_the_limit_prints_and_reparses(capsys, su2):
    # (10^2150 - 1)^2 has 4300 digits, exactly the limit
    nines = "9" * 2150
    assert cli.main(["star", nines, f"{nines}*x"]) == 0
    text = capsys.readouterr().out.splitlines()[0]
    assert parse_expression(text, algebra=su2) == CPoly.variable(3, 0) * int(nines) ** 2


@pytest.mark.parametrize("argv, message", [
    (["star", "x", "y", "--c", "abc"], "unknown name 'abc' at offset 0"),
    (["star", "x", "y", "--lift", "1/0"], "zero denominator at offset 0"),
    (["star", "--product", "pbw", "x", "y", "--lift", "1/0"], "zero denominator at offset 0"),
    (["star", "--product", "pbw", "x", "y", "--c", "1+"], "syntax error at offset 2"),
], ids=["sym-c", "sym-lift", "pbw-lift", "pbw-c"])
def test_cli_bad_level_or_lift_exits_2_with_any_product(capsys, argv, message):
    # sym and pbw do not read the orbit, yet a bad --c or --lift is still bad input
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_unknown_suite(capsys):
    assert cli.main(["verify", "nope"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["star", "-x", "y"], "the following arguments are required: right"),
    (["star", "--c", "-1/2", "x", "y"], "argument --c: expected one argument"),
    (["bogus"], "argument command: invalid choice: 'bogus' "),
], ids=["unknown-option", "option-like-value", "unknown-command"])
def test_cli_usage_error_is_one_line(capsys, argv, message):
    # argparse's own usage block would be five lines; its message is one
    assert _usage_error(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), lines
    proc = _run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", captured.err)


def test_cli_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["star", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: orbitstar star ")


@pytest.mark.parametrize("exc", [RuntimeError("boom"), ValueError("bad\nvalue"),
                                 KeyError("k")])
def test_cli_suite_fault_exits_3(monkeypatch, capsys, exc):
    from orbitstar import verify

    def broken(**_):
        raise exc

    monkeypatch.setitem(verify.SUITES, "lemma", broken)
    # with two CPUs `verify all` runs its suites in a pool of forked processes
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)
    assert cli.main(["verify", "lemma"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: suite lemma: ")
    assert type(exc).__name__ in lines[0] and "Traceback" not in captured.err
    # the suites before a faulty one are not reported either
    assert cli.main(["verify", "all"]) == 3
    captured_all = capsys.readouterr()
    assert captured_all.out == "" and captured_all.err == captured.err


def test_cli_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "cmd_algebra", broken)
    assert cli.main(["algebra"]) == 3
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: division by zero\n"


def test_cli_bad_verify_input_exits_2(capsys):
    assert cli.main(["verify", "orbit-star", "--c", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: regular orbit needs")
    assert cli.main(["verify", "orbit-star", "--lift", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: lift must restrict")


def test_cli_verify_pbw_low_bound(capsys):
    assert cli.main(["verify", "pbw", "--max-degree", "3"]) == 0
    assert "confluence on all words of length <= 5" in capsys.readouterr().out


def test_cli_verify_tangential_low_bound(capsys):
    assert cli.main(["verify", "tangential", "--max-degree", "3"]) == 0
    assert "9/9 cases passed" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--max-degree", "-1"],
    ["verify", "reps", "--lambda-bound", "-3"],
    ["verify", "--max-degree", "0"],
    ["verify", "reps", "--lambda-bound", "0"],
    ["rep", "--lambda-bound", "-3"],
    ["cohomology", "--max-degree", "-1"],
], ids=lambda argv: " ".join(argv))
def test_cli_bad_bound_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {argv[-2]} must be at least ")


def test_cli_zero_bound_where_honoured(capsys):
    assert cli.main(["rep", "--lambda-bound", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"]["lambda_bound"] == 0
    assert cli.main(["cohomology", "--max-degree", "0"]) == 0
    assert capsys.readouterr().out == ("h2 dimension at degree 0: 0\n"
                                       "coboundary solver round-trip at degree 0: ok\n")


def test_cli_verify_list(capsys):
    assert cli.main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("pbw", "lemma", "bidiff", "reps", "cohomology"):
        assert name in out


def test_cli_verify_suite_json_schema(capsys):
    assert cli.main(["verify", "centrality", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports
    for rep in reports:
        assert rep["suite"] == "centrality"
        assert "case" in rep and rep["status"] in ("pass", "fail")


def test_cli_verify_lemma(capsys):
    assert cli.main(["verify", "lemma", "--max-degree", "4"]) == 0
    assert "cases passed" in capsys.readouterr().out


def test_cli_rep_json(capsys):
    assert cli.main(["rep", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["casimir_scalars_h1"] == {"defining": "-3/4", "adjoint": "-2"}
    assert payload["witness"]["spectrum_a"] == [2]
    assert payload["witness"]["witness_found"] is True


@pytest.mark.parametrize("argv", [
    ["rep", "--lift="], ["rep", "--lift-b="], ["star", "--lift=", "x", "y"],
    ["verify", "centrality", "--lift="],
], ids=["rep-lift", "rep-lift-b", "star", "verify"])
def test_cli_empty_lift_exits_2(capsys, argv):
    # an empty lift is bad input on every command, not a request for the default
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: syntax error at offset 0\n"


def test_cli_cohomology(capsys):
    assert cli.main(["cohomology", "--max-degree", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h2_dimension"] == {"0": 0, "1": 0, "2": 0}
    assert all(payload["solver_roundtrip"].values())


def test_cli_algebra_config(tmp_path, capsys):
    config = tmp_path / "algebra.json"
    config.write_text(
        json.dumps(
            {
                "dim": 3,
                "names": ["X", "Y", "Z"],
                "brackets": [
                    [0, 1, [[2, "1"]]],
                    [1, 2, [[0, "1"]]],
                    [0, 2, [[1, "-1"]]],
                ],
            }
        )
    )
    assert cli.main(["algebra", "--config", str(config), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["semisimple"] is True
    assert payload["killing_det"] == "-8"


SO4_CONFIG = {
    "dim": 6,
    "names": ["X1", "Y1", "Z1", "X2", "Y2", "Z2"],
    "brackets": [
        [0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]], [0, 2, [[1, "-1"]]],
        [3, 4, [[5, "1"]]], [4, 5, [[3, "1"]]], [3, 5, [[4, "-1"]]],
    ],
}

# su2 with every bracket scaled by 1/2 + i: its Killing entries 3/2 - 2*i and
# determinant -117/8 - 11/2*i print with both a real and an imaginary part
COMPLEX_SU2_CONFIG = {
    "dim": 3,
    "names": ["X", "Y", "Z"],
    "brackets": [[0, 1, [[2, "1/2 + i"]]], [1, 2, [[0, "1/2 + i"]]],
                 [0, 2, [[1, "-1/2 - i"]]]],
}

# SHA-256 of `orbitstar algebra` stdout, recorded while the Killing form was
# still a dense n^4 sum and computed three times per command (the complex
# config's while scalars were still pairs of Fractions)
ALGEBRA_DIGESTS = {
    ("--name", "su2"): "21fffaf342ff16880adee48bb6e11d1a20654e497d754fb2353fbde511302a66",
    ("--name", "su2", "--format", "json"):
        "fc259132faa7c5193b964cdd8b1e344d79bfd623793c6bc49161d99a5a00aade",
    ("--name", "sl2"): "93454618851116a24b15c9cf523dba5853477258593c173112fa885d4028b609",
    ("--name", "sl2", "--format", "json"):
        "860ffacde1f9c7834acab7788262e89fb9266c035717ba5a7f9239390a443841",
    ("--config", "so4.json"):
        "6cc5665fe1b1d05530bb6f10b34517d06d5b08d425af5132b80e20d9e855edd2",
    ("--config", "so4.json", "--format", "json"):
        "bab80ae73f5cd4102355549d3a67ac0b4ad373df562fc613cf9c80d2b3caae5b",
    ("--config", "su2c.json"):
        "6742436ab12d01b7e190b1df6c30359d936e7107da2ccc8a946986d3dc89636d",
    ("--config", "su2c.json", "--format", "json"):
        "752c54626bb08d8e2e6f60e170bf5ff1c68af5b791d4456b7c316708241d704b",
}


@pytest.mark.parametrize("args", list(ALGEBRA_DIGESTS), ids=" ".join)
def test_cli_algebra_printed_forms(tmp_path, capsys, args):
    (tmp_path / "so4.json").write_text(json.dumps(SO4_CONFIG))
    (tmp_path / "su2c.json").write_text(json.dumps(COMPLEX_SU2_CONFIG))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert cli.main(["algebra", *argv]) == 0
    out = capsys.readouterr().out
    if args == ("--config", "so4.json"):
        assert out.splitlines()[1:] == [
            "jacobi identity: ok", "killing determinant: 64 (semisimple)"]
    if args == ("--config", "su2c.json"):
        assert out.splitlines()[2] == (
            "killing determinant: -117/8 - 11/2*i (semisimple)")
    if args == ("--config", "su2c.json", "--format", "json"):
        data = json.loads(out)
        assert data["killing"][1] == ["0", "3/2 - 2*i", "0"]
        assert data["killing_det"] == "-117/8 - 11/2*i"
    assert hashlib.sha256(out.encode()).hexdigest() == ALGEBRA_DIGESTS[args]


def test_cli_orbit_config(tmp_path, capsys):
    config = tmp_path / "orbit.json"
    config.write_text(
        json.dumps(
            {
                "algebra": "su2",
                "invariants": ["x^2+y^2+z^2"],
                "constants": ["1"],
                "lifts": ["1"],
            }
        )
    )
    assert cli.main(
        ["star", "--product", "orbit", "--config", str(config), "z", "z"]
    ) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 - x^2 - y^2"


@pytest.mark.parametrize(
    "config",
    [
        {"invariants": ["x^2+y^2+z^2"], "constants": ["1"]},
        {"orbit": {"invariants": ["x^2+y^2+z^2"], "constants": ["1"]}},
    ],
    ids=["invariants", "orbit-entry"],
)
def test_cli_orbit_config_without_algebra(tmp_path, capsys, config):
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps(config))
    assert cli.main(["reduce", "z^2"]) == 0
    want = capsys.readouterr().out
    assert cli.main(["reduce", "--config", str(path), "z^2"]) == 0
    assert capsys.readouterr().out == want == "1 - x^2 - y^2\n"


def test_cli_orbit_config_with_two_lifts_for_one_constant_exits_2(tmp_path, capsys):
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({
        "invariants": ["x^2+y^2+z^2"], "constants": ["1"], "lifts": ["1", "2"],
    }))
    assert cli.main(["reduce", "--config", str(path), "--mode", "ideal", "Z*Z"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: config {path}: need one lift per constant"]


@pytest.mark.parametrize("argv", [
    ["star", "--product", "orbit", "x1", "y1"],
    ["star", "--product", "tangential", "x1", "y1"],
    ["star", "--product", "split", "x1", "y1"],
    ["reduce", "z2^2"],
    ["reduce", "--mode", "ideal", "Z2*Z2"],
], ids=["orbit", "tangential", "split", "reduce", "reduce-ideal"])
def test_cli_so4_sphere_exits_2(tmp_path, capsys, argv):
    # x1^2 + ... + z2^2 = 1 is a union of S^2 x S^2 orbits, not a regular one
    path = tmp_path / "so4.json"
    path.write_text(json.dumps(SO4_CONFIG))
    assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: only rank-one orbits are implemented: this semisimple algebra "
        "has dimension 6, not 3"]


@pytest.mark.parametrize("constant, message", [
    ("1.5", "unexpected character '.' at offset 1"),
    ("1e1", "unexpected"),
    ("1_0", "unexpected"),
    (1.5, "unexpected character '.' at offset 1"),
    ("1 + i", "is not a real rational"),
], ids=["1.5", "1e1", "1_0", "json-1.5", "1+i"])
def test_cli_config_constant_outside_the_grammar_exits_2(tmp_path, capsys,
                                                          constant, message):
    # a config's constants read as --c and the lifts do, not as Fraction()
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"invariants": ["x^2+y^2+z^2"],
                                "constants": [constant]}))
    assert cli.main(["reduce", "--config", str(path), "z^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith(f"error: config {path}: ") and message in line


@pytest.mark.parametrize("constant", ["1 + 1/2", "(3/2)", "3/2", "6/4"])
def test_cli_config_constant_reads_with_the_grammar(tmp_path, capsys, constant):
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"invariants": ["x^2+y^2+z^2"],
                                "constants": [constant]}))
    assert cli.main(["reduce", "--config", str(path), "z^2"]) == 0
    assert capsys.readouterr().out == "3/2 - x^2 - y^2\n"
    assert cli.main(["reduce", "--c", constant, "z^2"]) == 0
    assert capsys.readouterr().out == "3/2 - x^2 - y^2\n"


def test_cli_top_level_invariants_win_over_orbit_entry(tmp_path, capsys):
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({
        "invariants": ["x^2+y^2+z^2"], "constants": ["2"],
        "orbit": {"invariants": ["x^2+y^2+z^2"], "constants": ["3"]},
    }))
    assert cli.main(["reduce", "--config", str(path), "z^2"]) == 0
    assert capsys.readouterr().out == "2 - x^2 - y^2\n"


@pytest.mark.parametrize("argv", [
    ["star", "--product", "orbit", "z", "z"],
    ["reduce", "z^2"],
], ids=["star", "reduce"])
def test_cli_reads_config_once(monkeypatch, tmp_path, capsys, argv):
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"invariants": ["x^2+y^2+z^2"], "constants": ["1"]}))
    calls = []
    load = cli._load_config

    def counting(args):
        calls.append(args.config)
        return load(args)

    monkeypatch.setattr(cli, "_load_config", counting)
    assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 - x^2 - y^2"
    assert calls == [str(path)]


def test_python_m_orbitstar():
    proc = _run_cli("nf", "Y*X", module="orbitstar")
    assert proc.returncode == 0
    assert proc.stdout == "X*Y - h*Z\n"


def test_cli_bad_config_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["algebra", "--config", str(missing)]) == 2


_BAD_LABELS = ["1X", "X-1", "", "h", "i"]


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("algebra", [1, 2], "the top level must be a JSON object"),
        ("algebra", {"dim": None}, "dim must be an integer, not None"),
        ("algebra", {"dim": 3, "names": 5, "brackets": []},
         "names must be a JSON list, not 5"),
        ("algebra", {"dim": 3, "names": ["X", "Y", "Z"], "brackets": 7},
         "brackets must be a JSON list, not 7"),
        ("algebra", {"dim": 3, "brackets": [[0, 1, [[5, "1"]]]]},
         "bracket component 5 must satisfy 0 <= k < dim"),
        ("algebra", {"dim": 3, "brackets": [[0, 1, [[-1, "1"]]], [1, 2, [[0, "1"]]],
                                            [0, 2, [[1, "-1"]]]]},
         "bracket component -1 must satisfy 0 <= k < dim"),
        ("reduce", {"algebra": "su2", "invariants": ["x^2+y^2+z^2"]},
         "missing key 'constants'"),
        ("reduce", {"algebra": "su2", "orbit": [1]}, '"orbit" must be a JSON object'),
        ("reduce", {"invariants": ["x^2+y^2+z^2", "(x^2+y^2+z^2)^2"],
                    "constants": ["1", "2"]}, "only the sum-of-squares orbit"),
        # labels must print as text that parses back to them, and an index
        # must not be truncated
        *[("algebra", {"dim": 3, "names": [label, "Y", "Z"], "brackets": []},
           f"generator name {label!r} must be one name of the expression grammar")
          for label in _BAD_LABELS],
        ("algebra", {"dim": 3, "names": ["X", "X", "Z"], "brackets": []},
         "generator names are not distinct"),
        ("algebra", {"dim": 3, "names": ["X", "Y", "Z"], "varnames": ["a", "a", "c"],
                     "brackets": []}, "variable names are not distinct"),
        ("algebra", {"dim": 3, "varnames": ["x-1", "y", "z"], "brackets": []},
         "variable name 'x-1' must be one name"),
        ("algebra", {"dim": 3.9, "brackets": [[0, 1.7, [[2.6, "1"]]], [1, 2, [[0, "1"]]],
                                              [0, 2, [[1, "-1"]]]]},
         "dim must be an integer, not 3.9"),
        ("algebra", {"dim": True, "brackets": []}, "dim must be an integer, not True"),
    ],
    ids=["top-level-list", "dim-null", "names-int", "brackets-int",
         "bracket-component-5", "bracket-component-negative",
         "orbit-missing-constants", "orbit-entry-list", "orbit-two-invariants",
         *[f"name-{label or 'empty'}" for label in _BAD_LABELS],
         "names-repeated", "varnames-repeated", "varname-x-1", "dim-float", "dim-bool"],
)
def test_cli_malformed_config_exit_code(tmp_path, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = [command, "--config", str(path)] + (["x"] if command == "reduce" else [])
    proc = _run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: config {path}: ")
    assert message in lines[0]


_SU2_CONFIG = {"dim": 3, "names": ["X", "Y", "Z"], "varnames": ["a", "b", "c"],
               "brackets": [[0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]],
                            [0, 2, [[1, "-1"]]]]}
_SPHERE_CONFIG = {"algebra": "su2", "invariants": ["x^2+y^2+z^2"],
                  "constants": ["2"], "lifts": ["2"]}
_ORBIT_STAR = ["star", "--product", "orbit", "x", "y"]


@pytest.mark.parametrize("argv, config, field, value, what", [
    (["algebra"], _SU2_CONFIG, "names", "XYZ", "names"),
    (["algebra"], _SU2_CONFIG, "varnames", "abc", "varnames"),
    (["algebra"], _SU2_CONFIG, "brackets", "abc", "brackets"),
    (["algebra"], _SU2_CONFIG, "brackets", ["ab"], "bracket entry"),
    (["algebra"], _SU2_CONFIG, "brackets", [[0, 1, "ab"]], "bracket terms"),
    (_ORBIT_STAR, _SPHERE_CONFIG, "invariants", "x^2+y^2+z^2", "invariants"),
    (_ORBIT_STAR, _SPHERE_CONFIG, "constants", "2", "constants"),
    (_ORBIT_STAR, _SPHERE_CONFIG, "lifts", "2", "lifts"),
], ids=["names", "varnames", "brackets", "bracket-entry", "bracket-terms",
        "invariants", "constants", "lifts"])
def test_cli_config_list_field_given_as_a_string(tmp_path, capsys, argv, config,
                                                 field, value, what):
    # a string is iterable, so an unchecked "XYZ" would load as three names
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, field: value}))
    assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    text = value if isinstance(value, str) else "ab"
    assert captured.err == (f"error: config {path}: {what} must be a JSON list, "
                            f"not {text!r}\n")


def test_cli_names_that_reparse_print_text_that_parses_back(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dim": 3, "names": ["X1", "H", "Z"], "brackets": [
        [0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]], [0, 2, [[1, "-1"]]]]}))
    first = _run_cli("nf", "--config", str(path), "Z*X1")
    assert first.returncode == 0
    assert first.stdout.strip() == "X1*Z + h*H"
    again = _run_cli("nf", "--config", str(path), first.stdout.strip())
    assert again.returncode == 0 and again.stdout == first.stdout


_DIM0 = {"dim": 0, "names": [], "brackets": []}


@pytest.mark.parametrize("argv", [
    ["reduce", "1"],
    ["reduce", "--mode", "orbit", "1"],
    ["star", "--product", "orbit", "1", "1"],
    ["star", "--product", "tangential", "1", "1"],
    ["star", "--product", "split", "1", "1"],
], ids=["reduce-ideal", "reduce-orbit", "orbit", "tangential", "split"])
def test_cli_orbit_commands_reject_a_dim0_algebra(tmp_path, capsys, argv):
    path = tmp_path / "dim0.json"
    path.write_text(json.dumps(_DIM0))
    assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: an orbit needs an algebra of positive dimension\n"


@pytest.mark.parametrize("argv", [
    ["algebra"],
    ["nf", "1"],
    ["star", "--product", "sym", "1", "1"],
    ["star", "--product", "pbw", "1", "1"],
    ["cohomology"],
], ids=["algebra", "nf", "sym", "pbw", "cohomology"])
def test_cli_dim0_algebra_commands_still_run(tmp_path, capsys, argv):
    path = tmp_path / "dim0.json"
    path.write_text(json.dumps(_DIM0))
    assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 0
    assert capsys.readouterr().err == ""


def _usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code


def test_cli_verify_rejects_other_algebra(capsys):
    # verify's suites fix their own algebra, so it registers no --name
    assert _usage_error(["verify", "centrality", "--name", "su2"]) == 2
    assert "--name" in capsys.readouterr().err


def test_cli_verify_rejects_config(capsys):
    assert _usage_error(["verify", "all", "--config", "x"]) == 2
    assert "--config" in capsys.readouterr().err


def test_cli_rep_rejects_config_and_name():
    assert _usage_error(["rep", "--config", "x"]) == 2
    assert _usage_error(["rep", "--name", "sl2"]) == 2
    proc = _run_cli("rep", "--name", "sl2")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_cli_closed_stdout_is_not_a_fault():
    src = str(Path(orbitstar.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitstar", "verify", "centrality"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 3
    assert err == b""
