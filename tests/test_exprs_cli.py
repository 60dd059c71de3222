import json
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
from orbitstar.scalars import GaussianRational, HPoly, format_hpoly


def test_parse_invariant(su2, casimir_poly):
    assert parse_expression("x^2+y^2+z^2", algebra=su2) == casimir_poly


def test_parse_scalars_and_h():
    assert parse_scalar("3/2") == GaussianRational(Fraction(3, 2))
    assert parse_scalar("i") == GaussianRational(0, 1)
    assert parse_hpoly("3/2 + 2*i*h^2") == HPoly(
        [Fraction(3, 2), 0, GaussianRational(0, 2)]
    )
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
                    GaussianRational(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2)),
                    )
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
                GaussianRational(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                )
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


def test_cli_unknown_suite(capsys):
    assert cli.main(["verify", "nope"]) == 2


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


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("algebra", [1, 2], "the top level must be a JSON object"),
        ("algebra", {"dim": None}, "int() argument"),
        ("algebra", {"dim": 3, "names": 5, "brackets": []}, "has no len()"),
        ("algebra", {"dim": 3, "names": ["X", "Y", "Z"], "brackets": 7},
         "is not iterable"),
        ("reduce", {"algebra": "su2", "invariants": ["x^2+y^2+z^2"]},
         "missing key 'constants'"),
        ("reduce", {"algebra": "su2", "orbit": [1]}, '"orbit" must be a JSON object'),
        ("reduce", {"invariants": ["x^2+y^2+z^2", "(x^2+y^2+z^2)^2"],
                    "constants": ["1", "2"]}, "only the sum-of-squares orbit"),
    ],
    ids=["top-level-list", "dim-null", "names-int", "brackets-int",
         "orbit-missing-constants", "orbit-entry-list", "orbit-two-invariants"],
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
