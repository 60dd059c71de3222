"""A seeded fuzz test of the CLI contract.

Each draw builds one argument vector from a small grammar: expressions with
exponents <= 3, nesting <= 3 and degree <= 3, the flags of every
subcommand at small bounds, and config files whose fields may have the
wrong type or range.  Every draw runs `cli.main` in-process and must keep
the contract: exit 0, 1 or 2; no traceback; on exit 2, exactly one
`error: ...` line on stderr; on exit 0, nothing on stderr.  The one exit 1
is the known `verify reps --lambda-bound=1`, whose bound is too small to
separate the two spectra.  Option values go as `--flag=value`, so each draw
gets past argparse to the engine's own input checks, or in some draws as
`--flag value`, where argparse reads a value such as `-1/2` as an option
and must report that as one `error: ...` line too.
"""

import json
import random

import pytest

from orbitstar import cli
from orbitstar.verify import SUITES

DRAWS = 1000

_SCALARS = ["1", "2", "-1/2", "3/4", "i", "h", "2*i", "h/3", "0"]
_LEVELS = ["1", "2", "-1", "-1/2", "1/2", "0", "5/4", "x", "1/0", "", "abc"]
_LIFTS = ["1", "1 + h", "2 + h/3", "4", "h", "0", "1 + h^2", "x", "1/", "(1"]
_PRODUCTS = ["sym", "pbw", "orbit", "tangential", "split"]
# text that must fail to parse, or name a letter the algebra lacks
_MALFORMED = ["x^", "(x", "x +", "1/0", "x^99999999999", "q", "x**y", "2..3", ")"]

_SU2 = {"dim": 3, "names": ["X", "Y", "Z"],
        "brackets": [[0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]], [0, 2, [[1, "-1"]]]]}
_SPHERE = {"algebra": "su2", "invariants": ["x^2+y^2+z^2"], "constants": ["1"],
           "lifts": ["1 + h"]}
# one field of a valid config replaced by a value of the wrong type or range
_BAD_FIELDS = [
    ("names", "XYZ"), ("varnames", "abc"), ("brackets", "abc"), ("names", 5),
    ("brackets", [[0, 1, "ab"]]), ("brackets", ["ab"]),
    ("dim", 3.0), ("dim", True), ("dim", "3"), ("dim", None), ("dim", 0),
    ("dim", -1), ("brackets", [[0, 1.0, [[2, "1"]]]]),
    ("brackets", [[0, 1, [[True, "1"]]]]), ("brackets", [[0, 5, [[2, "1"]]]]),
    ("brackets", [[0, 1, [[7, "1"]]]]), ("brackets", [[0, 1, [[-1, "1"]]]]),
    ("brackets", [[1, 0, [[2, "1"]]]]), ("names", ["X", "X", "Z"]),
]
_BAD_ORBIT_FIELDS = [
    ("invariants", "x^2+y^2+z^2"), ("constants", "2"), ("constants", "12"),
    ("lifts", "2"), ("constants", [0]), ("constants", ["1", "2"]),
    ("lifts", ["2"]), ("invariants", ["x^2"]), ("algebra", "so3"),
    ("algebra", 3), ("constants", [True]),
]


def _expr(rng, letters, depth, budget):
    """(text, degree) of an expression of degree <= budget."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if budget and rng.random() < 0.7:
            return rng.choice(letters), 1
        return rng.choice(_SCALARS), 0
    if roll < 0.55:
        a, da = _expr(rng, letters, depth - 1, budget)
        b, db = _expr(rng, letters, depth - 1, budget)
        return f"({a} {rng.choice('+-')} {b})", max(da, db)
    if roll < 0.8:
        a, da = _expr(rng, letters, depth - 1, budget)
        b, db = _expr(rng, letters, depth - 1, budget - da)
        return f"{a}*{b}", da + db
    a, da = _expr(rng, letters, depth - 1, budget)
    powers = [e for e in range(4) if da * e <= budget]
    e = rng.choice(powers)
    return f"({a})^{e}", da * e


def _expression(rng, letters):
    if rng.random() < 0.08:
        return rng.choice(_MALFORMED)
    text = _expr(rng, letters, 3, 3)[0]
    # a leading '-' would read as an option; the parser sees it inside parens
    return f"({text})" if text.startswith("-") else text


def _config(rng, path):
    """Write a config file to `path`: valid, or broken in one place."""
    roll = rng.random()
    if roll < 0.1:
        path.write_text('{"dim": 3,')
        return
    if roll < 0.2:
        path.write_text(json.dumps(rng.choice([[1, 2], "su2", 3, None])))
        return
    if roll < 0.55:
        data = dict(_SU2)
        if roll >= 0.25:
            data.update([rng.choice(_BAD_FIELDS)])
    else:
        data = dict(_SPHERE)
        if roll >= 0.6:
            data.update([rng.choice(_BAD_ORBIT_FIELDS)])
    path.write_text(json.dumps(data))


def _algebra_flags(rng, tmp):
    roll = rng.random()
    if roll < 0.4:
        path = tmp / f"config{rng.randrange(10**9)}.json"
        _config(rng, path)
        return [f"--config={path}"], ("X", "Y", "Z"), ("x", "y", "z")
    if roll < 0.6:
        return ["--name=sl2"], ("F", "H", "E"), ("x0", "x1", "x2")
    return [], ("X", "Y", "Z"), ("x", "y", "z")


def _orbit_flags(rng):
    flags = []
    if rng.random() < 0.3:
        flags.append(f"--c={rng.choice(_LEVELS)}")
    if rng.random() < 0.3:
        flags.append(f"--lift={rng.choice(_LIFTS)}")
    return flags


def _draw(seed, tmp):
    rng = random.Random(seed)
    argv = []
    for arg in _argv(rng, tmp):
        flag, eq, value = arg.partition("=")
        if eq and flag.startswith("--") and rng.random() < 0.3:
            argv += [flag, value]
        else:
            argv.append(arg)
    return argv


def _argv(rng, tmp):
    command = rng.choice(["nf", "star", "reduce", "algebra", "rep",
                          "cohomology", "verify"])
    argv = [command]
    if rng.random() < 0.3:
        argv.append("--format=json")
    if command == "verify":
        argv.append(rng.choice(sorted(SUITES)))
        argv.append(f"--max-degree={rng.choice([-1, 0, 1, 1, 2, 2])}")
        if rng.random() < 0.3:
            argv.append(f"--lambda-bound={rng.randint(0, 5)}")
        return argv + _orbit_flags(rng)
    if command == "rep":
        argv.append(f"--lambda-bound={rng.randint(-1, 5)}")
        for flag in ("--lift", "--lift-b"):
            if rng.random() < 0.3:
                argv.append(f"{flag}={rng.choice(_LIFTS)}")
        return argv
    flags, names, varnames = _algebra_flags(rng, tmp)
    argv += flags
    if command == "algebra":
        return argv
    if command == "cohomology":
        return argv + [f"--max-degree={rng.randint(-1, 2)}",
                       f"--seed={rng.randint(0, 3)}"]
    if command == "nf":
        return argv + [_expression(rng, names)]
    argv += _orbit_flags(rng)
    if command == "star":
        return argv + [f"--product={rng.choice(_PRODUCTS)}",
                       _expression(rng, varnames), _expression(rng, varnames)]
    if rng.random() < 0.5:
        return argv + ["--mode=ideal", _expression(rng, names)]
    return argv + ["--mode=orbit", _expression(rng, varnames)]


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("seed", range(DRAWS))
def test_cli_contract(seed, config_dir, capsys):
    argv = _draw(seed, config_dir)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # a usage error exits from argparse
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    elif code == 1:
        words = " ".join(argv).replace("=", " ").split()
        assert words[0] == "verify" and "reps" in words, argv
        assert words[words.index("--lambda-bound") + 1] == "1", argv
    else:
        assert err == "", (argv, err)
