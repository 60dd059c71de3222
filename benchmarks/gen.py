"""Seeded inputs for the benchmark workloads (stdlib only).

Every product and reduction input is drawn from a fixed pool: item i of a
kind is generated by ``random.Random("<kind>/<i>")``, so the pool is the same
on every machine and ``golden.json`` can hold the digest of every item's
printed result.  A run's ``--seed`` picks which pool items it uses and in
which order; the same seed always gives the same operation list.

Inputs are written as the text the ``orbitstar`` CLI accepts
(``3/4*x^2*y - z``, ``X*Z*Y*Z``); the engine only ever sees that text.

Run ``python3 benchmarks/gen.py WORKLOAD SEED`` to print a list.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

POOL_SIZE = 64

# Terms of each generated polynomial: one per entry, given as a degree, or
# as (degree, z-exponent) where the z-content drives the orbit reductions.
# Fixed profiles keep the work per operation nearly the same from seed to
# seed; only the monomials and coefficients vary.
SYM_PROFILE = (1, 1, 2, 2, 3, 3)                        # products reach degree 6
ORBIT_PROFILE = ((1, 1), (2, 0), (3, 1), (4, 0), (4, 1))  # orbit basis, z <= 1
AMBIENT_PROFILE = ((1, 0), (2, 1), (2, 2), (3, 0), (3, 2))
REDUCE_PROFILE = ((3, 2), (4, 3), (5, 2), (6, 4), (7, 3), (8, 2))
# Words for reduce --mode ideal have length 8 + (pool index % 3) and letter
# counts as equal as possible; cost grows fivefold from length 8 to 10, so a
# run takes the same number of words of each length.
WORD_LENGTHS = (8, 9, 10)

# Operations per run, by kind.
WORKLOADS = {
    "verify-all": {},
    "sym-star": {"sym": 24},
    "orbit-ideal": {
        "orbit": 6,
        "tangential": 6,
        "split": 6,
        "ideal": 9,
        "orbitred": 8,
    },
}
STRATA = {"ideal": len(WORD_LENGTHS)}

_VARS = ("x", "y", "z")
_GENS = ("X", "Y", "Z")


def _monomials(term):
    """Exponent vectors of a degree, or of a (degree, z-exponent) pair."""
    degree, z = term if isinstance(term, tuple) else (term, None)
    return [
        (a, degree - a - c, c)
        for c in ([z] if z is not None else range(degree + 1))
        for a in range(degree - c + 1)
    ]


def _coefficient(rng):
    return Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 6))


def _term_text(coeff, exps):
    mono = "*".join(
        v if e == 1 else f"{v}^{e}" for v, e in zip(_VARS, exps) if e
    )
    mag = abs(coeff)
    return ("-" if coeff < 0 else "+"), mono if mag == 1 else f"{mag}*{mono}"


def polynomial(rng, profile):
    """A polynomial with one term for each entry of the profile."""
    pieces = []
    used = set()
    for term in profile:
        exps = rng.choice([e for e in _monomials(term) if e not in used])
        used.add(exps)
        pieces.append(_term_text(_coefficient(rng), exps))
    sign, text = pieces[0]
    out = text if sign == "+" else f"-{text}"
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def word(rng, length):
    extra = rng.sample(_GENS, length % len(_GENS))
    letters = [g for g in _GENS
               for _ in range(length // len(_GENS) + (g in extra))]
    rng.shuffle(letters)
    return "*".join(letters)


def pool_item(kind, index):
    """Item ``index`` of a kind's pool, as an operation dict without h0."""
    rng = random.Random(f"{kind}/{index}")
    op = {"id": f"{kind}/{index}"}
    if kind == "sym":
        op.update(kind="star", product="sym",
                  args=[polynomial(rng, SYM_PROFILE),
                        polynomial(rng, SYM_PROFILE)])
    elif kind == "orbit":
        op.update(kind="star", product="orbit",
                  args=[polynomial(rng, ORBIT_PROFILE),
                        polynomial(rng, ORBIT_PROFILE)])
    elif kind in ("tangential", "split"):
        op.update(kind="star", product=kind,
                  args=[polynomial(rng, AMBIENT_PROFILE),
                        polynomial(rng, AMBIENT_PROFILE)])
    elif kind == "ideal":
        length = WORD_LENGTHS[index % len(WORD_LENGTHS)]
        op.update(kind="reduce", mode="ideal", args=[word(rng, length)])
    elif kind == "orbitred":
        op.update(kind="reduce", mode="orbit",
                  args=[polynomial(rng, REDUCE_PROFILE)])
    else:
        raise ValueError(f"unknown pool kind {kind!r}")
    return op


def generate(workload, seed):
    """The operation list of a workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "verify-all":
        return [{"id": "verify/all", "kind": "verify"}]
    rng = random.Random(seed)
    ops = []
    for kind, count in WORKLOADS[workload].items():
        strata = STRATA.get(kind, 1)
        picks = [
            index
            for stratum in range(strata)
            for index in rng.sample(range(stratum, POOL_SIZE, strata), count // strata)
        ]
        for index in picks:
            op = pool_item(kind, index)
            if kind == "ideal":
                # evaluation point for the representation check
                op["h0"] = f"{rng.randint(1, 9)}/{rng.randint(2, 7)}"
            ops.append(op)
    rng.shuffle(ops)
    return ops


def pool(workload):
    """Every pool item a workload can draw, for recording golden digests."""
    return [
        pool_item(kind, index)
        for kind in WORKLOADS[workload]
        for index in range(POOL_SIZE)
    ]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: gen.py WORKLOAD SEED")
    print(json.dumps(generate(sys.argv[1], int(sys.argv[2])), indent=1))
