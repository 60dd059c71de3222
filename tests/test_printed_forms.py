"""The printed forms, pinned by SHA-256 digest.

Each command below runs in a fresh interpreter, and the digest of its stdout
must equal the one recorded before the printers were rewritten to read
HPoly's integer fields.  A change to a printer, to a term order or to a
witness shows up here.  Re-record a digest only for an intended change of
output, and say so in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    ("-m", "orbitstar", "verify", "all", "--format", "json"):
        "2fda078a63df03094c7983acb3c267f5aada3c1bddcedf5aa2697ce61eb824fa",
    ("-m", "orbitstar", "verify", "all"):
        "d56811a58b52066c7849bce97d17e71fc72b7f51f4307212f4fd122f74b7ad96",
    ("-m", "orbitstar", "cohomology", "--max-degree", "4", "--seed", "3",
     "--format", "json"):
        "dbe7010071107283bfd1e164f37b3e10642c0cbe0c93f880f42e24a0ef510618",
    ("-m", "orbitstar", "rep"):
        "3d8b835d407c148e8068c6f630c3cd54bf4a65591870fd944f793044cfe4a8ae",
    ("-m", "orbitstar", "rep", "--format", "json"):
        "b7319384d6112907bfee0d64f11d9d1882d7fcf3418cb4d61275d7633550bfdb",
    # a complex lift: its value at h=1 prints as re + im*i, unparenthesized
    ("-m", "orbitstar", "rep", "--lift", "1/2 + i", "--format", "json"):
        "e394e64a09dd98abb8ca6069f4774ccb8d0341d557080e07949c16745ebe1d88",
    # both reductions on inputs that take many rewriting steps, recorded
    # while they still rescanned (poly.reduce) and multiplied the lift into
    # every rewrite (ideal_reduce); this lift carries h^2 and i
    ("-m", "orbitstar", "reduce", "--mode", "orbit", "(x + 2*y + 3*z + 1)^12"):
        "571b1b9a92b09c3b110151363452ec0f8722e2a771720be8eff940257e697164",
    ("-m", "orbitstar", "reduce", "--mode", "ideal", "--c", "2", "--lift",
     "2 + 1/3*h - 1/5*i*h^2", "X*Z*Y*Z*X*Z*Y*Z*X*Y"):
        "f410d5d4083a1af94d750e545c726de247bf959b00169b901e484d4f38c893a1",
    # the h-free lift on the same input, recorded while an h-free lift was
    # multiplied into every rewrite rather than held as a formal central t
    ("-m", "orbitstar", "reduce", "--mode", "ideal", "--c", "2",
     "X*Z*Y*Z*X*Z*Y*Z*X*Y"):
        "36061b0001c1d1d89d5f882f83738e152b3d7cbc264705ce3d155215200f95f6",
    ("demos/01_pbw_rewriting.py",):
        "6242eb0599a9845f9e7c0fc93f6a399c11d97bf600ba45d3b122108f6bf53c88",
    ("demos/02_symmetrizer_star.py",):
        "d7988f59f25a8c3228173cfb64c0c886e67e974c6a52c19d68887d0b707c31cb",
    ("demos/03_orbit_product.py",):
        "2e6a5ba2f82b7ceb61c90072eedfa4318aba9a408fc73dee50026e99d4c15d4e",
    ("demos/04_tangentiality.py",):
        "b1391a2af70913529c0a3e83a91deb2378e888cc6442d19ccaf8eadd1a2a9d9f",
    ("demos/05_nondifferentiability.py",):
        "80e576a257d4d7e1cadb209b49f04e0ba2b92e282cd15adafd007abe5a26b5db",
    ("demos/06_spectra_gauge_cohomology.py",):
        "a378f088968418a399e7c5bba39e5e43d35645f9eb54a1eab052d85e46b6f9dc",
}

# Every product on inputs that mix degrees and carry h (both lie in the orbit
# products' basis), recorded before star summed its pairs by h-weight.
_STAR_LEFT, _STAR_RIGHT = "x + 1/2*y^2 + h*z", "3/4*x*z - 2/3*y + (1+h)*x"
for _product, _text, _json in [
    ("sym", "f37c48327e8c83c4fc65e7e49fe9f7b3a5e840a5f997dc8ae54900213280a52d",
     "24b2e051e6d6507eaf28e529e27c7896abcdcfe22f35df342a56e752e5c96c0f"),
    ("pbw", "9f0223c8555debcc7b6757cd0d36e9f5aa0f610fbfc2f270e6f1c518db903e8b",
     "d2a2cc367e304a0e49d19d443222f0448cf0eadebe69fc6d25eeddc149232359"),
    ("orbit", "9a2bf93e2ac4e2136311b286ba23dfd1179394f11123b0383f5379893b80875e",
     "0fdf7c777cf8203f6bf85fa704b87091b9cdd5df37d6180dba08ed25c8535902"),
    ("tangential",
     "42a8465fe068658b346eae8008ca5d861337e3f2630e2d59c4605b4a60a5e28b",
     "849e8667c09f7b47a539ce1bbfb6a7003d1dfec36158a0fc50b8459d282b26b6"),
    ("split", "42a8465fe068658b346eae8008ca5d861337e3f2630e2d59c4605b4a60a5e28b",
     "ee7914590642b8c688da33f01c97b9eb9fcc4017d621fa7b7983abfbf9592070"),
]:
    _args = ("-m", "orbitstar", "star", "--product", _product)
    DIGESTS[(*_args, _STAR_LEFT, _STAR_RIGHT)] = _text
    DIGESTS[(*_args, "--format", "json", _STAR_LEFT, _STAR_RIGHT)] = _json
# the orbit products again, with a lift that carries h
for _product, _text in [
    ("orbit", "54db0f6ff92a60bb644480dc7173c2826819277ba44d16a51c7e52093673e5cb"),
    ("tangential",
     "a1dd23471db19f668a2f9bcd2fea4f4d25c054cf63ba2facde41401efd6c99b3"),
    ("split", "b931fe0926a5648b61ba9d6a832c669f037bf7450d1c187da76b9de227299b57"),
]:
    DIGESTS[("-m", "orbitstar", "star", "--product", _product, "--c", "2",
             "--lift", "2 + 1/3*h", _STAR_RIGHT, _STAR_LEFT)] = _text

# the tangential and split products on inputs of degree 3, whose pair
# products expand up to P^2, recorded while the tangential maps multiplied
# out powers of (P - c(h)) and reduced once per power
_DEEP_LEFT, _DEEP_RIGHT = "z^3 + x*y*z", "x*z^2 - y^3"
for _product, _level, _text in [
    ("tangential", (),
     "78cd285fa61e86e83a2e3b635d118651d8f04797b3733e45db115749312194e5"),
    ("tangential", ("--c", "2", "--lift", "2 + 1/3*h"),
     "65e7ff573b85f6bff0cabfa4024bc819663407f39bfafe514800dc6e4a936c6b"),
    ("split", (),
     "a5465d4f0fd02ccee0a01d8dfeff669661ba8a10b8a766f44d39acfd99666ede"),
    ("split", ("--c", "2", "--lift", "2 + 1/3*h"),
     "4ebc79a7c5bae426b370da25039c6ba16201d49171f1032ad53602b3fa86b5dd"),
]:
    DIGESTS[("-m", "orbitstar", "star", "--product", _product, *_level,
             _DEEP_LEFT, _DEEP_RIGHT)] = _text


def test_every_demo_is_pinned():
    pinned = {args[0] for args in DIGESTS if args[0].startswith("demos/")}
    assert pinned == {f"demos/{p.name}" for p in (ROOT / "demos").glob("*.py")}


@pytest.mark.parametrize("args", list(DIGESTS), ids=" ".join)
def test_printed_form_digest(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[args]
