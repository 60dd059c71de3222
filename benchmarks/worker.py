"""One benchmark process: set up the engine, run a workload's operation
list cold and then warm, and print one JSON line about it.

The operation list arrives as JSON on stdin (see gen.py).  Modes:

setup  builds the engine and reports setup_s only.
time   untraced; reports setup_s, cold_s, warm_s (median over the warm
       repeats; absent with --warm-reps 0), peak_rss_mb and the failure
       counts.  With --check it also runs the independent checks of
       checks.py on the cold outputs.
trace  wraps every layer's entry points with spans (tracer.py) and reports
       the per-layer metrics of one cold and one warm pass.
count  counts Q(i)[h] additions and multiplications over one cold and one
       warm pass, then times those operations on operands sampled from it.

Every pass compares each printed result with its golden digest.  Usage:
python3 benchmarks/worker.py --mode time --warm-reps 4 < ops.json
(with src/ on PYTHONPATH).
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent

# The sphere orbit x^2 + y^2 + z^2 = 2 with an ideal lift whose h-part is
# nonzero, so orbit coefficients carry real h-terms.
ORBIT_LEVEL = 2
ORBIT_LIFT = "2 + h*(1/3)"

VERIFY_ARGV = ["verify", "all", "--format", "json"]


class Engine:
    """The engine as a long-lived process holds it: the su2 algebra, the
    orbit, and one instance of every product, so memo tables persist
    between operations."""

    def __init__(self):
        import orbitstar
        from orbitstar import cli, exprs, orbit, quantize

        src = (ROOT / "src").resolve()
        if src not in Path(orbitstar.__file__).resolve().parents:
            raise RuntimeError(f"orbitstar imported from outside {src}")
        self.cli = cli
        self.exprs = exprs
        self.L = orbitstar.predefined("su2")
        self.orbit = orbit.sphere_orbit(
            ORBIT_LEVEL, lift=exprs.parse_hpoly(ORBIT_LIFT), algebra=self.L
        )
        self.products = {
            "sym": quantize.symmetrizer_product(self.L),
            "orbit": self.orbit.star_product(),
            "tangential": self.orbit.tangential_product(),
            "split": self.orbit.split_product(),
        }

    def parse(self, text, noncommutative=False):
        mode = "noncommutative" if noncommutative else "commutative"
        return self.exprs.parse_expression(text, mode=mode, algebra=self.L)

    def run(self, op):
        """Serve one operation; returns the printed result."""
        kind = op["kind"]
        if kind == "star":
            f = self.parse(op["args"][0])
            g = self.parse(op["args"][1])
            result = self.products[op["product"]].star(f, g)
            return self.exprs.format_cpoly(result, self.L.varnames)
        if kind == "reduce" and op["mode"] == "ideal":
            u = self.parse(op["args"][0], noncommutative=True)
            return self.exprs.format_ncpoly(self.orbit.ideal_reduce(u.normal_form()))
        if kind == "reduce" and op["mode"] == "orbit":
            f = self.parse(op["args"][0])
            return self.exprs.format_cpoly(self.orbit.orbit_reduce(f), self.L.varnames)
        if kind == "verify":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(VERIFY_ARGV)
            return json.dumps({"exit": code, "reports": json.loads(buf.getvalue())})
        raise ValueError(f"unknown operation {op!r}")


def run_pass(engine, ops):
    """Wall time of one pass and its outputs (None where an operation raised)."""
    outs = []
    start = time.perf_counter()
    for op in ops:
        try:
            outs.append(engine.run(op))
        except Exception as exc:  # an operation failure is a measured outcome
            outs.append(None)
            print(f"operation {op['id']} raised {exc!r}", file=sys.stderr)
    return time.perf_counter() - start, outs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "time", "trace", "count"),
                        required=True)
    parser.add_argument("--warm-reps", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    ops = json.load(sys.stdin)
    golden = checks.load_golden()

    start = time.perf_counter()
    instruments = None
    if args.mode in ("setup", "time"):
        engine = Engine()
    else:
        # Wrap before the engine is built, so that products bound at set-up
        # already see the wrappers; then forget what set-up recorded.
        import orbitstar.cli  # noqa: F401  (every module, so all bindings are wrapped)

        instruments = tracer.Tracer() if args.mode == "trace" else tracer.ScalarCounter()
        instruments.install()
        engine = Engine()
        instruments.reset()
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    reps = args.warm_reps if args.mode == "time" else 1
    cold_s, cold_outs = run_pass(engine, ops)
    failed = checks.count_failures(ops, cold_outs, golden)
    warm = []
    for _ in range(reps):
        dt, outs = run_pass(engine, ops)
        warm.append(dt)
        failed += checks.count_failures(ops, outs, golden)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = checks.count_attempted(ops) * (1 + reps)

    result = {"attempted": attempted, "failed": failed}
    if args.mode == "time":
        if args.check:
            result["failed"] += checks.independent_failures(engine, ops, cold_outs)
        result.update(setup_s=setup_s, cold_s=cold_s, peak_rss_mb=peak_rss_mb)
        if warm:
            result["warm_s"] = statistics.median(warm)
    elif args.mode == "trace":
        instruments.uninstall()
        result["cold_s"] = cold_s
        result["layers"] = instruments.layer_metrics(engine)
        if args.trace_out:
            instruments.write(args.trace_out)
    else:
        instruments.uninstall()
        result["layers"] = instruments.layer_metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
