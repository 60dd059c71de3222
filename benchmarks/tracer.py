"""Layer tracing for the benchmark's traced runs; nothing here edits src/.

Tracer wraps the public entry points of each orbitstar module with spans.
A name is wrapped where callers look it up: every orbitstar module global
bound to the function (``orbit.py`` calls ``poly.reduce`` as
``poly_reduce_by``), every class attribute holding it (``__rmul__`` is
``__mul__``), and the suite table ``verify.SUITES``.  Spans are kept in
memory as [name, start, end, parent index, nested] records and aggregated
when the run ends: a span's self time is its duration minus its children's,
and a name's total counts only spans with no enclosing span of that name.

ScalarCounter counts HPoly multiplications and additions, keeps an evenly
spaced sample of their operands, and times those operations afterwards.

A target missing from the engine (renamed or removed) is skipped with a
note on stderr, and its metrics read 0.
"""

import json
import statistics
import sys
import time
import weakref

# span name -> [(module, class or None, attribute), ...]
SPAN_TARGETS = {
    "envelope.mul": [("envelope", "NCPoly", "__mul__")],
    "envelope.nf": [("envelope", "NCPoly", "normal_form")],
    "quantize.symmetrize": [("quantize", None, "symmetrize")],
    "quantize.sym_inverse": [("quantize", None, "sym_inverse")],
    "quantize.star": [("quantize", "StarProduct", "star")],
    "orbit.ideal_reduce": [("orbit", "Orbit", "ideal_reduce")],
    "orbit.embed": [
        ("orbit", "Orbit", name)
        for name in ("word_lift", "word_lower", "tangential_embed",
                     "tangential_embed_inverse", "split_embed",
                     "split_embed_inverse")
    ],
    "poly.reduce": [("poly", None, "reduce")],
    "linalg": [("linalg", "LinearSystem", "add"), ("linalg", "LinearSystem", "solve")]
    + [("linalg", None, name) for name in ("det", "invert", "solve_dense", "rank_dense")],
    "cohomology": [
        ("cohomology", None, name)
        for name in ("d1", "d2", "is_cocycle", "solve_coboundary",
                     "h2_dimension", "extend_c1")
    ],
    "exprs.parse": [
        ("exprs", None, name)
        for name in ("parse_expression", "parse_hpoly", "parse_scalar",
                     "parse_rational")
    ],
    "exprs.format": [("exprs", None, "format_cpoly"), ("exprs", None, "format_ncpoly")],
}

VERIFY_SUITES = ("pbw", "centrality", "sym-star", "orbit-star", "lemma",
                 "bidiff", "tangential", "invariant-mult", "reps",
                 "cohomology", "grading")


def _module(name):
    return sys.modules.get(f"orbitstar.{name}")


class _Patcher:
    """Replaces a function at every place callers look it up, and puts the
    originals back on uninstall."""

    def __init__(self):
        self._undo = []

    def replace(self, module, cls, attr, make_wrapper):
        mod = _module(module)
        owner = getattr(mod, cls, None) if cls else mod
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            print(f"trace: orbitstar.{module}.{cls + '.' if cls else ''}{attr} "
                  "not found; skipped", file=sys.stderr)
            return
        wrapper = make_wrapper(original)
        if cls:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, name, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name == "orbitstar" or name.startswith("orbitstar."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def replace_entry(self, table, key, wrapper):
        self._undo.append((table.__setitem__, key, table[key]))
        table[key] = wrapper

    def _set(self, owner, name, value):
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), name,
                           getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for setter, key, value in reversed(self._undo):
            setter(key, value)
        self._undo.clear()


class Tracer(_Patcher):
    def __init__(self):
        super().__init__()
        self.spans = []
        self.counts = {}
        self._stack = []
        self._depth = {}
        self._products = weakref.WeakSet()

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, before=None, after=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, depth.get(name, 0) > 0]
            stack.append(len(spans))
            spans.append(record)
            depth[name] = depth.get(name, 0) + 1
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                depth[name] -= 1
                stack.pop()
            if after:
                after(args, out, token)
            return out

        return traced

    def install(self):
        hooks = {
            ("envelope", "__mul__"): (None, self._after_mul),
            ("orbit", "ideal_reduce"): (self._before_ideal, self._after_ideal),
            ("linalg", "add"): (self._before_rows, self._after_rows),
        }
        for name, targets in SPAN_TARGETS.items():
            for module, cls, attr in targets:
                before, after = hooks.get((module, attr), (None, None))
                self.replace(module, cls, attr,
                             lambda fn, n=name, b=before, a=after: self.span(n, fn, b, a))
        self.replace("quantize", "StarProduct", "_star_monomials", self._pair_lookup)
        self.replace("quantize", "StarProduct", "__init__", self._register)
        verify = _module("verify")
        for suite in VERIFY_SUITES:
            if verify is not None and suite in getattr(verify, "SUITES", {}):
                self.replace_entry(verify.SUITES, suite,
                                   self.span(f"verify.{suite}", verify.SUITES[suite]))

    def reset(self):
        """Forget what was recorded so far (the set-up)."""
        self.spans.clear()
        self.counts.clear()

    # -- counters at the span boundaries -----------------------------------
    def _after_mul(self, args, out, _):
        terms = getattr(out, "terms", None)
        if terms is not None:
            self._count("envelope.mul_terms_out", len(terms))

    def _before_ideal(self, args):
        self._count("orbit.ideal_terms_in", len(args[1].terms))

    def _after_ideal(self, args, out, _):
        rem = out[1] if isinstance(out, tuple) else out
        self._count("orbit.ideal_terms_out", len(rem.terms))

    def _before_rows(self, args):
        return len(args[0].pivots)

    def _after_rows(self, args, out, before):
        self._count("linalg.rows")
        self._count("linalg.rank", len(args[0].pivots) - before)

    def _pair_lookup(self, fn):
        def lookup(product, e1, e2):
            self._count("quantize.pair_lookups")
            if (e1, e2) not in product._pair_cache:
                self._count("quantize.pair_misses")
            return fn(product, e1, e2)
        return lookup

    def _register(self, fn):
        def init(product, *args, **kwargs):
            fn(product, *args, **kwargs)
            self._products.add(product)
        return init

    # -- aggregation -----------------------------------------------------------
    def _child_times(self):
        """For each span, the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def aggregate(self):
        """name -> [calls, total seconds, self seconds]."""
        spans = self.spans
        child = self._child_times()
        agg = {}
        for i, (name, start, end, _, nested) in enumerate(spans):
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            if not nested:
                entry[1] += end - start
            entry[2] += end - start - child[i]
        return agg

    def layer_metrics(self, engine):
        agg = self.aggregate()
        calls = lambda n: agg.get(n, [0, 0.0, 0.0])[0]
        total = lambda n: agg.get(n, [0, 0.0, 0.0])[1]
        self_s = lambda n: agg.get(n, [0, 0.0, 0.0])[2]
        count = lambda k: self.counts.get(k, 0)
        L = engine.L
        nf_cache = getattr(L, "_nf_cache", {})
        lookups = count("quantize.pair_lookups")
        out = {
            "envelope.mul_calls": calls("envelope.mul"),
            "envelope.mul_self_s": self_s("envelope.mul"),
            "envelope.nf_calls": calls("envelope.nf"),
            "envelope.nf_self_s": self_s("envelope.nf"),
            "envelope.nf_memo_words": sum(len(c) for c in nf_cache.values()),
            "envelope.mul_terms_out": count("envelope.mul_terms_out"),
            "quantize.symmetrize_calls": calls("quantize.symmetrize"),
            "quantize.symmetrize_total_s": total("quantize.symmetrize"),
            "quantize.sym_inverse_calls": calls("quantize.sym_inverse"),
            "quantize.sym_inverse_total_s": total("quantize.sym_inverse"),
            "quantize.sym_memo_monomials": len(getattr(L, "_sym_cache", {})),
            "quantize.star_calls": calls("quantize.star"),
            "quantize.star_self_s": self_s("quantize.star"),
            "quantize.pair_lookups": lookups,
            "quantize.pair_table_entries": sum(
                len(getattr(p, "_pair_cache", {})) for p in self._products),
            "quantize.pair_hit_ratio": (
                1 - count("quantize.pair_misses") / lookups if lookups else 0.0),
            "orbit.ideal_reduce_calls": calls("orbit.ideal_reduce"),
            "orbit.ideal_reduce_self_s": self_s("orbit.ideal_reduce"),
            "orbit.ideal_reduce_total_s": total("orbit.ideal_reduce"),
            "orbit.ideal_terms_in": count("orbit.ideal_terms_in"),
            "orbit.ideal_terms_out": count("orbit.ideal_terms_out"),
            "orbit.embed_total_s": total("orbit.embed"),
            "poly.reduce_calls": calls("poly.reduce"),
            "poly.reduce_self_s": self_s("poly.reduce"),
            "linalg.rows": count("linalg.rows"),
            "linalg.rank": count("linalg.rank"),
            "linalg.self_s": self_s("linalg"),
            "cohomology.total_s": total("cohomology"),
            "exprs.parse_s": total("exprs.parse"),
            "exprs.format_s": total("exprs.format"),
        }
        for suite in VERIFY_SUITES:
            out[f"verify.{suite}_s"] = total(f"verify.{suite}")
        return out

    def write(self, path):
        """Write the call tree (span name under parent name) as JSON."""
        spans = self.spans
        child = self._child_times()
        edges = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            key = f"{spans[parent][0] if parent >= 0 else '<op>'} > {name}"
            entry = edges.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": len(spans), "edges": edges}, fh, indent=1, sort_keys=True)


class _Sampler:
    """Counts calls and keeps operands of evenly spaced calls: every
    stride-th call, halving the sample and doubling the stride when the
    sample fills, so it stays spread over the whole run."""

    def __init__(self, cap):
        self.calls = 0
        self.stride = 1
        self.cap = cap
        self.samples = []

    def wrap(self, fn):
        def counted(a, b):
            self.calls += 1
            if self.calls % self.stride == 0:
                self.samples.append((a, b))
                if len(self.samples) >= 2 * self.cap:
                    del self.samples[::2]
                    self.stride *= 2
            return fn(a, b)
        return counted


class ScalarCounter(_Patcher):
    CAP = 2048
    REPEATS = 7

    def __init__(self):
        super().__init__()
        self.mul = _Sampler(self.CAP)
        self.add = _Sampler(self.CAP)
        self._originals = {}

    def install(self):
        scalars = _module("scalars")
        hpoly = getattr(scalars, "HPoly", None)
        for attr, sampler in (("__mul__", self.mul), ("__add__", self.add)):
            if hpoly is not None and attr in vars(hpoly):
                self._originals[attr] = vars(hpoly)[attr]
            self.replace("scalars", "HPoly", attr, sampler.wrap)

    def reset(self):
        for sampler in (self.mul, self.add):
            sampler.calls = 0
            sampler.stride = 1
            sampler.samples = []

    def _ns_per_op(self, attr, sampler):
        fn = self._originals.get(attr)
        if fn is None or not sampler.samples:
            return 0.0
        clock = time.perf_counter_ns
        per_op = []
        for _ in range(self.REPEATS):
            start = clock()
            for a, b in sampler.samples:
                fn(a, b)
            per_op.append((clock() - start) / len(sampler.samples))
        return statistics.median(per_op)

    def layer_metrics(self):
        return {
            "scalars.hpoly_mul": self.mul.calls,
            "scalars.hpoly_add": self.add.calls,
            "scalars.mul_ns": self._ns_per_op("__mul__", self.mul),
            "scalars.add_ns": self._ns_per_op("__add__", self.add),
        }
