"""Per-layer tracing from outside the library.

The tracer rebinds module attributes to wrappers: every idealkit module
attribute (and class attribute) that is the wrapped function is replaced,
so both a module's own calls to its stage functions and other modules'
imported references go through the wrapper.  Nothing under ``src/`` is
edited.

Each wrapper pushes a frame, times the call and charges its duration to the
caller's frame, so self time = duration - time in traced children.  Stage
functions also record a span (id, parent, op id, name, start, end); hot
functions (``COUNTED``) keep only totals, because a span per call would
cost more than the call.  ``MonomialOrder.key`` is called over a million
times per pass and only counts calls.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, stat name[, "local"]); a "Class.method" attribute wraps
# a method, and "local" rebinds the name in that module only.
SPANNED = [
    ("cli", "main", "cli.main"),
    ("monomials", "MonomialIdeal.__mul__", "monomials.product"),
    ("monomials", "MonomialIdeal.power", "monomials.power"),
    ("monomials", "MonomialIdeal.intersect", "monomials.intersect"),
    ("symbolic", "verify_edge_theorem", "symbolic.verify_edge_theorem"),
    ("symbolic", "symbolic_equals_ordinary", "symbolic.symbolic_equals_ordinary"),
    ("symbolic", "symbolic_power", "symbolic.symbolic_power"),
    ("symbolic", "is_packed", "symbolic.is_packed"),
    ("symbolic", "edge_ideal", "symbolic.edge_ideal"),
    ("closure", "uniform_bs_number", "closure.uniform_bs_number"),
    ("closure", "briancon_skoda_check", "closure.briancon_skoda_check"),
    ("closure", "integral_closure", "closure.integral_closure"),
    ("closure", "newton_polyhedron", "closure.newton_polyhedron"),
    ("closure", "_fourier_motzkin", "closure.fm"),
    ("artinrees", "ar_counterexample_search", "artinrees.ar_counterexample_search"),
    ("artinrees", "artin_rees_number", "artinrees.artin_rees_number"),
    ("invariants", "hilbert_series", "invariants.hilbert"),
    ("invariants", "hilbert_polynomial", "invariants.hilbert_polynomial"),
    ("invariants", "dimension_multiplicity", "invariants.dimension_multiplicity"),
    ("invariants", "hilbert_function", "invariants.hilbert_function"),
    ("invariants", "graded_betti", "invariants.betti"),
    ("invariants", "is_cohen_macaulay", "invariants.is_cohen_macaulay"),
    ("invariants", "_standard_counts", "invariants.standard_counts"),
    ("invariants", "_lcm_lattice", "invariants.lcm_lattice"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "_interreduce", "groebner.interreduce"),
    ("groebner", "_certify", "groebner.certify"),
    ("groebner", "mather_index", "groebner.mather_index"),
    ("groebner", "ideal_member", "groebner.ideal_member"),
    ("groebner", "radical_member", "groebner.radical_member"),
    ("groebner", "local_ideal_member", "groebner.local_ideal_member"),
    ("groebner", "kollar_sharpness", "groebner.kollar_sharpness"),
    ("groebner", "frobenius_containment_check", "groebner.frobenius"),
]
COUNTED = [
    ("monomials", "_minimal_rows", "monomials.minimalize"),
    ("symbolic", "minimal_primes", "symbolic.minimal_primes"),
    ("symbolic", "_prime_index_sets", "symbolic.prime_index_sets"),
    ("symbolic", "max_disjoint_monomials", "symbolic.max_disjoint_monomials"),
    ("closure", "_prune", "closure.prune"),
    ("invariants", "_numerator", "invariants.numerator"),
    ("invariants", "_homology_dims", "invariants.homology"),
    # only the callers' references: rank_over itself calls rank_int
    ("invariants", "rank_over", "linalg.rank", "local"),
    ("closure", "rank_int", "linalg.rank", "local"),
    ("groebner", "_reduce_full", "groebner.reduce"),
    ("groebner", "_s_polynomial", "groebner.spoly"),
]
CALLS_ONLY = [("groebner", "MonomialOrder.key", "groebner.order_key")]

LAYERS = ("cli", "monomials", "symbolic", "closure", "artinrees", "invariants",
          "linalg", "groebner")


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Frame:
    __slots__ = ("span_id", "child_s", "extra")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_s = 0.0
        self.extra = None


class Tracer:
    """Spans, self times and counters of one traced run."""

    def __init__(self, package):
        self.package = package
        self.stats = {}
        self.counts = {}
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.op_id = -1
        self.installed = []

    # ------------------------------------------------------------ counts ---

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    # ------------------------------------------------------------- spans ---

    def run_op(self, op_id, call):
        """Run one op as the root frame of its spans."""
        self.op_id = op_id
        return self._timed("op", call, (), {}, spanned=True)

    def _timed(self, name, fn, args, kwargs, spanned, after=None):
        span_id = self.next_id
        self.next_id += 1
        frame = Frame(span_id)
        stack = self.stack
        parent = stack[-1] if stack else None
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.calls += 1
            stat.self_s += duration - frame.child_s
            stat.total_s += duration
            if parent is not None:
                parent.child_s += duration
            if spanned:
                self.spans.append((span_id, parent.span_id if parent else None,
                                   self.op_id, name, start, end))
        if after is not None:
            after(self, frame, parent, args, result)
        return result

    # ----------------------------------------------------------- install ---

    def install(self):
        for module, attr, name, *local in SPANNED:
            self._wrap(module, attr, name, bool(local), spanned=True)
        for module, attr, name, *local in COUNTED:
            self._wrap(module, attr, name, bool(local))
        for module, attr, name, *local in CALLS_ONLY:
            self._wrap(module, attr, name, bool(local), calls_only=True)

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def _wrap(self, module, attr, name, local, spanned=False, calls_only=False):
        mod = sys.modules[f"{self.package}.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[method]
            wrapper = self._wrapper(original, name, spanned, calls_only)
            self.installed.append((owner, method, original))
            setattr(owner, method, wrapper)
            return
        original = getattr(mod, attr)
        wrapper = self._wrapper(original, name, spanned, calls_only)
        owners = [mod] if local else [
            other for mod_name, other in list(sys.modules.items())
            if other is not None and mod_name.split(".")[0] == self.package
        ]
        for other in owners:
            for key, value in list(vars(other).items()):
                if value is original:
                    self.installed.append((other, key, original))
                    setattr(other, key, wrapper)

    def _wrapper(self, original, name, spanned, calls_only):
        after = AFTER.get(name)
        tracer = self
        if calls_only:
            def counted(*args, **kwargs):
                tracer.add(name + ".calls", 1)
                return original(*args, **kwargs)
            return counted
        if name in ("linalg.rank", "groebner.reduce"):
            pick = _FIELD_OF[name]

            def by_field(*args, **kwargs):
                label = name + (".qq" if pick(args) == 0 else ".gfp")
                return tracer._timed(label, original, args, kwargs, spanned, after)
            return by_field

        def wrapped(*args, **kwargs):
            return tracer._timed(name, original, args, kwargs, spanned, after)
        return wrapped

    # ------------------------------------------------------------ report ---

    def layer_self(self):
        """Self seconds per layer; 'other' is op time outside every wrapper."""
        out = {layer: 0.0 for layer in LAYERS}
        out["other"] = 0.0
        for name, stat in self.stats.items():
            layer = name.split(".")[0]
            out[layer if layer in out else "other"] += stat.self_s
        return out


def _characteristic_rank(args):
    # rank_over(rows, field) or rank_int(rows)
    return args[1].characteristic if len(args) > 1 else 0


def _characteristic_reduce(args):
    return args[0].field.characteristic


_FIELD_OF = {"linalg.rank": _characteristic_rank,
             "groebner.reduce": _characteristic_reduce}


def _after_minimal_rows(tracer, frame, parent, args, result):
    rows = args[0]
    tracer.add("monomials.minimalize.rows_in", len(rows) if hasattr(rows, "__len__") else 0)
    tracer.add("monomials.minimalize.rows_out", len(result))


def _after_prime_index_sets(tracer, frame, parent, args, result):
    if parent is not None:
        parent.extra = len(set().union(*result))


def _after_symbolic_power(tracer, frame, parent, args, result):
    # the box scanned has (k+1)^|variables in some minimal prime| points
    if frame.extra is not None:
        tracer.add("symbolic.symbolic_power.box_points", (args[1] + 1) ** frame.extra)
    tracer.add("symbolic.symbolic_power.gens_out", len(result.generators))


def _after_integral_closure(tracer, frame, parent, args, result):
    size = 1
    for column in zip(*(g.exponents for g in args[0].generators)):
        size *= max(column) + 1
    tracer.add("closure.integral_closure.box_points", size)


def _after_prune(tracer, frame, parent, args, result):
    tracer.peak("closure.fm.rows_peak", len(args[0]))


def _after_lcm_lattice(tracer, frame, parent, args, result):
    tracer.add("invariants.lcm_lattice.points", len(result))


def _after_rank(tracer, frame, parent, args, result):
    rows = args[0]
    tracer.add("linalg.rank.entries", len(rows) * (len(rows[0]) if rows else 0))


def _after_reduce(tracer, frame, parent, args, result):
    if result.is_zero:
        tracer.add("groebner.reduce.zero", 1)


def _after_buchberger(tracer, frame, parent, args, result):
    tracer.add("groebner.basis.polys_out", len(result))


AFTER = {
    "monomials.minimalize": _after_minimal_rows,
    "symbolic.prime_index_sets": _after_prime_index_sets,
    "symbolic.symbolic_power": _after_symbolic_power,
    "closure.integral_closure": _after_integral_closure,
    "closure.prune": _after_prune,
    "invariants.lcm_lattice": _after_lcm_lattice,
    "linalg.rank": _after_rank,
    "groebner.reduce": _after_reduce,
    "groebner.buchberger": _after_buchberger,
}


def _stat(tracer, name, field):
    stat = tracer.stats.get(name)
    return getattr(stat, field) if stat is not None else 0


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, passes):
    """Per-layer metrics, per traced pass; ratios carry their base in the name."""
    s = lambda name: _stat(tracer, name, "self_s") / passes  # noqa: E731
    c = lambda name: _stat(tracer, name, "calls") / passes  # noqa: E731
    t = lambda name: _stat(tracer, name, "total_s") / passes  # noqa: E731
    n = lambda name: tracer.counts.get(name, 0) / passes  # noqa: E731
    reduce_calls = c("groebner.reduce.qq") + c("groebner.reduce.gfp")
    layers = tracer.layer_self()
    op_total = _stat(tracer, "op", "total_s") / passes
    out = {
        "cli.main.calls": (c("cli.main"), "count"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "monomials.minimalize.calls": (c("monomials.minimalize"), "count"),
        "monomials.minimalize.self_s": (s("monomials.minimalize"), "s"),
        "monomials.minimalize.rows_in": (n("monomials.minimalize.rows_in"), "count"),
        "monomials.minimalize.kept_ratio": (
            _ratio(n("monomials.minimalize.rows_out"), n("monomials.minimalize.rows_in")),
            "ratio"),
        "monomials.product.self_s": (s("monomials.product"), "s"),
        "monomials.power.self_s": (s("monomials.power"), "s"),
        "monomials.intersect.self_s": (s("monomials.intersect"), "s"),
        "symbolic.symbolic_power.calls": (c("symbolic.symbolic_power"), "count"),
        "symbolic.symbolic_power.self_s": (s("symbolic.symbolic_power"), "s"),
        "symbolic.symbolic_power.box_points": (
            n("symbolic.symbolic_power.box_points"), "count"),
        "symbolic.symbolic_power.gens_per_point": (
            _ratio(n("symbolic.symbolic_power.gens_out"),
                   n("symbolic.symbolic_power.box_points")), "ratio"),
        "symbolic.minimal_primes.self_s": (s("symbolic.minimal_primes"), "s"),
        "symbolic.is_packed.self_s": (s("symbolic.is_packed"), "s"),
        "closure.newton_polyhedron.self_s": (s("closure.newton_polyhedron"), "s"),
        "closure.fm.rows_peak": (tracer.counts.get("closure.fm.rows_peak", 0), "count"),
        "closure.integral_closure.self_s": (s("closure.integral_closure"), "s"),
        "closure.integral_closure.box_points": (
            n("closure.integral_closure.box_points"), "count"),
        "artinrees.self_s": (layers["artinrees"] / passes, "s"),
        "invariants.numerator.calls": (c("invariants.numerator"), "count"),
        "invariants.numerator.self_s": (s("invariants.numerator"), "s"),
        "invariants.standard_counts.self_s": (s("invariants.standard_counts"), "s"),
        "invariants.hilbert.selfcheck_share": (
            _ratio(t("invariants.standard_counts"), t("invariants.hilbert")), "ratio"),
        "invariants.lcm_lattice.self_s": (s("invariants.lcm_lattice"), "s"),
        "invariants.lcm_lattice.points": (n("invariants.lcm_lattice.points"), "count"),
        "invariants.homology.calls": (c("invariants.homology"), "count"),
        "invariants.homology.self_s": (s("invariants.homology"), "s"),
        "invariants.betti.homology_share": (
            _ratio(c("invariants.homology"), n("invariants.lcm_lattice.points")), "ratio"),
        "linalg.rank.calls": (c("linalg.rank.qq") + c("linalg.rank.gfp"), "count"),
        "linalg.rank.entries": (n("linalg.rank.entries"), "count"),
        "linalg.rank.self_s.qq": (s("linalg.rank.qq"), "s"),
        "linalg.rank.self_s.gfp": (s("linalg.rank.gfp"), "s"),
        "groebner.buchberger.calls": (c("groebner.buchberger"), "count"),
        "groebner.buchberger.self_s": (s("groebner.buchberger"), "s"),
        "groebner.reduce.calls": (reduce_calls, "count"),
        "groebner.reduce.self_s.qq": (s("groebner.reduce.qq"), "s"),
        "groebner.reduce.self_s.gfp": (s("groebner.reduce.gfp"), "s"),
        "groebner.reduce.zero_share": (
            _ratio(n("groebner.reduce.zero"), reduce_calls), "ratio"),
        "groebner.spoly.calls": (c("groebner.spoly"), "count"),
        "groebner.interreduce.self_s": (s("groebner.interreduce"), "s"),
        "groebner.certify.self_s": (s("groebner.certify"), "s"),
        "groebner.certify_share": (
            _ratio(t("groebner.certify"), t("groebner.buchberger")), "ratio"),
        "groebner.order_key.calls": (n("groebner.order_key.calls"), "count"),
        "groebner.basis.polys_out": (n("groebner.basis.polys_out"), "count"),
    }
    for layer, seconds in layers.items():
        out[f"layer.{layer}.self_share"] = (_ratio(seconds / passes, op_total), "ratio")
    return out
