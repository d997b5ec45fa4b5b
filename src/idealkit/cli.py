"""Command-line workbench over the library.

Subcommand groups mirror the library layout: ``ideal`` for monomial ideal
arithmetic, ``symbolic`` for symbolic-power and packing questions,
``closure`` for Newton-polyhedron containments, ``artinrees`` for uniform
containment scans, ``invariants`` for Hilbert/Betti data, ``groebner`` for
polynomial experiments, and ``verify`` for the full acceptance suite.

Every command is one row of ``COMMANDS``: handler, flags and caps-file
keys.  ``build_parser`` builds a fresh parser tree from it.  ``main``
parses with one tree, built on its first call and reused for the rest of
the process, and parses each input flag once, so handlers only compute
and render.

Exit codes: 0 when the command answered (even if the answer is "no"),
1 when a verification subcommand found its claim false, 2 on usage or
parse problems, 3 when a resource cap tripped, 4 when an internal
self-check failed or the recursion limit was hit.  ``--json`` reports carry
a ``schema`` version and sort keys, so identical invocations emit
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from . import artinrees, closure, groebner, invariants, symbolic
from .errors import ParseError, ResourceCapError
from .fields import PrimeField, parse_field
from .monomials import parse_ideal, parse_monomial, parse_ring


def _load_caps(path, keys):
    """The caps file's values for ``keys``, as keyword arguments.

    The file is opened only when the command reads some key.
    """
    if not keys or not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"caps file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("caps file must hold a JSON object")
    caps = {key: data[key] for key in keys if key in data}
    for key, value in caps.items():
        try:
            caps[key] = int(value)
        except (TypeError, ValueError):
            raise ParseError(f"caps file value for {key!r} is not an integer: "
                             f"{json.dumps(value)}") from None
    return caps


def _polys_of(args):
    parts = [p.strip() for p in args.polys.split(";")]
    if not any(parts):
        raise ParseError("empty polynomial list")
    return [groebner.parse_polynomial(args.ring, p, args.field, args.order)
            for p in parts if p]


def _graph_of(args):
    if args.graph:
        if args.graph == "-":
            text = sys.stdin.read()
        else:
            with open(args.graph, encoding="utf-8") as fh:
                text = fh.read()
        return symbolic.parse_graph(text)
    for shape in ("cycle", "path", "complete"):  # flags named after Graph constructors
        size = getattr(args, shape)
        if size is not None:
            return getattr(symbolic.Graph, shape)(size)
    sizes = args.complete_bipartite
    try:
        a, b = (int(part) for part in sizes.split(","))
    except ValueError:
        raise ParseError(
            f"expected two comma-separated sizes, got {sizes!r}"
        ) from None
    return symbolic.Graph.complete_bipartite(a, b)


# input flags in parse order: (flag, attribute set, parser of the namespace)
_INPUTS = (
    ("ring", "ring", lambda a: parse_ring(a.ring)),
    ("ideal", "ideal", lambda a: parse_ideal(a.ring, a.ideal)),
    ("other", "other", lambda a: parse_ideal(a.ring, a.other)),
    ("sub", "sub", lambda a: parse_ideal(a.ring, a.sub)),
    ("monomial", "monomial", lambda a: parse_monomial(a.ring, a.monomial)),
    ("field", "field", lambda a: parse_field(a.field or "q")),
    ("p", "field", lambda a: PrimeField(a.p)),
    ("order", "order", lambda a: getattr(groebner.MonomialOrder, a.order)(a.ring)),
    ("polys", "polys", _polys_of),
    ("f", "f", lambda a: groebner.parse_polynomial(a.ring, a.f, a.field, a.order)),
    ("graph", "graph", _graph_of),
)


def _parse_inputs(args):
    """Replace each input flag's text by the object it names, and the caps
    file name by the caps the command reads."""
    flags = {flag for flag, _ in args.command.flags}
    for flag, attr, parse in _INPUTS:
        if flag in flags:
            setattr(args, attr, parse(args))
    args.caps = _load_caps(args.caps, args.command.caps)


def _ideal_payload(ideal):
    return {
        "ring": ",".join(ideal.ring.variables),
        "generators": [str(g) for g in ideal.generators],
    }


# ---------------------------------------------------------------- ideal ---


def _ideal_op(op):
    """Handler for an ideal command whose answer is the ideal ``op(args)``."""

    def handler(args):
        result = op(args)
        return 0, _ideal_payload(result), [str(result)]

    return handler


def _minor(args):
    zeros = [v for v in args.zeros.split(",") if v]
    ones = [v for v in args.ones.split(",") if v]
    return args.ideal.minor(zeros, ones)


def _cmd_ideal_contains(args):
    inside = args.ideal.contains(args.monomial)
    payload = {"monomial": str(args.monomial), "contains": inside}
    return 0, payload, ["yes" if inside else "no"]


# ------------------------------------------------------------- symbolic ---


def _cmd_symbolic_compare(args):
    sym = symbolic.symbolic_power(args.ideal, args.k)
    ordinary = args.ideal.power(args.k)
    equal, witness = symbolic._power_witness(sym, ordinary)
    payload = {
        "k": args.k,
        "equal": equal,
        "witness": None if witness is None else str(witness),
        "symbolic": [str(g) for g in sym.generators],
        "ordinary": [str(g) for g in ordinary.generators],
    }
    if equal:
        lines = [f"EQUAL: I^({args.k}) = I^{args.k}"]
    else:
        lines = [f"NOT EQUAL, witness {witness}"]
    return 0, payload, lines


def _cmd_symbolic_packed(args):
    ok, failure = symbolic.is_packed(args.ideal)
    payload = {"packed": ok, "failure": None if failure is None else str(failure)}
    return 0, payload, ["packed" if ok else f"not packed: {failure}"]


def _cmd_symbolic_edge(args):
    ideal = symbolic.edge_ideal(args.graph)
    bip, data = symbolic.is_bipartite(args.graph)
    payload = {
        "vertices": args.graph.vertex_count,
        "edges": [[u + 1, v + 1] for u, v in args.graph.edges],
        "bipartite": bip,
        "odd_cycle": None if bip else [v + 1 for v in data],
        **_ideal_payload(ideal),
    }
    lines = [str(ideal), "bipartite" if bip else "not bipartite"]
    return 0, payload, lines


def _cmd_symbolic_theorem(args):
    report = symbolic.verify_edge_theorem(args.graph, args.kmax)
    payload = report.to_json()
    lines = [
        f"bipartite: {report.bipartite}",
        f"packed: {report.packed}",
        f"symbolic = ordinary for k <= {report.equal_up_to}"
        + ("" if report.all_equal else f" but not k = {report.equal_up_to + 1}"),
        "verdicts AGREE" if report.agree else "verdicts DISAGREE",
    ]
    return (0 if report.agree else 1), payload, lines


# -------------------------------------------------------------- closure ---


def _cmd_closure_closure(args):
    closed = closure.integral_closure(args.ideal)
    poly = closure.newton_polyhedron(args.ideal)
    payload = {
        **_ideal_payload(closed),
        "facets": [[list(c), b] for c, b in poly.facets],
        "already_closed": closed == args.ideal,
    }
    return 0, payload, [str(closed)]


def _cmd_closure_bs(args):
    ell = args.ell if args.ell is not None else len(args.ideal.generators)
    check = closure.briancon_skoda_check(args.ideal, ell, args.nmax)
    payload = check.to_json()
    if check.ok:
        lines = [f"holds: closure(I^n) within I^(n-{ell}+1) for n <= {args.nmax}"]
    else:
        n, g = check.failure
        lines = [f"FAILS at n={n}: {g} outside I^({n}-{ell}+1)"]
    return (0 if check.ok else 1), payload, lines


def _cmd_closure_uniform_bs(args):
    k = closure.uniform_bs_number(args.ideal, args.nmax)
    payload = {"k": k, "n_max": args.nmax}
    return 0, payload, [f"least uniform shift k = {k} for n <= {args.nmax}"]


# ------------------------------------------------------------ artinrees ---


def _cmd_artinrees_number(args):
    report = artinrees.artin_rees_number(args.ideal, args.sub, args.nmax)
    payload = report.to_json()
    lines = [
        f"least k per n: {list(report.least_k)}",
        f"Artin-Rees number up to n={args.nmax}: {report.ar_number}",
    ]
    return 0, payload, lines


def _cmd_artinrees_exercise4(args):
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    lmax = args.lmax if args.lmax is not None else 2 * args.n
    ring = parse_ring("x,y")
    big = parse_ideal(ring, f"x^{args.n}, y^{args.n}, x^{args.n - 1}*y")
    sub = parse_ideal(ring, f"x^{args.n}, y^{args.n}")
    hit = artinrees.ar_counterexample_search(big, sub, args.k, lmax)
    payload = {
        "n": args.n,
        "k": args.k,
        "lmax": lmax,
        "ideal": str(big),
        "sub": str(sub),
        "found": hit is not None,
        "ell": None if hit is None else hit[0],
        "witness": None if hit is None else str(hit[1]),
    }
    if hit is None:
        lines = [f"no mismatch: I^l = J^(l-{args.k}) I^{args.k} for l <= {lmax}"]
    else:
        ell, witness = hit
        lines = [f"mismatch at l={ell}: {witness} outside J^({ell - args.k}) I^{args.k}"]
    return 0, payload, lines


# ----------------------------------------------------------- invariants ---


def _cmd_invariants_hilbert(args):
    poly = invariants.hilbert_polynomial(args.ideal)
    # the polynomial carries the series numerator, so the series is not rerun
    series = invariants.HilbertSeries(args.ring, poly.numerator)
    payload = {
        "numerator": list(series.numerator),
        "denominator_power": args.ring.n,
        "series": str(series),
        "polynomial": str(poly),
        "stable_from": poly.stability,
    }
    lines = [f"series: {series}", f"polynomial: {poly} for d >= {poly.stability}"]
    if args.degree is not None:
        value = invariants.hilbert_function(args.ideal, args.degree)
        payload["degree"] = args.degree
        payload["value"] = value
        lines.append(f"h({args.degree}) = {value}")
    return 0, payload, lines


def _cmd_invariants_betti(args):
    table = invariants.graded_betti(args.ideal, args.field, **args.caps)
    return 0, table.to_json(), [table.render()]


def _cmd_invariants_pd_reg(args):
    table = invariants.graded_betti(args.ideal, args.field, **args.caps)
    payload = {
        "proj_dim": table.proj_dim(),
        "regularity": table.regularity(),
        "field": table.field_label,
    }
    lines = [f"pd = {table.proj_dim()}, reg = {table.regularity()}"]
    return 0, payload, lines


def _cmd_invariants_mult(args):
    dim, mult = invariants.dimension_multiplicity(args.ideal)
    payload = {"dimension": dim, "multiplicity": mult}
    return 0, payload, [f"dimension {dim}, multiplicity {mult}"]


def _cmd_invariants_cm(args):
    table = invariants.graded_betti(args.ideal, args.field, **args.caps)
    c = symbolic.codim(args.ideal)
    cm = c == table.proj_dim()
    payload = {
        "cohen_macaulay": cm,
        "codim": c,
        "proj_dim": table.proj_dim(),
        "field": table.field_label,
    }
    lines = [
        ("Cohen-Macaulay" if cm else "not Cohen-Macaulay")
        + f": codim {c}, pd {table.proj_dim()}"
    ]
    return 0, payload, lines


# ------------------------------------------------------------- groebner ---


def _cmd_groebner_gb(args):
    gb = groebner.buchberger(args.polys, args.order, **args.caps)
    payload = {
        "basis": [str(p) for p in gb.polys],
        "order": str(args.order),
        "field": args.field.label,
        "certified": gb.certified,
    }
    return 0, payload, [str(p) for p in gb.polys] or ["(zero ideal)"]


def _cmd_groebner_member(args):
    gb = groebner.buchberger(args.polys, args.order, **args.caps)
    remainder = gb.normal_form(args.f)
    payload = {"member": remainder.is_zero, "remainder": str(remainder)}
    lines = ["member" if remainder.is_zero else f"not a member; remainder {remainder}"]
    return 0, payload, lines


def _cmd_groebner_radical(args):
    inside = groebner.radical_member(args.f, args.polys, **args.caps)
    payload = {"member": inside}
    return 0, payload, ["in the radical" if inside else "not in the radical"]


def _cmd_groebner_mather(args):
    report = groebner.mather_index(args.f, args.nmax)
    payload = report.to_json()
    if report.index is None:
        searched = args.nmax if args.nmax is not None else args.ring.n + 2
        lines = [f"no power f^N with N <= {searched} found in J(f)"]
    else:
        side = "within" if report.within_uniform_bound else "outside"
        lines = [f"f^{report.index} in J(f); {side} the uniform bound"]
    return 0, payload, lines


def _cmd_groebner_kollar(args):
    if args.degrees:
        if args.nvars is None:
            raise ValueError("--nvars is required with --degrees")
        try:
            degrees = [int(part) for part in args.degrees.split(",")]
        except ValueError:
            raise ParseError(f"bad degree list {args.degrees!r}") from None
        report = groebner.kollar_bound(degrees, args.nvars)
        payload = report.to_json()
        lines = [
            f"bound D = {report.bound} (q = {report.q})"
            + ("" if report.within_hypothesis else "; degrees below 3: outside hypothesis")
        ]
        return 0, payload, lines
    if args.n is None or args.d is None:
        raise ValueError("need either --degrees or both --n and --d")
    report = groebner.kollar_sharpness(args.n, args.d, args.dmax)
    family = groebner.kollar_family(args.n, args.d)
    payload = report.to_json()
    payload["family"] = [str(p) for p in family]
    if report.found is None:
        lines = [f"no D <= {report.searched_up_to} found (predicted {report.predicted})"]
    else:
        lines = [
            f"least D with x{args.n - 1}^D in the ideal: {report.found} "
            f"(predicted {report.predicted})"
        ]
    return (0 if report.matches else 1), payload, lines


def _cmd_groebner_frobenius(args):
    check = groebner.frobenius_containment_check(
        args.polys, len(args.polys), args.p, args.e, **args.caps
    )
    payload = check.to_json()
    if check.contained:
        lines = [
            f"I^{check.exponent} within the Frobenius power "
            f"({check.products_checked} products checked)"
        ]
    else:
        lines = [f"FAILS: product with multiplicities {check.failure} escapes"]
    return (0 if check.contained else 1), payload, lines


# --------------------------------------------------------------- verify ---


def _cmd_verify(args):
    from .acceptance import DEFAULT_SEED, run_all

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    results = run_all(seed)
    all_passed = all(r.passed for r in results)
    payload = {
        "seed": seed,
        "all_passed": all_passed,
        # timings stay out of the JSON so identical runs are byte-identical
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.name}  ({r.seconds:.2f}s)  {r.detail}")
    lines.append("all criteria passed" if all_passed else "SOME CRITERIA FAILED")
    return (0 if all_passed else 1), payload, lines


# -------------------------------------------------------- command table ---

# add_argument keywords of every flag a command may take; "graph" stands for
# the mutually exclusive graph sources
_FLAGS = {
    "ring": {"required": True, "help": "variables, e.g. x,y,z"},
    "ideal": {"required": True, "help": 'monomials, e.g. "x^2*y, z"'},
    "monomial": {"required": True},
    "other": {"required": True, "help": "second ideal"},
    "sub": {"required": True, "help": "submodule ideal"},
    "k": {"type": int, "required": True},
    "zeros": {"default": "", "help": "variables set to 0"},
    "ones": {"default": "", "help": "variables set to 1"},
    "kmax": {"type": int, "default": 3},
    "ell": {"type": int, "help": "defaults to the generator count"},
    "nmax": {"type": int},
    "n": {"type": int, "required": True},
    "lmax": {"type": int, "help": "defaults to 2n"},
    "degree": {"type": int, "help": "also evaluate h at this degree"},
    "field": {"default": "q", "help": "q or fp:<prime>"},
    "polys": {"required": True, "help": "semicolon-separated polynomials"},
    "order": {"default": "grevlex", "choices": ("lex", "grevlex")},
    "f": {"required": True, "help": "polynomial to test"},
    "d": {"type": int, "help": "degree for the sharpness family"},
    "dmax": {"type": int},
    "degrees": {"help": "comma-separated degrees for the bound"},
    "nvars": {"type": int, "help": "variable count for the bound"},
    "p": {"type": int, "required": True},
    "e": {"type": int, "required": True},
    "graph": {},
}
_BARE = {"help": None}


def _add_graph_source(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="FILE", help="graph file ('-' for stdin)")
    group.add_argument("--cycle", type=int, metavar="N")
    group.add_argument("--path", type=int, metavar="N")
    group.add_argument("--complete", type=int, metavar="N")
    group.add_argument("--complete-bipartite", metavar="A,B")


class Command(NamedTuple):
    """One CLI command; ``name`` is None for a group that is itself a command."""

    group: str
    name: str | None
    handler: Callable
    flags: tuple  # (flag, add_argument keywords), in parser order
    caps: tuple  # caps-file keys passed to the handler as keyword arguments


def _command(group, name, handler, flags="", caps="", **overrides):
    """A table row from space-separated flag and caps-key names; ``overrides``
    maps a flag to keywords that replace its shared ones for this row."""
    specs = tuple((f, {**_FLAGS[f], **overrides.get(f, {})}) for f in flags.split())
    return Command(group, name, handler, specs, tuple(caps.split()))


_GB_CAPS = "max_basis max_degree"

COMMANDS = (
    _command("ideal", "minimalize", _ideal_op(lambda a: a.ideal), "ring ideal"),
    _command("ideal", "gens", _ideal_op(lambda a: a.ideal), "ring ideal"),
    _command("ideal", "radical", _ideal_op(lambda a: a.ideal.radical()), "ring ideal"),
    _command("ideal", "contains", _cmd_ideal_contains, "ring ideal monomial"),
    _command("ideal", "product", _ideal_op(lambda a: a.ideal * a.other),
             "ring ideal other"),
    _command("ideal", "intersect", _ideal_op(lambda a: a.ideal & a.other),
             "ring ideal other"),
    _command("ideal", "power", _ideal_op(lambda a: a.ideal.power(a.k)), "ring ideal k"),
    _command("ideal", "colon", _ideal_op(lambda a: a.ideal.colon(a.monomial)),
             "ring ideal monomial"),
    _command("ideal", "minor", _ideal_op(_minor), "ring ideal zeros ones"),
    _command("symbolic", "compare", _cmd_symbolic_compare, "ring ideal k"),
    _command("symbolic", "packed", _cmd_symbolic_packed, "ring ideal"),
    _command("symbolic", "edge", _cmd_symbolic_edge, "graph"),
    _command("symbolic", "theorem", _cmd_symbolic_theorem, "graph kmax"),
    _command("closure", "closure", _cmd_closure_closure, "ring ideal"),
    _command("closure", "bs", _cmd_closure_bs, "ring ideal ell nmax",
             nmax={"default": 5}),
    _command("closure", "uniform-bs", _cmd_closure_uniform_bs, "ring ideal nmax",
             nmax={"default": 5}),
    _command("artinrees", "number", _cmd_artinrees_number, "ring ideal sub nmax",
             nmax={"default": 6}),
    _command("artinrees", "exercise4", _cmd_artinrees_exercise4, "n k lmax"),
    _command("invariants", "hilbert", _cmd_invariants_hilbert, "ring ideal degree"),
    _command("invariants", "betti", _cmd_invariants_betti, "ring ideal field",
             "max_generators"),
    _command("invariants", "pd-reg", _cmd_invariants_pd_reg, "ring ideal field",
             "max_generators"),
    _command("invariants", "cm", _cmd_invariants_cm, "ring ideal field",
             "max_generators"),
    _command("invariants", "mult", _cmd_invariants_mult, "ring ideal"),
    _command("groebner", "gb", _cmd_groebner_gb, "ring polys field order", _GB_CAPS,
             ring=_BARE, field=_BARE),
    _command("groebner", "member", _cmd_groebner_member, "ring polys field order f",
             _GB_CAPS, ring=_BARE, field=_BARE),
    _command("groebner", "radical", _cmd_groebner_radical, "ring polys field order f",
             _GB_CAPS, ring=_BARE, field=_BARE),
    _command("groebner", "mather", _cmd_groebner_mather, "ring f field order nmax",
             ring=_BARE, f=_BARE, field=_BARE),
    _command("groebner", "kollar", _cmd_groebner_kollar, "n d dmax degrees nvars",
             n={"required": False, "help": "variables for the sharpness family"}),
    _command("groebner", "frobenius", _cmd_groebner_frobenius, "ring polys p e order",
             "max_products", ring=_BARE, polys=_BARE),
    _command("verify", None, _cmd_verify),
)

_GROUPS = {
    "ideal": "monomial ideal arithmetic",
    "symbolic": "symbolic powers and packing",
    "closure": "integral closure and containments",
    "artinrees": "Artin-Rees containment scans",
    "invariants": "Hilbert and Betti data",
    "groebner": "polynomial ideal experiments",
    "verify": "run the acceptance suite",
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--seed", type=int, help="seed for randomized corpora")
    common.add_argument("--caps", metavar="FILE", help="JSON file with resource caps")
    parser = argparse.ArgumentParser(
        prog="idealkit",
        description="exact computations on monomial and small polynomial ideals",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    subs = {}
    for command in COMMANDS:
        summary = _GROUPS[command.group]
        if command.name is None:
            p = groups.add_parser(command.group, parents=[common], help=summary)
        else:
            if command.group not in subs:
                group = groups.add_parser(command.group, help=summary)
                subs[command.group] = group.add_subparsers(dest="sub", required=True)
            p = subs[command.group].add_parser(command.name, parents=[common])
        for flag, kwargs in command.flags:
            if flag == "graph":
                _add_graph_source(p)
            else:
                p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(command=command)
    return parser


@functools.cache
def _parser():
    """The tree ``main`` parses with, built on the first call, not at import.

    Parsing leaves no state in the tree, and help width is read when help is
    printed, so one tree serves every call.
    """
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _parse_inputs(args)
        code, payload, lines = args.command.handler(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # a failed self-check, or a RecursionError
        message = str(exc).removeprefix("internal error: ")
        print(f"internal error: {message}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # ParseError, RingMismatchError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"schema": 1, **payload}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def run():
    raise SystemExit(main())
