"""End-to-end checks of the command line interface.

Most tests drive idealkit.cli.main in process and freeze the observable
contract: exit codes, JSON payloads (sorted keys, schema tag), and the
plain-text renderings.  Those that need a time or memory limit, or a
closed stdout, run the command in a child process.
"""

import argparse
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from idealkit import ResourceCapError, closure, groebner, invariants, parse_ideal, parse_ring
from idealkit import cli
from idealkit.cli import build_parser, main
from helpers import corrupt_numerator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert err == ""
    payload = json.loads(out)
    assert payload["schema"] == 1
    return code, payload


def run_child(argv, timeout, **kwargs):
    """Run the CLI in a child process; its CompletedProcess."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "idealkit", *argv], text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src)}, **kwargs,
    )


def test_compare_text(capsys):
    code, out, err = run_cli(
        capsys,
        "symbolic", "compare",
        "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z", "--k", "2",
    )
    assert code == 0
    assert out == "NOT EQUAL, witness x*y*z\n"
    assert err == ""


def test_compare_json(capsys):
    code, payload = run_json(
        capsys,
        "symbolic", "compare",
        "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z", "--k", "2",
    )
    assert code == 0
    assert payload == {
        "schema": 1,
        "equal": False,
        "k": 2,
        "ordinary": [
            "x^2*y^2", "x^2*y*z", "x^2*z^2", "x*y^2*z", "x*y*z^2", "y^2*z^2",
        ],
        "symbolic": ["x^2*y^2", "x^2*z^2", "y^2*z^2", "x*y*z"],
        "witness": "x*y*z",
    }


def test_minimalize_text(capsys):
    code, out, err = run_cli(
        capsys,
        "ideal", "minimalize", "--ring", "x,y", "--ideal", "x^2, x^2*y, y^3",
    )
    assert code == 0
    assert out == "y^3, x^2\n"


def test_betti_text_table(capsys):
    code, out, err = run_cli(
        capsys,
        "invariants", "betti", "--ring", "x,y,z", "--ideal", "x, y, z",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["0", "1", "2", "3"]
    assert lines[1].split() == ["0", "1", "3", "3", "1"]


def test_betti_json(capsys):
    code, payload = run_json(
        capsys,
        "invariants", "betti", "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z",
    )
    assert code == 0
    assert payload["proj_dim"] == 2
    assert payload["regularity"] == 1
    assert payload["field"] == "QQ"
    assert [0, 0, 1] in payload["entries"]
    assert [1, 2, 3] in payload["entries"]
    assert [2, 3, 2] in payload["entries"]


def test_exercise4_json(capsys):
    code, payload = run_json(capsys, "artinrees", "exercise4", "--n", "3", "--k", "1")
    assert code == 0
    assert payload == {
        "schema": 1,
        "ell": 2,
        "found": True,
        "ideal": "x^3, x^2*y, y^3",
        "k": 1,
        "lmax": 6,
        "n": 3,
        "sub": "x^3, y^3",
        "witness": "x^4*y^2",
    }


def test_gb_text(capsys):
    code, out, err = run_cli(
        capsys,
        "groebner", "gb",
        "--ring", "x,y", "--polys", "x^2 + 2*x*y^2; x*y + 2*y^3 - 1",
        "--order", "lex",
    )
    assert code == 0
    assert out == "y^3 - 1/2\nx\n"


def test_gb_json_certified(capsys):
    code, payload = run_json(
        capsys,
        "groebner", "gb",
        "--ring", "x,y,z", "--polys", "x - z^2; y - z^3", "--order", "lex",
    )
    assert code == 0
    assert payload["certified"] is True
    assert payload["order"] == "lex"
    assert payload["basis"] == ["y - z^3", "x - z^2"]


def test_closure_text(capsys):
    code, out, err = run_cli(
        capsys,
        "closure", "closure", "--ring", "x,y", "--ideal", "x^4, x^2*y, y^3",
    )
    assert code == 0
    assert out.splitlines()[0] == "x^4, x^2*y, x*y^2, y^3"


def test_closure_json(capsys):
    code, payload = run_json(
        capsys,
        "closure", "closure", "--ring", "x,y", "--ideal", "x^3, y^3",
    )
    assert code == 0
    assert payload["already_closed"] is False
    assert payload["generators"] == ["x^3", "x^2*y", "x*y^2", "y^3"]
    # each facet is an integer inequality normal . e >= rhs
    for normal, rhs in payload["facets"]:
        assert len(normal) == 2
        assert all(isinstance(c, int) for c in normal)
        assert isinstance(rhs, int)


def test_closure_builds_one_newton_polyhedron(capsys, monkeypatch):
    calls = []
    fourier_motzkin = closure._fourier_motzkin
    monkeypatch.setattr(
        closure, "_fourier_motzkin",
        lambda *args: calls.append(1) or fourier_motzkin(*args),
    )
    code, out, err = run_cli(
        capsys,
        "closure", "closure", "--ring", "x,y", "--ideal", "x^4, x^2*y, y^3",
    )
    assert code == 0
    assert out.splitlines()[0] == "x^4, x^2*y, x*y^2, y^3"
    assert len(calls) == 1


def test_edge_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("graph 3\n1 2\n2 3\n3 1\n"))
    code, payload = run_json(capsys, "symbolic", "edge", "--graph", "-")
    assert code == 0
    assert payload["vertices"] == 3
    assert payload["edges"] == [[1, 2], [1, 3], [2, 3]]
    assert payload["generators"] == ["x1*x2", "x1*x3", "x2*x3"]
    assert payload["bipartite"] is False
    assert len(payload["odd_cycle"]) % 2 == 1


def test_edge_complete_bipartite_flag(capsys):
    code, payload = run_json(capsys, "symbolic", "edge", "--complete-bipartite", "2,3")
    assert code == 0
    assert payload["vertices"] == 5
    assert payload["bipartite"] is True
    assert payload["odd_cycle"] is None
    code, out, err = run_cli(capsys, "symbolic", "edge", "--complete-bipartite", "2;3")
    assert code == 2
    assert "comma-separated" in err


def test_theorem_agree_exit_zero(capsys):
    code, out, err = run_cli(capsys, "symbolic", "theorem", "--cycle", "4", "--kmax", "3")
    assert code == 0
    assert "verdicts AGREE" in out


def test_theorem_short_horizon_exit_one(capsys):
    # C5 only separates at k=3, so a k-horizon of 2 leaves the verdicts
    # genuinely inconsistent and the command must signal it
    code, out, err = run_cli(capsys, "symbolic", "theorem", "--cycle", "5", "--kmax", "2")
    assert code == 1
    assert "verdicts DISAGREE" in out
    code, payload = run_json(capsys, "symbolic", "theorem", "--cycle", "5", "--kmax", "2")
    assert code == 1
    assert payload["equal_up_to"] == 2
    assert payload["witness"] is None
    code, payload = run_json(capsys, "symbolic", "theorem", "--cycle", "5", "--kmax", "3")
    assert code == 0
    assert payload["witness"] == "x1*x2*x3*x4*x5"
    assert payload["agree"] is True


def test_hilbert_text(capsys):
    code, out, err = run_cli(
        capsys,
        "invariants", "hilbert", "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z",
    )
    assert code == 0
    assert out == (
        "series: (1 - 3*z^2 + 2*z^3) / (1 - z)^3\n"
        "polynomial: 3 for d >= 1\n"
    )


def test_hilbert_json(capsys):
    code, payload = run_json(
        capsys,
        "invariants", "hilbert", "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z",
    )
    assert code == 0
    assert payload["numerator"] == [1, 0, -3, 2]
    assert payload["denominator_power"] == 3
    assert payload["stable_from"] == 1


def test_member_json(capsys):
    code, payload = run_json(
        capsys,
        "groebner", "member",
        "--ring", "x,y", "--polys", "x^2; y^2", "--f", "x^2 + 2*x*y",
    )
    assert code == 0
    assert payload == {
        "schema": 1,
        "member": False,
        "remainder": "2*x*y",
    }


def test_mather_json(capsys):
    code, payload = run_json(
        capsys,
        "groebner", "mather", "--ring", "x,y", "--f", "x^5 + y^5 + x^3*y^3",
    )
    assert code == 0
    assert payload == {
        "schema": 1,
        "index": 2,
        "variables": 2,
        "within_uniform_bound": True,
    }


def test_kollar_json(capsys):
    code, payload = run_json(capsys, "groebner", "kollar", "--n", "3", "--d", "2")
    assert code == 0
    assert payload == {
        "schema": 1,
        "family": ["x1^2", "-x2^2 + x1*x3"],
        "found": 4,
        "matches": True,
        "predicted": 4,
        "searched_up_to": 4,
    }


def test_kollar_exhausted_exit_one(capsys):
    code, payload = run_json(
        capsys, "groebner", "kollar", "--n", "3", "--d", "2", "--dmax", "3",
    )
    assert code == 1
    assert payload["found"] is None
    assert payload["matches"] is False
    assert payload["searched_up_to"] == 3


def test_frobenius_json(capsys):
    code, payload = run_json(
        capsys,
        "groebner", "frobenius",
        "--ring", "x,y", "--polys", "x; y", "--p", "2", "--e", "2",
    )
    assert code == 0
    assert payload["contained"] is True
    assert payload["failure"] is None


def test_json_output_is_deterministic(capsys):
    args = ("invariants", "betti", "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z", "--json")
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second
    # sorted keys means a reserialization round trip is byte-identical
    payload = json.loads(first)
    assert json.dumps(payload, sort_keys=True) + "\n" == first


def test_parse_error_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "groebner", "gb", "--ring", "x,y", "--polys", "x^",
    )
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_polys_error_columns_count_from_the_flag_start(capsys):
    # the column --ideal reports for the same text
    code, out, err = run_cli(capsys, "groebner", "gb", "--ring", "x,y", "--polys", "x;  y^")
    assert (code, out, err) == (2, "", "error: expected nonnegative exponent (column 7)\n")
    code, out, err = run_cli(capsys, "ideal", "gens", "--ring", "x,y", "--ideal", "x,  y^")
    assert (code, out, err) == (2, "", "error: expected an exponent after '^' (column 7)\n")
    code, out, err = run_cli(
        capsys, "groebner", "gb", "--ring", "x,y", "--polys", " x ; ; y + 2 3 ;",
    )
    assert (code, out, err) == (2, "", "error: expected + or - before 3 (column 14)\n")


@pytest.mark.parametrize("argv, message", [
    (["groebner", "gb", "--ring", "x", "--polys", "é"], "unexpected character 'é' (column 1)"),
    (["groebner", "member", "--ring", "x", "--polys", "x", "--f", "2*é"],
     "unexpected character 'é' (column 3)"),
    (["groebner", "gb", "--ring", "x", "--polys", "x; x^²"], "unexpected character '²' (column 6)"),
    (["ideal", "gens", "--ring", "x", "--ideal", "x^²"], "expected an exponent after '^' (column 3)"),
    (["ideal", "gens", "--ring", "x", "--ideal", "é"], "expected a variable name (column 1)"),
])
def test_non_ascii_text_exits_two_with_a_column(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# int() refuses text with more digits than the interpreter's limit, in a
# message that names no column and suggests a sys setting
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (DIGIT_LIMIT + 700)
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")
OVER = f"has {len(LONG)} digits, over the limit of {DIGIT_LIMIT}"


@needs_digit_limit
@pytest.mark.parametrize(("argv", "message"), [
    (["ideal", "gens", "--ring", "x,y", "--ideal", f"y, x^{LONG}"], f"exponent {OVER} (column 6)"),
    (["groebner", "gb", "--ring", "x", "--polys", f"x; x^{LONG}"], f"number {OVER} (column 6)"),
    (["groebner", "gb", "--ring", "x", "--polys", f"x - {LONG}*x^2"], f"number {OVER} (column 5)"),
    (["groebner", "gb", "--ring", "x", "--polys", "x", "--field", f"fp:{LONG}"],
     f"prime in field {OVER}"),
    (["groebner", "kollar", "--degrees", f"3,{LONG}", "--nvars", "2"], f"degree {OVER}"),
    (["symbolic", "edge", "--complete-bipartite", f"{LONG},2"], f"part size {OVER}"),
], ids=["ideal-exponent", "polys-exponent", "polys-coefficient", "field-prime", "degrees",
        "bipartite-size"])
def test_long_numbers_in_text_exit_two_with_a_column(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@needs_digit_limit
@pytest.mark.parametrize("argv", [
    ["ideal", "power", "--ring", "x", "--ideal", "x", "--k"],
    ["verify", "--seed"],
    ["symbolic", "edge", "--cycle"],
], ids=["k", "seed", "cycle"])
def test_long_numbers_in_int_flags_exit_two_in_one_short_line(capsys, argv):
    # argparse once echoed the whole digit run in its "invalid int value"
    flag = argv[-1]
    code, out, err = run_cli(capsys, *argv, LONG)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {flag}: number {OVER}\n") and len(err) < 300
    code, out, err = run_cli(capsys, *argv, "x")
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {flag}: invalid int value: 'x'\n")


def test_every_int_flag_goes_through_the_digit_limit():
    parsers, types = [build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.type is not None:
                types.add((action.dest, action.type))
    assert len(types) == 16
    assert {t for _, t in types} == {cli._int_flag}


@needs_digit_limit
@pytest.mark.parametrize(("name", "text", "argv", "message"), [
    ("caps.json", f'{{"max_basis": {LONG}}}',
     ["groebner", "gb", "--ring", "x", "--polys", "x", "--caps"],
     f"caps file value for 'max_basis' {OVER}"),
    ("long.graph", f"# comment\ngraph {LONG}\n1 2\n", ["symbolic", "edge", "--graph"],
     f"number on graph line 2 {OVER}"),
    ("long.graph", f"graph 3\n1 2\n\n2 {LONG}\n", ["symbolic", "edge", "--graph"],
     f"number on graph line 4 {OVER}"),
], ids=["caps", "graph-header", "graph-edge"])
def test_long_numbers_in_files_exit_two_naming_the_place(capsys, tmp_path, name, text, argv,
                                                          message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, *argv, str(path)) == (2, "", f"error: {message}\n")


@needs_digit_limit
@pytest.mark.parametrize("exponent", ["1000001", "1" * DIGIT_LIMIT])
def test_over_cap_exponents_within_the_digit_limit_exit_three(capsys, exponent):
    # a parsed exponent, and one that a symbolic power makes
    for argv in (["ideal", "gens", "--ring", "x", "--ideal", f"x^{exponent}"],
                 ["symbolic", "compare", "--ring", "x,y", "--ideal", "x*y", "--k", exponent]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"resource cap: exponent {exponent} exceeds cap 1000000\n"


def test_unknown_flag_exits_two(capsys):
    code = main(["ideal", "minimalize", "--ring", "x,y", "--no-such-flag"])
    capsys.readouterr()
    assert code == 2


def test_resource_cap_exits_three(capsys, tmp_path):
    caps = tmp_path / "caps.json"
    caps.write_text('{"max_degree": 6}', encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "groebner", "gb",
        "--ring", "x,y", "--polys", "x^7 - y; x*y^7 - 1",
        "--order", "lex", "--caps", str(caps),
    )
    assert code == 3
    assert err == "resource cap: basis element of degree 8 exceeds cap 6\n"


def test_unbounded_power_exits_three_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "ideal", "power", "--ring", "x,y,z", "--ideal", "x*y,x*z,y*z", "--k", "1000",
    )
    assert (code, out, err) == (3, "", "resource cap: product would make over 500000 rows\n")
    assert time.perf_counter() - start < 20


def test_closure_of_a_cube_exits_three_at_the_elimination_cap():
    # Fourier-Motzkin on J^3, J = (x1^3*x3^2, x1*x2^2*x3, x1*x2*x3^2), would
    # form more rows than memory holds; the row cap refuses the step before
    # forming them.  A child process under a 1 GB address-space limit runs
    # it, so a regression fails this test instead of exhausting memory.
    ring = parse_ring("x1,x2,x3")
    cube = parse_ideal(ring, "x1^3*x3^2, x1*x2^2*x3, x1*x2*x3^2").power(3)
    argv = ["closure", "closure", "--ring", "x1,x2,x3",
            "--ideal", ", ".join(map(str, cube.generators))]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = run_child(argv, timeout=120, capture_output=True, preexec_fn=limit)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "resource cap: facet elimination exceeded the row cap\n")


def test_packedness_cap_exits_three(capsys, monkeypatch):
    # the 6-vertex path is packed, so the core search forms all 388 masks
    # of the cores of its minors unless the cap stops it
    argv = ("symbolic", "packed", "--ring", "a,b,c,d,e,f", "--ideal", "a*b, b*c, c*d, d*e, e*f")
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 387)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "resource cap: packedness check formed over 387 minor generators\n"
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 388)
    assert run_cli(capsys, *argv) == (0, "packed\n", "")


def test_packedness_cap_counts_minor_generators_in_a_child():
    # the maximal ideal on 1,200 variables has only singleton supports, so
    # its core is empty and it is packed at once
    names = ",".join(f"x{i}" for i in range(1200))
    start = time.perf_counter()
    done = run_child(["symbolic", "packed", "--ring", names, "--ideal", names], timeout=60,
                     capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "packed\n", "")
    # the 16-vertex path is packed, and the cores of its minors take
    # 741,072 masks, so the cap trips part way through the search
    names = ",".join(f"x{i}" for i in range(16))
    edges = ", ".join(f"x{i}*x{i + 1}" for i in range(15))
    done = run_child(["symbolic", "packed", "--ring", names, "--ideal", edges], timeout=60,
                     capture_output=True)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "resource cap: packedness check formed over 500000 minor generators\n"
    assert time.perf_counter() - start < 10


def test_closed_output_exits_two_without_a_traceback():
    # the child writes into a pipe whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_child(["ideal", "gens", "--ring", "x", "--ideal", "x"], timeout=60,
                         stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: [Errno 32] Broken pipe\n")


def test_clean_mismatch_search_ignores_a_huge_lmax():
    # one comparison at l = k + 1 settles every l, so --lmax bounds no work;
    # a scan over l would run far past the child's time limit
    done = run_child(["artinrees", "exercise4", "--n", "3", "--k", "2", "--lmax", "1000000"],
                     timeout=20, capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "no mismatch: I^l = J^(l-2) I^2 for every l >= 2\n", "")


@pytest.mark.parametrize("argv, text", [
    (["closure", "bs", "--ring", "x,y,z", "--ideal", "x,y,z", "--nmax", "200"],
     "holds: closure(I^n) within I^(n-3+1) for n <= 200\n"),
    (["closure", "uniform-bs", "--ring", "x,y,z", "--ideal", "x^3,y^3,z^3", "--nmax", "100"],
     "least uniform shift k = 2 for n <= 100\n"),
    (["artinrees", "number", "--ring", "x,y,z", "--ideal", "x,y,z", "--sub", "x*y,z^2",
      "--nmax", "80"],
     f"least k per n: {[1] + [2] * 79}\nArtin-Rees number up to n=80: 2\n"),
], ids=["bs", "uniform-bs", "artinrees-number"])
def test_uniform_bound_scans_answer_a_large_nmax(argv, text):
    # the closure scans stop at n = s - 1 and the Artin-Rees descents past
    # deg N start at the previous defect; a scan of every n up to --nmax
    # would run far past the time limit
    start = time.perf_counter()
    done = run_child(argv, timeout=60, capture_output=True)
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stdout, done.stderr) == (0, text, "")


def test_frobenius_long_power_chain_answers(capsys):
    code, payload = run_json(
        capsys,
        "groebner", "frobenius",
        "--ring", "x", "--polys", "x", "--p", "2", "--e", "11",
    )
    assert code == 0
    assert payload["contained"] is True
    assert payload["products_checked"] == 1


def test_frobenius_huge_power_chain_exits_three_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "groebner", "frobenius",
        "--ring", "x", "--polys", "x", "--p", "32003", "--e", "2",
    )
    assert (code, out) == (3, "")
    assert err == "resource cap: containment check needs 1024192009 products, over the cap 20000\n"
    assert time.perf_counter() - start < 5


def _recurse(*args):
    return _recurse(*args)


def _fail_self_check(*args):
    raise RuntimeError("internal error: series disagrees with direct count at degree 3")


def _trip_cap(*args):
    raise ResourceCapError("lcm lattice exceeds cap")


@pytest.mark.parametrize(
    "library_call,code,line",
    [
        (_fail_self_check, 4, "internal error: series disagrees with direct count at degree 3"),
        (_recurse, 4, "internal error: maximum recursion depth exceeded"),
        (_trip_cap, 3, "resource cap: lcm lattice exceeds cap"),
    ],
    ids=["self-check", "recursion", "cap"],
)
def test_runtime_failures_exit_with_one_line(capsys, monkeypatch, library_call, code, line):
    monkeypatch.setattr(invariants, "dimension_multiplicity", library_call)
    got, out, err = run_cli(capsys, "invariants", "mult", "--ring", "x,y", "--ideal", "x^2, y")
    assert (got, out) == (code, "")
    # one stderr line; Python versions word the end of the recursion message apart
    assert err.startswith(line) and err.endswith("\n") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["_numerator", "_colon_numerator"])
def test_corrupt_hilbert_numerator_exits_four(capsys, monkeypatch, name):
    corrupt_numerator(monkeypatch, name, 0)
    code, out, err = run_cli(
        capsys, "invariants", "hilbert", "--ring", "x,y,z", "--ideal", "x*y, x*z, y*z",
    )
    assert (code, out) == (4, "")
    assert err == "internal error: series disagrees with direct count at degree 0\n"


def test_failed_groebner_certificate_exits_four(capsys, monkeypatch):
    interreduce = groebner._interreduce
    monkeypatch.setattr(
        groebner, "_interreduce", lambda reducers, active: interreduce(reducers, active)[:-1])
    code, out, err = run_cli(
        capsys, "groebner", "gb", "--ring", "x,y", "--polys", "x^2 - y; y^2 - 1",
    )
    assert (code, out) == (4, "")
    assert err.startswith("internal error:") and err.count("\n") == 1
    assert err.endswith("\n") and "Traceback" not in err


def test_packedness_of_many_generators_answers(capsys):
    # the 1,287 five-variable square-free monomials of 13 variables: the
    # largest disjoint family has 2 members, against a cover number of 9
    ring = ",".join(f"x{i}" for i in range(1, 14))
    ideal = ", ".join(
        "*".join(f"x{i + 1}" for i in c) for c in itertools.combinations(range(13), 5)
    )
    code, out, err = run_cli(capsys, "symbolic", "packed", "--ring", ring, "--ideal", ideal)
    assert (code, err) == (0, "")
    assert out == "not packed: minor zeros=[] ones=[]: codim 9 but only 2 disjoint generators\n"


def test_frobenius_negative_e_exits_two(capsys):
    code, out, err = run_cli(
        capsys,
        "groebner", "frobenius",
        "--ring", "x,y", "--polys", "x; y", "--p", "2", "--e", "-1",
    )
    assert (code, out, err) == (2, "", "error: e must be nonnegative\n")
    # a negative degree is refused where the series is read, as in the library
    code, out, err = run_cli(
        capsys,
        "invariants", "hilbert", "--ring", "x,y", "--ideal", "x*y", "--degree", "-3",
    )
    assert (code, out, err) == (2, "", "error: degree must be nonnegative\n")


def test_mather_reports_the_searched_bound(capsys):
    argv = ("groebner", "mather", "--ring", "x,y", "--f", "x^5 + y^5 + x^3*y^3")
    code, out, err = run_cli(capsys, *argv, "--nmax", "1")
    assert (code, out) == (0, "no power f^N with N <= 1 found in J(f)\n")
    code, out, err = run_cli(capsys, *argv, "--nmax", "0")
    assert (code, out, err) == (2, "", "error: n_max must be at least 1\n")


@pytest.mark.parametrize("sub", ["betti", "pd-reg", "cm"])
def test_betti_commands_read_max_generators(capsys, tmp_path, sub):
    caps = tmp_path / "caps.json"
    caps.write_text('{"max_generators": 2}', encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "invariants", sub,
        "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z", "--caps", str(caps),
    )
    assert code == 3
    assert err == "resource cap: 3 generators exceed the enumeration cap 2\n"


@pytest.mark.parametrize("sub, text", [
    ("betti", "  4  . 21 35 15"),
    ("pd-reg", "pd = 3, reg = 4"),
    ("cm", "Cohen-Macaulay: codim 3, pd 3"),
], ids=["betti", "pd-reg", "cm"])
def test_betti_commands_answer_the_21_quintics(capsys, sub, text):
    # no generator count is refused by default; the lcm lattice has 181 points
    quintics = str(parse_ideal(parse_ring("x,y,z"), "x, y, z").power(5))
    code, out, err = run_cli(capsys, "invariants", sub, "--ring", "x,y,z", "--ideal", quintics)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == text


def test_betti_on_25_variables_stops_at_the_lattice_cap():
    names = ",".join(f"x{i}" for i in range(1, 26))
    start = time.perf_counter()
    done = run_child(["invariants", "betti", "--ring", names, "--ideal", names],
                     timeout=60, capture_output=True)
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "resource cap: lcm lattice exceeds cap\n")


def test_caps_file_opened_only_when_read(capsys):
    # ideal commands read no caps key, so a missing caps file is never opened
    code, out, err = run_cli(
        capsys,
        "ideal", "gens", "--ring", "x", "--ideal", "x", "--caps", "no-such-caps.json",
    )
    assert (code, out, err) == (0, "x\n", "")


def test_bad_caps_file_exits_two(capsys, tmp_path):
    caps = tmp_path / "caps.json"
    caps.write_text("[1, 2]", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "groebner", "gb", "--ring", "x", "--polys", "x", "--caps", str(caps),
    )
    assert code == 2
    assert "caps file" in err


@pytest.mark.parametrize("value", ["[1]", "{}", "null", '"many"'])
def test_non_integer_caps_value_exits_two(capsys, tmp_path, value):
    caps = tmp_path / "caps.json"
    caps.write_text(f'{{"max_basis": {value}}}', encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "groebner", "gb", "--ring", "x", "--polys", "x", "--caps", str(caps),
    )
    assert (code, out) == (2, "")
    assert err == f"error: caps file value for 'max_basis' is not an integer: {value}\n"


@pytest.mark.parametrize("value", ['"7"', "2.5", "true"])
def test_integer_like_caps_values_still_read(capsys, tmp_path, value):
    caps = tmp_path / "caps.json"
    caps.write_text(f'{{"max_basis": {value}}}', encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "groebner", "gb", "--ring", "x", "--polys", "x", "--caps", str(caps),
    )
    assert (code, out, err) == (0, "x\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("symbolic", "edge", "--cycle", "0"),
        ("symbolic", "theorem", "--path", "0"),
        ("symbolic", "edge", "--complete", "0"),
    ],
)
def test_empty_graph_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: graph needs at least one vertex\n")


def test_verify_reports_every_criterion(capsys):
    code, out, err = run_cli(capsys, "verify")
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    for line in lines:
        assert line.startswith("PASS")
        # one self-contained sentence of detail after the timing column
        assert "(" in line and ")" in line
    assert code == 0
