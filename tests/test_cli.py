"""End-to-end checks of the command line interface.

Every test drives idealkit.cli.main in process and freezes the observable
contract: exit codes, JSON payloads (sorted keys, schema tag), and the
plain-text renderings.
"""

import io
import json

import pytest

from idealkit.cli import main


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


def test_frobenius_negative_e_exits_two(capsys):
    code, out, err = run_cli(
        capsys,
        "groebner", "frobenius",
        "--ring", "x,y", "--polys", "x; y", "--p", "2", "--e", "-1",
    )
    assert (code, out, err) == (2, "", "error: e must be nonnegative\n")


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
        status, name = line.split()[:2]
        assert status in ("PASS", "FAIL")
        # one self-contained sentence of detail after the timing column
        assert "(" in line and ")" in line
    # the suite is honest about the one exercise that cannot produce a witness
    failing = [line for line in lines if line.startswith("FAIL")]
    assert [line.split()[1] for line in failing] == ["artin-rees-exercise"]
    assert code == 1
