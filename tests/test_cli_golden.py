"""Golden captures of the command line.

Three contracts are frozen here:

* every ``$ idealkit ...`` example in the README's "Command line" block
  prints what the README shows (``...`` elides any text);
* one invocation per command, in text and ``--json`` mode, keeps its exit
  code and stdout, and a set of single-fault invocations keep their exit
  code and stderr (``cli_goldens.json``);
* the argparse tree keeps its commands, flags, types, defaults,
  required-ness and choices, and its ``--help`` pages.

To re-record after a deliberate interface change:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import argparse
import io
import json
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from idealkit.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_FILE = Path(__file__).with_name("cli_goldens.json")
# argparse wraps usage and help to the terminal width
COLUMNS = "80"

COMMANDS = [
    ["ideal", "minimalize", "--ring", "x,y", "--ideal", "x^2, x^2*y, y^3"],
    ["ideal", "gens", "--ring", "x,y,z", "--ideal", "x*y, x*y*z, z^2"],
    ["ideal", "radical", "--ring", "x,y,z", "--ideal", "x^2*y, y^3*z, z^2"],
    ["ideal", "contains", "--ring", "x,y", "--ideal", "x^2, y^3", "--monomial", "x*y^4"],
    ["ideal", "product", "--ring", "x,y", "--ideal", "x, y^2", "--other", "x^2, y"],
    ["ideal", "intersect", "--ring", "x,y", "--ideal", "x^2, y", "--other", "x, y^3"],
    ["ideal", "power", "--ring", "x,y", "--ideal", "x^2, x*y, y^3", "--k", "2"],
    ["ideal", "colon", "--ring", "x,y,z", "--ideal", "x^2*y, y*z^2, z^3",
     "--monomial", "y*z"],
    ["ideal", "minor", "--ring", "x,y,z", "--ideal", "x*y, y*z^2, x^2*z",
     "--zeros", "x", "--ones", "z"],
    ["symbolic", "compare", "--ring", "a,b,c,d", "--ideal", "a*b, b*c, c*d", "--k", "3"],
    ["symbolic", "packed", "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z"],
    ["symbolic", "edge", "--path", "4"],
    ["symbolic", "theorem", "--cycle", "5", "--kmax", "2"],
    ["closure", "closure", "--ring", "x,y", "--ideal", "x^3, y^3"],
    ["closure", "bs", "--ring", "x,y", "--ideal", "x^2, y^2", "--ell", "1", "--nmax", "2"],
    ["closure", "uniform-bs", "--ring", "x,y", "--ideal", "x^2, y^3", "--nmax", "3"],
    ["artinrees", "number", "--ring", "x,y", "--ideal", "x^2, y", "--sub", "x^2*y, y^2",
     "--nmax", "3"],
    ["artinrees", "exercise4", "--n", "4", "--k", "1", "--lmax", "5"],
    ["invariants", "hilbert", "--ring", "x,y,z", "--ideal", "x^2, y*z", "--degree", "4"],
    ["invariants", "betti", "--ring", "x,y,z", "--ideal", "x*y, y*z, x*z",
     "--field", "fp:3"],
    ["invariants", "pd-reg", "--ring", "x,y,z,w", "--ideal", "x*y, z*w"],
    ["invariants", "cm", "--ring", "x,y,z", "--ideal", "x*y, y*z"],
    ["invariants", "mult", "--ring", "x,y,z", "--ideal", "x^2, y^3"],
    ["groebner", "gb", "--ring", "x,y,z", "--polys", "x - z^2; y - z^3", "--field", "fp:7"],
    ["groebner", "member", "--ring", "x,y", "--polys", "x^2; y^2", "--f", "x^2*y + y^3",
     "--order", "lex"],
    ["groebner", "radical", "--ring", "x,y", "--polys", "x^2; y^3", "--f", "x + y"],
    ["groebner", "mather", "--ring", "x,y", "--f", "x^5 + y^5 + x^3*y^3", "--nmax", "1"],
    ["groebner", "kollar", "--degrees", "4,3,2", "--nvars", "2"],
    ["groebner", "frobenius", "--ring", "x,y", "--polys", "x + y; x*y", "--p", "2",
     "--e", "1"],
    ["verify"],
]

# one fault each: every input kind the CLI parses, plus argparse usage errors
FAULTS = [
    ["ideal", "gens", "--ring", "x,,y", "--ideal", "x"],
    ["ideal", "gens", "--ring", "x,y", "--ideal", "x^"],
    ["ideal", "product", "--ring", "x,y", "--ideal", "x", "--other", "z"],
    ["ideal", "contains", "--ring", "x,y", "--ideal", "x", "--monomial", "x*q"],
    ["ideal", "power", "--ring", "x,y", "--ideal", "x", "--k", "two"],
    ["ideal", "minor", "--ring", "x,y", "--ideal", "x*y", "--zeros", "w"],
    ["artinrees", "number", "--ring", "x,y", "--ideal", "x", "--sub", "x +"],
    ["artinrees", "exercise4", "--n", "1", "--k", "0"],
    ["invariants", "betti", "--ring", "x", "--ideal", "x", "--field", "fp:4"],
    ["groebner", "gb", "--ring", "x,y", "--polys", " ; "],
    ["groebner", "gb", "--ring", "x,y", "--polys", "x", "--order", "deglex"],
    ["groebner", "member", "--ring", "x,y", "--polys", "x", "--f", "y*"],
    ["groebner", "kollar", "--degrees", "3,a", "--nvars", "2"],
    ["groebner", "kollar", "--degrees", "3,3"],
    ["groebner", "kollar", "--n", "3"],
    ["symbolic", "edge", "--graph", "no-such-graph.txt"],
    ["symbolic", "edge", "--cycle", "3", "--path", "3"],
    ["symbolic", "theorem"],
    ["groebner", "gb", "--ring", "x", "--polys", "x", "--caps", "no-such-caps.json"],
    ["ideal"],
    ["nonsense"],
    [],
]


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if argv[:1] == ["verify"]:
        # per-criterion timings are the one nondeterministic field
        stdout = re.sub(r"\(\d+\.\d\ds\)", "(TIME)", stdout)
    return {"code": code, "stdout": stdout, "stderr": err.getvalue()}


def _parsers(parser, path=()):
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, path + (name,))


def _type_name(t):
    return None if t is None else getattr(t, "__name__", repr(t))


def interface(parser):
    """The argparse tree as plain data: every parser and every action."""
    out = {}
    for path, p in _parsers(parser):
        actions = []
        for a in p._actions:
            row = {
                "kind": type(a).__name__,
                "options": a.option_strings,
                "dest": a.dest,
                "required": a.required,
                "default": a.default,
                "type": _type_name(a.type),
                "nargs": a.nargs,
                "const": a.const,
                "metavar": a.metavar,
                "help": a.help,
                "choices": None if a.choices is None else list(a.choices),
            }
            actions.append(row)
        groups = [
            {"required": g.required, "dests": [a.dest for a in g._group_actions]}
            for g in p._mutually_exclusive_groups
        ]
        out[" ".join(path)] = {
            "prog": p.prog,
            "description": p.description,
            "actions": actions,
            "exclusive": groups,
        }
    return out


def help_pages(parser):
    return {
        " ".join(path): capture(list(path) + ["--help"])
        for path, _ in _parsers(parser)
    }


def record():
    os.environ["COLUMNS"] = COLUMNS
    parser = build_parser()
    data = {
        "python": "%d.%d" % sys.version_info[:2],
        "commands": [
            {"argv": argv + mode, **capture(argv + mode)}
            for argv in COMMANDS
            for mode in ([], ["--json"])
        ],
        "faults": [{"argv": argv, **capture(argv)} for argv in FAULTS],
        "interface": interface(parser),
        "help": help_pages(parser),
    }
    GOLDEN_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
    sys.exit()

GOLDEN = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
# usage lines and help pages are laid out by argparse, whose format shifts
# between Python minor versions
same_python = pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != GOLDEN["python"],
    reason=f"argparse layout recorded under Python {GOLDEN['python']}",
)


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


def _case_id(case):
    words = [w for w in case["argv"] if not w.startswith("-") or w == "--json"]
    return "-".join(words[:2] + (["json"] if "--json" in case["argv"] else []))


@pytest.mark.parametrize("case", GOLDEN["commands"], ids=_case_id)
def test_command_golden(case):
    got = capture(case["argv"])
    assert (got["code"], got["stdout"]) == (case["code"], case["stdout"])


@pytest.mark.parametrize(
    "case", GOLDEN["faults"], ids=[" ".join(c["argv"]) or "(none)" for c in GOLDEN["faults"]]
)
def test_fault_golden(case):
    if case["stderr"].startswith("usage:") and "%d.%d" % sys.version_info[:2] != GOLDEN["python"]:
        pytest.skip(f"argparse layout recorded under Python {GOLDEN['python']}")
    got = capture(case["argv"])
    assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


def test_golden_covers_every_command():
    commands = {
        path for path, p in _parsers(build_parser())
        if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)
    }
    assert len(commands) == 30
    assert {tuple(argv[:2]) if argv[0] != "verify" else ("verify",) for argv in COMMANDS} == commands


def test_parser_interface():
    parser = build_parser()
    assert interface(parser) == GOLDEN["interface"]
    parsers = list(_parsers(parser))
    assert len(parsers) == 37
    assert sum(len(p._actions) for _, p in parsers) <= 234


@same_python
def test_help_pages():
    assert help_pages(build_parser()) == GOLDEN["help"]


def _readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *expected = chunk.splitlines()
        assert command.startswith("$ idealkit ")
        examples.append((shlex.split(command)[2:], "\n".join(expected) + "\n"))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "argv,expected", README_EXAMPLES, ids=[" ".join(argv[:2]) for argv, _ in README_EXAMPLES]
)
def test_readme_example(argv, expected):
    got = capture(argv)
    assert got["code"] == 0
    pattern = ".*".join(re.escape(piece) for piece in expected.split("..."))
    assert re.fullmatch(pattern, got["stdout"], flags=re.DOTALL), got["stdout"]
