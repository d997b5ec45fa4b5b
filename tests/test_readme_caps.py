"""The README's table of limits against the code.

Every module-level ``*_CAP`` constant and every ``max_*`` keyword default in
``idealkit`` must have a row showing its value, every row must name one of
them, and the caps-file keys in the table must be the keys the CLI reads.
"""

import ast
import importlib
from pathlib import Path

from idealkit.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "idealkit"
# seeded-input generators: their max_* keywords size the inputs they draw
# and bound no work
NOT_LIMITS = {"corpus"}


def _value(text):
    return None if text == "none" else int(text.replace(",", ""))


def readme_table():
    """{limit name: (default, caps-file key or None)} from the README rows."""
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `"):
            continue
        name, _, default, key = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = (_value(default), key.strip("`") or None)
    return rows


def code_limits():
    """{name: value} of every *_CAP constant and max_* keyword default."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in NOT_LIMITS:
            continue
        module = importlib.import_module(f"idealkit.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_CAP"):
                        found[target.id] = getattr(module, target.id)
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            pairs = list(zip(args.args[len(args.args) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            for arg, default in pairs:
                if arg.arg.startswith("max_"):
                    if isinstance(default, ast.Name):
                        value = getattr(module, default.id)
                    else:
                        value = ast.literal_eval(default)
                    found.setdefault(arg.arg, set()).add(value)
    return found


def test_every_limit_has_a_row_with_its_value():
    table = readme_table()
    for name, value in code_limits().items():
        if name.endswith("_CAP"):
            assert name in table, f"README caps table has no row for {name}"
            assert table[name][0] == value, (name, table[name][0], value)
        else:
            shown = {default for row, (default, key) in table.items() if name in (row, key)}
            assert shown, f"README caps table has no row for {name}"
            assert shown == value, (name, shown, value)


def test_every_row_names_a_limit_in_the_code():
    limits = code_limits()
    for name, (_, key) in readme_table().items():
        assert name in limits or key in limits, f"README caps row {name} names no limit"


def test_caps_file_keys_are_the_keys_the_cli_reads():
    keys = {key for _, key in readme_table().values() if key}
    assert keys == {key for command in COMMANDS for key in command.caps}
