"""Generated ring, ideal and polynomial text through the command line.

Whatever the text, ``main`` answers with an exit code the README documents
and never lets a traceback through.  Inputs follow the acceptance gate's
shapes (at most 4 variables, 8 generators, degree 5), with malformed text
mixed in so the parsers' error paths run too.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealkit.cli import main

NAMES = ("x", "y", "z", "w")
# characters of the input grammar, for malformed text, and four outside
# ASCII: a letter, a digit int() rejects, a digit int() reads, a no-break space
NOISE = st.text(alphabet="xyzwq0123456789^*/+-,; " + "é²٣\u00a0", max_size=16)

fuzz = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _monomial(exponents):
    factors = [name if e == 1 else f"{name}^{e}"
               for name, e in zip(NAMES, exponents) if e]
    return "*".join(factors) or "1"


@st.composite
def rings(draw):
    return NAMES[:draw(st.integers(1, 4))]


@st.composite
def monomials(draw, names):
    """A monomial of degree 1 to 5 on ``names``."""
    exponents = [0] * len(names)
    for i in draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=5)):
        exponents[i] += 1
    return _monomial(exponents)


@st.composite
def ideal_texts(draw, names):
    gens = draw(st.lists(monomials(names), min_size=1, max_size=8))
    return ", ".join(gens)


@st.composite
def polynomial_texts(draw, names):
    text = ""
    for mono in draw(st.lists(monomials(names), min_size=1, max_size=4)):
        sign = draw(st.sampled_from([" + ", " - "] if text else ["", "-"]))
        coeff = draw(st.sampled_from(["", "2*", "3*", "1/2*", "7/3*"]))
        text += sign + coeff + mono
    return text


@st.composite
def _or_noise(draw, strategy):
    """Text from ``strategy``, or malformed text one time in four."""
    return draw(NOISE if draw(st.integers(0, 3)) == 3 else strategy)


@st.composite
def ideal_requests(draw, command):
    names = draw(rings())
    ring = draw(_or_noise(st.just(",".join(names))))
    return command + ["--ring", ring, "--ideal", draw(_or_noise(ideal_texts(names)))]


@st.composite
def groebner_requests(draw):
    names = draw(rings())
    ring = draw(_or_noise(st.just(",".join(names))))
    polys = draw(st.lists(_or_noise(polynomial_texts(names)), min_size=1, max_size=8))
    field = draw(st.sampled_from(["q", "fp:7", "fp:32003"]))
    order = draw(st.sampled_from(["lex", "grevlex"]))
    return ["groebner", "gb", "--ring", ring, "--polys", "; ".join(polys),
            "--field", field, "--order", order]


@pytest.fixture(scope="module")
def gb_caps(tmp_path_factory):
    """Caps that keep every Buchberger run short: some systems of this shape
    take minutes under the default caps, and cap out here with exit 3."""
    path = tmp_path_factory.mktemp("caps") / "caps.json"
    path.write_text(json.dumps({"max_basis": 30, "max_degree": 10}), encoding="utf-8")
    return str(path)


def _assert_clean(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


@fuzz
@given(ideal_requests(["ideal", "gens"]))
def test_ideal_gens(argv):
    _assert_clean(argv)


@fuzz
@given(ideal_requests(["invariants", "mult"]))
def test_invariants_mult(argv):
    _assert_clean(argv)


@fuzz
@given(argv=groebner_requests())
def test_groebner_gb(gb_caps, argv):
    _assert_clean(argv + ["--caps", gb_caps])
