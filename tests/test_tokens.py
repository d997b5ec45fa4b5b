"""One tokenizer reads monomial and polynomial text.

``parse_monomial`` and ``parse_polynomial`` walk the tokens of
``monomials._tokens``.  A seeded differential holds both to the character
scanners they replaced (``tests/helpers.py``): every string gets the same
value, or the same exception type and message.  Two classes of string
differ on purpose, and both now raise a ``ParseError`` with a column:
a non-ASCII letter in polynomial text (the old scanner raised
``AttributeError``), and a digit that ``int()`` rejects, such as ``²``
(the old scanners passed ``int()``'s ``ValueError`` through).
"""

import random

from idealkit import QQ, PrimeField, parse_monomial, parse_polynomial, parse_ring
from idealkit.errors import ParseError
from idealkit.monomials import _tokens
from helpers import parse_monomial_by_chars, parse_polynomial_by_chars

RING = parse_ring("x, y, z, x1")
NAMES = ("x", "y", "z", "x1", "q", "_")
# the grammar's characters, blanks, and four characters outside ASCII: a
# letter, a digit int() rejects, a digit int() reads, a no-break space
CHARS = "xyzq_0179^*/+-,;  \t" + "é²٣\u00a0"
PIECES = NAMES + (
    "1", "0", "2", "12", "7", "^", "*", "/", "+", "-", " ", "\t", "x^2", "2*",
    "1/7*", " + ", " - ", "é", "²", "٣", "\u00a0",
)
DIFFERENTIAL_SIZE = 12_000


def _monomial_text(rng):
    factors = []
    for _ in range(rng.randint(1, 3)):
        exponent = rng.choice(["", "", "^2", "^12", " ^ 3", "^0", "^٣"])
        factors.append(rng.choice(NAMES[:4]) + exponent)
    return rng.choice(["*", " * "]).join(factors) if rng.random() < 0.9 else "1"


def _polynomial_text(rng):
    text = ""
    for _ in range(rng.randint(1, 3)):
        sign = rng.choice([" + ", " - ", "-"] if text else ["", "", "-"])
        coeff = rng.choice(["", "", "2*", "1/2*", "3/7*", "12*"])
        text += sign + coeff + _monomial_text(rng)
    return text


def random_texts(seed, count):
    """Seeded strings: a third drawn character by character, a third pieced
    together from tokens, and a third well-formed monomials or polynomials
    with, half the time, one character replaced or inserted."""
    rng = random.Random(seed)
    for _ in range(count):
        mode = rng.randrange(3)
        if mode == 0:
            yield "".join(rng.choices(CHARS, k=rng.randrange(11)))
        elif mode == 1:
            yield "".join(rng.choices(PIECES, k=rng.randrange(9)))
        else:
            text = _monomial_text(rng) if rng.random() < 0.5 else _polynomial_text(rng)
            if rng.random() < 0.5:
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(CHARS) + text[at + rng.randrange(2):]
            yield text


def _outcome(parse, *args):
    try:
        value = parse(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value, getattr(value, "terms", None)


def _allowed(text, old, new):
    """The one intended difference: a crash of the old scanner on a non-ASCII
    letter or on a digit int() rejects is now a ParseError with a column."""
    if new[0] is not ParseError or not new[1].endswith(")") or "(column " not in new[1]:
        return False
    if old[0] is AttributeError:
        return "é" in text
    return old[0] is ValueError and old[1].startswith("invalid literal for int()") and "²" in text


# every message each grammar can give, by its first words
MESSAGES = {
    "monomial": (
        "empty monomial", "unexpected text after '1'", "expected a variable name",
        "unknown variable", "expected an exponent after '^'",
        "expected '*' between factors",
    ),
    "polynomial": (
        "empty polynomial", "unexpected character", "expected + or - before",
        "expected integer denominator", "zero denominator", "unknown variable",
        "expected nonnegative exponent", "expected a coefficient or variable",
        "coefficient denominator is zero in this field",
    ),
}


def parity(seed, count):
    """Give ``count`` seeded strings to both parsers and their oracles, and
    fail on any difference but the intended one.

    Returns ``{parser: (identical, allowed, values, messages)}``: the counts
    of identical and of intended outcomes, how many strings parsed, and the
    set of messages raised.
    """
    gf7 = PrimeField(7)
    tallies = {name: [0, 0, 0, set()] for name in MESSAGES}
    for i, text in enumerate(random_texts(seed, count)):
        offset, field = i % 5, (QQ, gf7)[i % 2]
        for name, old, new in (
            ("monomial",
             _outcome(parse_monomial_by_chars, RING, text, offset),
             _outcome(parse_monomial, RING, text, offset)),
            ("polynomial",
             _outcome(parse_polynomial_by_chars, RING, text, field),
             _outcome(parse_polynomial, RING, text, field)),
        ):
            tally = tallies[name]
            if old == new:
                tally[0] += 1
            else:
                assert _allowed(text, old, new), (name, text, old, new)
                tally[1] += 1
            if len(new) == 3:
                tally[2] += 1
            else:
                tally[3].add(new[1])
    return {name: tuple(tally) for name, tally in tallies.items()}


def test_parsers_match_the_character_scanners():
    counts = parity(seed=16, count=DIFFERENTIAL_SIZE)
    for name, (same, allowed, values, messages) in counts.items():
        assert same + allowed == DIFFERENTIAL_SIZE
        # the sample holds intended changes, values, and every message
        assert 0 < allowed < same and values > DIFFERENTIAL_SIZE // 10, (name, counts[name][:3])
        for start in MESSAGES[name]:
            assert any(m.startswith(start) for m in messages), (name, start)


def test_tokens_carry_kind_text_and_column():
    assert _tokens(" x1^12 *\té²٣\u00a0") == [
        ("name", "x1", 2),
        ("other", "^", 4),
        ("int", "12", 5),
        ("other", "*", 8),
        ("other", "é", 10),
        ("other", "²", 11),
        ("int", "٣", 12),
        ("end", "", 14),
    ]
    assert _tokens("") == [("end", "", 1)]
    assert _tokens(" y ", offset=4) == [("name", "y", 6), ("end", "", 8)]
