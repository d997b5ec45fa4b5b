"""What the benchmark's tracer reads from the Groebner stage functions.

``perfbench/tracer.py`` wraps ``groebner._reduce_full`` by rebinding the
module attribute, books each call under the field of ``args[0]`` and
counts the results that are zero; the certificate-corruption tests patch
``groebner._interreduce`` and edit the Polynomials it returns.  These
tests wrap both the same way during a ``buchberger`` call.
"""

from idealkit import (
    MonomialOrder,
    Polynomial,
    PrimeField,
    QQ,
    buchberger,
    groebner,
    parse_polynomial,
    parse_ring,
)

CYCLIC4 = ["a + b + c + d", "a*b + b*c + c*d + d*a",
           "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]


def _cyclic4(field, kind):
    ring = parse_ring("a, b, c, d")
    order = getattr(MonomialOrder, kind)(ring)
    return [parse_polynomial(ring, t, field, order) for t in CYCLIC4]


def test_reduce_full_shows_the_field_and_zero_results(monkeypatch):
    real = groebner._reduce_full
    seen = []

    def traced(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append((args[0].field.characteristic, result.is_zero))
        return result

    monkeypatch.setattr(groebner, "_reduce_full", traced)
    for field in (QQ, PrimeField(32003)):
        for kind in ("lex", "grevlex"):
            seen.clear()
            buchberger(_cyclic4(field, kind))
            assert {p for p, _ in seen} == {field.characteristic}
            assert {zero for _, zero in seen} == {False, True}


def test_interreduce_returns_polynomials(monkeypatch):
    real = groebner._interreduce
    returned = []

    def recorded(basis):
        returned.append(real(basis))
        return returned[-1]

    monkeypatch.setattr(groebner, "_interreduce", recorded)
    gb = buchberger(_cyclic4(PrimeField(32003), "grevlex"))
    assert len(returned) == 1
    assert all(isinstance(p, Polynomial) for p in returned[0])
    assert list(gb) == returned[0]
