"""Sparse polynomial arithmetic used for cardinality-constrained counting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from combspec.polynomial import (
    Poly,
    canonical_value,
    coeff_of,
    mul_values,
    pow_value,
)

VARS = ("u", "v")


def poly_from(terms):
    return Poly(VARS, terms)


monomials = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=5).map(poly_from)


def as_func(p):
    def f(u, v):
        return sum(c * u**m[0] * v**m[1] for m, c in p.terms.items())

    return f


@given(polys, polys, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=200)
def test_add_and_mul_agree_with_evaluation(p, q, u, v):
    assert as_func(p + q)(u, v) == as_func(p)(u, v) + as_func(q)(u, v)
    assert as_func(p * q)(u, v) == as_func(p)(u, v) * as_func(q)(u, v)


@given(polys, polys, polys)
@settings(max_examples=100)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, st.integers(0, 4), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=100)
def test_pow_matches_repeated_mul(p, e, u, v):
    expect = 1
    for _ in range(e):
        expect *= as_func(p)(u, v)
    got = pow_value(p, e)
    if isinstance(got, Poly):
        got = as_func(got)(u, v)
    assert got == expect


def test_zero_coefficients_are_pruned():
    p = poly_from({(1, 0): 3})
    q = poly_from({(1, 0): -3})
    assert not (p + q)
    assert p
    assert (p + q).terms == {}


def test_int_coercion():
    p = poly_from({(1, 0): 2, (0, 0): 1})
    assert (p + 1).coefficient((0, 0)) == 2
    assert (2 * p).coefficient((1, 0)) == 4
    assert not (p * 0)


def test_mul_caps_drop_high_degrees():
    u = Poly.variable(VARS, "u")
    p = (u + 1).mul(u + 1, caps=(1, None))
    # u^2 exceeds the cap and is dropped; the rest survives
    assert p.coefficient((2, 0)) == 0
    assert p.coefficient((1, 0)) == 2
    assert p.coefficient((0, 0)) == 1


def test_pow_value_respects_caps():
    u = Poly.variable(VARS, "u")
    p = pow_value(u + 1, 5, caps=(2, None))
    assert p.coefficient((0, 0)) == 1
    assert p.coefficient((1, 0)) == 5
    assert p.coefficient((2, 0)) == 10
    assert p.coefficient((3, 0)) == 0


def test_value_helpers_int_fast_path():
    assert mul_values(6, 7) == 42
    assert pow_value(3, 4) == 81
    assert coeff_of(5, (0, 0)) == 5
    assert coeff_of(5, (1, 0)) == 0


def test_coeff_of_poly():
    p = poly_from({(2, 0): 9, (0, 0): 4})
    assert coeff_of(p, (2, 0)) == 9
    assert coeff_of(p, (0, 1)) == 0


def test_canonical_value_identifies_constants():
    assert canonical_value(7) == canonical_value(Poly.constant(VARS, 7))
    assert canonical_value(0) == canonical_value(poly_from({}))
    p = poly_from({(1, 0): 1})
    assert canonical_value(p) != canonical_value(1)
    assert canonical_value(p) == canonical_value(poly_from({(1, 0): 1}))


def test_mixed_variable_sets_rejected():
    p = Poly(("a",), {(1,): 1})
    q = Poly(("b",), {(1,): 1})
    try:
        p + q
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for mixed variable sets")
