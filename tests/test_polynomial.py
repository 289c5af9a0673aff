"""Sparse polynomial arithmetic used for cardinality-constrained counting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from combspec.polynomial import Poly, coeff_of, make, mul_values, pow_value

VARS = ("u", "v")


def poly_from(terms):
    return make(VARS, terms)


monomials = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=5).map(poly_from)
caps = st.tuples(st.none() | st.integers(0, 4), st.none() | st.integers(0, 4))


def as_func(p):
    def f(u, v):
        if isinstance(p, int):
            return p
        return sum(c * u**m[0] * v**m[1] for m, c in p.terms.items())

    return f


def is_normal(p):
    """An int, or a Poly with only nonzero coefficients and a variable."""
    if isinstance(p, int):
        return True
    return all(p.terms.values()) and any(any(m) for m in p.terms)


@given(polys, polys, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=200)
def test_add_and_mul_agree_with_evaluation(p, q, u, v):
    assert as_func(p + q)(u, v) == as_func(p)(u, v) + as_func(q)(u, v)
    assert as_func(mul_values(p, q))(u, v) == as_func(p)(u, v) * as_func(q)(u, v)


@given(polys, polys, polys)
@settings(max_examples=100)
def test_ring_laws(p, q, r):
    mul = mul_values
    assert p + q == q + p
    assert mul(p, q) == mul(q, p)
    assert (p + q) + r == p + (q + r)
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, q + r) == mul(p, q) + mul(p, r)


@given(polys, polys, caps)
@settings(max_examples=200)
def test_results_are_in_normal_form(p, q, cap):
    """A result with no monomial in a variable is an int, so equal values
    compare and hash equal however they were reached."""
    for got in (p + q, mul_values(p, q, cap)):
        assert is_normal(got)
    s = p + q
    assert s == q + p and hash(s) == hash(q + p)
    diff = s + mul_values(-1, q)
    assert diff == p and hash(diff) == hash(p)


@given(st.integers(-5, 5), st.integers(0, 4))
def test_pow_matches_repeated_mul(a, e):
    expect = 1
    for _ in range(e):
        expect = mul_values(expect, a)
    assert pow_value(a, e) == expect


def test_zero_coefficients_are_pruned():
    p = poly_from({(1, 0): 3})
    q = poly_from({(1, 0): -3})
    assert p + q == 0 and isinstance(p + q, int)
    assert isinstance(p, Poly) and p
    assert poly_from({(1, 0): 0, (0, 0): 5}) == 5


def test_int_coercion():
    p = poly_from({(1, 0): 2, (0, 0): 1})
    assert coeff_of(p + 1, (0, 0)) == 2
    assert coeff_of(1 + p, (0, 0)) == 2
    assert coeff_of(mul_values(2, p), (1, 0)) == 4
    assert mul_values(p, 0) == 0
    assert p + poly_from({(1, 0): -2}) == 1


def test_mul_caps_drop_high_degrees():
    u = Poly.variable(VARS, "u")
    p = mul_values(u + 1, u + 1, caps=(1, None))
    # u^2 exceeds the cap and is dropped; the rest survives
    assert coeff_of(p, (2, 0)) == 0
    assert coeff_of(p, (1, 0)) == 2
    assert coeff_of(p, (0, 0)) == 1
    # dropping every variable monomial leaves an int
    assert mul_values(u + 1, u + 3, caps=(0, None)) == 3


def test_value_helpers_int_fast_path():
    assert mul_values(6, 7) == 42
    assert pow_value(3, 4) == 81
    assert coeff_of(5, (0, 0)) == 5
    assert coeff_of(5, (1, 0)) == 0


def test_coeff_of_poly():
    p = poly_from({(2, 0): 9, (0, 0): 4})
    assert coeff_of(p, (2, 0)) == 9
    assert coeff_of(p, (0, 1)) == 0
