"""Sparse polynomial arithmetic used for cardinality-constrained counting.

The property tests draw their examples from seeded random.Random streams,
so every run checks the same examples."""

import random

from combspec.polynomial import (
    Packing,
    Poly,
    coeff_of,
    make,
    mul_values,
    norm1,
    pow_value,
)


def poly_from(terms):
    return make(terms)


def random_terms(rng, nvars, degree=4, coeff=9):
    """Up to five monomials in nvars variables of exponents 0..degree, with
    coefficients in -coeff..coeff."""
    return {
        tuple(rng.randint(0, degree) for _ in range(nvars)): rng.randint(-coeff, coeff)
        for _ in range(rng.randint(0, 5))
    }


def random_poly(rng):
    return poly_from(random_terms(rng, 2))


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


def test_add_and_mul_agree_with_evaluation():
    rng = random.Random(1)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        u, v = rng.randint(-3, 3), rng.randint(-3, 3)
        assert as_func(p + q)(u, v) == as_func(p)(u, v) + as_func(q)(u, v)
        assert as_func(mul_values(p, q))(u, v) == as_func(p)(u, v) * as_func(q)(u, v)


def test_ring_laws():
    rng = random.Random(2)
    mul = mul_values
    for _ in range(100):
        p, q, r = random_poly(rng), random_poly(rng), random_poly(rng)
        assert p + q == q + p
        assert mul(p, q) == mul(q, p)
        assert (p + q) + r == p + (q + r)
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert mul(p, q + r) == mul(p, q) + mul(p, r)


def test_results_are_in_normal_form():
    """A result with no monomial in a variable is an int, so equal values
    compare and hash equal however they were reached."""
    rng = random.Random(3)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        for got in (p + q, mul_values(p, q)):
            assert is_normal(got)
        s = p + q
        assert s == q + p and hash(s) == hash(q + p)
        diff = s + mul_values(-1, q)
        assert diff == p and hash(diff) == hash(p)


def test_pow_matches_repeated_mul():
    # every base and exponent of the range
    for a in range(-5, 6):
        for e in range(5):
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


def packed_mul(packing, p, q):
    return packing.unpack(packing.mul(packing.pack(p), packing.pack(q)))


def test_mul_caps_drop_high_degrees():
    u = Poly.variable(2, 0)
    p = packed_mul(Packing((1, 0), 8), u + 1, u + 1)
    # u^2 exceeds the cap and is dropped; the rest survives
    assert coeff_of(p, (2, 0)) == 0
    assert coeff_of(p, (1, 0)) == 2
    assert coeff_of(p, (0, 0)) == 1
    # dropping every variable monomial leaves an int
    assert packed_mul(Packing((0, 0), 8), u + 1, u + 3) == 3


def truncated(p, caps):
    """Reference: p without its monomials above caps."""
    if isinstance(p, int):
        return p
    kept = {m: c for m, c in p.terms.items() if all(map(int.__le__, m, caps))}
    return make(kept)


def convolution(k, p, q):
    """Reference product on coefficient dicts in k variables."""

    def terms(v):
        return v.terms if isinstance(v, Poly) else {(0,) * k: v}

    out = {}
    for m1, c1 in terms(p).items():
        for m2, c2 in terms(q).items():
            m = tuple(map(int.__add__, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return make(out)


def test_packed_product_matches_truncated_convolution():
    rng = random.Random(4)
    for _ in range(300):
        # one or two variables, caps 0..4, and two polynomials over them
        k = rng.randint(1, 2)
        caps = tuple(rng.randint(0, 4) for _ in range(k))
        p, q = (make(random_terms(rng, k)) for _ in range(2))
        # the width the cell DP's norm bound gives for one product
        width = (max(1, norm1(p)) * max(1, norm1(q))).bit_length() + 1
        packing = Packing(caps, width)
        for v in (p, q):
            assert packing.unpack(packing.pack(v)) == truncated(v, caps)
        assert packed_mul(packing, p, q) == truncated(convolution(k, p, q), caps)


def test_one_variable_slots_need_hold_only_the_kept_coefficients():
    """With one variable the kept slots are the low bits, so a product's
    coefficients above the cap may overflow their slots: the mask drops
    them whole, without a carry into a kept slot."""
    rng = random.Random(5)

    def graded():
        # exponents up to cap + 2, and x^e's coefficient up to 9 * 10^e, so
        # that the products of the top kept coefficients dominate
        exps = [rng.randint(0, cap + 2) for _ in range(rng.randint(0, 5))]
        return make({(e,): rng.randint(-9, 9) * 10**e for e in exps})

    overflowed = 0
    for _ in range(300):
        cap = rng.randint(0, 4)
        p, q = graded(), graded()
        want = convolution(1, p, q)
        kept = [truncated(v, (cap,)) for v in (p, q, want)]
        top = max(abs(coeff_of(v, (e,))) for v in kept for e in range(cap + 1))
        width = max(1, top).bit_length() + 1
        packing = Packing((cap,), width)
        assert packed_mul(packing, p, q) == kept[2]
        # a dropped coefficient of the product of the packed operands
        dropped = convolution(1, *kept[:2])
        overflowed += isinstance(dropped, Poly) and any(
            abs(c) >= 1 << (width - 1) for m, c in dropped.terms.items() if m[0] > cap
        )
    assert overflowed > 50


def test_value_helpers_int_fast_path():
    assert mul_values(6, 7) == 42
    assert pow_value(3, 4) == 81
    assert coeff_of(5, (0, 0)) == 5
    assert coeff_of(5, (1, 0)) == 0


def test_coeff_of_poly():
    p = poly_from({(2, 0): 9, (0, 0): 4})
    assert coeff_of(p, (2, 0)) == 9
    assert coeff_of(p, (0, 1)) == 0
