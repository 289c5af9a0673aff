"""Sparse multivariate polynomials with integer coefficients, and their
packed form.

The counting engine tracks cardinality constraints by giving each
constrained predicate a symbolic weight and reading off one coefficient at
the end.  Cell graphs hold their weights as Poly values.  Exponents never
shrink under addition or multiplication, so the cell DP drops monomials
above the target degrees (the caps) and carries each truncated value packed
in one int, one fixed-width slot per monomial (Kronecker substitution):
a truncated product is then one big-int multiply and a mask (Packing).

Values have one normal form, built by make: a polynomial without a
variable is a plain int, so a Poly is never zero or constant, and equal
values compare and hash equal whichever way they were computed.  A
polynomial carries no variable names: variable i is position i of its
exponent tuples, and the caller that made the variables knows what each
one stands for (engine: the constrained predicates, in sorted order).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence, Union


class Poly:
    """Polynomial given by its terms, a map from exponent tuples to
    nonzero coefficients, with at least one monomial that has a variable;
    build one with make or variable.  Every monomial of a value has one
    exponent per variable, so the constant monomial's length is read from
    any of them."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], int]):
        self.terms = terms

    @classmethod
    def variable(cls, k: int, i: int) -> "Poly":
        """Variable i of k."""
        return cls({tuple(int(j == i) for j in range(k)): 1})

    def __add__(self, other: "Value") -> "Value":
        terms = dict(self.terms)
        if isinstance(other, Poly):
            items = other.terms.items()
        else:
            items = [((0,) * len(next(iter(terms))), other)]
        for m, c in items:
            terms[m] = terms.get(m, 0) + c
        return make(terms)

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


Value = Union[int, Poly]


def make(terms: Mapping[tuple[int, ...], int]) -> Value:
    """The normal form of a polynomial: zero coefficients dropped, and a
    plain int when no monomial has a variable."""
    terms = {m: c for m, c in terms.items() if c}
    if any(any(m) for m in terms):
        return Poly(terms)
    return sum(terms.values())


def mul_values(a: Value, b: Value) -> Value:
    """Product of two weights, staying on ints when both are ints."""
    if isinstance(a, int):
        if isinstance(b, int):
            return a * b
        a, b = b, a
    if isinstance(b, int):
        if b == 1:
            return a
        others = {(0,) * len(next(iter(a.terms))): b}
    else:
        others = b.terms
    terms: dict[tuple[int, ...], int] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in others.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            terms[m] = terms.get(m, 0) + c1 * c2
    return make(terms)


def pow_value(a: int, e: int) -> int:
    """An integer weight raised to a count; exact, so e must be >= 0."""
    if e < 0:
        raise ValueError("negative exponent")
    return a**e


def coeff_of(v: Value, mono: Sequence[int]) -> int:
    """Coefficient of the given monomial; an int is a constant."""
    if isinstance(v, int):
        return v if not any(mono) else 0
    return v.terms.get(tuple(mono), 0)


def norm1(v: Value) -> int:
    """Sum of the absolute values of the coefficients."""
    return abs(v) if isinstance(v, int) else sum(map(abs, v.terms.values()))


class Packing:
    """Kronecker layout of the polynomials in len(caps) variables
    truncated at caps, one cap per exponent position: a value is one int
    holding each coefficient as a balanced (signed) digit in a slot of
    width bits.

    Monomial e sits in slot sum(e[i] * stride[i]), where stride[i] is the
    product of 2 * caps[j] + 1 over j < i.  The exponents of a product of
    two monomials within the caps are at most 2 * caps[i], so they are the
    mixed-radix digits of its slot and no two monomials of a product share
    one.  A constant c packs to c itself.  Sums and products by a constant
    are plain int arithmetic.  mul multiplies, adds half a slot to every
    slot the product can reach, so that each digit reads as a nonnegative
    field with no borrow from below, keeps the slots within the caps and
    takes their offset off again.  Exact as long as every coefficient of
    the operands and of the untruncated product lies in
    [-2**(width - 1), 2**(width - 1)).  With one variable the kept slots
    are the lowest, so the mask reduces modulo a power of two that every
    slot above the caps is a multiple of, and only the coefficients within
    the caps need lie in that range.
    """

    def __init__(self, caps: Sequence[int], width: int):
        self.width = width
        strides = [1]
        for cap in caps:
            strides.append(strides[-1] * (2 * cap + 1))
        self.slots = {
            mono: sum(e * s for e, s in zip(mono, strides))
            for mono in itertools.product(*(range(cap + 1) for cap in caps))
        }
        half = 1 << (width - 1)
        self.keep = sum(((1 << width) - 1) << (width * i) for i in self.slots.values())
        self.koff = sum(half << (width * i) for i in self.slots.values())
        # a product reaches slots 0 .. strides[-1] - 1
        self.off = sum(half << (width * i) for i in range(strides[-1]))

    def pack(self, v: Value) -> int:
        """v with its monomials above the caps dropped, packed."""
        if isinstance(v, int):
            return v
        slot = self.slots.get
        return sum(
            c << (self.width * i)
            for m, c in v.terms.items()
            if (i := slot(m)) is not None
        )

    def unpack(self, x: int) -> Value:
        """The value packed in x, in normal form."""
        w = self.width
        x += self.koff
        mask, half = (1 << w) - 1, 1 << (w - 1)
        terms = {m: (x >> (w * i) & mask) - half for m, i in self.slots.items()}
        return make(terms)

    def mul(self, a: int, b: int) -> int:
        """Product of two packed values, truncated at the caps."""
        return ((a * b + self.off) & self.keep) - self.koff
