"""Sparse multivariate polynomials with integer coefficients.

The counting engine tracks cardinality constraints by giving each
constrained predicate a symbolic weight and reading off one coefficient at
the end.  Exponents never shrink under addition or multiplication, so
monomials above the target degree can be dropped early via caps.

Values have one normal form, built by make: a polynomial without a
variable is a plain int, so a Poly is never zero or constant, and equal
values compare and hash equal whichever way they were computed.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

Caps = Sequence[Union[int, None]]


class Poly:
    """Polynomial over a fixed tuple of variable names, with at least one
    monomial that has a variable; build one with make or variable."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict[tuple[int, ...], int]):
        self.vars = vars
        self.terms = terms

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "Poly":
        i = vars.index(name)
        mono = tuple(int(j == i) for j in range(len(vars)))
        return cls(vars, {mono: 1})

    def __add__(self, other: "Value") -> "Value":
        terms = dict(self.terms)
        if isinstance(other, Poly):
            items = other.terms.items()
        else:
            items = [((0,) * len(self.vars), other)]
        for m, c in items:
            terms[m] = terms.get(m, 0) + c
        return make(self.vars, terms)

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


Value = Union[int, Poly]


def make(vars: tuple[str, ...], terms: Mapping[tuple[int, ...], int]) -> Value:
    """The normal form of a polynomial: zero coefficients dropped, and a
    plain int when no monomial has a variable."""
    terms = {m: c for m, c in terms.items() if c}
    if any(any(m) for m in terms):
        return Poly(vars, terms)
    return sum(terms.values())


def _over_caps(mono: tuple[int, ...], caps: Caps) -> bool:
    return any(cap is not None and e > cap for e, cap in zip(mono, caps))


def mul_values(a: Value, b: Value, caps: Caps | None = None) -> Value:
    """Product of two weights, staying on ints when both are ints;
    monomials above caps are dropped."""
    if isinstance(a, int):
        if isinstance(b, int):
            return a * b
        a, b = b, a
    if isinstance(b, int):
        if b == 1:
            return a
        others = {(0,) * len(a.vars): b}
    else:
        others = b.terms
    terms: dict[tuple[int, ...], int] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in others.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if caps is not None and _over_caps(m, caps):
                continue
            terms[m] = terms.get(m, 0) + c1 * c2
    return make(a.vars, terms)


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
