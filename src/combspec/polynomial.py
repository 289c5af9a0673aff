"""Sparse multivariate polynomials with integer coefficients.

The counting engine tracks cardinality constraints by giving each
constrained predicate a symbolic weight and reading off one coefficient at
the end.  Exponents never shrink under addition or multiplication, so
monomials above the target degree can be dropped early via caps.

Plain ints mix freely with Poly values; helpers below keep an int fast
path so unconstrained computations never touch polynomial arithmetic.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

Caps = Sequence[Union[int, None]]


class Poly:
    """Polynomial over a fixed tuple of variable names."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], int]):
        self.vars = vars
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def constant(cls, vars: tuple[str, ...], c: int) -> "Poly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "Poly":
        i = vars.index(name)
        mono = tuple(int(j == i) for j in range(len(vars)))
        return cls(vars, {mono: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError("mixed variable sets")
            return other
        if isinstance(other, int):
            return Poly.constant(self.vars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(self.vars, terms)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "Poly", caps: Caps | None = None) -> "Poly":
        terms: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                if caps is not None and _over_caps(m, caps):
                    continue
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(self.vars, terms)

    def coefficient(self, mono: tuple[int, ...]) -> int:
        return self.terms.get(tuple(mono), 0)

    def canonical(self) -> tuple:
        return (self.vars, tuple(sorted(self.terms.items())))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == Poly.constant(self.vars, other).terms
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            factors = [str(c)] if c != 1 or not any(m) else []
            if c == 1 and not any(m):
                factors = ["1"]
            for name, e in zip(self.vars, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors) or str(c))
        return " + ".join(parts)


def _over_caps(mono: tuple[int, ...], caps: Caps) -> bool:
    return any(cap is not None and e > cap for e, cap in zip(mono, caps))


Value = Union[int, Poly]


def mul_values(a: Value, b: Value, caps: Caps | None = None) -> Value:
    """Product of two weights, staying on ints when both are ints."""
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    if isinstance(a, int):
        a, b = b, a
    if isinstance(b, int):
        return a if b == 1 else a.mul(Poly.constant(a.vars, b), caps)
    return a.mul(b, caps)


def pow_value(a: Value, e: int, caps: Caps | None = None) -> Value:
    if e < 0:
        raise ValueError("negative exponent")
    if isinstance(a, int):
        return a**e
    result: Value = 1
    base = a
    while e:
        if e & 1:
            result = mul_values(result, base, caps)
        e >>= 1
        if e:
            base = base.mul(base, caps)
    return result


def coeff_of(v: Value, mono: Sequence[int]) -> int:
    """Coefficient of the given monomial; an int is a constant poly."""
    if isinstance(v, int):
        return v if not any(mono) else 0
    return v.coefficient(tuple(mono))


def canonical_value(v: Value):
    """Hashable canonical form shared by ints and constant polys."""
    if isinstance(v, Poly):
        if not v.terms:
            return 0
        if len(v.terms) == 1 and not any(next(iter(v.terms))):
            return next(iter(v.terms.values()))
        return v.canonical()
    return v
