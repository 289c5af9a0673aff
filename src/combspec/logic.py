"""Core syntax for two-variable clause sentences.

A sentence is a conjunction of clauses.  Each clause carries its own
quantifier prefix over at most two variables (x and y) and a disjunctive
body of literals.  Quantifiers are universal (V), existential (E), or
counting (E=k, "there exist exactly k").

Clauses are alpha-normalized on construction: the first bound variable is
always x, so two clauses differing only in variable naming compare equal.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

VARS = ("x", "y")
RESERVED_NAMES = frozenset(("x", "y", "V", "E"))


class ParseError(ValueError):
    """Raised for malformed sentence text."""


class FragmentError(ValueError):
    """Raised when a sentence falls outside the supported fragment."""


class KeyTooComplex(RuntimeError):
    """Raised when a canonical form would search too large a symmetry group."""


# largest symmetry group canonical_key searches before raising KeyTooComplex
MAX_GROUP = 100_000


@dataclass(frozen=True, order=True)
class Predicate:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity not in (0, 1, 2):
            raise ValueError(f"unsupported arity {self.arity} for {self.name}")


@dataclass(frozen=True)
class Quantifier:
    """V (universal), E (existential), or E with count for E=k."""

    kind: str
    count: int | None = None

    def __post_init__(self):
        if self.kind not in ("V", "E"):
            raise ValueError(f"bad quantifier kind {self.kind!r}")
        if self.count is not None:
            if self.kind != "E":
                raise ValueError("only E takes a count")
            if self.count < 1:
                raise ValueError("count must be at least 1")

    @property
    def is_counting(self) -> bool:
        return self.count is not None

    def render(self) -> str:
        if self.count is not None:
            return f"E={self.count}"
        return self.kind


FORALL = Quantifier("V")
EXISTS = Quantifier("E")


def counting(k: int) -> Quantifier:
    return Quantifier("E", k)


@dataclass(frozen=True)
class Literal:
    pred: Predicate
    args: tuple[str, ...]
    negated: bool = False

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise ValueError(
                f"{self.pred.name} expects {self.pred.arity} args, got {self.args}"
            )
        for a in self.args:
            if a not in VARS:
                raise ValueError(f"bad variable {a!r}")

    def negate(self) -> "Literal":
        return Literal(self.pred, self.args, not self.negated)

    def substitute(self, mapping: Mapping[str, str]) -> "Literal":
        return Literal(
            self.pred,
            tuple(mapping.get(a, a) for a in self.args),
            self.negated,
        )

    def render(self) -> str:
        s = "~" if self.negated else ""
        s += self.pred.name
        if self.args:
            s += "(" + ",".join(self.args) + ")"
        return s

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Clause:
    """A quantified disjunction, prefix variables fixed to x then y.

    Use make_clause to build one; it validates and alpha-normalizes.
    """

    prefix: tuple[Quantifier, ...]
    body: frozenset[Literal]

    @property
    def nvars(self) -> int:
        return len(self.prefix)

    @property
    def is_counting(self) -> bool:
        return any(q.is_counting for q in self.prefix)

    def predicates(self) -> frozenset[Predicate]:
        return frozenset(lit.pred for lit in self.body)

    def sorted_body(self) -> list[Literal]:
        return sorted(self.body, key=Literal.render)

    def render(self) -> str:
        parts = []
        for q, v in zip(self.prefix, VARS):
            parts.append(f"{q.render()} {v}")
        parts.append(" | ".join(lit.render() for lit in self.sorted_body()))
        return "(" + " ".join(parts) + ")"

    def __str__(self) -> str:
        return self.render()


def make_clause(
    prefix: Sequence[tuple[Quantifier, str]],
    body: Iterable[Literal],
) -> Clause:
    """Build a clause from (quantifier, variable) pairs and literals.

    Alpha-normalizes so the first bound variable is x: a single-variable
    clause over y is renamed to x, and a y-then-x prefix has both variables
    swapped throughout the body.
    """
    pairs = list(prefix)
    if not 1 <= len(pairs) <= 2:
        raise ValueError("prefix must bind one or two variables")
    bound = [v for _, v in pairs]
    if len(set(bound)) != len(bound) or any(v not in VARS for v in bound):
        raise ValueError(f"bad prefix variables {bound}")
    lits = list(body)
    if not lits:
        raise ValueError("empty clause body")
    used = {a for lit in lits for a in lit.args}
    if not used <= set(bound):
        raise ParseError(f"unbound variable in {sorted(used - set(bound))}")

    rename: dict[str, str] = {}
    if bound[0] == "y":
        rename = {"y": "x", "x": "y"}
    if rename:
        lits = [lit.substitute(rename) for lit in lits]
    quants = tuple(q for q, _ in pairs)
    return Clause(quants, frozenset(lits))


def single(quant: Quantifier, body: Iterable[Literal]) -> Clause:
    """Shorthand for a one-variable clause over x."""
    return make_clause([(quant, "x")], body)


def pair(q1: Quantifier, q2: Quantifier, body: Iterable[Literal]) -> Clause:
    """Shorthand for a two-variable clause over x then y."""
    return make_clause([(q1, "x"), (q2, "y")], body)


@dataclass(frozen=True)
class Sentence:
    clauses: frozenset[Clause]

    @cached_property
    def predicates(self) -> frozenset[Predicate]:
        return frozenset(p for c in self.clauses for p in c.predicates())

    def render(self) -> str:
        return " & ".join(sorted(c.render() for c in self.clauses))

    def __str__(self) -> str:
        return self.render()


def sentence(clauses: Iterable[Clause]) -> Sentence:
    cs = frozenset(clauses)
    if not cs:
        raise ValueError("sentence needs at least one clause")
    return Sentence(cs)


_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d+|[()&|~=,]")


def _tokenize(text: str) -> list[str]:
    leftover = _TOKEN_RE.sub("", text).strip()
    if leftover:
        raise ParseError(f"unexpected character {leftover[0]!r}")
    return _TOKEN_RE.findall(text)


class _Parser:
    def __init__(self, tokens: list[str], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.preds: dict[str, Predicate] = {}

    def peek(self, offset: int = 0) -> str | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> Sentence:
        clauses = [self.clause()]
        while self.peek() == "&":
            self.take("&")
            clauses.append(self.clause())
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return sentence(clauses)

    def clause(self) -> Clause:
        self.take("(")
        prefix = [self.quantified_var()]
        if self._at_quantifier():
            prefix.append(self.quantified_var())
        body = [self.literal()]
        while self.peek() == "|":
            self.take("|")
            body.append(self.literal())
        self.take(")")
        return make_clause(prefix, body)

    def _at_quantifier(self) -> bool:
        tok, nxt = self.peek(), self.peek(1)
        if tok not in ("V", "E"):
            return False
        return nxt in VARS or (tok == "E" and nxt == "=")

    def quantified_var(self) -> tuple[Quantifier, str]:
        kind = self.take()
        if kind not in ("V", "E"):
            raise ParseError(f"expected quantifier, got {kind!r}")
        count = None
        if self.peek() == "=":
            if kind != "E":
                raise ParseError("only E takes a count")
            self.take("=")
            num = self.take()
            if not num.isdigit():
                raise ParseError(f"expected a count, got {num!r}")
            count = int(num)
            if count < 1:
                raise ParseError("count must be at least 1")
        var = self.take()
        if var not in VARS:
            raise ParseError(f"expected variable x or y, got {var!r}")
        return Quantifier(kind, count), var

    def literal(self) -> Literal:
        negated = False
        if self.peek() == "~":
            self.take("~")
            negated = True
        name = self.take()
        if name in RESERVED_NAMES or not re.fullmatch(r"[A-Za-z_]\w*", name):
            raise ParseError(f"bad predicate name {name!r}")
        args: tuple[str, ...] = ()
        if self.peek() == "(":
            self.take("(")
            parts = [self.take()]
            while self.peek() == ",":
                self.take(",")
                parts.append(self.take())
            self.take(")")
            for v in parts:
                if v not in VARS:
                    raise ParseError(f"bad argument {v!r} for {name}")
            args = tuple(parts)
        pred = Predicate(name, len(args))
        known = self.preds.setdefault(name, pred)
        if known != pred:
            raise ParseError(f"{name} used with arities {known.arity} and {pred.arity}")
        return Literal(pred, args, negated)


def parse_sentence(text: str) -> Sentence:
    """Parse text like "(V x E y B(x,y) | ~B(y,x)) & (E x U(x))"."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    return _Parser(tokens, text).parse()


@dataclass(frozen=True)
class PredicateTransform:
    """Rename predicates, flip polarities, and/or swap binary arguments."""

    rename: Mapping[str, str] | None = None
    flip_sign: frozenset[str] = frozenset()
    flip_args: frozenset[str] = frozenset()

    def apply_literal(self, lit: Literal) -> Literal:
        name = lit.pred.name
        new_name = self.rename.get(name, name) if self.rename else name
        args = lit.args
        if name in self.flip_args and len(args) == 2:
            args = (args[1], args[0])
        negated = lit.negated ^ (name in self.flip_sign)
        return Literal(Predicate(new_name, lit.pred.arity), args, negated)


def _swappable(clause: Clause) -> bool:
    return (
        clause.nvars == 2
        and clause.prefix[0] == clause.prefix[1]
        and not clause.is_counting
    )


_SWAP = {"x": "y", "y": "x"}


def _clause_text(clause: Clause, t: PredicateTransform) -> str:
    lits = [t.apply_literal(l) for l in clause.body]
    head = " ".join(f"{q.render()} {v}" for q, v in zip(clause.prefix, VARS))
    base = "(" + head + " " + " | ".join(sorted(l.render() for l in lits)) + ")"
    if not _swappable(clause):
        return base
    swapped = [l.substitute(_SWAP) for l in lits]
    alt = "(" + head + " " + " | ".join(sorted(l.render() for l in swapped)) + ")"
    return min(base, alt)


def canonical_key(s: Sentence) -> bytes:
    """Spectrum-preserving canonical form of a sentence, as bytes.

    Minimizes the rendered text over every transform known to preserve the
    model count for all domain sizes: renaming predicates within an arity
    class, flipping any predicate's polarity, transposing any binary
    predicate's arguments, and swapping the two variables of a clause whose
    prefix repeats one non-counting quantifier.  Raises KeyTooComplex when
    that group has more than MAX_GROUP elements.
    """
    preds = sorted(s.predicates)
    by_arity: dict[int, list[Predicate]] = {0: [], 1: [], 2: []}
    for p in preds:
        by_arity[p.arity].append(p)
    slot_prefix = {0: "Z", 1: "U", 2: "B"}

    names = [p.name for p in preds]
    binaries = [p.name for p in by_arity[2]]
    size = 2 ** len(names) * 2 ** len(binaries)
    for ps in by_arity.values():
        size *= math.factorial(len(ps))
    if size > MAX_GROUP:
        raise KeyTooComplex(f"canonical group too large ({size})")

    rename_choices = []
    for arity, ps in by_arity.items():
        slots = [f"{slot_prefix[arity]}{i}" for i in range(len(ps))]
        perms = [
            dict(zip((p.name for p in ps), perm))
            for perm in itertools.permutations(slots)
        ] or [{}]
        rename_choices.append(perms)

    best: str | None = None
    clauses = sorted(s.clauses, key=Clause.render)
    for parts in itertools.product(*rename_choices):
        rename: dict[str, str] = {}
        for part in parts:
            rename.update(part)
        for sign_bits in itertools.product((False, True), repeat=len(names)):
            flip_sign = frozenset(n for n, b in zip(names, sign_bits) if b)
            for arg_bits in itertools.product((False, True), repeat=len(binaries)):
                flip_args = frozenset(n for n, b in zip(binaries, arg_bits) if b)
                t = PredicateTransform(rename, flip_sign, flip_args)
                text = " & ".join(sorted(_clause_text(c, t) for c in clauses))
                if best is None or text < best:
                    best = text
    assert best is not None
    return best.encode()
