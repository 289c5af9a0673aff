"""Core syntax for two-variable clause sentences.

A sentence is a conjunction of clauses.  Each clause carries its own
quantifier prefix over at most two variables (x and y) and a disjunctive
body of literals.  Quantifiers are universal (V), existential (E), or
counting (E=k, "there exist exactly k").

Clauses are alpha-normalized on construction: the first bound variable is
always x, so two clauses differing only in variable naming compare equal.

A search hashes the same predicates, quantifiers, literals and clauses
again and again, as it builds clause bodies, looks clauses up and
deduplicates candidates held as tuples of clauses, so Predicate,
Quantifier, Literal and Clause compute their hash once, on construction,
and return it from __hash__.  It is the hash of the tuple of their
fields, the one the generated __hash__ would give, so sets and dicts of
them iterate in the same order as before.  A str's hash is only valid in
the process that computed it, so the stored hash is never pickled: each
of the four pickles as a call to its constructor, which hashes anew.

A Literal also keeps its complement and those of its substitution images
that differ from it, each built on first use, so the clauses that share a
literal share them too: Clause.images, Clause.diagonal and the engine's
prepared forms.  An unchanged image is the literal itself, and is not
kept, and a complement or image keeps its own, never the literal it came
from, so nothing a literal keeps refers back to it and reference counting
frees it.  Neither cache is pickled or compared.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

VARS = ("x", "y")
RESERVED_NAMES = frozenset(("x", "y", "V", "E"))


class ParseError(ValueError):
    """Raised for malformed sentence text."""


class FragmentError(ValueError):
    """Raised when a sentence falls outside the supported fragment."""


@dataclass(frozen=True, order=True)
class Predicate:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity not in (0, 1, 2):
            raise ValueError(f"unsupported arity {self.arity} for {self.name}")
        object.__setattr__(self, "_hash", hash((self.name, self.arity)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Predicate, (self.name, self.arity)


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
        object.__setattr__(self, "_hash", hash((self.kind, self.count)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Quantifier, (self.kind, self.count)

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
        object.__setattr__(self, "_hash", hash((self.pred, self.args, self.negated)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Literal, (self.pred, self.args, self.negated)

    def negate(self) -> "Literal":
        return self._negation

    def substitute(self, mapping: Mapping[str, str]) -> "Literal":
        """The literal with each argument a read as mapping.get(a, a): the
        literal itself when no argument moves."""
        image = self._images.get((mapping.get("x", "x"), mapping.get("y", "y")))
        if image is not None:
            return image
        args = tuple(mapping.get(a, a) for a in self.args)
        return self if args == self.args else Literal(self.pred, args, self.negated)

    @cached_property
    def _negation(self) -> Literal:
        return Literal(self.pred, self.args, not self.negated)

    @cached_property
    def _images(self) -> dict[tuple[str, str], Literal]:
        """The image under each substitution of x and y by variables that
        moves an argument, keyed by the (image of x, image of y) pair; equal
        images are one object."""
        made: dict[tuple[str, ...], Literal] = {}
        images = {}
        for a in VARS:
            for b in VARS:
                args = tuple(a if v == "x" else b for v in self.args)
                if args != self.args:
                    if args not in made:
                        made[args] = Literal(self.pred, args, self.negated)
                    images[a, b] = made[args]
        return images

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

    Facts that depend on the clause alone, its predicate set among them,
    are computed on first use and kept on the object, so a search that
    shares one object per distinct clause computes each once.  No fact
    refers back to its clause, so a clause is freed by reference counting.
    """

    prefix: tuple[Quantifier, ...]
    body: frozenset[Literal]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.prefix, self.body)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Clause, (self.prefix, self.body)

    @property
    def nvars(self) -> int:
        return len(self.prefix)

    @property
    def is_counting(self) -> bool:
        return any(q.is_counting for q in self.prefix)

    @property
    def swappable(self) -> bool:
        """Its prefix repeats one non-counting quantifier, so swapping x
        and y throughout it keeps its meaning up to renaming."""
        return (
            self.nvars == 2 and self.prefix[0] == self.prefix[1] and not self.is_counting
        )

    @cached_property
    def predicates(self) -> frozenset[Predicate]:
        """The predicates in the body."""
        return frozenset(lit.pred for lit in self.body)

    @cached_property
    def names(self) -> frozenset[str]:
        """The names of the predicates in the body."""
        return frozenset(p.name for p in self.predicates)

    @cached_property
    def collapse(self) -> frozenset[tuple[str, tuple, bool]]:
        """The body with every atom of a predicate made one: a set of
        (predicate name, (), negated)."""
        return frozenset((lit.pred.name, (), lit.negated) for lit in self.body)

    @cached_property
    def images(self) -> dict[tuple[str, str], frozenset[Literal]]:
        """The body under each substitution of x and y by variables,
        keyed by the (image of x, image of y) pair."""
        return {
            (a, b): frozenset(lit._images.get((a, b), lit) for lit in self.body)
            for a in VARS
            for b in VARS
        }

    @cached_property
    def diagonal(self) -> Clause | None:
        """With a trailing plain existential, the clause at the witness
        y = x, which implies it; None otherwise."""
        if self.nvars == 2 and self.prefix[1] == EXISTS:
            return Clause(self.prefix[:1], self.images["x", "x"])
        return None

    @cached_property
    def valid(self) -> bool:
        """The clause holds in every structure: its body, or its diagonal
        form's, holds a literal and its complement."""
        if any(not lit.negated and lit.negate() in self.body for lit in self.body):
            return True
        return self.diagonal is not None and self.diagonal.valid

    @cached_property
    def text(self) -> str:
        parts = []
        for q, v in zip(self.prefix, VARS):
            parts.append(f"{q.render()} {v}")
        parts.append(" | ".join(sorted(lit.render() for lit in self.body)))
        return "(" + " ".join(parts) + ")"

    def render(self) -> str:
        return self.text

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

    if bound[0] == "y":
        lits = [lit.substitute({"x": "y", "y": "x"}) for lit in lits]
    quants = tuple(q for q, _ in pairs)
    return Clause(quants, frozenset(lits))


def single(quant: Quantifier, body: Iterable[Literal]) -> Clause:
    """Shorthand for a one-variable clause over x."""
    return make_clause([(quant, "x")], body)


def pair(q1: Quantifier, q2: Quantifier, body: Iterable[Literal]) -> Clause:
    """Shorthand for a two-variable clause over x then y."""
    return make_clause([(q1, "x"), (q2, "y")], body)


@dataclass(frozen=True, slots=True)
class Sentence:
    """A conjunction of clauses.  It holds its clause set and nothing
    else: a search keeps many candidates alive at once, and what they
    know about their clauses is kept on the shared clauses."""

    clauses: frozenset[Clause]

    @property
    def predicates(self) -> frozenset[Predicate]:
        """The union of the clauses' predicate sets, computed on each read."""
        return frozenset().union(*(c.predicates for c in self.clauses))

    def render(self) -> str:
        return " & ".join(sorted(c.render() for c in self.clauses))

    def __str__(self) -> str:
        return self.render()


_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d+|[()&|~=,]")


def _tokenize(text: str) -> list[str]:
    leftover = _TOKEN_RE.sub("", text).strip()
    if leftover:
        raise ParseError(f"unexpected character {leftover[0]!r}")
    return _TOKEN_RE.findall(text)


class _Parser:
    """Recursive descent over the grammar: tokens, parentheses, `&`, `|`,
    `~` and `=`.  Beyond it the parser checks only what no constructor
    can: reserved predicate names, one arity per name, and that a count
    is digits and a bound variable x or y.  Quantifier, Predicate,
    Literal and make_clause refuse the rest, and parse_sentence reports
    their refusals as ParseError."""

    def __init__(self, tokens: list[str], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.preds: dict[str, Predicate] = {}

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

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
        return Sentence(frozenset(clauses))

    def clause(self) -> Clause:
        self.take("(")
        prefix = [self.quantified_var()]
        # V and E name no predicate, so either one here starts a quantifier
        if self.peek() in ("V", "E"):
            prefix.append(self.quantified_var())
        body = [self.literal()]
        while self.peek() == "|":
            self.take("|")
            body.append(self.literal())
        self.take(")")
        return make_clause(prefix, body)

    def quantified_var(self) -> tuple[Quantifier, str]:
        kind = self.take()
        count = None
        if self.peek() == "=":
            self.take("=")
            num = self.take()
            if not num.isdigit():
                raise ParseError(f"expected a count, got {num!r}")
            count = int(num)
        quant = Quantifier(kind, count)
        var = self.take()
        if var not in VARS:
            raise ParseError(f"expected variable x or y, got {var!r}")
        return quant, var

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
            args = tuple(parts)
        pred = Predicate(name, len(args))
        known = self.preds.setdefault(name, pred)
        if known != pred:
            raise ParseError(f"{name} used with arities {known.arity} and {pred.arity}")
        return Literal(pred, args, negated)


def parse_sentence(text: str) -> Sentence:
    """Parse text like "(V x E y B(x,y) | ~B(y,x)) & (E x U(x))".

    Any malformed text raises ParseError, also where a syntax object's
    constructor is what refuses it."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    try:
        return _Parser(tokens, text).parse()
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _ranks(keys: Sequence) -> list[int]:
    """Each key's rank among the sorted distinct keys."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _refine(colors: list[int], adj: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Split color classes by the multiset of (label, color) codes around
    each vertex, adjacency as in canonical_labelling, until the partition
    is stable.  Colors are ranks, so they depend only on the graph, never
    on vertex numbering.

    A vertex alone in its class keeps the key (c,) instead of (c, *codes):
    no other key starts with c, so both rank the same and the ranks do
    not change.  Once the keys make no new class, they rank every vertex
    at its color, so the colors are returned as they are.
    """
    q, ncolors = len(colors), max(colors) + 1
    while ncolors < q:
        sizes = [0] * ncolors
        for c in colors:
            sizes[c] += 1
        keys = [
            (c, *sorted([off + colors[j] for j, off in row])) if sizes[c] > 1 else (c,)
            for c, row in zip(colors, adj)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        if len(rank) == ncolors:
            break
        ncolors = len(rank)
        colors = [rank[k] for k in keys]
    return colors


def canonical_labelling(
    invariants: Sequence, adj: Sequence[Sequence[tuple[int, int]]]
) -> tuple[int, ...]:
    """Canonical serial of a graph with colored vertices and labelled edges.

    invariants[i] is vertex i's own color, any sortable value.  adj[i]
    lists (j, label * q) for every edge i-j, and j's list holds (i, label
    * q) too, where q is the number of vertices and labels are ints from
    0; label * q + color then codes a (label, color) pair as one int.

    Individualisation-refinement (McKay 1981; McKay and Piperno 2014):
    color refinement gives an equitable partition.  While some class has
    more than one vertex, the non-singleton class of smallest color is
    split by giving each of its vertices in turn a color of its own and
    refining again.  Each discrete coloring is a leaf; its serial lists,
    vertex by vertex in color order, the codes label * q + position of the
    neighbours that come later, then -1, and the smallest leaf serial is
    returned.  The search tree depends only on the graph, so two graphs
    with equal sorted invariants and label tables serialize identically
    exactly when they are isomorphic; every leaf lists the vertices in the
    order of their initial colors.  A vertex whose neighbours, apart from
    each other, equal those of a vertex already tried in the same class
    is skipped: swapping the two is an automorphism, so its subtree yields
    the same leaves.

    The search recurses through the module-level _search, not through a
    closure that refers to itself, so a labelling makes no reference
    cycle: what it builds is freed by reference counting.
    """
    return _search(_refine(_ranks(invariants), adj), adj, len(invariants))


def _twins(a: int, b: int, adj: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """a and b have the same neighbours, apart from each other."""
    return all(k in (a, b) for k, _ in set(adj[a]) ^ set(adj[b]))


def _search(
    colors: list[int], adj: Sequence[Sequence[tuple[int, int]]], q: int
) -> tuple[int, ...]:
    """The smallest leaf serial below an equitable coloring, as in
    canonical_labelling."""
    if max(colors) + 1 == q:
        # a discrete coloring numbers the vertices 0 .. q-1
        serial: list[int] = []
        for a, v in sorted(zip(colors, range(q))):
            serial += sorted([off + colors[j] for j, off in adj[v] if colors[j] > a])
            serial.append(-1)
        return tuple(serial)
    target = min(c for c, n in Counter(colors).items() if n > 1)
    tried: list[int] = []
    for v in range(q):
        if colors[v] == target and not any(_twins(v, t, adj) for t in tried):
            tried.append(v)
    # v sorts just before the rest of its class; other classes keep their
    # order
    splits = ([2 * c + (i != v) for i, c in enumerate(colors)] for v in tried)
    return min(_search(_refine(_ranks(split), adj), adj, q) for split in splits)


def canonical_key(s: Sentence) -> bytes:
    """Spectrum-preserving canonical form of a sentence, as bytes.

    Two sentences get the same key exactly when one maps to the other by
    transforms known to preserve the model count for all domain sizes:
    renaming predicates within an arity class, flipping any predicate's
    polarity, transposing any binary predicate's arguments, and swapping
    the two variables of a clause whose prefix repeats one non-counting
    quantifier.  The sentence becomes a vertex-colored graph whose
    automorphisms are exactly those transforms (Crawford, Ginsberg, Luks
    and Roy, KR 1996), and canonical_labelling labels it:

      predicate: two joined sign vertices, colored by arity; swapping
          them flips the polarity
      binary predicate: also two joined argument-position vertices, each
          joined to both sign vertices; swapping them transposes it
      clause: one vertex per variable, colored by prefix and position,
          the two joined and alike only when the clause may swap them
      literal: unary, an edge from its variable to its sign vertex;
          binary, two joined argument vertices, each joined to its
          position vertex, its variable and the sign vertex; nullary, its
          sign vertex joined to every variable of the clause, so that it
          tells neither apart
    """
    kinds: list[str] = []
    adj: list[list[tuple[int, int]]] = []

    def vertex(kind: str) -> int:
        kinds.append(kind)
        adj.append([])
        return len(kinds) - 1

    def join(a: int, b: int) -> None:
        adj[a].append((b, 0))
        adj[b].append((a, 0))

    signs: dict[Predicate, tuple[int, int]] = {}
    positions: dict[Predicate, tuple[int, int]] = {}
    for p in s.predicates:
        kind = f"sign{p.arity}"
        signs[p] = pos, neg = vertex(kind), vertex(kind)
        join(pos, neg)
        if p.arity == 2:
            positions[p] = first, second = vertex("position"), vertex("position")
            join(first, second)
            for a in positions[p]:
                join(a, pos)
                join(a, neg)
    for c in s.clauses:
        prefix = " ".join(q.render() for q in c.prefix)
        var = {
            v: vertex(f"{prefix}:{'*' if c.swappable else v}") for v in VARS[: c.nvars]
        }
        if c.nvars == 2:
            join(var["x"], var["y"])
        for lit in c.body:
            sign = signs[lit.pred][lit.negated]
            if lit.pred.arity == 0:
                for v in var.values():
                    join(sign, v)
            elif lit.pred.arity == 1:
                join(sign, var[lit.args[0]])
            else:
                ends = vertex("argument"), vertex("argument")
                join(*ends)
                for end, position, name in zip(ends, positions[lit.pred], lit.args):
                    join(end, position)
                    join(end, var[name])
                    join(end, sign)
    leaf = canonical_labelling(kinds, adj)
    table = sorted(Counter(kinds).items())
    return f"{table}{','.join(map(str, leaf))}".encode()
