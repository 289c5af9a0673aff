"""Sentence enumeration with redundancy pruning.

Sentences grow layer by layer: layer 1 holds every single-literal clause
over the predicate pool, and each later layer refines a retained sentence
by adding one literal to a clause or one fresh single-literal clause.  A
literal that would make its clause valid is never added, so no candidate
is a tautology.  Each candidate is classified once, by the first of these
tests that holds, in this order:

  dropped (not output, not refined): tautologous clause (only a direct
      caller of classify meets one), duplicate canonical form of an
      earlier candidate, refuted (a ground abstraction decided
      unsatisfiable exactly, with no budget; a sentence whose one-element
      collapse is satisfiable cannot be, and is settled without
      grounding), or decomposable into predicate-disjoint parts
  hidden (not output, still refined): trivial full/empty predicate
      constraint, a binary predicate used only reflexively, a subsumed
      clause, or a cell structure already seen
  new (output and refined): everything else

Dropping is reserved for cases whose refinements are provably covered
elsewhere; hiding keeps the search complete while skipping output whose
spectrum is derivable from a simpler sentence.

spectrum_fingerprint labels the cell graphs of a candidate's compiled
form with logic.canonical_labelling, which has no size limit.  The
duplicate check gives two candidates one key exactly when canonical_key
would, with one mechanism for every pool.  Each clause gets a row: the
number of its image under each literal map of GenState.group, where a
swappable image counts as the lesser of itself and its x-y swap.  An
image is a prefix and a body of mapped literals, numbered as it is first
met (GenState.ids) and never built as a Clause.  Every literal map below
commutes with the x-y swap, which the key's exactness rests on, so an
image's swap is the same map's image of the clause's own swap
(Clause.images["y", "x"]).  The rows are computed once per search
(GenState.rows), and a candidate's column for a map is the sorted
numbers of its clauses' images under it.  Equal columns mean
images that agree up to the x-y swap of some clauses, so one orbit of
the group canonical_key divides by.  _key_group chooses the group from
the pool, once per search:

  one predicate of each arity at most (both paper profiles): every
      product of flipping the unary predicate, flipping the binary one
      and transposing it, at most 8 literal maps.  This group is exact:
      a candidate's key is its least column, and nothing is labelled.
  any other pool: the group also renames predicates and grows too large
      to enumerate (256 maps with two predicates of each arity), so it
      holds the identity and the generators: flipping one pool predicate,
      transposing one binary one, exchanging two adjacent ones of one
      arity.  A candidate whose columns include the identity column of
      one met before has that one's canonical_key (GenState.keys);
      any other is labelled.  Each generator is its own inverse, so a
      generator image of a candidate met before finds that candidate's
      column.

classify compiles a candidate once, for its fingerprint, with one dict
per search of what depends on one clause or one bit layout alone
(GenState.compiles: prepared clauses, layouts and clause records).  When
generate is given a spectrum length, classify computes a new sentence's
spectrum from that compiled form as it keeps it, with one dict of cell-DP
passes per search, so nothing compiled outlives its classification.  The
compile's time counts against the spectrum's own budget, and the
search's budget_secs covers the spectra as it covers the filters.

Candidates are built from a small pool of clauses, so the search interns
each clause it builds in one dict per search (GenState.clauses), keyed by
prefix and body so that a lookup builds nothing: every candidate of a
search shares one object per distinct clause.  A new clause takes its
body's literals from one more dict per search (GenState.literals), so
the candidates share one object per distinct literal too, and with it
the complement and substitution images that the literal keeps
(logic.Literal).  refinements builds a clause's one-literal extensions
once per search (GenState.extensions), so a clause met again in another
parent costs one lookup.  The facts that depend on one clause alone
(its text, validity, predicate set and names, one-element collapse,
diagonal form and substitution images) are cached properties of Clause,
so each is computed once per distinct clause and read by the filters;
they live as long as the search's clauses do.  The subsumption filter
reads a clause's substitution images only: which substitutions show that
one clause implies another depends on the two prefixes alone, and is
tabulated once, at import, from one quantifier-order rule.

The search holds one frontier at a time: a layer's refinements stream
into one set, so their repeats are freed as they are found and never
stand beside the deduplicated candidates.  A candidate there is the
tuple of its interned clauses in Clause.text order, and generate sorts
the layer by the tuples of their texts, which is the order of the
sentences' renders, since no clause text is a proper prefix of another.
A Sentence, which holds only its clause set, is built for the candidate
being classified; only kept and hidden ones, the next layer's parents,
outlive their classification.  Nothing the search builds refers back to
itself, so it is all freed by reference counting.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from . import engine
from .engine import Spectrum, spectrum_fingerprint
from .logic import (
    EXISTS,
    FORALL,
    VARS,
    Clause,
    Literal,
    Predicate,
    Quantifier,
    Sentence,
    canonical_key,
    counting,
    pair,
    single,
)

PAIR_PREFIXES = [
    (FORALL, FORALL),
    (FORALL, EXISTS),
    (EXISTS, FORALL),
    (EXISTS, EXISTS),
]


@dataclass(frozen=True)
class GenLimits:
    """Search bounds: literals per clause, clauses per sentence, pool
    size, and the largest k of an E=k quantifier (0 or 1: only E=1
    counting is supported)."""

    max_literals: int
    max_clauses: int
    unary: int
    binary: int
    max_count: int = 0

    def __post_init__(self):
        for name, least in (
            ("max_literals", 1), ("max_clauses", 1), ("unary", 0), ("binary", 0)
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.max_count not in (0, 1):
            raise ValueError(
                f"max_count must be 0 or 1 (only E=1 counting is supported), "
                f"got {self.max_count}"
            )

    def predicates(self) -> list[Predicate]:
        unary = [Predicate(f"U{i}", 1) for i in range(self.unary)]
        binary = [Predicate(f"B{i}", 2) for i in range(self.binary)]
        return unary + binary

    def single_quants(self) -> list[Quantifier]:
        quants = [FORALL, EXISTS]
        if self.max_count >= 1:
            quants.append(counting(1))
        return quants

    def pair_quants(self) -> list[tuple[Quantifier, Quantifier]]:
        quants = list(PAIR_PREFIXES)
        if self.max_count >= 1:
            quants.append((FORALL, counting(1)))
            quants.append((counting(1), FORALL))
        return quants


def initial_clauses(limits: GenLimits) -> list[Clause]:
    """Single-literal clauses: the one-variable literals under each
    one-variable prefix, and the literals over both x and y under each
    two-variable prefix."""
    preds = limits.predicates()
    both = [lit for lit in _literal_options(preds, 2) if set(lit.args) == set(VARS)]
    out = [
        single(q, [lit])
        for q in limits.single_quants()
        for lit in _literal_options(preds, 1)
    ]
    out += [pair(q1, q2, [lit]) for q1, q2 in limits.pair_quants() for lit in both]
    return out


def _literal_options(preds: Sequence[Predicate], nvars: int) -> list[Literal]:
    return [
        Literal(p, args, neg)
        for p in preds
        for args in itertools.product(VARS[:nvars], repeat=p.arity)
        for neg in (False, True)
    ]


_text = attrgetter("text")


def _texts(clauses: tuple[Clause, ...]) -> tuple[str, ...]:
    """The sort key of a candidate's clause tuple.  No clause text is a
    proper prefix of another, as each closes its outer parenthesis last,
    so these tuples compare as the candidates' Sentence.render strings."""
    return tuple(c.text for c in clauses)


def refinements(
    s: Sentence,
    limits: GenLimits,
    pool: Sequence[Clause],
    state: GenState,
) -> list[tuple[Clause, ...]]:
    """All one-step extensions of s, as built, each the tuple of its
    clauses in Clause.text order.  Children may repeat, here and across
    parents; generate deduplicates the whole frontier.  Children built
    with one state share one object per distinct clause."""
    out = []
    for c in s.clauses:
        rest = s.clauses - {c}
        for extended in _extensions(c, limits, state):
            out.append(tuple(sorted(rest | {extended}, key=_text)))
    if len(s.clauses) < limits.max_clauses:
        for c0 in pool:
            if c0 not in s.clauses:
                out.append(tuple(sorted(s.clauses | {c0}, key=_text)))
    return out


def _extensions(c: Clause, limits: GenLimits, state: GenState) -> list[Clause]:
    """c with one literal added, each way the limits allow, interned, but
    for a valid one, which is refused and leaves the state's clauses as
    they were.  They are built on the state's first request for c.

    A sentence with a valid clause is a tautology, which classify drops
    unrefined, and every refinement of it keeps that clause or a valid
    extension of it, so refusing the clause here drops no candidate but
    those.  No pool clause is valid, as one literal has no complement
    beside it, so no search candidate holds a valid clause."""
    extended = state.extensions.get(c)
    if extended is None:
        extended = []
        if not c.is_counting and len(c.body) < limits.max_literals:
            for lit in _literal_options(limits.predicates(), c.nvars):
                if lit not in c.body:
                    e = _interned(c.prefix, c.body | {lit}, state)
                    if e.valid:
                        del state.clauses[e.prefix, e.body]
                    else:
                        extended.append(e)
        state.extensions[c] = extended
    return extended


def _interned(
    prefix: tuple[Quantifier, ...], body: frozenset[Literal], state: GenState
) -> Clause:
    """The state's one clause with this prefix and body, built on the
    first request from the state's one object per literal."""
    c = state.clauses.get((prefix, body))
    if c is None:
        body = frozenset([state.literals.setdefault(lit, lit) for lit in body])
        c = state.clauses[prefix, body] = Clause(prefix, body)
    return c


def is_tautological(s: Sentence) -> bool:
    """Some clause is valid: it contains a complementary literal pair,
    or its trailing existential admits the diagonal witness y = x whose
    instance contains one."""
    return any(c.valid for c in s.clauses)


def is_decomposable(s: Sentence) -> bool:
    """Predicates split into groups never sharing a clause, so the
    spectrum is a product of the groups' spectra."""
    groups: list[frozenset[str]] = []
    for c in s.clauses:
        joined = [g for g in groups if g & c.names]
        groups = [g for g in groups if not g & c.names]
        groups.append(c.names.union(*joined))
    return len(groups) > 1


def has_trivial_constraint(s: Sentence) -> bool:
    """A clause forces a predicate everywhere-true or everywhere-false:
    a universal single-literal clause over U(x) or B(x,y).  A reflexive
    diagonal constraint (V x B(x,x)) does not qualify; it leaves the
    off-diagonal atoms free."""
    for c in s.clauses:
        if len(c.body) != 1 or any(q != FORALL for q in c.prefix):
            continue
        (lit,) = c.body
        if len(set(lit.args)) == lit.pred.arity == c.nvars:
            return True
    return False


def reflexive_only_binary(s: Sentence) -> bool:
    """Some binary predicate appears only in reflexive atoms, so it acts
    like a unary predicate already covered by a smaller vocabulary.

    That cover can need a second unary predicate, which lies outside the
    profile: `(E x B0(x,x) | U0(x)) & (E x B0(x,x) | ~U0(x))` reads as a
    sentence over two unary predicates, and fo2-paper has only one."""
    for p in sorted(p for p in s.predicates if p.arity == 2):
        if all(
            lit.args[0] == lit.args[1]
            for c in s.clauses
            for lit in c.body
            if lit.pred == p
        ):
            return True
    return False


def _allowed(k1: tuple[str, ...], k2: tuple[str, ...], theta: tuple[int, ...]) -> bool:
    """The quantifier-order rule.  k1 and k2 are two prefixes' kinds, and
    theta[i] is the position in the second prefix of the image of the
    first prefix's i-th variable.  theta is allowed when every existential
    v of the first goes to an existential of the second, apart from the
    images of the variables bound before v, and each of those images that
    is universal is bound before v's."""
    return all(
        k2[t] == "E"
        and all(u != t and (k2[u] == "E" or u < t) for u in theta[:i])
        for i, (kind, t) in enumerate(zip(k1, theta))
        if kind == "E"
    )


_KINDS = [kinds for n in (1, 2) for kinds in itertools.product("VE", repeat=n)]
# the substitutions the rule allows from a clause with one pair of
# quantifier kinds into a clause with the other, each as the (image of x,
# image of y) key of Clause.images
_IMPLYING = {
    (k1, k2): [
        (VARS[theta[0]], VARS[theta[-1]])
        for theta in itertools.product(range(len(k2)), repeat=len(k1))
        if _allowed(k1, k2, theta)
    ]
    for k1 in _KINDS
    for k2 in _KINDS
}


def _implies_clause(c1: Clause, c2: Clause) -> bool:
    """c1 implies c2 in every structure when c1's body under a
    substitution that _allowed allows lies inside c2's body.  A universal
    of c1 is instantiated freely.  A witness for an existential v of c1
    depends only on the variables bound before v, so c2 may take it for
    v's image once the universal images of those are bound.  E=k reads
    as E, since k >= 1 witnesses include one."""
    k1 = tuple(q.kind for q in c1.prefix)
    k2 = tuple(q.kind for q in c2.prefix)
    return any(c1.images[theta] <= c2.body for theta in _IMPLYING[k1, k2])


def has_subsumed_clause(s: Sentence) -> bool:
    """Some clause c2 is implied by another clause c1 of the sentence
    (_implies_clause), so the sentence equals a shorter one already
    enumerated.  A counting c1 subsumes as its at-least-one weakening, but
    a counting c2 is never subsumed (exactly-k is not monotone).  A c2
    with a diagonal form is subsumed when that form is, since the form
    implies it."""
    for c1, c2 in itertools.permutations(s.clauses, 2):
        if c2.is_counting:
            continue
        if _implies_clause(c1, c2):
            return True
        if c2.diagonal is not None and _implies_clause(c1, c2.diagonal):
            return True
    return False


def _refute_ground(s: Sentence) -> list[frozenset]:
    """Ground clause set whose joint satisfiability is implied by s having
    a model of any size, over a small set of abstract elements.  The
    clauses are grounded in render order, but every order gives the same
    set up to a renaming of the elements, so a literal map or an x-y swap
    of some clauses maps one ground set onto the other atom by atom."""
    elements = [0, 1]

    def fresh() -> int:
        elements.append(len(elements))
        return elements[-1]

    covered = [
        (c, tuple(q.kind for q in c.prefix))
        for c in sorted(s.clauses, key=Clause.render)
    ]

    # Each clause gets a plan, its maps of x and y to elements.  Every
    # witness is allocated before the universal plans, so that they range
    # over all of them.  Forall-exists witnesses go one level deep: each
    # forall-exists clause gets one for each base element, the elements
    # present before any of them, and no witness's own witness is chased.
    plans: list[tuple[Clause, list[dict[str, int]]]] = []
    ev_clauses: list[tuple[Clause, int]] = []
    for c, kinds in covered:
        if kinds == ("E",):
            w = fresh()
            plans.append((c, [{"x": w, "y": w}]))
        elif kinds == ("E", "E"):
            w1, w2 = fresh(), fresh()
            plans.append((c, [{"x": w1, "y": w2}]))
        elif kinds == ("E", "V"):
            ev_clauses.append((c, fresh()))
    base = list(elements)
    for c, kinds in covered:
        if kinds == ("V", "E"):
            plans.append((c, [{"x": t, "y": fresh()} for t in base]))
    for c, w in ev_clauses:
        plans.append((c, [{"x": w, "y": t} for t in elements]))
    for c, kinds in covered:
        if kinds == ("V",):
            plans.append((c, [{"x": t, "y": t} for t in elements]))
        elif kinds == ("V", "V"):
            plans.append((c, [{"x": t, "y": u} for t in elements for u in elements]))

    # a ground clause with an atom of both signs is valid, and is left out
    ground: set[frozenset] = set()
    for c, maps in plans:
        for m in maps:
            lits = frozenset(
                (lit.pred.name, tuple(m[a] for a in lit.args), lit.negated)
                for lit in c.body
            )
            if all((name, elems, not neg) not in lits for name, elems, neg in lits):
                ground.add(lits)
    return sorted(ground, key=sorted)


def is_refuted(s: Sentence) -> bool:
    """True exactly when the ground abstraction of s is unsatisfiable,
    which implies s has no model of any size.

    Grounds the sentence over a few abstract elements (existential
    quantifiers get witness elements, exactly-one weakens to at-least-one)
    and decides the ground clause set exactly with DPLL, with no budget.

    Most sentences are settled before grounding, on their one-element
    collapse: each clause becomes the set of its predicates with their
    signs, as if every atom of a predicate had one truth value.  A model
    of the collapse gives each predicate a constant truth value.  Under
    that interpretation a ground literal is true exactly when its
    predicate's signed entry in the collapse is, so every ground instance
    of a clause is true with the clause's collapse, and the ground set is
    satisfiable.  An unsatisfiable collapse decides nothing, since
    `(E x U(x)) & (E x ~U(x))` has one and is not refuted; those sentences
    are grounded.
    """
    if _satisfiable([c.collapse for c in s.clauses]):
        return False
    return not _satisfiable(_refute_ground(s))


def _satisfiable(clauses: list[frozenset]) -> bool:
    """DPLL (Davis, Logemann and Loveland, 1962): propagate unit clauses,
    then branch both ways on a literal of a shortest clause."""
    while clauses:
        shortest = min(clauses, key=len)
        if not shortest:
            return False
        name, elems, negd = lit = min(shortest)
        flipped = (name, elems, not negd)
        with_lit = [c - {flipped} for c in clauses if lit not in c]
        if len(shortest) == 1:
            clauses = with_lit
        elif _satisfiable(with_lit):
            return True
        else:
            clauses = [c - {lit} for c in clauses if flipped not in c]
    return True


DROPPED = ("tautology", "refuted", "decomposable", "duplicate")
HIDDEN = ("trivial", "reflexive", "subsumed", "spectrum_duplicate")


@dataclass
class GenState:
    """What one search learns as it classifies: the keys registered so
    far, the interned clauses and literals, the numbered images and each
    clause's row of them, what its compiles share, and, when generate is
    given a length, the spectra.  group lists literal maps of the key
    group, the identity first; exact says it holds every element, so
    that the least orbit column is the key.
    Only the clauses the search builds are interned: an image is keyed
    in ids by its (prefix, body), and its x-y swap is the same map's
    image of the clause's own swap, which Clause.images holds.  A bare
    GenState() has the identity alone and labels every candidate whose
    column it has not met."""

    # canonical keys: orbit columns on an exact group, labellings else
    seen_canonical: set = field(default_factory=set)
    seen_spectrum: set[bytes] = field(default_factory=set)
    # cell-graph labellings, shared by the fingerprints of one search
    labels: dict = field(default_factory=dict)
    # the spectrum length and per-spectrum budget; no length, no spectra
    length: int | None = None
    spectrum_secs: float | None = None
    # cell-DP passes, shared by the spectra of one search
    passes: dict = field(default_factory=dict)
    # prepared clauses, bit layouts and clause records, shared by the
    # compiles of one search
    compiles: dict = field(default_factory=dict)
    # the spectrum of each new sentence
    spectra: dict[Sentence, Spectrum] = field(default_factory=dict)
    # one object per distinct clause the search builds, by prefix and
    # body, so that each clause's cached facts are computed once, and one
    # per distinct literal of their bodies
    clauses: dict[tuple, Clause] = field(default_factory=dict)
    literals: dict[Literal, Literal] = field(default_factory=dict)
    # each refined clause's one-literal extensions
    extensions: dict[Clause, list[Clause]] = field(default_factory=dict)
    # the literal map of each element of group; a number for each image
    # met, keyed by its (prefix, body), and each clause's row of image
    # numbers, one per map
    group: list[dict[Literal, Literal]] = field(default_factory=lambda: [{}])
    exact: bool = False
    ids: dict[tuple, int] = field(default_factory=dict)
    rows: dict[Clause, tuple[int, ...]] = field(default_factory=dict)
    # inexact group: the labelling of each identity column met so far
    keys: dict[tuple[int, ...], bytes] = field(default_factory=dict)


def _generators(limits: GenLimits) -> list[dict[Literal, Literal]]:
    """Generators of the group canonical_key divides by, but for the x-y
    swap of one clause: flipping one pool predicate, transposing one
    binary one, exchanging two adjacent ones of one arity.  Each maps the
    pool literals it moves to their images."""
    preds = limits.predicates()
    literals = _literal_options(preds, 2)

    def moved(
        p: Predicate, image: Callable[[Literal], Literal]
    ) -> dict[Literal, Literal]:
        return {lit: image(lit) for lit in literals if lit.pred == p}

    maps = [moved(p, Literal.negate) for p in preds]
    maps += [
        moved(p, lambda lit: Literal(lit.pred, lit.args[::-1], lit.negated))
        for p in preds
        if p.arity == 2
    ]
    for p, q in zip(preds, preds[1:]):
        if p.arity == q.arity:
            maps.append(
                moved(p, lambda lit, q=q: Literal(q, lit.args, lit.negated))
                | moved(q, lambda lit, p=p: Literal(p, lit.args, lit.negated))
            )
    return maps


def _key_group(limits: GenLimits) -> tuple[list[dict[Literal, Literal]], bool]:
    """The literal maps of the pool's duplicate check, the identity first,
    and whether they are its whole key group.  With at most one predicate
    of each arity the generators commute, and every product of them is
    listed; with more the group grows too large to enumerate, and the
    maps are the identity and the generators."""
    generators = _generators(limits)
    if limits.unary > 1 or limits.binary > 1:
        return [{}] + generators, False
    group: list[dict[Literal, Literal]] = [{}]
    for m in generators:
        for h in list(group):
            product = {}
            for lit in h.keys() | m.keys():
                image = h.get(lit, lit)
                product[lit] = m.get(image, image)
            group.append(product)
    return group, True


def _orbit_row(c: Clause, state: GenState) -> tuple[int, ...]:
    """The number of c's image under each element of state.group; a
    swappable image counts as the lesser of itself and its x-y swap.
    Images are numbered by prefix and body, in the order they are first
    met, an image before its swap, and none is built as a Clause: each
    is a frozenset of mapped literals.  Every literal map of the group
    commutes with the x-y swap, so an image's swap is the image of c's
    own swap, c.images["y", "x"], under the same map."""
    row = state.rows.get(c)
    if row is None:
        ids, prefix = state.ids, c.prefix
        bodies = [c.body, c.images["y", "x"]] if c.swappable else [c.body]
        numbers = []
        for m in state.group:
            alike = [(prefix, frozenset(m.get(lit, lit) for lit in b)) for b in bodies]
            numbers.append(min(ids.setdefault(a, len(ids)) for a in alike))
        row = state.rows[c] = tuple(numbers)
    return row


def _orbit_key(s: Sentence, state: GenState) -> tuple[int, ...] | bytes:
    """s's duplicate key, which two sentences share exactly when
    canonical_key would give them one.  s has a column for each element
    of state.group: the sorted numbers of its clauses' images under it.
    On an exact group the key is the least column.  On any other, it is
    the labelling registered under one of the columns, or canonical_key(s)
    when none is, and it is registered under s's identity column."""
    rows = [_orbit_row(c, state) for c in s.clauses]
    columns = [tuple(sorted(column)) for column in zip(*rows)]
    if state.exact:
        return min(columns)
    key = next((state.keys[c] for c in columns if c in state.keys), None)
    if key is None:
        key = canonical_key(s)
    state.keys[columns[0]] = key
    return key


def classify(s: Sentence, state: GenState) -> str:
    """Verdict for one candidate: the first test that holds, in the order
    tautology, duplicate, refuted, decomposable, trivial, reflexive,
    subsumed, spectrum_duplicate, else new.  Every candidate but a
    tautology is keyed by _orbit_key, and a key met for the first time is
    registered, so a refuted or decomposable candidate registers its key
    too; the fingerprint is registered when it reaches that test.  A new
    sentence's spectrum goes in state.spectra when state has a length.

    The duplicate check runs before the refuter and the decomposition
    test, so a duplicate costs its key alone.  A candidate keyed like an
    earlier one is that one's image under a literal map of the key group
    and x-y swaps of some clauses, so it is valid, refuted (_refute_ground)
    and decomposable exactly when that one is: the search keeps and hides
    the sentences it would with the refuter first, and only its dropped
    tallies move."""
    if is_tautological(s):
        return "tautology"
    key = _orbit_key(s, state)
    if key in state.seen_canonical:
        return "duplicate"
    state.seen_canonical.add(key)
    if is_refuted(s):
        return "refuted"
    if is_decomposable(s):
        return "decomposable"
    if has_trivial_constraint(s):
        return "trivial"
    if reflexive_only_binary(s):
        return "reflexive"
    if has_subsumed_clause(s):
        return "subsumed"
    # cell-graph comparison is the costliest filter, so it runs last and
    # indexes only sentences every cheaper filter passed; the compile goes
    # through the engine module, so a wrapper installed there sees it
    compiled = engine.compile_sentence(s, memo=state.compiles)
    fkey = spectrum_fingerprint(compiled, memo=state.labels)
    if fkey in state.seen_spectrum:
        return "spectrum_duplicate"
    state.seen_spectrum.add(fkey)
    if state.length is not None:
        state.spectra[s] = engine.compute_spectrum(
            compiled, state.length, budget_secs=state.spectrum_secs, memo=state.passes
        )
    return "new"


@dataclass
class GenResult:
    kept: list[list[Sentence]]
    hidden: list[list[tuple[Sentence, str]]]
    counts: list[Counter]
    truncated: bool = False
    # each kept sentence's spectrum, when generate was given a length
    spectra: dict[Sentence, Spectrum] = field(default_factory=dict)

    def all_kept(self) -> list[Sentence]:
        return [s for layer in self.kept for s in layer]

    def store(self, db, profile: str | None = None) -> list[int]:
        """Insert each kept sentence's spectrum into db, in (layer, text)
        order, settle products once, and return per layer how many of
        this run's records are unique after that.

        db is a seqdb.SpectrumDB, or anything with its insert and
        reclassify_products.  The result must come from generate(...,
        length=N): a kept sentence without a spectrum is a ValueError,
        raised before anything is written.  Only this run's records are
        tallied, by this run's layer, since db may hold earlier runs'."""
        if any(s not in self.spectra for s in self.all_kept()):
            raise ValueError("store needs the spectra of generate(..., length=N)")
        stored: list[list] = []
        for i, kept in enumerate(self.kept):
            stored.append([])
            for s in kept:
                sp = self.spectra[s]
                stored[i].append(db.insert(
                    s.render(), sp.terms, truncated=sp.truncated, layer=i + 1, profile=profile
                ))
        # an insert's product check sees only the records before it
        db.reclassify_products()
        return [sum(rec.status == "unique" for rec in records) for records in stored]


def generate(
    limits: GenLimits,
    layers: int,
    budget_secs: float | None = None,
    length: int | None = None,
    spectrum_secs: float | None = None,
) -> GenResult:
    """Run the layered search; deterministic for fixed limits and layers.

    With a length, each kept sentence's spectrum of that length is
    computed as it is kept (by layer, then by text within a layer), each
    within spectrum_secs, and lands in GenResult.spectra.  layers or a
    length below 1, a NaN or negative budget_secs or spectrum_secs, and a
    spectrum_secs without a length, are ValueErrors, raised before the
    first candidate.

    A layer's candidates are the distinct refinements of the previous
    layer's kept and hidden sentences.  None holds a valid clause, since
    _extensions refuses one, so no layer tallies a tautology; classify
    tallies the rest, and a refuted or decomposable candidate met again
    in another form is tallied a duplicate.

    _key_group chooses the duplicate check's literal maps from the pool."""
    for name, value in (("layers", layers), ("length", length)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    # without a length no spectrum is computed, so its budget would be unused
    if spectrum_secs is not None and length is None:
        raise ValueError("spectrum_secs needs a length")
    deadline = engine.budget_deadline(budget_secs)
    # refuse a bad per-spectrum budget before the first candidate
    engine.budget_deadline(spectrum_secs)
    group, exact = _key_group(limits)
    state = GenState(
        length=length, spectrum_secs=spectrum_secs, group=group, exact=exact
    )
    pool = [_interned(c.prefix, c.body, state) for c in initial_clauses(limits)]
    frontier: Iterable[tuple[Clause, ...]] = [(c,) for c in pool]
    result = GenResult([], [], [], spectra=state.spectra)

    for layer in range(1, layers + 1):
        # a clause set has one tuple, its interned clauses in text order
        candidates = sorted(set(frontier), key=_texts)
        kept: list[Sentence] = []
        hidden: list[tuple[Sentence, str]] = []
        counts: Counter = Counter()
        for clauses in candidates:
            if deadline is not None and time.monotonic() > deadline:
                result.truncated = True
                break
            s = Sentence(frozenset(clauses))
            verdict = classify(s, state)
            counts[verdict] += 1
            if verdict == "new":
                kept.append(s)
            elif verdict in HIDDEN:
                hidden.append((s, verdict))
        result.kept.append(kept)
        result.hidden.append(hidden)
        result.counts.append(counts)
        if result.truncated:
            break
        if layer < layers:
            # streamed, so the refinements with their repeats never exist
            # as one list
            parents = kept + [s for s, _ in hidden]
            frontier = (
                child
                for s in parents
                for child in refinements(s, limits, pool, state)
            )
    return result
