"""Sentence enumeration with redundancy pruning.

Sentences grow layer by layer: layer 1 holds every single-literal clause
over the predicate pool, and each later layer refines a retained sentence
by adding one literal to a clause or one fresh single-literal clause.
Each candidate is classified once:

  dropped (not output, not refined): tautologous clause, refuted (a
      ground abstraction decided unsatisfiable exactly, with no budget;
      a sentence whose one-element collapse is satisfiable cannot be,
      and is settled without grounding),
      decomposable into predicate-disjoint parts, or duplicate canonical
      form of an earlier candidate
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
would, by one of two paths that generate chooses once per search from
the pool:

  one predicate of each arity at most (both paper profiles): the group
      canonical_key divides by is every product of flipping the unary
      predicate, flipping the binary one and transposing it, at most 8
      literal maps, with the x-y swap of each swappable clause, which
      commutes with them.  A candidate's key is the least, over the
      maps, of the sorted numbers of its clauses' images, where a
      swappable image counts as the lesser of itself and its swap.  Each
      clause's row of numbers is computed once per search
      (GenState.rows), and nothing is labelled.
  any other pool: the group also renames predicates and grows too large
      to enumerate, so canonical_key labels a graph of the sentence, and
      most duplicates are proved instead.  The group is generated by
      flipping one pool predicate, transposing one binary one, exchanging
      two adjacent ones of one arity and swapping x and y in one
      swappable clause.  A candidate that reaches the duplicate check
      marks its image under each generator, when that image is a later
      candidate of its layer (GenState.pending); a marked candidate has
      the key of one already seen, so classify calls it a duplicate
      without labelling it.  The images of each clause are kept in one
      dict per search (GenState.images), not on the clause, since an
      image is often the clause itself.

Only the verdict's cost depends on the path.

classify compiles a candidate once, for its fingerprint.  When generate
is given a spectrum length, classify computes a new sentence's spectrum
from that compiled form as it keeps it, with one dict of cell-DP passes
per search, so nothing compiled outlives its classification.  The
compile's time counts against the spectrum's own budget, and the
search's budget_secs covers the spectra as it covers the filters.

Candidates are built from a small pool of clauses, so the search interns
each clause it builds in one dict per search (GenState.clauses), keyed by
prefix and body so that a lookup builds nothing: every candidate of a
search shares one object per distinct clause.  refinements builds a
clause's one-literal extensions once per search (GenState.extensions),
so a clause met again in another parent costs one lookup.  The facts
that depend on one clause alone (its text, validity, predicate set and
names, one-element collapse, relaxed and diagonal forms and substitution
images) are cached properties of Clause, so each is computed once per
distinct clause and read by the filters; they live as long as the
search's clauses do.  A candidate holds only its clause set.

The search holds one frontier at a time: a layer's refinements stream
into one set, so their repeats are freed as they are found and never
stand beside the deduplicated candidates.  Nothing the search builds
refers back to itself, so it is all freed by reference counting.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
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
    make_clause,
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
    """Single-literal clauses: one-variable bodies under one-variable
    prefixes, two-variable bodies under two-variable prefixes."""
    preds = limits.predicates()
    out = []
    for q in limits.single_quants():
        for p in preds:
            args = ("x",) if p.arity == 1 else ("x", "x")
            for neg in (False, True):
                out.append(single(q, [Literal(p, args, neg)]))
    for q1, q2 in limits.pair_quants():
        for p in preds:
            if p.arity != 2:
                continue
            for args in (("x", "y"), ("y", "x")):
                for neg in (False, True):
                    out.append(pair(q1, q2, [Literal(p, args, neg)]))
    return out


def _literal_options(preds: Sequence[Predicate], nvars: int) -> list[Literal]:
    opts = []
    vars_avail = VARS[:nvars]
    for p in preds:
        if p.arity == 1:
            tuples = [(v,) for v in vars_avail]
        else:
            tuples = [(a, b) for a in vars_avail for b in vars_avail]
        for args in tuples:
            for neg in (False, True):
                opts.append(Literal(p, args, neg))
    return opts


def refinements(
    s: Sentence,
    limits: GenLimits,
    pool: Sequence[Clause],
    state: GenState | None = None,
) -> list[Sentence]:
    """All one-step extensions of s, as built.  Children may repeat, here
    and across parents; generate deduplicates the whole frontier.  Children
    built with one state share one object per distinct clause."""
    if state is None:
        state = GenState()
    out = []
    for c in s.clauses:
        for extended in _extensions(c, limits, state):
            out.append(Sentence((s.clauses - {c}) | {extended}))
    if len(s.clauses) < limits.max_clauses:
        for c0 in pool:
            if c0 not in s.clauses:
                out.append(Sentence(s.clauses | {c0}))
    return out


def _extensions(c: Clause, limits: GenLimits, state: GenState) -> list[Clause]:
    """c with one literal added, each way the limits allow, interned.
    They are built on the state's first request for c, and the literal
    options once per number of variables."""
    extended = state.extensions.get(c)
    if extended is None:
        extended = []
        if not c.is_counting and len(c.body) < limits.max_literals:
            options = state.options.get(c.nvars)
            if options is None:
                options = _literal_options(limits.predicates(), c.nvars)
                state.options[c.nvars] = options
            for lit in options:
                if lit not in c.body:
                    extended.append(_interned(c.prefix, c.body | {lit}, state))
        state.extensions[c] = extended
    return extended


def _interned(
    prefix: tuple[Quantifier, ...], body: frozenset[Literal], state: GenState
) -> Clause:
    """The state's one clause with this prefix and body, built on the
    first request."""
    c = state.clauses.get((prefix, body))
    if c is None:
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
        if lit.pred.arity == 1 and c.nvars == 1:
            return True
        if lit.pred.arity == 2 and c.nvars == 2 and lit.args[0] != lit.args[1]:
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


# (image of x, image of y) of each substitution of a two-variable clause
_PAIR_THETAS = [
    (("x", "y"), "id"),
    (("y", "x"), "swap"),
    (("x", "x"), "diagx"),
    (("y", "y"), "diagy"),
]


def _pair_theta_ok(k1: tuple, k2: tuple, kind: str) -> bool:
    """Is 'instantiate the two-variable clause with kinds k1 through this
    substitution kind into a clause with kinds k2' a valid implication?"""
    if k1 == ("V", "V"):
        return True
    if k1 == ("V", "E"):
        if kind == "id":
            return k2 in (("V", "E"), ("E", "E"))
        return kind == "swap" and k2 == ("E", "E")
    if k1 == ("E", "V"):
        if kind == "id":
            return k2 in (("E", "V"), ("E", "E"))
        if kind == "swap":
            return k2 in (("V", "E"), ("E", "E"))
        if kind == "diagx":
            return k2[0] == "E"
        return len(k2) == 2 and k2[1] == "E"
    return kind in ("id", "swap") and k2 == ("E", "E")


def _implies_clause(c1: Clause, c2: Clause) -> bool:
    """c1 semantically implies c2, via instantiating c1's variables into
    c2's and checking the literal image lands inside c2's body.  Universal
    variables instantiate freely; an existential variable must land on an
    existential of the target.  Sound for every domain size."""
    k1 = tuple(q.kind for q in c1.prefix)
    k2 = tuple(q.kind for q in c2.prefix)
    thetas = []
    if c1.nvars == 1:
        targets = ("x",) if c2.nvars == 1 else ("x", "y")
        for pos, t in enumerate(targets):
            if k1 == ("V",) or k2[pos] == "E":
                thetas.append((t, t))
    elif c2.nvars == 2:
        thetas = [th for th, kind in _PAIR_THETAS if _pair_theta_ok(k1, k2, kind)]
    elif _pair_theta_ok(k1, (k2[0], k2[0]), "diagx"):
        thetas = [("x", "x")]
    return any(c1.images[theta] <= c2.body for theta in thetas)


def has_subsumed_clause(s: Sentence) -> bool:
    """Some clause is implied by another clause of the sentence, so the
    sentence equals a shorter one already enumerated.  A counting clause
    may subsume through its at-least-one weakening but is never itself
    subsumed (exactly-k is not monotone).  A clause with a diagonal form
    is subsumed when that form is, since the form implies it."""
    for c1, c2 in itertools.permutations(s.clauses, 2):
        if c2.is_counting:
            continue
        if _implies_clause(c1.relaxed, c2):
            return True
        if c2.diagonal is not None and _implies_clause(c1.relaxed, c2.diagonal):
            return True
    return False


def _refute_ground(s: Sentence) -> list[frozenset]:
    """Ground clause set whose joint satisfiability is implied by s having
    a model of any size, over a small set of abstract elements."""
    elements = [0, 1]

    def fresh() -> int:
        elements.append(len(elements))
        return elements[-1]

    covered = []
    for c in sorted(s.clauses, key=Clause.render):
        kinds = tuple("E" if q.kind == "E" else "V" for q in c.prefix)
        covered.append((c, kinds))

    # Allocate every witness before grounding so universal parts range
    # over all of them.  Forall-exists witnesses go one level deep: each
    # element present at that point gets one, witnesses' own witnesses
    # are not chased.
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
    for c, kinds in covered:
        if kinds == ("V", "E"):
            plans.append((c, [{"x": t, "y": fresh()} for t in list(elements)]))
    for c, w in ev_clauses:
        plans.append((c, [{"x": w, "y": t} for t in elements]))

    ground: set[frozenset] = set()

    def add(c: Clause, mapping: dict[str, int]) -> None:
        lits = frozenset(
            (lit.pred.name, tuple(mapping[a] for a in lit.args), lit.negated)
            for lit in c.body
        )
        for name, elems, neg in lits:
            if (name, elems, not neg) in lits:
                return
        ground.add(lits)

    for c, kinds in covered:
        if kinds == ("V",):
            for t in elements:
                add(c, {"x": t, "y": t})
        elif kinds == ("V", "V"):
            for t1 in elements:
                for t2 in elements:
                    add(c, {"x": t1, "y": t2})
    for c, maps in plans:
        for m in maps:
            add(c, m)
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
    far, the interned clauses and their cached images, and, when generate
    is given a length, the spectra.  The duplicate check takes one of two
    paths, set by generate from the pool: group holds every element of
    the key group on a pool with at most one predicate of each arity, and
    generators holds the group's generators on any other.  A bare
    GenState() has neither and labels every candidate."""

    # canonical keys: labellings, or orbit keys on the group path
    seen_canonical: set = field(default_factory=set)
    seen_spectrum: set[bytes] = field(default_factory=set)
    # cell-graph labellings, shared by the fingerprints of one search
    labels: dict = field(default_factory=dict)
    # the spectrum length and per-spectrum budget; no length, no spectra
    length: int | None = None
    spectrum_secs: float | None = None
    # cell-DP passes, shared by the spectra of one search
    passes: dict = field(default_factory=dict)
    # the spectrum of each new sentence
    spectra: dict[Sentence, Spectrum] = field(default_factory=dict)
    # one object per distinct clause the search builds, by prefix and
    # body, so that each clause's cached facts are computed once
    clauses: dict[tuple, Clause] = field(default_factory=dict)
    # each refined clause's one-literal extensions, and the literals that
    # a clause of one or of two variables may gain
    extensions: dict[Clause, list[Clause]] = field(default_factory=dict)
    options: dict[int, list[Literal]] = field(default_factory=dict)
    # group path: the literal map of each element of the key group, a
    # number for each interned clause, and each clause's row of image
    # numbers, one per element
    group: list[dict[Literal, Literal]] = field(default_factory=list)
    ids: dict[Clause, int] = field(default_factory=dict)
    rows: dict[Clause, tuple[int, ...]] = field(default_factory=dict)
    # labelling path: the literal maps of the key group's generators, each
    # clause's image under each generator, then under its x-y swap, and the
    # layer's unclassified candidates, by clause set, each True once
    # proved a duplicate
    generators: list[dict[Literal, Literal]] = field(default_factory=list)
    images: dict[Clause, tuple[Clause, ...]] = field(default_factory=dict)
    pending: dict[frozenset[Clause], bool] = field(default_factory=dict)


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


def _clause_images(c: Clause, state: GenState) -> tuple[Clause, ...]:
    """c under each of state.generators, then under the x-y swap, which
    leaves c as it is unless c is swappable; interned."""
    images = state.images.get(c)
    if images is None:
        bodies = [
            frozenset(m.get(lit, lit) for lit in c.body) for m in state.generators
        ]
        bodies.append(c.images["y", "x"] if c.swappable else c.body)
        images = tuple(_interned(c.prefix, body, state) for body in bodies)
        state.images[c] = images
    return images


def _prove_images(s: Sentence, state: GenState) -> None:
    """Mark every pending candidate that one generator maps s to: it has
    s's key.  A swap that leaves a clause of s in s, or turns it into
    another one, makes no image: the latter would merge two clauses,
    which no generator does."""
    rows = [(c, _clause_images(c, state)) for c in s.clauses]
    images = [
        frozenset(row[i] for _, row in rows) for i in range(len(state.generators))
    ]
    for c, row in rows:
        if row[-1] not in s.clauses:
            images.append((s.clauses - {c}) | {row[-1]})
    for image in images:
        if image in state.pending:
            state.pending[image] = True


def _key_group(
    generators: list[dict[Literal, Literal]],
) -> list[dict[Literal, Literal]]:
    """Every product of commuting generators, each as the literal map of
    its moved literals, the identity first."""
    group: list[dict[Literal, Literal]] = [{}]
    for m in generators:
        for h in list(group):
            product = {}
            for lit in h.keys() | m.keys():
                image = h.get(lit, lit)
                product[lit] = m.get(image, image)
            group.append(product)
    return group


def _orbit_row(c: Clause, state: GenState) -> tuple[int, ...]:
    """The number of c's image under each element of state.group; a
    swappable image counts as the lesser of itself and its x-y swap.
    Images are interned and numbered in the order they are first met."""
    row = state.rows.get(c)
    if row is None:
        numbers = []
        for m in state.group:
            body = frozenset(m.get(lit, lit) for lit in c.body)
            image = _interned(c.prefix, body, state)
            alike = [image]
            if image.swappable:
                alike.append(_interned(c.prefix, image.images["y", "x"], state))
            numbers.append(min(state.ids.setdefault(a, len(state.ids)) for a in alike))
        row = state.rows[c] = tuple(numbers)
    return row


def _orbit_key(s: Sentence, state: GenState) -> tuple[int, ...]:
    """The least, over the elements of state.group, of the sorted numbers
    of s's clause images.  The elements commute with every clause's x-y
    swap, so two sentences share it exactly when canonical_key would
    give them one key."""
    rows = [_orbit_row(c, state) for c in s.clauses]
    return min(tuple(sorted(column)) for column in zip(*rows))


def classify(s: Sentence, state: GenState) -> str:
    """Verdict for one candidate; registers its keys when retained, and
    puts a new sentence's spectrum in state.spectra when state has a
    length.

    The duplicate check keys a candidate by _orbit_key when state has a
    group, and by canonical_key otherwise.  With generators, a candidate
    that reaches the check first marks its generator images among the
    layer's unclassified candidates (state.pending).  A marked candidate
    has the key of an earlier one, which is registered already, so it is
    a duplicate without a labelling."""
    proved = state.pending.pop(s.clauses, False) if state.generators else False
    if is_tautological(s):
        return "tautology"
    if is_refuted(s):
        return "refuted"
    if is_decomposable(s):
        return "decomposable"
    if state.group:
        key = _orbit_key(s, state)
    else:
        if state.generators:
            _prove_images(s, state)
        if proved:
            return "duplicate"
        key = canonical_key(s)
    if key in state.seen_canonical:
        return "duplicate"
    state.seen_canonical.add(key)
    if has_trivial_constraint(s):
        return "trivial"
    if reflexive_only_binary(s):
        return "reflexive"
    if has_subsumed_clause(s):
        return "subsumed"
    # cell-graph comparison is the costliest filter, so it runs last and
    # indexes only sentences every cheaper filter passed; the compile goes
    # through the engine module, so a wrapper installed there sees it
    compiled = engine.compile_sentence(s)
    fkey = spectrum_fingerprint(s, memo=state.labels, compiled=compiled)
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
    within spectrum_secs, and lands in GenResult.spectra.

    A pool with at most one predicate of each arity has a key group of at
    most 8 literal maps, which the duplicate check enumerates; any other
    pool's group is larger, and the check labels."""
    pool = initial_clauses(limits)
    state = GenState(length=length, spectrum_secs=spectrum_secs)
    generators = _generators(limits)
    if limits.unary <= 1 and limits.binary <= 1:
        state.group = _key_group(generators)
    else:
        state.generators = generators
    frontier: Iterable[Sentence] = [Sentence(frozenset([c])) for c in pool]
    result = GenResult([], [], [], spectra=state.spectra)
    deadline = time.monotonic() + budget_secs if budget_secs is not None else None

    for layer in range(1, layers + 1):
        # clauses are alpha-normalised, so value equality is text equality
        candidates = sorted(set(frontier), key=Sentence.render)
        if state.generators:
            state.pending = dict.fromkeys((s.clauses for s in candidates), False)
        kept: list[Sentence] = []
        hidden: list[tuple[Sentence, str]] = []
        counts: Counter = Counter()
        for s in candidates:
            if deadline is not None and time.monotonic() > deadline:
                result.truncated = True
                break
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
