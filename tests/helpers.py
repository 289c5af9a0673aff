"""Sentence builders, predicates and references that only the tests need."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping

from combspec.generator import (
    GenLimits,
    GenResult,
    _literal_options,
    has_subsumed_clause,
    has_trivial_constraint,
    initial_clauses,
    is_decomposable,
    is_tautological,
    refinements,
    reflexive_only_binary,
)
from combspec.logic import (
    VARS,
    Clause,
    Literal,
    Predicate,
    Sentence,
    pair,
    sentence,
    single,
)


def random_sentence(rng: random.Random, limits: GenLimits) -> Sentence:
    """Uniform-ish fragment-legal sentence inside the given limits."""
    preds = limits.predicates()
    binaries = [p for p in preds if p.arity == 2]
    clauses = []
    for _ in range(rng.randint(1, limits.max_clauses)):
        if binaries and rng.random() < 0.6:
            q1, q2 = rng.choice(limits.pair_quants())
            if q1.is_counting or q2.is_counting:
                counted = "x" if q1.is_counting else "y"
                p = rng.choice(binaries)
                other = "y" if counted == "x" else "x"
                args = rng.choice(
                    [(counted, other), (other, counted), (counted, counted)]
                )
                body = [Literal(p, args, rng.random() < 0.5)]
            else:
                body = rng.sample(
                    _literal_options(preds, 2),
                    rng.randint(1, limits.max_literals),
                )
                if not any(a == "y" for lit in body for a in lit.args):
                    p = rng.choice(binaries)
                    body.append(Literal(p, ("x", "y"), rng.random() < 0.5))
            clauses.append(pair(q1, q2, body))
        else:
            q = rng.choice(limits.single_quants())
            if q.is_counting:
                options = [
                    Literal(p, ("x",) if p.arity == 1 else ("x", "x"), neg)
                    for p in preds
                    for neg in (False, True)
                ]
                body = [rng.choice(options)]
            else:
                body = rng.sample(
                    _literal_options(preds, 1),
                    rng.randint(1, min(limits.max_literals, 2 * len(preds))),
                )
            clauses.append(single(q, body))
    return Sentence(frozenset(clauses))


def design_redundant(s: Sentence) -> bool:
    """Sentence the pipeline hides or drops on syntactic grounds alone;
    invariant under every spectrum-preserving renaming."""
    return (
        is_tautological(s)
        or is_decomposable(s)
        or has_trivial_constraint(s)
        or reflexive_only_binary(s)
        or has_subsumed_clause(s)
    )


def all_retained(result: GenResult) -> list[Sentence]:
    """Every kept or hidden sentence of a search, layer by layer."""
    out = []
    for kept, hidden in zip(result.kept, result.hidden):
        out.extend(kept)
        out.extend(s for s, _ in hidden)
    return out


def kept_cumulative(result: GenResult) -> list[int]:
    """Running total of kept sentences after each layer."""
    totals, acc = [], 0
    for layer in result.kept:
        acc += len(layer)
        totals.append(acc)
    return totals


def apply_transform(s: Sentence, t: PredicateTransform) -> Sentence:
    out = []
    for c in s.clauses:
        out.append(Clause(c.prefix, frozenset(t.apply_literal(l) for l in c.body)))
    return sentence(out)


def unpruned_layers(limits: GenLimits, layers: int) -> list[list[Sentence]]:
    """The layered search with no classification: every distinct candidate
    is kept and refined."""
    pool = initial_clauses(limits)
    frontier = [Sentence(frozenset([c])) for c in pool]
    out: list[list[Sentence]] = []
    for _ in range(layers):
        out.append(sorted(set(frontier), key=Sentence.render))
        frontier = [t for s in out[-1] for t in refinements(s, limits, pool)]
    return out


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


def _clause_text(clause: Clause, t: PredicateTransform) -> str:
    lits = [t.apply_literal(l) for l in clause.body]
    head = " ".join(f"{q.render()} {v}" for q, v in zip(clause.prefix, VARS))
    base = "(" + head + " " + " | ".join(sorted(l.render() for l in lits)) + ")"
    if clause.nvars < 2 or clause.prefix[0] != clause.prefix[1] or clause.is_counting:
        return base
    swapped = [l.substitute({"x": "y", "y": "x"}) for l in lits]
    alt = "(" + head + " " + " | ".join(sorted(l.render() for l in swapped)) + ")"
    return min(base, alt)


def sweep_key(s: Sentence) -> bytes:
    """Reference for canonical_key: the least rendered text over the whole
    transform group (renamings within each arity, polarity flips, argument
    transpositions, per-clause swaps of a repeated non-counting
    quantifier).  Exponential in the vocabulary."""
    by_arity: dict[int, list[str]] = {0: [], 1: [], 2: []}
    for p in sorted(s.predicates):
        by_arity[p.arity].append(p.name)
    names = [n for ns in by_arity.values() for n in ns]
    rename_choices = [
        [
            dict(zip(ns, perm))
            for perm in itertools.permutations(f"{'ZUB'[a]}{i}" for i in range(len(ns)))
        ]
        for a, ns in by_arity.items()
    ]
    best: str | None = None
    for parts in itertools.product(*rename_choices):
        rename = {k: v for part in parts for k, v in part.items()}
        for signs in itertools.product((False, True), repeat=len(names)):
            flip_sign = frozenset(n for n, b in zip(names, signs) if b)
            for args in itertools.product((False, True), repeat=len(by_arity[2])):
                flip_args = frozenset(n for n, b in zip(by_arity[2], args) if b)
                t = PredicateTransform(rename, flip_sign, flip_args)
                text = " & ".join(sorted(_clause_text(c, t) for c in s.clauses))
                if best is None or text < best:
                    best = text
    assert best is not None
    return best.encode()


def same_partition(keys_a, keys_b) -> bool:
    """The two key lists split their (common) items into the same classes."""
    pairs = set(zip(keys_a, keys_b))
    return len(pairs) == len(set(keys_a)) == len(set(keys_b))
