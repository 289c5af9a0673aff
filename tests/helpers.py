"""Sentence builders and predicates that only the tests need."""

from __future__ import annotations

import random

from combspec.generator import (
    GenLimits,
    GenResult,
    _literal_options,
    has_subsumed_clause,
    has_trivial_constraint,
    is_decomposable,
    is_tautological,
    reflexive_only_binary,
)
from combspec.logic import (
    Clause,
    Literal,
    PredicateTransform,
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
