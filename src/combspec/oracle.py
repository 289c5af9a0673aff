"""Brute-force model counting by explicit world enumeration.

Ground truth for small domains.  With k ground atoms there are 2^k worlds,
numbered 0..2^k-1 so that bit i of world w is the value of atom i.  Every
truth value over all worlds at once is one 2^k-bit Python int whose bit w
holds it in world w: atom i is the int that repeats 2^i zeros then 2^i
ones, a negated literal is its complement, and a body is the `|` of its
literals.  A quantifier over the elements combines the per-element ints
with `&` (V), `|` (E), or the "exactly k of them" mask for E=k, and the
models are the set bits of the `&` of all clauses.  Weights enter through
the same "exactly t true" masks, one set per weighted predicate.  The cost
is exponential in k, so k is capped at MAX_ATOMS.  Used to validate the
lifted engine and to spot-check generated sentences.  The tests keep a
deliberately naive second counter, helpers.reference_count, to
cross-check this one.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .logic import Clause, Predicate, Quantifier, Sentence

# ground atoms beyond this make 2^k-bit masks too large to enumerate
MAX_ATOMS = 24

Weights = Mapping[str, tuple[int, int]]


def _ground_atoms(
    preds: Iterable[Predicate], n: int
) -> dict[tuple[str, tuple[int, ...]], int]:
    atoms: dict[tuple[str, tuple[int, ...]], int] = {}
    for p in sorted(preds):
        for args in itertools.product(range(n), repeat=p.arity):
            atoms[(p.name, args)] = len(atoms)
    return atoms


def _column(i: int, nworlds: int) -> int:
    """The worlds in which atom i is true: bit i of the world number."""
    width = 1 << i
    col, length = ((1 << width) - 1) << width, 2 * width
    while length < nworlds:
        col |= col << length
        length *= 2
    return col


def _exactly(cols: Sequence[int], full: int) -> list[int]:
    """Masks of the worlds where exactly t of cols hold, for t = 0..len(cols)."""
    masks = [full]
    for col in cols:
        off = full ^ col
        masks = [a & off | b & col for a, b in zip(masks + [0], [0] + masks)]
    return masks


def _holds(
    clause: Clause, n: int, col: Mapping[tuple[str, tuple[int, ...]], int], full: int
) -> int:
    """Mask of the worlds in which the clause holds."""

    def body(i: int, j: int) -> int:
        out = 0
        for lit in clause.body:
            c = col[(lit.pred.name, tuple(i if a == "x" else j for a in lit.args))]
            out |= full ^ c if lit.negated else c
        return out

    def quantify(q: Quantifier, masks: list[int]) -> int:
        if q.count is not None:
            exact = _exactly(masks, full)
            return exact[q.count] if q.count < len(exact) else 0
        return reduce(operator.and_ if q.kind == "V" else operator.or_, masks)

    if clause.nvars == 1:
        return quantify(clause.prefix[0], [body(i, i) for i in range(n)])
    qx, qy = clause.prefix
    return quantify(
        qx, [quantify(qy, [body(i, j) for j in range(n)]) for i in range(n)]
    )


def count_models(s: Sentence, n: int) -> int:
    """Number of models of s over a domain of size n."""
    return weighted_count(s, n, {})


def weighted_count(s: Sentence, n: int, weights: Weights) -> int:
    """Weighted model count: each true atom contributes w, each false one wbar.

    Weights map predicate name to a (w, wbar) pair of ints and default to
    (1, 1) for unlisted predicates.  Each weighted predicate with N ground
    atoms splits the models by t, how many of its atoms are true; a model
    in part t weighs w^t * wbar^(N - t) for that predicate.
    """
    if n < 1:
        raise ValueError("domain size must be at least 1")
    atoms = _ground_atoms(s.predicates, n)
    if len(atoms) > MAX_ATOMS:
        raise ValueError(f"{len(atoms)} ground atoms exceeds cap {MAX_ATOMS}")
    nworlds = 1 << len(atoms)
    full = (1 << nworlds) - 1
    col = {atom: _column(i, nworlds) for atom, i in atoms.items()}
    ok = full
    for clause in s.clauses:
        ok &= _holds(clause, n, col, full)

    parts = [(ok, 1)]
    for p in sorted(s.predicates):
        w, wbar = weights.get(p.name, (1, 1))
        if (w, wbar) == (1, 1):
            continue
        cols = [c for (name, _), c in col.items() if name == p.name]
        exact = _exactly(cols, full)
        parts = [
            (sub, coef * w**t * wbar ** (len(cols) - t))
            for mask, coef in parts
            for t, e in enumerate(exact)
            if (sub := mask & e)
        ]
    return sum(coef * mask.bit_count() for mask, coef in parts)

