"""Brute-force model counting by explicit world enumeration.

Ground truth for small domains: enumerate every interpretation of the
ground atoms, evaluate the sentence directly (counting quantifiers
included), and sum.  Exponential in the number of ground atoms, so guarded
by a hard cap; used to validate the lifted engine and to spot-check
generated sentences.

reference_count is a deliberately naive second implementation kept around
to cross-check the vectorized one.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

from .logic import Clause, Predicate, Sentence

CHUNK_BITS = 20

Weights = Mapping[str, tuple[int, int]]


def _ground_atoms(
    preds: Sequence[Predicate], n: int
) -> dict[tuple[str, tuple[int, ...]], int]:
    atoms: dict[tuple[str, tuple[int, ...]], int] = {}
    for p in sorted(preds):
        if p.arity == 0:
            atoms[(p.name, ())] = len(atoms)
        elif p.arity == 1:
            for i in range(n):
                atoms[(p.name, (i,))] = len(atoms)
        else:
            for i in range(n):
                for j in range(n):
                    atoms[(p.name, (i, j))] = len(atoms)
    return atoms


def _signature(s: Sentence, signature: Iterable[Predicate] | None) -> list[Predicate]:
    preds = set(s.predicates)
    if signature is not None:
        extra = set(signature)
        if not preds <= extra:
            raise ValueError("signature must cover the sentence's predicates")
        preds = extra
    return sorted(preds)


def _clause_truth(
    clause: Clause,
    n: int,
    bits: np.ndarray,
    atoms: Mapping[tuple[str, tuple[int, ...]], int],
) -> np.ndarray:
    """Boolean array over the chunk: does this clause hold in each world."""

    def body_true(assignment: dict[str, int]) -> np.ndarray:
        out = np.zeros(bits.shape[0], dtype=bool)
        for lit in clause.body:
            elems = tuple(assignment[a] for a in lit.args)
            col = bits[:, atoms[(lit.pred.name, elems)]]
            out |= ~col if lit.negated else col
        return out

    def aggregate(stack: list[np.ndarray], q) -> np.ndarray:
        if q.count is not None:
            total = np.zeros(stack[0].shape[0], dtype=np.int16)
            for arr in stack:
                total += arr
            return total == q.count
        combined = stack[0].copy()
        for arr in stack[1:]:
            if q.kind == "V":
                combined &= arr
            else:
                combined |= arr
        return combined

    if clause.nvars == 1:
        per_elem = [body_true({"x": i, "y": i}) for i in range(n)]
        return aggregate(per_elem, clause.prefix[0])

    per_x = []
    for i in range(n):
        per_y = [body_true({"x": i, "y": j}) for j in range(n)]
        per_x.append(aggregate(per_y, clause.prefix[1]))
    return aggregate(per_x, clause.prefix[0])


def _satisfying_mask(
    s: Sentence,
    n: int,
    worlds: np.ndarray,
    atoms: Mapping[tuple[str, tuple[int, ...]], int],
    constraints: Sequence[tuple[str, int]] | None,
) -> tuple[np.ndarray, np.ndarray]:
    nbits = len(atoms)
    shifts = np.arange(nbits, dtype=np.uint64)
    bits = ((worlds[:, None] >> shifts[None, :]) & 1).astype(bool)
    ok = np.ones(len(worlds), dtype=bool)
    for clause in s.clauses:
        ok &= _clause_truth(clause, n, bits, atoms)
        if not ok.any():
            break
    if constraints:
        for name, target in constraints:
            cols = [b for (pname, _), b in atoms.items() if pname == name]
            if not cols:
                raise ValueError(f"constraint on unknown predicate {name}")
            ok &= bits[:, cols].sum(axis=1) == target
    return ok, bits


def count_models(
    s: Sentence,
    n: int,
    *,
    signature: Iterable[Predicate] | None = None,
    constraints: Sequence[tuple[str, int]] | None = None,
    cap: int = 24,
) -> int:
    """Number of models of s over a domain of size n."""
    if n < 1:
        raise ValueError("domain size must be at least 1")
    preds = _signature(s, signature)
    atoms = _ground_atoms(preds, n)
    if len(atoms) > cap:
        raise ValueError(f"{len(atoms)} ground atoms exceeds cap {cap}")
    total = 0
    nworlds = 1 << len(atoms)
    chunk = 1 << min(len(atoms), CHUNK_BITS)
    for start in range(0, nworlds, chunk):
        worlds = np.arange(start, start + chunk, dtype=np.uint64)
        ok, _ = _satisfying_mask(s, n, worlds, atoms, constraints)
        total += int(ok.sum())
    return total


def weighted_count(
    s: Sentence,
    n: int,
    weights: Weights,
    *,
    signature: Iterable[Predicate] | None = None,
    constraints: Sequence[tuple[str, int]] | None = None,
    cap: int = 24,
) -> int:
    """Weighted model count: each true atom contributes w, each false one wbar.

    Weights map predicate name to a (w, wbar) pair of ints and default to
    (1, 1) for unlisted predicates.
    """
    if n < 1:
        raise ValueError("domain size must be at least 1")
    preds = _signature(s, signature)
    atoms = _ground_atoms(preds, n)
    if len(atoms) > cap:
        raise ValueError(f"{len(atoms)} ground atoms exceeds cap {cap}")

    atom_w = []
    for (name, _), _bit in sorted(atoms.items(), key=lambda kv: kv[1]):
        atom_w.append(weights.get(name, (1, 1)))
    max_abs = max((max(abs(w), abs(wb), 1) for w, wb in atom_w), default=1)
    safe_int64 = len(atoms) * max_abs.bit_length() <= 60

    total = 0
    nworlds = 1 << len(atoms)
    chunk = 1 << min(len(atoms), CHUNK_BITS)
    for start in range(0, nworlds, chunk):
        worlds = np.arange(start, start + chunk, dtype=np.uint64)
        ok, bits = _satisfying_mask(s, n, worlds, atoms, constraints)
        if not ok.any():
            continue
        if safe_int64:
            wprod = np.ones(len(worlds), dtype=np.int64)
            for b, (w, wb) in enumerate(atom_w):
                wprod *= np.where(bits[:, b], w, wb)
            total += int(wprod[ok].sum())
        else:
            for idx in np.nonzero(ok)[0]:
                wprod_py = 1
                for b, (w, wb) in enumerate(atom_w):
                    wprod_py *= w if bits[idx, b] else wb
                total += wprod_py
    return total


def reference_count(s: Sentence, n: int) -> int:
    """Tiny dict-based model counter used to cross-check count_models."""
    preds = sorted(s.predicates)
    atoms = list(_ground_atoms(preds, n))
    if len(atoms) > 16:
        raise ValueError("reference counter handles at most 16 atoms")

    def lit_true(world: set, lit, assignment) -> bool:
        elems = tuple(assignment[a] for a in lit.args)
        val = (lit.pred.name, elems) in world
        return val != lit.negated

    def clause_true(world: set, clause: Clause) -> bool:
        def body(i: int, j: int) -> bool:
            asg = {"x": i, "y": j}
            return any(lit_true(world, lit, asg) for lit in clause.body)

        def agg(vals: list[bool], q) -> bool:
            if q.count is not None:
                return sum(vals) == q.count
            return all(vals) if q.kind == "V" else any(vals)

        if clause.nvars == 1:
            return agg([body(i, i) for i in range(n)], clause.prefix[0])
        return agg(
            [agg([body(i, j) for j in range(n)], clause.prefix[1]) for i in range(n)],
            clause.prefix[0],
        )

    total = 0
    for mask in itertools.product((False, True), repeat=len(atoms)):
        world = {a for a, m in zip(atoms, mask) if m}
        if all(clause_true(world, c) for c in s.clauses):
            total += 1
    return total
