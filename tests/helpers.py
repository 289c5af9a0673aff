"""Sentence builders, predicates and references that only the tests need."""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from combspec import engine, generator
from combspec.engine import CellGraph, WeightMap, spectrum_fingerprint

from combspec.generator import (
    GenLimits,
    GenResult,
    GenState,
    _interned,
    _literal_options,
    _refute_ground,
    _satisfiable,
    classify,
    has_subsumed_clause,
    has_trivial_constraint,
    initial_clauses,
    is_decomposable,
    is_refuted,
    is_tautological,
    refinements,
    reflexive_only_binary,
)
from combspec.logic import (
    EXISTS,
    FORALL,
    VARS,
    Clause,
    Literal,
    Predicate,
    Sentence,
    _ranks,
    canonical_key,
    pair,
    single,
)
from combspec.oracle import _ground_atoms
from combspec.polynomial import Packing, Poly, Value, mul_values
from combspec.seqdb import Record


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
    return Sentence(frozenset(out))


def unpruned_layers(limits: GenLimits, layers: int) -> list[list[Sentence]]:
    """The layered search with no classification: every distinct candidate
    is kept and refined."""
    pool = initial_clauses(limits)
    state = GenState()
    frontier = [Sentence(frozenset([c])) for c in pool]
    out: list[list[Sentence]] = []
    for _ in range(layers):
        out.append(sorted(set(frontier), key=Sentence.render))
        frontier = [
            Sentence(frozenset(t))
            for s in out[-1]
            for t in refinements(s, limits, pool, state)
        ]
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


def random_transform(s: Sentence, rng: random.Random) -> Sentence:
    """Rename within each arity, flip signs and transpose at random, then
    swap the variables of each swappable clause with probability 1/2."""
    rename = {}
    for arity in (1, 2):
        names = sorted(p.name for p in s.predicates if p.arity == arity)
        rename.update(zip(names, rng.sample(names, len(names))))
    names = [p.name for p in s.predicates]
    binaries = [p.name for p in s.predicates if p.arity == 2]
    t = PredicateTransform(
        rename,
        frozenset(n for n in names if rng.random() < 0.5),
        frozenset(n for n in binaries if rng.random() < 0.5),
    )
    out = []
    for c in apply_transform(s, t).clauses:
        swappable = c.nvars == 2 and c.prefix[0] == c.prefix[1] and not c.is_counting
        if swappable and rng.random() < 0.5:
            swapped = frozenset(l.substitute({"x": "y", "y": "x"}) for l in c.body)
            c = Clause(c.prefix, swapped)
        out.append(c)
    return Sentence(frozenset(out))


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


def record_duplicate_checks(mp) -> list:
    """Wrap generator.classify, generator._orbit_key and the labelling it
    may call, generator.canonical_key, through the monkeypatch mp.  The
    list returned gets (sentence, verdict, key, labelled) for each
    classified candidate, in order: key is the candidate's duplicate key,
    or None when it did not reach the check, and labelled says whether
    canonical_key ran for it."""
    classify, orbit_key, label = (
        generator.classify,
        generator._orbit_key,
        generator.canonical_key,
    )
    checks: list = []
    keys: list = []
    labels: list = []

    def keying(s, state):
        keys.append(orbit_key(s, state))
        return keys[-1]

    def labelling(s):
        labels.append(s)
        return label(s)

    def classifying(s, state):
        keys.clear()
        labels.clear()
        verdict = classify(s, state)
        checks.append((s, verdict, keys[0] if keys else None, bool(labels)))
        return verdict

    mp.setattr(generator, "_orbit_key", keying)
    mp.setattr(generator, "canonical_key", labelling)
    mp.setattr(generator, "classify", classifying)
    return checks


def check_against_the_sweep(checks) -> bool:
    """Whether the keys of a search's duplicate checks split the
    candidates that reached the check as sweep_key does.  checks is the
    list record_duplicate_checks filled; each such candidate has a key."""
    reached = [(s, key) for s, verdict, key, _ in checks if verdict != "tautology"]
    assert all(key is not None for _, key in reached)
    return same_partition(
        [key for _, key in reached], [sweep_key(s) for s, _ in reached]
    )


def reference_classify(s: Sentence, state: GenState) -> str:
    """Reference for generator.classify: the duplicate check labels every
    candidate that reaches it, which is every one but a tautology."""
    if is_tautological(s):
        return "tautology"
    key = canonical_key(s)
    if key in state.seen_canonical:
        return "duplicate"
    state.seen_canonical.add(key)
    for verdict, holds in (
        ("refuted", is_refuted),
        ("decomposable", is_decomposable),
        ("trivial", has_trivial_constraint),
        ("reflexive", reflexive_only_binary),
        ("subsumed", has_subsumed_clause),
    ):
        if holds(s):
            return verdict
    fkey = spectrum_fingerprint(engine.compile_sentence(s), memo=state.labels)
    if fkey in state.seen_spectrum:
        return "spectrum_duplicate"
    state.seen_spectrum.add(fkey)
    return "new"


def unfiltered_extensions(
    c: Clause, limits: GenLimits, state: GenState
) -> list[Clause]:
    """generator._extensions that keeps a valid extension too: c with one
    literal added, each way the limits allow, interned, and built on the
    state's first request for c."""
    extended = state.extensions.get(c)
    if extended is None:
        extended = state.extensions[c] = []
        if not c.is_counting and len(c.body) < limits.max_literals:
            extended += [
                _interned(c.prefix, c.body | {lit}, state)
                for lit in _literal_options(limits.predicates(), c.nvars)
                if lit not in c.body
            ]
    return extended


def refuting_first_classify(s: Sentence, state: GenState) -> str:
    """generator.classify with the refuter and the decomposition test run
    before the duplicate check, so that a refuted or decomposable
    candidate registers no key.  It calls the classify of import time, so
    it can stand in for generator.classify."""
    for verdict, dropped in (
        ("tautology", is_tautological),
        ("refuted", is_refuted),
        ("decomposable", is_decomposable),
    ):
        if dropped(s):
            return verdict
    return classify(s, state)


def reference_orbit_row(c: Clause, ref: GenState) -> tuple[int, ...]:
    """Reference for generator._orbit_row: each image is interned as a
    Clause in ref.clauses and numbered by that Clause in ref.ids, and a
    swappable image's swap is read from Clause.images.  ref is a GenState
    of its own with the search's group, asked for the clauses the search
    asks for in the same order, so that its numbers are the search's."""
    row = ref.rows.get(c)
    if row is None:
        numbers = []
        for m in ref.group:
            body = frozenset(m.get(lit, lit) for lit in c.body)
            image = _interned(c.prefix, body, ref)
            alike = [image]
            if image.swappable:
                alike.append(_interned(c.prefix, image.images["y", "x"], ref))
            numbers.append(min(ref.ids.setdefault(a, len(ref.ids)) for a in alike))
        row = ref.rows[c] = tuple(numbers)
    return row


def record_orbit_rows(mp) -> list:
    """Wrap generator._orbit_row through the monkeypatch mp.  The list
    returned gets (row, reference row) for each call, in order, the
    reference from reference_orbit_row with one GenState of its own per
    search state, holding that state's group."""
    orbit_row = generator._orbit_row
    refs: dict[int, tuple[GenState, GenState]] = {}
    rows: list = []

    def checking(c, state):
        # the state is held beside its reference, so its id is not reused
        _, ref = refs.setdefault(id(state), (state, GenState(group=state.group)))
        rows.append((orbit_row(c, state), reference_orbit_row(c, ref)))
        return rows[-1][0]

    mp.setattr(generator, "_orbit_row", checking)
    return rows


def same_partition(keys_a, keys_b) -> bool:
    """The two key lists split their (common) items into the same classes."""
    pairs = set(zip(keys_a, keys_b))
    return len(pairs) == len(set(keys_a)) == len(set(keys_b))


def grounded_refuted(s: Sentence) -> bool:
    """The refuter without the one-element collapse: ground every
    sentence, then decide the ground set (no complementary atom pair
    means satisfiable, anything else goes to DPLL)."""
    ground = _refute_ground(s)
    pos = {l[:2] for cl in ground for l in cl if not l[2]}
    neg = {l[:2] for cl in ground for l in cl if l[2]}
    if not pos & neg:
        return False
    return not _satisfiable(ground)


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


def reference_refine(
    colors: list[int], adj: Sequence[Sequence[tuple[int, int]]]
) -> list[int]:
    """Color refinement that keys every vertex, singletons too, on its
    color and its sorted (label, color) codes, and ranks the keys anew
    each round until the number of classes stops growing."""
    q, ncolors = len(colors), max(colors) + 1
    while ncolors < q:
        colors = _ranks(
            [
                (c, *sorted([off + colors[j] for j, off in row]))
                for c, row in zip(colors, adj)
            ]
        )
        if max(colors) + 1 == ncolors:
            break
        ncolors = max(colors) + 1
    return colors


def reference_condition_nullary(
    clauses: Sequence[Clause],
    weights: WeightMap,
) -> list[tuple[int, list[Clause]]]:
    """Branch on nullary predicate truth: (weight factor, residual clauses)."""
    names = sorted(
        {lit.pred.name for c in clauses for lit in c.body if lit.pred.arity == 0}
    )
    if not names:
        return [(1, list(clauses))]
    branches = []
    for values in itertools.product((True, False), repeat=len(names)):
        assign = dict(zip(names, values))
        factor = 1
        for name, val in assign.items():
            w, wbar = weights.get(name, (1, 1))
            factor *= w if val else wbar
        if factor == 0:
            continue
        residual = []
        dead = False
        for c in clauses:
            body = []
            satisfied = False
            for lit in c.body:
                if lit.pred.arity == 0:
                    if assign[lit.pred.name] != lit.negated:
                        satisfied = True
                        break
                else:
                    body.append(lit)
            if satisfied:
                continue
            if not body:
                dead = True
                break
            residual.append(Clause(c.prefix, frozenset(body)))
        if not dead:
            branches.append((factor, residual))
    return branches


def reference_cell_graph(
    clauses: Sequence[Clause],
    weights: WeightMap,
    sig_preds: Sequence[Predicate],
    cvars: tuple[str, ...] = (),
    negated: Collection[str] = (),
) -> CellGraph:
    """Reference for one branch of engine.build_cell_graph, on the residual
    clauses of reference_condition_nullary: the same graph built by testing
    every oriented clause against every cell pair, with cells as tuples and
    cross-literal masks from a loop over the assignments.  The cells come
    back as the engine's ints, whose bit k-1-i holds atom i of k."""
    unary = sorted(p for p in sig_preds if p.arity == 1)
    binary = sorted(p for p in sig_preds if p.arity == 2)
    atom_preds = unary + binary
    index = {p.name: i for i, p in enumerate(atom_preds)}
    cvar_set = set(cvars)

    def wpair(p: Predicate) -> tuple[Value, Value]:
        w, wbar = weights.get(p.name, (1, 1))
        if p.name not in cvar_set:
            return w, wbar
        x = Poly.variable(len(cvars), cvars.index(p.name))
        return (w, x) if p.name in negated else (x, wbar)

    atom_w = [wpair(p) for p in atom_preds]

    for c in clauses:
        for lit in c.body:
            if lit.pred.arity == 0:
                raise ValueError("nullary literal reached the cell graph")
        if any(q != FORALL for q in c.prefix):
            raise ValueError("non-universal clause reached the cell graph")

    # diag[c] lists (atom index, negated) for the clause read at a single
    # element, where every argument collapses to that element
    diag = [[(index[l.pred.name], l.negated) for l in c.body] for c in clauses]

    two_var = [c for c in clauses if c.nvars == 2]
    npos = 2 * len(binary)
    bpos = {p.name: 2 * i for i, p in enumerate(binary)}
    nassign = 1 << npos

    # per clause and orientation: cell-determined literals as
    # (use_y_cell, atom index, negated), cross literals as assignment masks
    oriented = []
    for c in two_var:
        for flip in (False, True):
            cell_lits = []
            cross_mask = 0
            for l in c.body:
                args = l.args
                if l.pred.arity == 1:
                    side = args[0] == "y"
                    cell_lits.append((side ^ flip, index[l.pred.name], l.negated))
                elif args[0] == args[1]:
                    side = args[0] == "y"
                    cell_lits.append((side ^ flip, index[l.pred.name], l.negated))
                else:
                    p = bpos[l.pred.name] + ((args == ("y", "x")) ^ flip)
                    for a in range(nassign):
                        if bool(a >> p & 1) != l.negated:
                            cross_mask |= 1 << a
            oriented.append((cell_lits, cross_mask))

    assign_w: list[Value] = []
    for a in range(nassign):
        w: Value = 1
        for p in binary:
            base = bpos[p.name]
            wt, wf = wpair(p)
            w = mul_values(w, wt if a >> base & 1 else wf)
            w = mul_values(w, wt if a >> (base + 1) & 1 else wf)
        assign_w.append(w)
    full_mask = (1 << nassign) - 1

    cells = []
    cell_weights = []
    for bits in itertools.product((False, True), repeat=len(atom_preds)):
        if all(any(bits[i] != neg for i, neg in lits) for lits in diag):
            cells.append(bits)
            w = 1
            for val, (wt, wf) in zip(bits, atom_w):
                w = mul_values(w, wt if val else wf)
            cell_weights.append(w)

    q = len(cells)
    r: list[list[Value]] = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            mask = full_mask
            sides = (cells[i], cells[j])
            for cell_lits, cross_mask in oriented:
                if any(sides[use_y][idx] != neg for use_y, idx, neg in cell_lits):
                    continue
                mask &= cross_mask
                if not mask:
                    break
            total: Value = 0
            a = 0
            while mask:
                if mask & 1:
                    total = total + assign_w[a]
                mask >>= 1
                a += 1
            r[i][j] = r[j][i] = total
    k = len(atom_preds)
    ints = [sum(1 << (k - 1 - i) for i, b in enumerate(bits) if b) for bits in cells]
    return CellGraph(ints, cell_weights, r)


def reference_branches(
    clauses: Sequence[Clause],
    weights: WeightMap,
    sig_preds: Sequence[Predicate],
    cvars: tuple[str, ...] = (),
    negated: Collection[str] = (),
) -> list[tuple[int, CellGraph]]:
    """Reference for engine.build_cell_graph: reference_condition_nullary,
    then reference_cell_graph on each branch's residual clauses."""
    return [
        (factor, reference_cell_graph(residual, weights, sig_preds, cvars, negated))
        for factor, residual in reference_condition_nullary(clauses, weights)
    ]


def reference_cell_order(r: list[list[Value]], q: int, length: int) -> list[int]:
    """Reference for engine._greedy_cell_order: greedily append the cell
    that minimizes the product of distinct-value counts over the future
    columns, ties to the lowest index.  length is unused."""
    remaining = list(range(q))
    order: list[int] = []
    while remaining:
        best = remaining[0]
        best_cost = None
        for cand in remaining:
            pref = order + [cand]
            cost = 1
            for j in remaining:
                if j == cand:
                    continue
                cost *= len({r[t][j] for t in pref})
            if best_cost is None or cost < best_cost:
                best, best_cost = cand, cost
        order.append(best)
        remaining.remove(best)
    return order


def optimal_cell_order(r: list[list[Value]], q: int, length: int) -> list[int]:
    """The cell order whose pass visits the fewest (state, count) pairs,
    coefficients aside: a shortest path from the empty set of cells to
    the full one, over cell subsets, by Dijkstra's rule.

    The states after a set S of cells are (used, the accumulators of the
    cells not in S) and do not depend on the order S was processed in, so
    each subset's state set is built once, from the state set of the
    subset it was first reached from.  A step on cell i visits, per state,
    its counts up to and including the first whose contribution is zero,
    as dp_iterations counts them: the merged weights are nonzero, so that
    is count 1 when the state's accumulator for i is 0, and count 2 when
    r[i][i] is 0.  States whose coefficients cancel are kept, so where
    coefficients can cancel, the order is optimal for an upper bound of
    dp_iterations's count."""
    full = (1 << q) - 1
    states: dict[int, set] = {0: {(0, (1,) * q)}}
    best = {0: 0}
    heap: list[tuple[int, list[int], int]] = [(0, [], 0)]
    while True:
        pairs, order, done = heapq.heappop(heap)
        if done == full:
            return order
        if best[done] < pairs:
            continue
        ahead = [j for j in range(q) if not done >> j & 1]
        if done not in states:
            i = order[-1]
            before = done & ~(1 << i)
            pos = [j for j in range(q) if not before >> j & 1].index(i)
            mults = [tuple(r[i][j] ** c for j in ahead) for c in range(length + 1)]
            built = set()
            for used, accs in states[before]:
                # the last count whose contribution is not zero
                if not accs[pos]:
                    top = 0
                elif not r[i][i]:
                    top = min(length - used, 1)
                else:
                    top = length - used
                rest = accs[:pos] + accs[pos + 1 :]
                for c in range(top + 1):
                    built.add((used + c, tuple(map(operator.mul, rest, mults[c]))))
            states[done] = built
        # per used count: the states, and per cell ahead those whose
        # accumulator for it is 0
        per_used: dict[int, int] = {}
        zeros: dict[tuple[int, int], int] = {}
        for used, accs in states[done]:
            per_used[used] = per_used.get(used, 0) + 1
            if 0 in accs:
                for pos, a in enumerate(accs):
                    if not a:
                        zeros[pos, used] = zeros.get((pos, used), 0) + 1
        for pos, i in enumerate(ahead):
            step = 0
            for used, n in per_used.items():
                top = length - used
                z = zeros.get((pos, used), 0)
                step += (n - z) * ((top if r[i][i] else min(top, 2)) + 1)
                step += z * (min(top, 1) + 1)
            nxt = done | 1 << i
            if nxt not in best or pairs + step < best[nxt]:
                best[nxt] = pairs + step
                heapq.heappush(heap, (pairs + step, order + [i], nxt))


def dp_iterations(
    merged: engine.Merged,
    length: int,
    caps: Sequence[int] | None = None,
    order_fn=None,
) -> int:
    """The (state, count) pairs of reference_cell_sum's per-state loop on a
    merged cell graph, each state of a step with each count of the step's
    cell up to and including the first whose own-cell factor times the
    accumulator power is zero, with the cells in order_fn's order (the
    engine's search by default).  The engine expands each group of states
    with equal later accumulators once per count (dp_keyed_updates counts
    its writes), so this is a fixed measure of the states and counts, not
    of its loop.  Like reference_cell_sum, it models the program on the
    merged graph as it is, before the engine collapses its modules."""
    ticks = 0

    def visit(used, bucket, g, last, mul, emul):
        nonlocal ticks
        for accs in bucket:
            apow = 1
            for c in range(length - used + 1):
                ticks += 1
                if c:
                    apow = emul(apow, accs[0])
                # g is cut at the first zero own-cell factor
                if c >= len(g) or not mul(g[c], apow):
                    break

    reference_cell_sum(merged, length, caps, visit, order_fn)
    return ticks


def reference_cell_sum(
    merged: engine.Merged,
    length: int,
    caps: Sequence[int] | None = None,
    visit=None,
    order_fn=None,
) -> list[Value]:
    """Reference for engine.evaluate_cell_sum: the same packing and states,
    expanded one state at a time, with the cells in order_fn's order (the
    engine's search by default).  Every state writes its coefficient for
    count 0, and for each larger count c its running product coeff * a0^c
    times g[c] under its own key; the states left after the last cell are
    the sums.  visit, when given, is called with (used, bucket, g, last,
    mul, emul) before each bucket of each step is expanded.  It runs the
    program on the merged graph as it is, one step per cell: the engine
    first collapses its modules (quotient_size), and this does not."""
    weights, r = merged
    q = len(weights)
    order = (order_fn or engine._greedy_cell_order)(r, q, length)
    w = [weights[i] for i in order]
    rr = [[r[a][b] for b in order] for a in order]
    mul = emul = operator.mul
    if caps is not None:
        packing = Packing(caps, engine._slot_width(q, length, caps, w, rr))
        w = [packing.pack(v) for v in w]
        mul = packing.mul
        if any(isinstance(v, Poly) for row in rr for v in row):
            rr = [[packing.pack(v) for v in row] for row in rr]
            emul = mul
    states: dict[int, dict[tuple, Value]] = {0: {(1,) * q: 1}}
    for i in range(q):
        rows = [engine._powers(emul, rr[i][j], length) for j in range(i, q)]
        f = [1]
        for c in range(1, length + 1):
            f.append(mul(emul(f[-1], rows[0][c - 1]), w[i]))
        mults = [tuple(row[c] for row in rows[1:]) for c in range(length + 1)]
        nxt: dict[int, dict[tuple, Value]] = {u: {} for u in range(length + 1)}
        for used, bucket in states.items():
            g = []
            for c in range(length - used + 1):
                if not f[c]:
                    break
                g.append(math.comb(used + c, c) * f[c])
            if visit is not None:
                visit(used, bucket, g, i == q - 1, mul, emul)
            for accs, coeff in bucket.items():
                a0 = accs[0]
                rest = accs[1:]
                slot = nxt[used]
                slot[rest] = slot.get(rest, 0) + coeff
                run = coeff
                for c in range(1, len(g)):
                    run = emul(run, a0)
                    if not run:
                        break
                    contrib = mul(g[c], run)
                    if not contrib:
                        continue
                    na = tuple(map(emul, rest, mults[c]))
                    slot = nxt[used + c]
                    slot[na] = slot.get(na, 0) + contrib
        states = {u: {k: v for k, v in b.items() if v} for u, b in nxt.items()}
    sums = {used: v for used, bucket in states.items() for v in bucket.values()}
    out = [sums.get(n, 0) for n in range(1, length + 1)]
    return out if caps is None else [packing.unpack(v) for v in out]


def quotient_size(merged: engine.Merged) -> int:
    """The vertices that engine.evaluate_cell_sum runs its program on: of
    the merged graph's cells, one of two that agree on every other live
    cell is dropped, while such a pair remains.  The count does not depend
    on which pair goes first: once j of a pair {i, j} is dropped, a pair
    {j, l} that qualified has its image {i, l} qualify, as r[l][k] =
    r[j][k] = r[i][k], and every other pair that qualified still does."""
    r = merged[1]
    live = list(range(len(r)))
    while True:
        for i, j in itertools.combinations(live, 2):
            if all(r[i][k] == r[j][k] for k in live if k != i and k != j):
                live.remove(j)
                break
        else:
            return len(live)


def dp_keyed_updates(
    merged: engine.Merged, length: int, caps: Sequence[int] | None = None
) -> int:
    """The keyed state writes that engine.evaluate_cell_sum makes on a
    merged cell graph: at every cell but the last, whose sums go straight
    into the terms, one per group of a used bucket's states with equal
    later accumulators and per count c whose group sum of coeff * a0^c,
    times g[c], is not zero.  Counted on reference_cell_sum's states; the
    engine keeps the states whose coefficients cancelled to zero too, but
    they add nothing to a group sum and write nothing.  It models the
    program on the merged graph as it is, before the engine collapses its
    modules, so it counts the writes of a program that steps every cell."""
    writes = 0

    def visit(used, bucket, g, last, mul, emul):
        nonlocal writes
        if last:
            return
        totals: dict[tuple, list] = {}
        for accs, coeff in bucket.items():
            t = totals.setdefault(accs[1:], [0] * len(g))
            run = coeff
            for c in range(len(g)):
                if c:
                    run = emul(run, accs[0])
                t[c] += run
        for t in totals.values():
            writes += bool(t[0]) + sum(1 for c in range(1, len(g)) if mul(g[c], t[c]))

    reference_cell_sum(merged, length, caps, visit)
    return writes


def reference_merge_cells(g: CellGraph) -> engine.Merged:
    """Reference for engine._merge_cells: each live cell joins the first
    group whose first cell i has r_ii = r_jj = r_ij and agrees with it on
    every other live cell, compared pairwise."""
    q = len(g.cells)
    live = [i for i in range(q) if g.weights[i]]
    r = g.r
    groups: list[list[int]] = []
    for i in live:
        for grp in groups:
            rep = grp[0]
            if r[i][i] == r[rep][rep] == r[rep][i] and all(
                r[i][k] == r[rep][k]
                for k in live
                if k != i and k != rep
            ):
                grp.append(i)
                break
        else:
            groups.append([i])
    weights = []
    kept_groups = []
    for grp in groups:
        w: Value = 0
        for i in grp:
            w = w + g.weights[i]
        if w:
            weights.append(w)
            kept_groups.append(grp)
    reps = [grp[0] for grp in kept_groups]
    return tuple(weights), tuple(tuple(r[a][b] for b in reps) for a in reps)


def recorded_passes(sentences, length):
    """(merged graph, length, caps, sums) of every cell-DP pass that the
    sentences' spectra run with one shared memo, as generate --db runs
    them: each distinct pass once."""
    calls = []
    run = engine.evaluate_cell_sum

    def recording(merged, length, caps=None, deadline=None):
        sums = run(merged, length, caps, deadline)
        calls.append((merged, length, caps, sums))
        return sums

    engine.evaluate_cell_sum = recording
    try:
        memo: dict = {}
        for s in sentences:
            engine.compute_spectrum(s, length, memo=memo)
    finally:
        engine.evaluate_cell_sum = run
    return calls


def _reference_diag_strengthenings(c: Clause) -> list[Clause]:
    """Clauses at least as strong as c: itself, plus the diagonal witness
    form when the trailing quantifier is a plain existential."""
    out = [c]
    if c.nvars == 2 and c.prefix[1] == EXISTS:
        body = {lit.substitute({"x": "x", "y": "x"}) for lit in c.body}
        out.append(Clause((c.prefix[0],), frozenset(body)))
    return out


def reference_is_tautological(s: Sentence) -> bool:
    """Reference for generator.is_tautological, from the literals on every
    call rather than the clauses' cached validity."""
    return any(
        not lit.negated and lit.negate() in d.body
        for c in s.clauses
        for d in _reference_diag_strengthenings(c)
        for lit in d.body
    )


def reference_is_decomposable(s: Sentence) -> bool:
    """Reference for generator.is_decomposable: union-find over the
    sentence's predicate names, joining the names of each clause."""
    preds = sorted(p.name for p in s.predicates)
    if len(preds) <= 1:
        return False
    parent = {p: p for p in preds}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in s.clauses:
        names = sorted({lit.pred.name for lit in c.body})
        for other in names[1:]:
            parent[find(other)] = find(names[0])
    return len({find(p) for p in preds}) > 1


def reference_is_refuted(s: Sentence) -> bool:
    """Reference for generator.is_refuted, collapsing each clause on every
    call rather than reading its cached collapse."""
    collapse = [
        frozenset((lit.pred.name, (), lit.negated) for lit in c.body)
        for c in s.clauses
    ]
    if _satisfiable(collapse):
        return False
    return not _satisfiable(_refute_ground(s))


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


def reference_substitutions(c1: Clause, c2: Clause) -> list[dict[str, str]]:
    """The substitutions of c1's variables into c2's that the case table
    above allows, by the two prefixes' quantifier kinds."""
    k1 = tuple(q.kind for q in c1.prefix)
    k2 = tuple(q.kind for q in c2.prefix)
    thetas = []
    if c1.nvars == 1:
        targets = ("x",) if c2.nvars == 1 else ("x", "y")
        for t in targets:
            pos = 0 if t == "x" else 1
            if k1 == ("V",) or k2[pos] == "E":
                thetas.append({"x": t, "y": t})
    elif c2.nvars == 2:
        thetas = [
            dict(zip(VARS, th)) for th, kind in _PAIR_THETAS if _pair_theta_ok(k1, k2, kind)
        ]
    elif _pair_theta_ok(k1, (k2[0], k2[0]), "diagx"):
        thetas = [{"x": "x", "y": "x"}]
    return thetas


def _reference_implies_clause(c1: Clause, c2: Clause) -> bool:
    """Reference for generator._implies_clause, substituting c1's literals
    on every call."""
    for theta in reference_substitutions(c1, c2):
        if {lit.substitute(theta) for lit in c1.body} <= c2.body:
            return True
    return False


def reference_relax_counting(c: Clause) -> Clause:
    """Weaken exactly-k (k >= 1) to a plain existential; implied by c."""
    if not c.is_counting:
        return c
    return Clause(tuple(EXISTS if q.is_counting else q for q in c.prefix), c.body)


def reference_has_subsumed_clause(s: Sentence) -> bool:
    """Reference for generator.has_subsumed_clause, building the relaxed
    and diagonal forms and the substitution images on every call."""
    for c1, c2 in itertools.permutations(s.clauses, 2):
        if c2.is_counting:
            continue
        c1r = reference_relax_counting(c1)
        for target in _reference_diag_strengthenings(c2):
            if _reference_implies_clause(c1r, target):
                return True
    return False


def reference_record_json(rec: Record) -> str:
    """The record's line as a dict of its set fields, dumped with sorted
    keys: the encoding that `Record.to_json` must reproduce byte for
    byte."""
    doc = {
        "id": rec.id,
        "sentence": rec.sentence,
        "spectrum": [str(t) for t in rec.spectrum],
        "truncated": rec.truncated,
        "status": rec.status,
    }
    for key in ("duplicate_of", "product_of", "layer", "profile", "oeis"):
        if getattr(rec, key) is not None:
            doc[key] = getattr(rec, key)
    return json.dumps(doc, sort_keys=True)


class ReferenceWriter:
    """Writes a store's file as SpectrumDB once did, through text
    streams: each new record appended with open("a"), and each rewrite
    with open("w"), every line encoded by reference_record_json."""

    def __init__(self, path):
        self.path = path

    def append(self, rec: Record) -> None:
        with self.path.open("a") as fh:
            fh.write(reference_record_json(rec) + "\n")

    def rewrite(self, records: Sequence[Record]) -> None:
        with self.path.open("w") as fh:
            for rec in records:
                fh.write(reference_record_json(rec) + "\n")
