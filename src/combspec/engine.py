"""Lifted model counting for two-variable clause sentences.

The pipeline turns a sentence into a small weighted graph over "cells"
(complete truth assignments to the single-element atoms) and evaluates a
closed-form sum over domain compositions, so the count for domain size n
never enumerates worlds:

1. normalize:   drop quantifiers over variables a clause never uses
2. reduce:      rewrite exactly-one counting quantifiers into cardinality
                constraints on predicates: a counting clause whose body is
                not one literal over all its variables first defines a
                fresh predicate as its body, and counts that literal
3. skolemize:   eliminate existential quantifiers with fresh predicates
                weighted (1, -1), leaving only universal clauses
4. cell graphs: branch on the truth of nullary predicates, and give each
                branch one vertex per consistent cell, vertex weight from
                the single-element atoms, edge weight from the model count
                of the cross atoms between two elements

The cell graphs are built on bitmasks, from one reading of each clause
shared by all branches: a cell is an int with one bit per single-element
atom, a set of cells is a bitset over the cells, and a clause's record
holds the cells that satisfy it at one element and, for a two-variable
clause, the bits of its two oriented clauses, one per reading, numbered
once per layout.  Each cell carries two bitsets, X and Y, of the kept
oriented clauses whose x-side (y-side) literals it falsifies.  The edge
weight of a pair of cells i, j depends only on X[i] & Y[j], and is
computed once per distinct key and layout.

One pass of the dynamic program yields every domain size up to the
requested length.  Before it runs, two vertices that every other vertex
sees through equal edges are collapsed into one, whose own-count factors
are the binomial convolution of theirs, while such a pair remains: the
two act on the rest only through their total count, so the module is
summed out exactly (evaluate_cell_sum).  Cardinality constraints ride
through the computation as symbolic weights, and one polynomial
coefficient is read off per domain size.  The cell graph holds those
weights as polynomials; the dynamic program carries each one truncated
at the target degrees and packed in a single int, so that a product is
one big-int multiply.  All arithmetic is exact integer arithmetic.

compute_spectrum takes either a Sentence, which it compiles, or a
CompiledSentence, and spectrum_fingerprint takes a CompiledSentence, so
a sentence compiled once serves both its fingerprint and its spectrum:
the search computes a kept sentence's spectrum as it keeps it, and its
budget_secs covers that time too.  A pass depends only on the merged
cell graph, the length and the symbolic caps.  Many sentences share one,
so a caller that computes many spectra can pass one memo dict to
compute_spectrum, keyed on those three, and run each distinct pass once
(generate keeps one per search).
Likewise spectrum_fingerprint takes a dict of cell-graph labellings, and
compile_sentence a dict of what depends on one clause at one position
or one bit layout alone: each clause's normalized, reduced and
skolemized form at each position of a sentence's clauses, whose fresh
predicates are named by that position, one literal per fresh name, and
per layout its set-up, whose tables of the weight of each cell, of each
cross-atom assignment and of each nullary branch are built whole on a
miss, and the clause records, oriented clauses and edge totals met so
far (_Layout).  generate keeps one of each of the three dicts per
search.  Without a dict each call takes a fresh one, so nothing is
cached between calls without one: there is no module-level cache.

Both the dynamic program and the fingerprint read a cell graph through
its twin classes, the cells with equal edge rows (_twin_classes).  The
edge weights are symmetric, r[i][j] = r[j][i], so two cells with equal
rows have r_ii = r_ij = r_jj: they are joined to each other by their
common loop weight, and any permutation of a class fixes every edge.
_merge_cells sums each class into one cell; _graph_serial labels the
quotient, one vertex per class, which is an exact isomorphism key.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .logic import (
    EXISTS,
    FORALL,
    VARS,
    Clause,
    FragmentError,
    Literal,
    Predicate,
    Sentence,
    canonical_labelling,
    make_clause,
    pair,
)
from .polynomial import Packing, Poly, Value, coeff_of, mul_values, norm1, pow_value

WeightMap = Mapping[str, tuple[int, int]]
# a merged cell graph: its weights and its edge rows (_merge_cells)
Merged = tuple[tuple[Value, ...], tuple[tuple[Value, ...], ...]]

_name = operator.attrgetter("name")
# the prefixes of the clauses that reach the cell graph
_UNIVERSAL = ((FORALL,), (FORALL, FORALL))

# prefixes the cell-order search keeps per step at first (_greedy_cell_order)
ORDER_BEAM = 4


class BudgetExceeded(RuntimeError):
    """Raised when a computation runs past its deadline."""


@dataclass(frozen=True)
class CardinalityConstraint:
    """Requires the number of ground atoms of pred that are true (false when
    negated) to equal coeffs[0]*n^2 + coeffs[1]*n + coeffs[2] at domain
    size n."""

    pred: str
    coeffs: tuple[int, int, int]
    negated: bool = False

    def target(self, n: int) -> int:
        a2, a1, a0 = self.coeffs
        return a2 * n * n + a1 * n + a0

    def complement(self, arity: int) -> CardinalityConstraint:
        """The same requirement on the other polarity: of the n^arity
        ground atoms, the rest take the other truth value."""
        total = (1, 0, 0) if arity == 2 else (0, 1, 0)
        coeffs = tuple(t - a for t, a in zip(total, self.coeffs))
        return CardinalityConstraint(self.pred, coeffs, not self.negated)


@dataclass
class Spectrum:
    terms: list[int]
    truncated: bool = False


def normalize_clause(c: Clause) -> Clause:
    """c without quantifiers over variables it never uses; counting over
    an unused variable is a FragmentError."""
    used = {a for lit in c.body for a in lit.args}
    pairs = list(zip(c.prefix, VARS))
    kept = [(q, v) for q, v in pairs if v in used]
    for q, v in pairs:
        if v not in used and q.is_counting:
            raise FragmentError(
                f"counting quantifier over unused variable in {c.render()}"
            )
    if len(kept) == len(pairs):
        return c
    return make_clause(kept or [(FORALL, "x")], c.body)


def reduce_counting(
    c: Clause, fresh: Callable[[str, int], Literal]
) -> tuple[list[Clause], list[CardinalityConstraint]]:
    """c, a normalized clause, with its E=1 quantifier rewritten into a
    cardinality constraint; a clause that does not count comes back as it
    is, with none.

    A body that is not one literal over all of c's variables, each once,
    takes one definition step first (the first step of the reduction in
    Kuzelka, JAIR 2021): a fresh D over those variables, defined by the
    universal clauses ~D | l1 | ... | lm and D | ~li for each i, is the
    literal c counts.  The one literal then takes its prefix's path: E=1 x
    is a constraint alone, V x E=1 y a constraint and a witness clause, and
    E=1 x V y counts a fresh A(x) that holds where the literal holds for
    all y.  fresh(base, arity) gives the literals of D and A over the
    first arity variables; they take no weight entry, since
    every reader of a weight map defaults a missing name to (1, 1).  Only
    k = 1 is supported; mixed counting/existential prefixes are rejected.

    The constraint counts the atoms on the counted literal's own polarity,
    whose target (n for a binary atom, 1 for a unary one) has the lowest
    degree in n, so the symbolic weight later carried for it stays sparse
    (_first_polarity settles a predicate counted under both).
    """
    if not c.is_counting:
        return [c], []
    for q in c.prefix:
        if q.is_counting and q.count != 1:
            raise FragmentError(f"only E=1 counting is supported: {c.render()}")
    kinds = tuple("C" if q.is_counting else q.kind for q in c.prefix)
    if kinds in (("C", "C"), ("C", "E"), ("E", "C")):
        raise FragmentError(
            f"counting cannot pair with another existential: {c.render()}"
        )
    out: list[Clause] = []
    lit, *rest = c.body
    if rest or not len(set(lit.args)) == lit.pred.arity == c.nvars:
        universal = _UNIVERSAL[c.nvars - 1]
        lit = fresh("D", c.nvars)
        out.append(Clause(universal, frozenset((lit.negate(), *c.body))))
        out += [Clause(universal, frozenset((lit, b.negate()))) for b in c.body]
    if kinds == ("C", "V"):
        # exactly one x where the literal holds for all y
        aatom = fresh("A", 1)
        out.append(pair(FORALL, FORALL, [aatom.negate(), lit]))
        out.append(pair(FORALL, EXISTS, [aatom, lit.negate()]))
        return out, [CardinalityConstraint(aatom.pred.name, (0, 0, 1))]
    if lit.pred.arity == 2:
        # row (or column) sums are all one exactly when each element has a
        # witness and n atoms in all satisfy the literal
        out.append(pair(FORALL, EXISTS, [lit]))
        return out, [CardinalityConstraint(lit.pred.name, (0, 1, 0), lit.negated)]
    return out, [CardinalityConstraint(lit.pred.name, (0, 0, 1), lit.negated)]


def _first_polarity(
    constraints: list[CardinalityConstraint], preds: Collection[Predicate]
) -> list[CardinalityConstraint]:
    """The constraints of one sentence, with a predicate counted under both
    polarities kept on its first one and its other constraints restated as
    complements; without a constraint there is nothing to settle."""
    if not constraints:
        return constraints
    negated: dict[str, bool] = {}
    for c in constraints:
        negated.setdefault(c.pred, c.negated)
    arity = {p.name: p.arity for p in preds}
    return [
        c if c.negated == negated[c.pred] else c.complement(arity[c.pred])
        for c in constraints
    ]


def skolemize_clauses(
    clauses: Sequence[Clause], fresh: Callable[[str, int], Literal]
) -> tuple[list[Clause], list[str]]:
    """Replace existential prefixes with fresh predicates, whose literals
    fresh(base, arity) gives (S(x) for a unary one, Z for a nullary one),
    which weigh (1, -1); returns the universal clauses and those names.

    The weighted count over the extended vocabulary equals the input's by
    the usual telescoping of the -1 branch.
    """
    out: list[Clause] = []
    skolem: list[str] = []
    one, two = _UNIVERSAL
    for c in clauses:
        kinds = tuple(q.kind for q in c.prefix)
        if any(q.is_counting for q in c.prefix):
            raise FragmentError("counting quantifier survived reduction")
        if kinds in (("V",), ("V", "V")):
            out.append(c)
        elif kinds in (("E",), ("E", "E")):
            z = fresh("Z", 0)
            skolem.append(z.pred.name)
            universal = one if len(kinds) == 1 else two
            for lit in c.body:
                out.append(Clause(universal, frozenset((z, lit.negate()))))
        elif kinds == ("V", "E"):
            s = fresh("S", 1)
            skolem.append(s.pred.name)
            for lit in c.body:
                out.append(Clause(two, frozenset((s, lit.negate()))))
        else:  # ("E", "V")
            s, z = fresh("S", 1), fresh("Z", 0)
            skolem += [s.pred.name, z.pred.name]
            out.append(Clause(one, frozenset((z.negate(), s))))
            out.append(Clause(two, frozenset((s, *c.body))))
    return out, skolem


# a clause's universal clauses, constraints, Skolem names and the
# predicates of positive arity in those clauses (_prepare)
Prepared = tuple[
    list[Clause], list[CardinalityConstraint], list[str], tuple[Predicate, ...]
]


def _prepare(c: Clause, k: int, memo: dict) -> Prepared:
    """c normalized, its counting reduced and its existentials skolemized,
    as the clause at position k of its sentence's render order.  Each
    fresh predicate is named by its base, k and a quote (S1', D0'), which
    no parsed name holds, so the form depends on c and k alone; it is kept
    in memo under (c, k), and each fresh literal is memo's one per (name,
    arity)."""

    def fresh(base: str, arity: int) -> Literal:
        name = f"{base}{k}'"
        lit = memo.get((name, arity))
        if lit is None:
            lit = memo[name, arity] = Literal(Predicate(name, arity), VARS[:arity])
        return lit

    reduced, constraints = reduce_counting(normalize_clause(c), fresh)
    out, skolem = skolemize_clauses(reduced, fresh)
    sig = {lit.pred for o in out for lit in o.body if lit.pred.arity}
    memo[c, k] = out, constraints, skolem, tuple(sig)
    return memo[c, k]


@dataclass
class CellGraph:
    """Vertex-weighted graph over the consistent cells of a signature.

    cells[i] is an int whose bit k-1-a holds the truth value of the a-th
    of the k single-element atoms: one per unary predicate, then one per
    binary predicate's reflexive atom, each sorted.  weights[i] is the
    product of those atoms' weights; r[i][j] is the weighted count of
    cross-atom assignments consistent with every two-variable clause read
    in both directions between cells i and j.
    """

    cells: list[int]
    weights: list[Value]
    r: list[list[Value]]


# a clause read under one layout (_Layout.read): its positive and negative
# nullary masks, the cells that satisfy it at one element, and the bits of
# its two oriented clauses, or 0 for a one-variable clause
Record = tuple[int, int, int, int]


def _bits(mask: int) -> Iterator[int]:
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _table(pairs: Iterable[tuple[Value, Value]], mul) -> list[Value]:
    """The weight of every assignment to pairs of (true, false) weights:
    bit i of an index picks the true or the false weight of pair i."""
    table: list[Value] = [1]
    for wt, wf in pairs:
        table = [mul(w, wf) for w in table] + [mul(w, wt) for w in table]
    return table


class _Layout:
    """One bit layout of a signature under one weight map, and what the
    compiles that share a memo read under it: three tables built once by
    _table, of the weight of each cross-atom assignment (assign_w), of each
    cell (cell_w) and of each branch on the nullary predicates (truths
    holds its nonzero entries), the cells with each atom true, and what
    builds fill as they ask: the clause records (records), the oriented
    clauses numbered as read (their cross masks, cross, and per cell c the
    bitsets x[c] and y[c] of those whose x-side and y-side literals c
    falsifies) and the edge total of each set of oriented clauses (edges).
    Cell sets are bitsets over the 2^k cells."""

    def __init__(self, sig, names, weights, cvars, negated):
        # within one arity, predicates sort by name
        unary = sorted((p for p in sig if p.arity == 1), key=_name)
        binary = sorted((p for p in sig if p.arity == 2), key=_name)
        atom_preds = unary + binary
        k = len(atom_preds)
        names = sorted(names)
        bit = {p.name: 1 << (k - 1 - i) for i, p in enumerate(atom_preds)}
        self.nbit = {name: 1 << (len(names) - 1 - i) for i, name in enumerate(names)}

        def wpair(p: Predicate) -> tuple[Value, Value]:
            w, wbar = weights.get(p.name, (1, 1))
            if p.name not in cvars:
                return w, wbar
            x = Poly.variable(len(cvars), cvars.index(p.name))
            return (w, x) if p.name in negated else (x, wbar)

        atom_w = [wpair(p) for p in atom_preds]
        # without symbolic weights every weight is a plain int
        mul = mul_values if cvars else operator.mul
        # cell_w[c]: the weight of cell c, whose bit k-1-a is atom a
        self.cell_w = _table(reversed(atom_w), mul)

        npos = 2 * len(binary)
        self.bpos = {p.name: 2 * i for i, p in enumerate(binary)}
        self.nassign = nassign = 1 << npos
        self.full_mask = (1 << nassign) - 1
        # holds[p]: the assignments whose cross atom at position p is true
        self.holds = [
            sum(1 << a for a in range(nassign) if a >> p & 1) for p in range(npos)
        ]
        # assign_w[a]: the weight of assignment a, whose bit p is the cross
        # atom at position p
        self.assign_w = _table([atom_w[len(unary) + p // 2] for p in range(npos)], mul)

        ncells = 1 << k
        self.every = (1 << ncells) - 1
        # has[name]: the cells where that atom, of bit b, is true, whose runs
        # of b set bits repeat every 2b cells
        self.has = {
            name: (((1 << b) - 1) << b) * (self.every // ((1 << 2 * b) - 1))
            for name, b in bit.items()
        }
        # factors[t]: the factor of the branch whose truths are t's bits,
        # placed as nbit places them; counting down from all true visits
        # itertools.product((True, False)) order, and a branch of factor 0
        # is skipped
        factors = _table([weights.get(n, (1, 1)) for n in names[::-1]], operator.mul)
        self.truths = [(t, f) for t, f in reversed(list(enumerate(factors))) if f]
        self.records: dict[Clause, Record] = {}
        self.cross: list[int] = []
        self.x = [0] * ncells
        self.y = [0] * ncells
        self.edges: dict[int, Value] = {}

    def read(self, c: Clause) -> Record:
        """c's record: its nullary literals, as a positive and a negative mask
        over the nullary predicates, and the cells that satisfy it at one
        element, where all arguments collapse, the union of its literals'
        cells.  A two-variable clause also gives two oriented clauses, one
        per reading, numbered shift and shift + 1 in the order read, so its
        record's bits are 3 << shift.  Each splits into its x-side and
        y-side cell literals and a mask over the 4^b assignments of the b
        binary predicates' cross atoms, (x,y) then (y,x) per predicate,
        taken from per-position tables, appended to cross.  The flipped
        reading swaps the sides, so a cell that falsifies the x-side gets
        bit shift in x and bit shift + 1 in y, and a cell that falsifies
        the y-side bit shift + 1 in x and bit shift in y."""
        if c.prefix not in _UNIVERSAL:
            raise ValueError("non-universal clause reached the cell graph")
        has, every, full_mask = self.has, self.every, self.full_mask
        two_var = c.nvars == 2
        # masks are [positive, negative]
        null, crosses = [0, 0], [0, 0]
        # the cells that satisfy the clause, its x-side and its y-side
        sat, sides = 0, [0, 0]
        for l in c.body:
            name = l.pred.name
            if not l.pred.arity:
                null[l.negated] |= self.nbit[name]
                continue
            cells = every ^ has[name] if l.negated else has[name]
            sat |= cells
            if not two_var:
                continue
            args = l.args
            if l.pred.arity == 1 or args[0] == args[1]:
                sides[args[0] == "y"] |= cells
            else:
                p = self.bpos[name] + (args[0] == "y")
                # the flipped reading swaps the cross atoms' positions
                for flip in (0, 1):
                    h = self.holds[p ^ flip]
                    crosses[flip] |= full_mask ^ h if l.negated else h
        if not two_var:
            return null[0], null[1], sat, 0
        shift = len(self.cross)
        self.cross += crosses
        for side, one in zip(sides, (1, 2)):
            for cell in _bits(every ^ side):
                self.x[cell] |= one << shift
                self.y[cell] |= (3 ^ one) << shift
        return null[0], null[1], sat, 3 << shift

    def total(self, key: int) -> Value:
        """The edge total of the oriented clauses in key: the summed weight
        of the cross-atom assignments in the AND of their cross masks."""
        mask = self.full_mask
        for t in _bits(key):
            mask &= self.cross[t]
        total: Value = 0
        for a in range(self.nassign):
            if mask >> a & 1:
                total = total + self.assign_w[a]
        return total


def build_cell_graph(
    clauses: Sequence[Clause],
    weights: WeightMap,
    sig_preds: Collection[Predicate],
    cvars: tuple[str, ...] = (),
    negated: Collection[str] = (),
    memo: dict | None = None,
) -> list[tuple[int, CellGraph]]:
    """The (weight factor, cell graph) of each branch on the truth of the
    nullary predicates in the universal clauses, whose constrained
    predicates cvars carry a symbolic weight on their true atoms, or on
    their false atoms for those in negated.

    A branch assigns every nullary predicate, true first, the first one
    varying slowest, and its factor is the product of their weights.  A
    branch of factor 0 is skipped.  It keeps the clauses that its
    assignment leaves unsatisfied, and it is dead, with no graph, when one
    of them has no cell literal.

    Everything is a bitmask.  A cell is the int whose bit k-1-i holds atom
    i of k, so counting up from 0 visits the cells in itertools.product
    order, and a set of cells is a bitset over the 2^k cells.  The bit
    layout (the signature, the nullary predicates, the weights and cvars)
    is looked up in memo and built on a miss as a _Layout, so its set-up,
    with the branch factors and every cell's weight, is computed once per
    dict.  memo is compile_sentence's dict, the third
    that generate keeps per search beside its passes and labellings; a
    fresh dict when None, so nothing is cached between calls without one.
    Each clause is read once per layout, into one record for all branches
    and every build that shares the dict: its nullary masks, the cells
    that satisfy it at one element, and for a two-variable clause the bits
    of its two oriented clauses, numbered once per layout.  A branch's
    cells are then one AND of the records it keeps, listed from that
    bitset lowest bit first, and each cell's weight is read from the
    layout's table.

    A branch's oriented clauses are the OR of its kept records' bits, and
    each cell i carries two bitsets of them, X[i] and Y[i], the layout's
    x[i] and y[i] masked to those kept.  The clauses that constrain the
    cross atoms of the pair (i, j) are X[i] & Y[j], so the edge weight
    depends only on that key, and the layout keeps it for every branch
    and build.
    """
    memo = {} if memo is None else memo
    names = frozenset(l.pred.name for c in clauses for l in c.body if not l.pred.arity)
    at = (
        frozenset(sig_preds), names, frozenset(weights.items()), cvars, frozenset(negated)
    )
    layout = memo.get(at)
    if layout is None:
        layout = memo[at] = _Layout(sig_preds, names, weights, cvars, negated)
    records, edges = layout.records, layout.edges
    # the cells and oriented clauses every branch keeps, and the records
    # with nullary literals
    shared, always, nullary = layout.every, 0, []
    for c in clauses:
        rec = records.get(c)
        if rec is None:
            rec = records[c] = layout.read(c)
        npos, nneg, sat, bits = rec
        if npos | nneg:
            nullary.append(rec)
        else:
            shared &= sat
            always |= bits

    branches = []
    for truth, factor in layout.truths:
        cells, kept = shared, always
        for npos, nneg, sat, bits in nullary:
            if truth & npos or ~truth & nneg:
                continue
            # a kept clause with no cell literal is false
            if not sat:
                break
            cells &= sat
            kept |= bits
        else:
            cell_list = list(_bits(cells))
            cell_w = [layout.cell_w[c] for c in cell_list]
            xs = [layout.x[c] & kept for c in cell_list]
            ys = [layout.y[c] & kept for c in cell_list]
            q = len(xs)
            r: list[list[Value]] = [[0] * q for _ in range(q)]
            for i in range(q):
                x = xs[i]
                row = r[i]
                for j in range(i, q):
                    key = x & ys[j]
                    total = edges.get(key)
                    if total is None:
                        total = edges[key] = layout.total(key)
                    row[j] = r[j][i] = total
            branches.append((factor, CellGraph(cell_list, cell_w, r)))
    return branches


def _twin_classes(r: list[list[Value]], cells: Sequence[int]) -> list[list[int]]:
    """Group the given cells by their edge rows restricted to those cells,
    in the order of each group's first cell: the twin classes of the
    graph on those cells (see the module docstring)."""
    groups: dict[tuple, list[int]] = {}
    for i in cells:
        groups.setdefault(tuple([r[i][k] for k in cells]), []).append(i)
    return list(groups.values())


def _merge_cells(g: CellGraph) -> Merged:
    """Collapse cells with identical edge rows, summing their weights.

    Zero-weight cells drop out first, and the live cells are grouped by
    their rows restricted to the live cells (_twin_classes): splitting a
    block between two twins telescopes to a single cell of weight w_i +
    w_j.  A group whose weights sum to zero drops out too.  The result is
    the weights and the edge rows, as tuples, in the order of each group's
    first cell.
    """
    live = [i for i in range(len(g.cells)) if g.weights[i]]
    r = g.r
    weights = []
    reps = []
    for grp in _twin_classes(r, live):
        w = sum(g.weights[i] for i in grp)
        if w:
            weights.append(w)
            reps.append(grp[0])
    return tuple(weights), tuple(tuple(r[a][b] for b in reps) for a in reps)


def _accumulator_values(nonzero: int, zero: bool, length: int) -> int:
    """The values that _greedy_cell_order counts for a later cell's
    accumulator at one used count up to length, when the prefix's entries
    in its column are nonzero distinct nonzero values, and 0 too when
    zero: 1 for a constant column, whose accumulator is a power fixed by
    used, else length * (nonzero - 1) + 1, and 1 more with 0."""
    if nonzero + zero == 1:
        return 1
    return length * (nonzero - 1) + 1 + zero


def _greedy_cell_order(r: list[list[Value]], q: int, length: int) -> list[int]:
    """Pick a processing order that keeps DP state counts small.

    After a prefix P of the order, with F the cells still to come, a state
    is the number of elements used and, per cell j of F, the accumulator
    prod_{p in P} r[p][j] ** count_p.  Bound: let the rows of P restricted
    to F take k distinct values.  Cells with equal restricted rows enter
    every accumulator through the sum of their counts, so a state is fixed
    by k class sums of total at most length (used is their total), and
    there are at most comb(length + k, k) states.  The next cell tries
    every count c up to length - used, so the (state, count) pairs that
    its step visits, k + 1 sums of total at most length, number at most
    comb(length + k + 1, k + 1).

    The second term is a measure, not a bound: length + 1 used counts
    times, per column j of F, the values its accumulator takes at one used
    count.  A column constant on P counts 1, as its accumulator is a power
    fixed by used.  Otherwise, with m distinct nonzero values on P, it
    counts length * (m - 1) + 1, and 1 more when 0 occurs on P, since a
    cell with 0 zeroes the accumulator whatever its count.  For powers
    b^e of one base, u counts over m exponents give at least
    u * (m - 1) + 1 distinct sums of exponents, and exactly that many when
    the exponents are evenly spaced, so the count is exact for 1, 2, 4
    (2 * length + 1 values) and a measure otherwise.  Equal products of
    different powers (2 * 2 = 4) merge states, so the measure sees
    collapses the rows miss.  A step costs about its pairs times |F|
    accumulator products, so a prefix scores

        min(comb(length + k + 1, k + 1),
            (length + 1) * prod_{j in F} values_j) * |F|

    and an order costs the sum of its prefixes' scores, its predicted cost.

    A beam search keeps the cheapest prefixes of each length, ties to the
    smaller order list.  Every term depends on P as a set, so two prefixes
    of one cell set have the same costs to come, and the beam keeps the
    cheaper.  It starts ORDER_BEAM wide.  A beam b wide makes at most
    b * q^3 column updates, and while the best order's predicted cost is
    more than 16 times the updates of a beam 4 times wider, the search
    runs again that wide and keeps the wider order while it predicts less.
    So the search spends on an order in step with what the pass will cost:
    at length 10 no fo2 L1-L5 pass widens.

    A row is an int with one digit per column, the index of its value
    among that column's distinct values, so restricting it to F is one
    AND.  Index 0 stands for the value 0 in every column, and each beam
    entry carries, per column, the bitmask of the value indexes seen on P,
    so a bitmask's bit 0 says whether 0 occurs.
    """
    index: list[dict] = [{0: 0} for _ in range(q)]
    ids = [
        [index[j].setdefault(r[t][j], len(index[j])) for j in range(q)]
        for t in range(q)
    ]
    most = max(map(len, index), default=1)
    width = most.bit_length()
    digit = [((1 << width) - 1) << (width * j) for j in range(q)]
    rows = [sum(v << (width * j) for j, v in enumerate(row)) for row in ids]
    bound = [math.comb(length + k + 1, k + 1) for k in range(q + 1)]
    # values[b][z]: a column whose bitmask has b bits, bit 0 (the value 0) z
    values = [
        [_accumulator_values(b - z, bool(z), length) for z in (0, 1)]
        for b in range(most + 1)
    ]

    def search(beam_width: int) -> tuple[int, list[int]]:
        # (cost, order, digits of the columns still to come, column value sets)
        beam = [(0, [], sum(digit), [0] * q)]
        # the last cell adds 0 to every order's cost
        for _ in range(q - 1):
            grown: dict[int, tuple] = {}
            for cost, order, future, cols in beam:
                ahead = [j for j in range(q) if future & digit[j]]
                for cand in ahead:
                    fut = future & ~digit[cand]
                    pref = order + [cand]
                    k = len({rows[t] & fut for t in pref})
                    ncols = cols[:]
                    prod = length + 1
                    for j in ahead:
                        if j != cand:
                            seen = ncols[j] = cols[j] | 1 << ids[cand][j]
                            prod *= values[seen.bit_count()][seen & 1]
                    score = min(bound[k], prod) * (len(ahead) - 1)
                    # the prefixes are distinct, so ties break on the order list
                    entry = (cost + score, pref, fut, ncols)
                    held = grown.get(fut)
                    if held is None or entry < held:
                        grown[fut] = entry
            beam = sorted(grown.values())[:beam_width]
        cost, order, future, _ = beam[0]
        return cost, order + [j for j in range(q) if future & digit[j]]

    beam_width = ORDER_BEAM
    cost, order = search(beam_width)
    while cost > 16 * 4 * beam_width * q**3:
        beam_width *= 4
        wider = search(beam_width)
        if wider[0] >= cost:
            break
        cost, order = wider
    return order


def _slot_width(
    q: int, length: int, caps: Sequence[int], weights: list[Value], r: list[list[Value]]
) -> int:
    """Slot width that holds every kept coefficient of a cell-DP pass; the
    bounds are proved in evaluate_cell_sum."""
    n = length
    k = max(n * (n - 1) // 2, n)
    wm = max([1, *map(norm1, weights)])
    rm = max([1, *(norm1(v) for row in r for v in row)])
    bound = wm**n * rm**k
    if len(caps) == 1:
        bound = min(bound, _kept_majorant(caps[0], n, k, weights, r))
    return (q**n * bound).bit_length() + 1


def _kept_majorant(
    cap: int, n: int, k: int, weights: list[Value], r: list[list[Value]]
) -> int:
    """max over e <= cap of [x^e](Mw^n * Mr^k), where Mw (Mr) is the
    coefficientwise largest |coefficient| of the weights (edges) in one
    variable x, with constant term at least 1.  The powers are big ints
    with one nonnegative slot per exponent, truncated at the cap; a slot
    holds every coefficient, as each is at most |Mw|^n * |Mr|^k."""
    majorants = []
    for values in (weights, [v for row in r for v in row]):
        m = [1] + [0] * cap
        for v in values:
            terms = v.terms if isinstance(v, Poly) else {(0,): v}
            for (e,), c in terms.items():
                if e <= cap:
                    m[e] = max(m[e], abs(c))
        majorants.append(m)
    mw, mr = majorants
    width = (sum(mw) ** n * sum(mr) ** k).bit_length()
    # truncating at the cap is masking to width * (cap + 1) bits; one
    # left-to-right pass over the bits of n and k raises both bases
    mask = (1 << width * (cap + 1)) - 1
    bw, br = (sum(c << width * i for i, c in enumerate(m)) for m in majorants)
    x = 1
    for i in reversed(range(max(n, k).bit_length())):
        x = x * x & mask
        if n >> i & 1:
            x = x * bw & mask
        if k >> i & 1:
            x = x * br & mask
    slot = (1 << width) - 1
    return max(x >> width * i & slot for i in range(cap + 1))


def evaluate_cell_sum(
    merged: Merged,
    length: int,
    caps: Sequence[int] | None = None,
    deadline: float | None = None,
) -> list[Value]:
    """Weighted sums over all assignments of n elements to the cells of a
    merged cell graph (_merge_cells), for every n = 1 .. length in one
    pass; item n-1 holds the sum for n, with the monomials above caps
    dropped.

    Dynamic program over cells: a partial composition of the domain affects
    the rest of the sum only through how many elements it used and, for each
    later cell, the accumulated product of cross-edge powers, so partial
    compositions with equal summaries merge and their coefficients add.  The
    multinomial over element labels is built one cell at a time as
    comb(used + c, c), so what the last cell leaves are the sums for all
    domain sizes at once.  A step computes the factor of count c of its
    vertex, g[c] = comb(used + c, c) * f[c] with f[c] the vertex's own-count
    factor (below), once per used bucket.  A step's states are a list
    indexed by the elements used, and a bucket's dict is made on its first
    write, so a used count that no state reaches costs nothing.  The row of
    powers of an edge value is built once per pass, whichever cells share
    it.

    Before the program runs, modules are summed out (Gallai's modular
    decomposition, two vertices at a time).  Each cell i carries its
    own-count factors f_i[c] = r_ii^C(c, 2) * w_i^c.  While two vertices
    i, j agree on every other vertex, r[i][k] = r[j][k] for all k not in
    {i, j}, they become one vertex B that keeps i's row and carries

        f_B[m] = sum_x C(m, x) * f_i[x] * f_j[m - x] * r_ij^(x (m - x)).

    This is exact.  A composition with n_i elements in i and n_j in j has
    the multinomial n! / (... n_i! n_j! ...) = n! / (... m! ...) *
    C(m, n_i), m = n_i + n_j, and every other vertex k meets those m
    elements through r_ik^m alone, so the compositions with one m and the
    same counts elsewhere sum to one composition of the quotient with m
    elements in B, weighted f_B[m].  The program then runs on the
    quotient, in _greedy_cell_order's order of it, and reads each
    vertex's f from its sequence.  A leaf cell's f is zero from its first
    zero entry on, so it is cut there.  A convolved f runs to the largest
    count its two factors reach, and may hold zeros before a nonzero
    entry, so a step goes on past a zero factor and writes nothing for
    its count.  A row of a convolution costs about what a group member of
    a step costs, so both advance the counter of the periodic deadline
    check.

    The states of a bucket that differ only in a0, the step's own
    accumulator, reach the same keys, so they are stored as one group
    under their later accumulators, and a step expands each group once.
    Per member it carries run = coeff * a0^c as a running product, and per
    count c it sums the members' runs into total, then makes one product
    contrib = g[c] * total and one write.  The write's key is the later
    accumulators times the count's edge powers: the first of them, the
    next cell's, keys the entry within its group, and the rest key the
    group.  Count 0 (g[0] = 1) passes the group's total on as it is.  The
    last cell leaves no accumulators, so its contributions go straight
    into the sums.  A state whose coefficient cancelled to zero stays in
    its group and adds nothing.

    With caps, one per exponent position of the symbolic weights, every
    weight is packed into one int (polynomial.Packing), a layout made
    from the caps alone, before the pass and the sums are unpacked after
    it.  Equal values are
    equal ints, so states still merge by value, and the DP body is the
    same on both paths: only the products differ.  mul is the packed
    product; emul, the product of edge values (accumulators and their
    powers, and running products, which are states times accumulators),
    is mul too unless every edge is a plain int.  Then the accumulators
    are plain ints, and a packed value times a plain int is the native
    product: each digit is multiplied in its own slot, and nothing lands
    above the caps, so there is nothing to truncate.

    The slot width W is fixed for the pass by _slot_width as
    W = bit_length(q^N * M) + 1, with N = length, q merged cells,
    K = max(C(N, 2), N), and M the least of two bounds:

        M1 = Wm^N * Rm^K, with Wm = max(1, |w_i|) and Rm = max(1, |r_ij|),
             where |v| is the sum of the absolute values of v's
             coefficients;
        M2 = max_{e <= cap} [x^e](Mw^N * Mr^K), for one constrained
             variable x only, where Mw (Mr) is the coefficientwise largest
             |coefficient| of the weights (edges), with constant term at
             least 1.

    Proof that every kept digit fits.  A vertex of the quotient stands for a
    set of merged cells, s_i of them for vertex i, and its f[c] sums, over
    the labelled assignments of c elements to those cells
    (at most s_i^c of them), products of c vertex weights and C(c, 2) edge
    weights: a cell's own f[c] is its one assignment, and a convolved f_B[m]
    is by induction such a sum over the cells of i and j, as C(m, x) places
    the x elements of i among the m and r_ij^(x (m - x)) adds the edges
    between them; its products f_i[x] * f_j[m - x], their powers of r_ij and
    the products that build a leaf's f are parts of the same terms.  A state
    coefficient before vertex i sums, over the labelled assignments of its
    used elements to the s cells of vertices 0 .. i-1
    (at most s^used of them), products of used vertex weights and C(used, 2)
    edge weights.  contrib does the same for used + c elements:
    comb(used + c, c) * s^used * s_i^c <= (s + s_i)^(used + c) <= q^N and
    C(used, 2) + C(c, 2) + used * c = C(used + c, 2) <= C(N, 2).  Its
    factors g[c] (comb(used + c, c) * s_i^c <= q^N products of c weights and
    C(c, 2) edges) and run = coeff * a0^c (C(used, 2) + used * c edges) are
    parts of the same terms.  The members of a group hold disjoint sets of
    partial assignments, so a group's total for count c sums at most s^used
    of them too, each times the edges to the c new elements, and contrib =
    g[c] * total is the same sum as above.  The accumulators, the rows of
    powers and their products carry at most N edge weights.  Sums of states,
    group totals and contributions sum distinct assignments.  So every value
    of the pass is the truncation of a sum of at most q^N terms, each a
    product of a <= N vertex weights and b <= K edge weights, and every
    product of two values before truncation is the product of two such
    truncations, whose pairs of terms are again at most q^N such terms.  It
    is enough that every coefficient the pass reads is at most q^N * M in
    absolute value: that is below 2^(W-1), the slot's signed range.

    M1: |.| is subadditive and submultiplicative and truncation never
    raises it, so the norm of a value or a product is at most
    q^N * Wm^a * Rm^b <= q^N * M1 (Wm, Rm >= 1), and a norm bounds every
    coefficient, kept or not.  M2: the kept coefficients, of x^e with
    e <= cap, of a value or a product are those of its untruncated sum of
    terms, and depend only on the factors' coefficients up to x^cap.  The
    coefficients of a term are at most those of the product of its
    factors' coefficientwise absolute values, hence of Mw^a * Mr^b; with
    nonnegative coefficients and constant terms at least 1, a further
    factor Mw or Mr never lowers a coefficient, so the kept ones are at
    most [x^e](Mw^N * Mr^K) <= M2.  M2 bounds only the kept
    exponents, which is enough for one variable: Packing keeps slots
    0 .. cap, the low (cap + 1) * W bits, so the mask in mul is a
    reduction modulo 2^((cap + 1) * W), and the digits of the slots above
    the cap, however large, are multiples of that modulus and drop out
    without touching the kept ones.  With two or more variables, discarded
    slots lie between kept ones and a carry out of them would land in a
    kept digit, so only M1 applies.
    """
    weights, rr = merged
    q = len(weights)
    # plain ints multiply natively; symbolic values multiply packed
    mul = emul = operator.mul
    if caps is not None:
        packing = Packing(caps, _slot_width(q, length, caps, weights, rr))
        weights = [packing.pack(v) for v in weights]
        mul = packing.mul
        if any(isinstance(v, Poly) for row in rr for v in row):
            rr = [[packing.pack(v) for v in row] for row in rr]
            emul = mul
    # the row of powers of each distinct edge value, shared by the steps
    powers = {v: _powers(emul, v, length) for v in {v for row in rr for v in row}}
    # fs[i][c] = rr[i][i] ** C(c, 2) * w_i ** c, cell i's own atoms, up
    # to the first zero, after which every entry keeps a zero factor
    fs = []
    for i, w in enumerate(weights):
        f, row = [1], powers[rr[i][i]]
        while len(f) <= length and (v := mul(emul(f[-1], row[len(f) - 1]), w)):
            f.append(v)
        fs.append(f)
    # collapse two vertices that every other vertex sees alike into i,
    # which keeps its row: its f becomes their binomial convolution
    rr = [list(row) for row in rr]
    ticker = 0
    while pair := next(
        (
            (i, j)
            for i, a in enumerate(rr)
            for j, b in enumerate(rr[i + 1 :], i + 1)
            if a[:i] == b[:i] and a[i + 1 : j] == b[i + 1 : j] and a[j + 1 :] == b[j + 1 :]
        ),
        None,
    ):
        i, j = pair
        ticker += len(fs[i])
        if deadline is not None and ticker >= 256:
            ticker = 0
            if time.monotonic() > deadline:
                raise BudgetExceeded
        fb = [0] * min(length + 1, len(fs[i]) + len(fs[j]) - 1)
        for x, a in enumerate(fs[i]):
            # run = rr[i][j] ** (x * y)
            run, base = 1, powers[rr[i][j]][x]
            for y, b in enumerate(fs[j][: len(fb) - x]):
                if b:
                    fb[x + y] += math.comb(x + y, x) * emul(mul(a, b), run)
                run = emul(run, base)
        fs[i] = fb
        del fs[j], rr[j]
        for row in rr:
            del row[j]
    # with at most two vertices the search returns the given order anyway
    q = len(rr)
    order = _greedy_cell_order(rr, q, length) if q > 2 else list(range(q))
    fs = [fs[i] for i in order]
    rr = [[rr[a][b] for b in order] for a in order]

    # states[used] maps the later accumulators accs[1:] to a group, which
    # maps a0 = accs[0] to the summed coefficient; accs[t] holds the
    # product over processed vertices p of rr[p][i+t] ** count_p.  A used
    # count that holds no state has None
    states: list[dict[tuple, dict] | None] = [None] * (length + 1)
    states[0] = {(1,) * (q - 1): {1: 1}}
    # sums[n]: the sum for n elements, added to at the last vertex
    sums: list[Value] = [0] * (length + 1)
    for i, f in enumerate(fs):
        last = i == q - 1
        if not last:
            # a count's factors on the next vertex's accumulator, and on
            # the ones after it
            rows = [powers[v] for v in rr[i][i + 1 :]]
            heads = rows[0]
            tails = list(zip(*rows[1:])) or [()] * (length + 1)
        nxt: list[dict[tuple, dict] | None] = [None] * (length + 1)
        for used, bucket in enumerate(states):
            if bucket is None:
                continue
            # a packed value times a plain int needs no truncation; a
            # convolved f may hold zeros, whose counts write nothing
            top = min(len(f), length - used + 1)
            g = [math.comb(used + c, c) * f[c] for c in range(top)]
            counts = range(1, len(g))
            for later, group in bucket.items():
                ticker += len(group)
                if deadline is not None and ticker >= 256:
                    ticker = 0
                    if time.monotonic() > deadline:
                        raise BudgetExceeded
                # totals[c] sums coeff * a0 ** c over the group
                totals = [0] * len(g)
                for a0, run in group.items():
                    totals[0] += run
                    for c in counts:
                        run = emul(run, a0)
                        if not run:
                            break
                        totals[c] += run
                if not last:
                    head, tail = later[0], later[1:]
                for c, total in enumerate(totals):
                    if not total:
                        continue
                    # count 0: g[0] = 1 and the accumulators stay
                    contrib = mul(g[c], total) if c else total
                    if not contrib:
                        continue
                    if last:
                        sums[used + c] += contrib
                        continue
                    key = tuple(map(emul, tail, tails[c])) if c else tail
                    a = emul(head, heads[c]) if c else head
                    slot = nxt[used + c]
                    if slot is None:
                        slot = nxt[used + c] = {}
                    into = slot.get(key)
                    if into is None:
                        slot[key] = {a: contrib}
                    else:
                        prev = into.get(a)
                        into[a] = contrib if prev is None else prev + contrib
        states = nxt
    out = sums[1:]
    return out if caps is None else [packing.unpack(v) for v in out]


def _powers(mul, base: Value, emax: int) -> list[Value]:
    row: list[Value] = [1]
    for _ in range(emax):
        row.append(mul(row[-1], base))
    return row


@dataclass
class CompiledSentence:
    """A sentence compiled to one cell graph per nullary branch, with the
    cardinality constraints its counting quantifiers became, the
    constrained predicates' base weights, and how long the compile took,
    which counts against a spectrum's budget."""

    branches: list[tuple[int, CellGraph]]
    constraints: list[CardinalityConstraint]
    cvars: tuple[str, ...]
    base_weights: dict[str, int]
    compile_secs: float

    def _targets(self, n: int) -> tuple[int, ...] | None:
        """Per-cvar cardinality targets at n, or None if they cannot all hold."""
        targets: dict[str, int] = {}
        for c in self.constraints:
            t = c.target(n)
            if t < 0 or targets.setdefault(c.pred, t) != t:
                return None
        return tuple(targets[p] for p in self.cvars)

    def values(
        self,
        length: int,
        deadline: float | None = None,
        memo: dict | None = None,
    ) -> list[int]:
        """Weighted counts for n = 1 .. length, one DP pass per branch.

        The symbolic caps are the largest targets over the valid n, and each
        n reads its own coefficient.  A pass depends only on the merged
        graph (_merge_cells), the length and the caps, so each branch is
        merged and looked up under those three in memo (a fresh dict when
        None), and evaluate_cell_sum runs only on a miss.  The caller owns
        the dict and decides how long it lives; a pass cut short by the
        deadline stores nothing, so every stored pass is complete.
        """
        if length < 1:
            raise ValueError("length must be at least 1")
        monos = [self._targets(n) for n in range(1, length + 1)]
        valid = [m for m in monos if m is not None]
        if not valid:
            return [0] * length
        caps = tuple(map(max, zip(*valid))) if self.cvars else None
        memo = {} if memo is None else memo
        out = [0] * length
        for factor, g in self.branches:
            merged = _merge_cells(g)
            key = (merged, length, caps)
            sums = memo.get(key)
            if sums is None:
                sums = memo[key] = evaluate_cell_sum(merged, length, caps, deadline)
            for i, mono in enumerate(monos):
                if mono is not None:
                    out[i] += factor * coeff_of(sums[i], mono)
        for i, mono in enumerate(monos):
            for p, t in zip(self.cvars, mono or ()):
                out[i] *= pow_value(self.base_weights[p], t)
        return out


def compile_sentence(
    s: Sentence, weights: WeightMap | None = None, memo: dict | None = None
) -> CompiledSentence:
    """s compiled under weights, a map from predicate names to (true,
    false) weights, which must be integers: a weight w with int(w) != w,
    such as 2.5, is a ValueError naming its predicate.

    Each clause is normalized, its counting quantifier reduced and its
    existentials skolemized, and one build_cell_graph call reads the
    resulting universal clauses once, against one bit layout over the
    sentence's predicates and the fresh ones, for all nullary branches.
    A fresh name holds a quote and its clause's position in render order
    (_prepare), so a predicate of s whose name holds a quote is a
    ValueError.  memo, a fresh dict when None, holds what depends on one
    clause at one position or one layout alone: each clause's prepared
    form, keyed (clause, position), one literal per fresh name (_prepare),
    and build_cell_graph's layouts, with their clause records and edge
    tables.  The caller owns the dict and decides how long it lives:
    generate keeps one per search in its GenState."""
    start = time.monotonic()
    memo = {} if memo is None else memo
    preds = s.predicates
    used = {p.name for p in preds}
    if any("'" in name for name in used):
        raise ValueError(f"a predicate name in {s.render()} holds a quote")
    for name, pair_w in (weights or {}).items():
        if any(int(x) != x for x in pair_w):
            raise ValueError(f"weights of {name} must be integers, got {pair_w}")
    # a weight for a name s does not use could fall on a fresh predicate
    w = {n: (int(a), int(b)) for n, (a, b) in (weights or {}).items() if n in used}
    clauses: list[Clause] = []
    constraints: list[CardinalityConstraint] = []
    sig = {p for p in preds if p.arity > 0}
    for k, c in enumerate(sorted(s.clauses, key=Clause.render)):
        out, cons, skolem, preds_out = memo.get((c, k)) or _prepare(c, k, memo)
        clauses += out
        constraints += cons
        sig.update(preds_out)
        for name in skolem:
            w[name] = (1, -1)
    constraints = _first_polarity(constraints, preds)

    cvars = tuple(sorted({c.pred for c in constraints}))
    negated = {c.pred for c in constraints if c.negated}
    base_weights = {p: w.get(p, (1, 1))[p in negated] for p in cvars}

    branches = build_cell_graph(clauses, w, sig, cvars, negated, memo=memo)
    secs = time.monotonic() - start
    return CompiledSentence(branches, constraints, cvars, base_weights, secs)


def wfomc(s: Sentence, n: int, weights: WeightMap | None = None) -> int:
    """Weighted first-order model count of s at domain size n; n below 1
    is a ValueError, raised before compiling."""
    if n < 1:
        raise ValueError("domain size must be at least 1")
    return compile_sentence(s, weights).values(n)[-1]


def budget_deadline(budget_secs: float | None, spent: float = 0.0) -> float | None:
    """The time.monotonic() reading at which a budget of budget_secs, of
    which spent is used already, runs out; None for no budget.  A NaN or
    negative budget is a ValueError: NaN would never run out, and a
    negative budget would be out before anything ran."""
    if budget_secs is None:
        return None
    # NaN compares false with everything, so `not budget_secs >= 0` refuses it
    if not budget_secs >= 0:
        raise ValueError(f"a budget must be at least 0 seconds, got {budget_secs}")
    return time.monotonic() + budget_secs - spent


def compute_spectrum(
    s: Sentence | CompiledSentence,
    length: int,
    weights: WeightMap | None = None,
    budget_secs: float | None = None,
    memo: dict | None = None,
) -> Spectrum:
    """Model counts for n = 1 .. length.

    s is a sentence, compiled here with weights, or one compiled already,
    whose weights are in it, so passing weights with it is a ValueError.
    Either way the compile counts against the budget: the deadline, taken
    once the sentence is compiled, is the budget less the compile's
    recorded time.  A length below 1 and a NaN or negative budget are
    ValueErrors, raised before compiling.  All terms come out of one pass,
    so a budget that runs out before the pass ends leaves no terms and the
    spectrum is marked truncated.  memo is passed to
    CompiledSentence.values, so that spectra computed with one dict share
    their cell-DP passes.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if isinstance(s, CompiledSentence) and weights is not None:
        raise ValueError("a compiled sentence carries its own weights")
    # refuse a bad budget before compiling
    budget_deadline(budget_secs)
    form = s if isinstance(s, CompiledSentence) else compile_sentence(s, weights)
    deadline = budget_deadline(budget_secs, form.compile_secs)
    if deadline is not None and time.monotonic() >= deadline:
        return Spectrum([], truncated=True)
    try:
        return Spectrum(form.values(length, deadline, memo))
    except BudgetExceeded:
        return Spectrum([], truncated=True)


def _poly_serial(v: Value):
    """Canonical form of a weight: an int, or a polynomial's sorted terms."""
    return v if isinstance(v, int) else ("p", tuple(sorted(v.terms.items())))


def _graph_serial(g: CellGraph) -> str:
    """Canonical serialization of a cell graph.

    The graph is labelled on its twin quotient.  Cells with equal edge
    rows are twins (_twin_classes, over every cell, zero weights too),
    and each twin class is one vertex, colored by its loop, which is also
    the edge between any two of its cells, and by the sorted weights of
    its cells; two classes are joined by the edge weight between their
    cells, which is the same for every pair.  canonical_labelling orders
    the classes, and the serial is the sorted class colors, the sorted
    edge labels and that labelling's serial.  An isomorphism of two cell
    graphs maps twin classes onto twin classes, so it induces one of
    their quotients, and an isomorphism of the quotients lifts to the
    graphs by matching each class's cells by weight.  So two graphs
    serialize identically exactly when they are isomorphic as weighted
    graphs.
    """
    if not g.cells:
        return "empty"
    r = g.r
    classes = _twin_classes(r, range(len(g.cells)))
    reps = [grp[0] for grp in classes]
    q = len(reps)
    wser = [repr(_poly_serial(v)) for v in g.weights]
    eser = [[repr(_poly_serial(r[a][b])) for b in reps] for a in reps]
    colors = [
        (eser[i][i], tuple(sorted(wser[c] for c in grp)))
        for i, grp in enumerate(classes)
    ]
    labels = sorted({eser[i][j] for i in range(q) for j in range(q) if i != j})
    rank = {v: k for k, v in enumerate(labels)}
    adj = [[(j, rank[eser[i][j]] * q) for j in range(q) if j != i] for i in range(q)]
    return repr((sorted(colors), labels, canonical_labelling(colors, adj)))


def spectrum_fingerprint(comp: CompiledSentence, memo: dict | None = None) -> bytes:
    """Key equal only for sentences whose spectra provably coincide.

    Covers the full compiled form: nullary branch factors, each branch's
    cell graph up to isomorphism (_graph_serial, through the
    individualisation-refinement search that canonical_key uses too),
    cardinality targets with the polarity they count, and constrained
    predicates' base weights, with the symbolic constraint variables in
    their sorted order (comp.cvars), so each compiled form is serialized
    once.  The polarity is implied by the graphs; keying on it too keeps
    sentences that count opposite polarities apart, as they were when
    every constraint counted true atoms, so generation keeps the same
    sentences.

    A labelling depends only on the graph's weights and edges, and a
    search meets the same cell graph many times, so each _graph_serial is
    looked up under those two in memo (a fresh dict when None) and runs
    only on a miss.  The key is the whole graph, as built, and the twin
    quotient is formed only on a miss, inside _graph_serial, so a hit
    costs no grouping.  The caller owns the dict and decides how long it
    lives: generate keeps one per search in its GenState.  comp is what
    compile_sentence returns; classify computes the spectrum from the same
    compiled form.
    """
    memo = {} if memo is None else memo
    graphs = []
    for factor, g in comp.branches:
        key = (tuple(g.weights), tuple(map(tuple, g.r)))
        label = memo.get(key)
        if label is None:
            label = memo[key] = _graph_serial(g)
        graphs.append((factor, label))
    cons = sorted(
        (
            comp.cvars.index(c.pred),
            c.coeffs,
            c.negated,
            comp.base_weights[c.pred],
        )
        for c in comp.constraints
    )
    return repr((sorted(graphs), cons)).encode()
