"""Lifted model counting: closed forms, oracle agreement, reductions."""

import dataclasses
import itertools
import math
import random
import sys

import pytest

from combspec import engine, logic
from combspec.engine import (
    BudgetExceeded,
    CellGraph,
    Spectrum,
    _graph_serial,
    _poly_serial,
    build_cell_graph,
    compile_sentence,
    compute_spectrum,
    evaluate_cell_sum,
    spectrum_fingerprint,
    wfomc,
)
from combspec.generator import GenLimits, _literal_options
from combspec.logic import (
    EXISTS,
    FORALL,
    FragmentError,
    Literal,
    Predicate,
    Sentence,
    counting,
    make_clause,
    pair,
    parse_sentence,
    single,
)
from combspec.oracle import MAX_ATOMS, count_models, weighted_count
from combspec.polynomial import Poly, make, norm1
from helpers import (
    dp_iterations,
    optimal_cell_order,
    random_sentence,
    reference_branches,
    reference_cell_graph,
    reference_cell_order,
    quotient_size,
    reference_cell_sum,
    reference_merge_cells,
)

MAXN_ORACLE = 4


def spectrum(text, length, **kw):
    return compute_spectrum(parse_sentence(text), length, **kw).terms


def oracle_terms(text, length):
    s = parse_sentence(text)
    return [count_models(s, n) for n in range(1, length + 1)]


# exact closed forms


def test_irreflexive_closed_form():
    assert spectrum("(V x ~R(x,x))", 8) == [2 ** (n * n - n) for n in range(1, 9)]


def test_functional_closed_form():
    assert spectrum("(V x E=1 y R(x,y))", 8) == [n**n for n in range(1, 9)]


def test_exists_unary_closed_form():
    assert spectrum("(E x U(x))", 10) == [2**n - 1 for n in range(1, 11)]


def test_total_relation_closed_form():
    assert spectrum("(V x E y R(x,y))", 8) == [
        (2**n - 1) ** n for n in range(1, 9)
    ]


def test_weighted_exists_closed_form():
    got = compute_spectrum(
        parse_sentence("(E x Heads(x))"), 8, weights={"Heads": (4, 1)}
    ).terms
    assert got == [5**n - 1 for n in range(1, 9)]


# prefix handling, one fixed sentence per rewrite rule


RULE_SENTENCES = [
    "(E x U(x))",
    "(E x U(x) | ~W(x))",
    "(E x E y B(x,y))",
    "(E x E y B(x,y) | ~B(y,x))",
    "(V x E y B(x,y))",
    "(V x E y B(x,y) | ~B(y,x) | U(x))",
    "(E x V y B(x,y))",
    "(E x V y B(x,y) | B(y,x))",
    "(E x V y ~B(x,y) | ~U(y))",
    "(V x V y B(x,y) | ~B(y,x))",
]


@pytest.mark.parametrize("text", RULE_SENTENCES)
def test_each_prefix_rule_matches_oracle(text):
    assert spectrum(text, MAXN_ORACLE) == oracle_terms(text, MAXN_ORACLE)


def test_multi_clause_mixed_prefixes_match_oracle():
    texts = [
        "(V x ~B(x,x)) & (V x E y B(x,y))",
        "(E x V y B(x,y)) & (V x E y ~B(x,y))",
        "(V x E y B(x,y)) & (E x V y B(x,y) | B(y,x))",
        "(E x U(x)) & (V x V y B(x,y) | ~U(x)) & (E x E y ~B(x,y))",
    ]
    for text in texts:
        assert spectrum(text, MAXN_ORACLE) == oracle_terms(text, MAXN_ORACLE), text


# counting reductions


def test_counting_both_variables():
    text = "(V x E=1 y B(x,y))"
    assert spectrum(text, MAXN_ORACLE) == oracle_terms(text, MAXN_ORACLE)


def test_counting_unary():
    # exactly one element in U, everything else free
    assert spectrum("(E=1 x U(x))", 6) == [n for n in range(1, 7)]
    text = "(E=1 x U(x)) & (V x E y B(x,y) | U(x))"
    assert spectrum(text, 3) == oracle_terms(text, 3)


def test_counting_reflexive_atom():
    # exactly one loop, off-diagonal pairs free
    assert spectrum("(E=1 x B(x,x))", 5) == [
        n * 2 ** (n * n - n) for n in range(1, 6)
    ]


def test_counting_exists_forall_prefix():
    # exactly one full row, every other row misses something
    assert spectrum("(E=1 x V y B(x,y))", 5) == [
        n * (2**n - 1) ** (n - 1) for n in range(1, 6)
    ]


def test_counting_negated_body():
    text = "(V x E=1 y ~B(x,y))"
    assert spectrum(text, MAXN_ORACLE) == oracle_terms(text, MAXN_ORACLE)


def test_counting_reversed_args():
    text = "(V x E=1 y B(y,x))"
    assert spectrum(text, MAXN_ORACLE) == oracle_terms(text, MAXN_ORACLE)


@pytest.mark.parametrize(
    "text",
    [
        "(V x E=1 y B(x,y)) & (V x E=1 y ~B(y,x))",
        "(E=1 x U(x)) & (E=1 x ~U(x))",
    ],
)
def test_counting_both_polarities(text):
    # one predicate counted on its true and on its false atoms: only n = 2
    # can meet both targets, by a permutation or a choice of the U element
    s = parse_sentence(text)
    terms = compute_spectrum(s, 6).terms
    assert terms == [0, 2, 0, 0, 0, 0]
    assert terms[:3] == oracle_terms(text, 3)
    assert [wfomc(s, n) for n in range(1, 7)] == terms


@pytest.mark.parametrize(
    "text",
    [
        "(E=2 x U(x))",
        "(V x E=2 y B(x,y))",
        "(E=1 x E=1 y B(x,y))",
        "(E=1 x E y B(x,y))",
        "(E x E=1 y B(x,y))",
        "(V x E=1 y U(x))",
    ],
)
def test_unsupported_counting_shapes_are_rejected(text):
    with pytest.raises(FragmentError):
        compute_spectrum(parse_sentence(text), 3)


# randomized oracle agreement


def test_random_sentences_match_oracle():
    limits = GenLimits(max_literals=4, max_clauses=2, unary=1, binary=1, max_count=1)
    rng = random.Random(20240817)
    checked = 0
    while checked < 60:
        s = random_sentence(rng, limits)
        try:
            got = compute_spectrum(s, MAXN_ORACLE).terms
        except FragmentError:
            continue
        want = [count_models(s, n) for n in range(1, MAXN_ORACLE + 1)]
        assert got == want, s.render()
        checked += 1


def test_random_weighted_sentences_match_oracle():
    limits = GenLimits(max_literals=4, max_clauses=2, unary=1, binary=1, max_count=1)
    names = [p.name for p in limits.predicates()]
    rng = random.Random(20261017)
    checked = flipped = 0
    while checked < 300:
        s = random_sentence(rng, limits)
        weights = {p: (rng.randint(-2, 3), rng.randint(-2, 3)) for p in names}
        try:
            compiled = compile_sentence(s, weights)
        except FragmentError:
            continue
        for n in range(1, 4):
            want = weighted_count(s, n, weights)
            assert wfomc(s, n, weights) == want, (s.render(), weights, n)
        flipped += any(c.negated for c in compiled.constraints)
        checked += 1
    # enough sentences carry their symbolic weight on false atoms
    assert flipped >= 20


# counting over any clause body: the definition step

_DEFINED_PREDS = [
    Predicate("U", 1),
    Predicate("W", 1),
    Predicate("B", 2),
    Predicate("R", 2),
]
_NULLARY = Literal(Predicate("P", 0), ())
_PREFIXES = [
    (counting(1),),
    (FORALL, counting(1)),
    (counting(1), FORALL),
    (FORALL,),
    (EXISTS,),
    (FORALL, FORALL),
    (FORALL, EXISTS),
    (EXISTS, FORALL),
    (EXISTS, EXISTS),
]


def _random_clause(rng, prefix, sizes):
    options = _literal_options(_DEFINED_PREDS, len(prefix))
    if rng.random() < 0.3:
        options += [_NULLARY, _NULLARY.negate()]
    body = rng.sample(options, rng.randint(*sizes))
    return make_clause(list(zip(prefix, logic.VARS)), body)


def random_counting_sentence(rng):
    """A counting clause of 2 to 6 literals over two unary and two binary
    predicates, with the nullary P in some, under one of the three
    counting prefixes; in half of them a second clause of 1 to 3 literals
    under another prefix."""
    prefix = rng.choice(_PREFIXES[:3])
    clauses = [_random_clause(rng, prefix, (2, 6))]
    if rng.random() < 0.5:
        other = rng.choice([p for p in _PREFIXES if p != prefix])
        clauses.append(_random_clause(rng, other, (1, 3)))
    return Sentence(frozenset(clauses))


def _oracle_length(s):
    """The largest n <= 4 at which the oracle counts s: 4 with at most 20
    ground atoms at n = 4, else 3 within the oracle's atom cap, else 2."""
    atoms = {n: sum(n**p.arity for p in s.predicates) for n in (3, 4)}
    return 4 if atoms[4] <= 20 else 3 if atoms[3] <= MAX_ATOMS else 2


def test_random_counting_bodies_match_the_oracle():
    rng = random.Random(20261020)
    length = 5
    by_key = {}
    refused = 0
    for _ in range(400):
        s = random_counting_sentence(rng)
        weights = None
        if rng.random() < 0.3:
            # on two predicates at most: the oracle splits its worlds by the
            # true atoms of each weighted one
            names = sorted(p.name for p in s.predicates)
            names = rng.sample(names, min(2, len(names)))
            weights = {p: (rng.randint(-1, 3), rng.randint(-1, 3)) for p in names}
        try:
            comp = compile_sentence(s, weights)
        except FragmentError as e:
            # counting over a variable the body does not use stays refused
            assert "counting quantifier over unused variable" in str(e), s.render()
            refused += 1
            continue
        terms = compute_spectrum(comp, length).terms
        n = _oracle_length(s)
        want = [weighted_count(s, k, weights or {}) for k in range(1, n + 1)]
        assert terms[:n] == want, (s.render(), weights)
        by_key.setdefault(spectrum_fingerprint(comp), []).append((terms, s.render()))
    # 20 of the 400 at this seed
    assert refused <= 25
    # one fingerprint, one spectrum, compared at one common length
    shared = [group for group in by_key.values() if len(group) > 1]
    assert shared
    for group in shared:
        assert len({tuple(terms) for terms, _ in group}) == 1, group


def test_a_fresh_definition_takes_a_name_past_the_sentences_own():
    s = parse_sentence("(V x E=1 y B(x,y) | D0(x)) & (E x ~D0(x) | B(x,x))")
    comp = compile_sentence(s)
    # the counting clause sorts second, and a fresh name holds a quote
    assert comp.cvars == ("D1'",)
    assert compute_spectrum(comp, 3).terms == [count_models(s, n) for n in range(1, 4)]


# packed symbolic weights

# every c2-paper layer-3 kept sentence with two counting variables, then the
# three golden C2 sentences, with their first ten terms
PACKED_SPECTRA = [
    ("(E=1 x B0(x,x)) & (E=1 x V y B0(x,y))",
     [1, 4, 48, 2048, 327680, 201326592, 481036337152, 4503599627370496,
      166020696663385964544, 24178516392292583494123520]),
    ("(E=1 x B0(x,x)) & (E=1 x V y ~B0(x,y))",
     [0, 4, 72, 4704, 1080000, 886580160, 2667669427584, 30076017052490752,
      1292271376105440000000, 214229695989247029175956480]),
    ("(E=1 x B0(x,x)) & (V x E=1 y B0(x,y))",
     [1, 2, 12, 108, 1280, 18750, 326592, 6588344, 150994944, 3874204890]),
    ("(E=1 x B0(x,x)) & (V x E=1 y ~B0(x,y))",
     [0, 2, 6, 12, 20, 30, 42, 56, 72, 90]),
    ("(E=1 x V y B0(x,y)) & (E=1 x V y B0(y,x))",
     [1, 4, 63, 4240, 1037575, 899925156, 2810982874903, 32375987794408000,
      1404831782486020397103, 233495872756574910848832100]),
    ("(E=1 x V y B0(x,y)) & (E=1 x V y ~B0(x,y))",
     [0, 2, 36, 2352, 540000, 443290080, 1333834713792, 15038008526245376,
      646135688052720000000, 107114847994623514587978240]),
    ("(E=1 x V y B0(x,y)) & (V x E=1 y B0(x,y))",
     [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("(E=1 x V y B0(x,y)) & (V x E=1 y B0(y,x))",
     [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
    ("(E=1 x V y B0(x,y)) & (V x E=1 y ~B0(y,x))",
     [0, 2, 18, 144, 1200, 10800, 105840, 1128960, 13063680, 163296000]),
    ("(V x B(x,x)) & (V x E=1 y ~B(x,y)) & (V x E=1 y ~B(y,x))",
     [0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961]),
    ("(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))",
     [1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800]),
    ("(V x E=1 y B(x,y)) & (V x E=1 y B(y,x)) & (V x V y B(x,x) | B(x,y) | ~B(y,x))",
     [1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]),
]


@pytest.mark.parametrize("text,want", PACKED_SPECTRA)
def test_packed_spectra_match_pinned_terms(text, want):
    s = parse_sentence(text)
    ncvars = len(compile_sentence(s).cvars)
    assert ncvars == (2 if "B0" in text else 1)
    assert spectrum(text, 10) == want
    assert want[:3] == oracle_terms(text, 3)


def test_too_narrow_a_slot_shows_in_the_terms(monkeypatch):
    # the pinned spectra above catch an overflowing slot
    monkeypatch.setattr(engine, "_slot_width", lambda *args: 8)
    wrong = [text for text, want in PACKED_SPECTRA if spectrum(text, 10) != want]
    assert wrong


# budgets and determinism


def test_budget_zero_truncates():
    out = compute_spectrum(parse_sentence("(V x E y B(x,y))"), 10, budget_secs=0)
    assert isinstance(out, Spectrum)
    assert out.truncated
    assert len(out.terms) < 10


def test_budget_is_checked_inside_the_pass():
    text = "(E x V y B(x,y) | U(y) | ~B(y,x)) & (E x V y B(x,y) | ~B(y,y))"
    compiled = compile_sentence(parse_sentence(text))
    # a deadline long past: the first periodic check inside the DP fires
    with pytest.raises(BudgetExceeded):
        compiled.values(12, deadline=0.0)


def test_no_budget_never_truncates():
    out = compute_spectrum(parse_sentence("(V x E y B(x,y))"), 10)
    assert not out.truncated
    assert len(out.terms) == 10


def test_a_carried_compile_spends_the_budget(monkeypatch):
    # a compile that took the whole budget leaves none for a pass
    compiled = compile_sentence(parse_sentence("(V x E y B(x,y))"))

    def no_pass(*args):
        raise AssertionError("a cell-DP pass ran")

    monkeypatch.setattr(engine, "evaluate_cell_sum", no_pass)
    for secs, budget in ((1.0, 1.0), (5.0, 2.0)):
        carried = dataclasses.replace(compiled, compile_secs=secs)
        assert compute_spectrum(carried, 10, budget_secs=budget) == Spectrum([], True)


def test_a_carried_compile_without_a_budget_never_truncates():
    compiled = compile_sentence(parse_sentence("(V x E y B(x,y))"))
    carried = dataclasses.replace(compiled, compile_secs=1e9)
    out = compute_spectrum(carried, 10)
    assert out == compute_spectrum(parse_sentence("(V x E y B(x,y))"), 10)
    assert not out.truncated and len(out.terms) == 10


def _no_compile(*args):
    raise AssertionError("the sentence was compiled")


@pytest.mark.parametrize("secs", [float("nan"), -1.0])
def test_a_budget_below_zero_or_nan_is_refused(secs, monkeypatch):
    # refused before compiling, and for a carried compile too
    compiled = compile_sentence(parse_sentence("(V x E y B(x,y))"))
    monkeypatch.setattr(engine, "compile_sentence", _no_compile)
    for s in (parse_sentence("(V x E y B(x,y))"), compiled):
        with pytest.raises(ValueError, match="budget must be at least 0"):
            compute_spectrum(s, 5, budget_secs=secs)


@pytest.mark.parametrize(
    "text, stray",
    [
        ("(E=1 x B(x,x))", "D0"),
        ("(E=1 x V y B(x,y))", "A0"),
        ("(V x E y B(x,y))", "S0"),
        ("(E x U(x))", "Z0"),
    ],
)
def test_a_weight_for_a_name_the_sentence_does_not_use_is_ignored(text, stray):
    # the compile's fresh predicate, stray with a quote, keeps its own weight
    s = parse_sentence(text)
    plain = compute_spectrum(s, 4)
    for name in (stray, stray + "'"):
        assert compute_spectrum(s, 4, weights={name: (5, 2)}) == plain
        assert [wfomc(s, n, {name: (5, 2)}) for n in range(1, 5)] == plain.terms


def test_weights_beside_a_compiled_sentence_are_refused():
    # the compiled form carries the weights it was compiled with
    compiled = compile_sentence(parse_sentence("(E x Heads(x))"), {"Heads": (4, 1)})
    with pytest.raises(ValueError, match="carries its own weights"):
        compute_spectrum(compiled, 3, weights={"Heads": (2, 1)})
    assert compute_spectrum(compiled, 3).terms == [4, 24, 124]


@pytest.mark.parametrize("weight", [(2.5, 1), (2, 0.5), (2, -1.5)])
def test_a_fractional_weight_is_an_error(weight):
    # int() would truncate 2.5 to 2 and count as if the weight were 2
    s = parse_sentence("(E x Heads(x))")
    with pytest.raises(ValueError, match="Heads"):
        wfomc(s, 2, {"Heads": weight})
    with pytest.raises(ValueError, match="Heads"):
        compute_spectrum(s, 2, weights={"Heads": weight})
    # integral values of any numeric type are integers
    assert wfomc(s, 2, {"Heads": (2.0, 1)}) == wfomc(s, 2, {"Heads": (2, 1)}) == 8


def test_length_below_one_is_an_error(monkeypatch):
    compiled = compile_sentence(parse_sentence("(V x E y B(x,y))"))
    for length in (0, -3):
        with pytest.raises(ValueError):
            compiled.values(length)
    # refused before the budget and the compile, for both kinds of input,
    # so a spent budget does not turn a bad length into a truncated spectrum
    monkeypatch.setattr(engine, "compile_sentence", _no_compile)
    for s in (parse_sentence("(V x U(x))"), compiled):
        for length in (0, -3):
            for secs in (None, 0.0, 60.0):
                with pytest.raises(ValueError, match="length must be at least 1"):
                    compute_spectrum(s, length, budget_secs=secs)
    for n in (0, -1):
        with pytest.raises(ValueError, match="domain size must be at least 1"):
            wfomc(parse_sentence("(V x U(x))"), n)


# cell-DP passes shared through a memo

MEMO_TEXT = "(E x V y B(x,y) | U(y) | ~B(y,x)) & (E x V y B(x,y) | ~B(y,y))"


def test_a_pass_cut_short_stores_nothing():
    compiled = compile_sentence(parse_sentence(MEMO_TEXT))
    assert [len(g.cells) for _, g in compiled.branches] == [4, 8, 8, 16]
    memo: dict = {}
    # the three small branches finish before the first deadline check
    with pytest.raises(BudgetExceeded):
        compiled.values(12, deadline=0.0, memo=memo)
    assert len(memo) == 3
    before = dict(memo)
    # now they are hits, and the 16-cell miss is cut short again
    with pytest.raises(BudgetExceeded):
        compiled.values(12, deadline=0.0, memo=memo)
    assert memo == before
    # what was stored is whole
    fresh: dict = {}
    compiled.values(12, memo=fresh)
    assert all(fresh[key] == sums for key, sums in memo.items())


def test_a_budget_that_runs_out_inside_a_pass_truncates_the_spectrum(monkeypatch):
    # a clock that stands still outside the cell DP and jumps past every
    # deadline inside it: the check before the passes holds, and the first
    # periodic check inside a pass fires
    inside = []

    def clock():
        if sys._getframe(1).f_code is engine.evaluate_cell_sum.__code__:
            inside.append(True)
            return 1e9
        return 0.0

    s = parse_sentence(MEMO_TEXT)
    memo: dict = {}
    monkeypatch.setattr(engine.time, "monotonic", clock)
    assert compute_spectrum(s, 12, budget_secs=60, memo=memo) == Spectrum([], True)
    monkeypatch.undo()
    assert inside
    # the three small passes finished before any check; the cut one is absent
    assert len(memo) == 3
    whole: dict = {}
    compile_sentence(s).values(12, memo=whole)
    assert all(whole[key] == sums for key, sums in memo.items())


def test_a_stored_pass_needs_no_budget():
    compiled = compile_sentence(parse_sentence(MEMO_TEXT))
    memo: dict = {}
    full = compiled.values(12, memo=memo)
    assert len(memo) == len(compiled.branches)
    # every branch is served from the memo, so a spent deadline is never read
    assert compiled.values(12, deadline=0.0, memo=memo) == full
    assert full == compile_sentence(parse_sentence(MEMO_TEXT)).values(12)


def test_memo_is_keyed_by_length():
    # no counting quantifier, so no caps tell the two lengths apart
    s = parse_sentence("(V x E y B(x,y))")
    memo: dict = {}
    # a shorter pass stored first cannot serve the longer one
    assert compute_spectrum(s, 3, memo=memo).terms == [1, 9, 343]
    assert compute_spectrum(s, 4, memo=memo).terms == [1, 9, 343, 50625]
    assert len(memo) == 2


def test_wfomc_matches_spectrum_entry():
    s = parse_sentence("(V x E y B(x,y) | ~B(y,x)) & (E x U(x))")
    terms = compute_spectrum(s, 5).terms
    for n in range(1, 6):
        assert wfomc(s, n) == terms[n - 1]


def test_spectrum_is_deterministic():
    s = parse_sentence("(V x E y B(x,y) | U(y)) & (E x V y ~B(y,x))")
    a = compute_spectrum(s, 6).terms
    b = compute_spectrum(s, 6).terms
    assert a == b


# bitmask cell graphs against the reference build


def _random_universal_clauses(rng):
    preds = [Predicate(f"U{i}", 1) for i in range(rng.randint(0, 2))]
    preds += [Predicate(f"B{i}", 2) for i in range(rng.randint(0, 2))]
    if not preds:
        preds = [Predicate("U0", 1)]
    clauses = []
    for _ in range(rng.randint(0, 4)):
        nvars = 2 if any(p.arity == 2 for p in preds) and rng.random() < 0.6 else 1
        options = _literal_options(preds, nvars)
        body = rng.sample(options, rng.randint(1, min(3, len(options))))
        clauses.append(single(FORALL, body) if nvars == 1 else pair(FORALL, FORALL, body))
    sig = sorted(preds + [Predicate("V0", 1)] * rng.randint(0, 1))
    weights = {
        p.name: (rng.randint(-3, 3), rng.randint(-3, 3))
        for p in sig
        if rng.random() < 0.5
    }
    cvars = tuple(sorted({p.name for p in sig if rng.random() < 0.3}))
    negated = {name for name in cvars if rng.random() < 0.5}
    return clauses, weights, sig, cvars, negated


def test_bitmask_cell_graph_matches_the_reference_on_random_clauses():
    rng = random.Random(13)
    seen = set()
    # one memo for every draw, so that a layout's tables and records serve
    # builds of other clauses under other weights, cvars and negated
    shared: dict = {}
    for _ in range(300):
        clauses, weights, sig, cvars, negated = _random_universal_clauses(rng)
        # without nullary literals there is one branch, of factor 1
        [(factor, g)] = build_cell_graph(clauses, weights, sig, cvars, negated)
        assert factor == 1
        reference = reference_cell_graph(clauses, weights, sig, cvars, negated)
        assert g == reference
        assert build_cell_graph(
            clauses, weights, sig, cvars, negated, memo=shared
        ) == [(1, reference)]
        seen.add(len(g.cells) == 0)
        seen.add("symbolic" if negated else None)
        seen.add("two binary" if sum(p.arity == 2 for p in sig) == 2 else None)
    assert {True, False, "symbolic", "two binary"} <= seen
    # some draws met a layout an earlier draw built (263 layouts at seed 13)
    assert len(shared) < 300


# nullary branches against the reference pipeline

# (prefix, counted atom) of the counting clauses the random sentences draw
COUNTING_SHAPES = [
    ("E=1 x", "U(x)"),
    ("E=1 x", "B(x,x)"),
    ("V x E=1 y", "B(x,y)"),
    ("E=1 x V y", "B(x,y)"),
]
PREFIXES = ["E x", "E x E y", "V x E y", "E x V y", "E=1", "V x", "V x V y"]


def _random_nullary_sentence(rng):
    """A sentence over U, B and one or two nullary predicates, with clauses
    under E, E E, V E, E V, E=1, V and V V, and random weights that put 0
    on a nullary predicate about one time in three."""
    nullary = ["P", "Q"][: rng.randint(1, 2)]
    clauses = []
    for _ in range(rng.randint(1, 3)):
        prefix = rng.choice(PREFIXES)
        if prefix == "E=1":
            prefix, atom = rng.choice(COUNTING_SHAPES)
            body = [atom]
        else:
            options = ["U(x)", "B(x,x)", *nullary]
            if "y" in prefix:
                options += ["U(y)", "B(y,y)", "B(x,y)", "B(y,x)"]
            body = rng.sample(options, rng.randint(1, 3))
        body = [("~" if rng.random() < 0.5 else "") + lit for lit in body]
        clauses.append(f"({prefix} {' | '.join(body)})")
    names = ["U", "B", *nullary]
    weights = {p: (rng.randint(-2, 3), rng.randint(-2, 3)) for p in names}
    if rng.random() < 0.35:
        w, wbar = weights[nullary[0]]
        weights[nullary[0]] = (0, wbar) if rng.random() < 0.5 else (w, 0)
    return parse_sentence(" & ".join(clauses)), weights


def test_one_pass_compile_matches_the_reference_pipeline_on_random_sentences(
    monkeypatch,
):
    calls = []
    build = engine.build_cell_graph

    def building(*args, memo=None):
        branches = build(*args, memo=memo)
        calls.append((args, branches))
        return branches

    monkeypatch.setattr(engine, "build_cell_graph", building)
    rng = random.Random(27)
    seen = set()
    checked = 0
    while checked < 300:
        s, weights = _random_nullary_sentence(rng)
        try:
            compiled = compile_sentence(s, weights)
        except FragmentError:
            continue
        (args, branches) = calls[-1]
        assert compiled.branches is branches
        assert branches == reference_branches(*args), s.render()
        clauses, w = args[:2]
        names = sorted(
            {l.pred.name for c in clauses for l in c.body if not l.pred.arity}
        )
        nonzero = 0
        for values in itertools.product((0, 1), repeat=len(names)):
            factor = math.prod(w.get(p, (1, 1))[v] for p, v in zip(names, values))
            nonzero += factor != 0
        seen.add("factor 0" if nonzero < 2 ** len(names) else None)
        seen.add("dead" if len(branches) < nonzero else None)
        seen.add("four branches" if len(branches) == 4 else None)
        for n in range(1, 4):
            want = weighted_count(s, n, weights)
            assert wfomc(s, n, weights) == want, (s.render(), weights, n)
        checked += 1
    assert {"factor 0", "dead", "four branches"} <= seen


# compiles that share a memo


def compiled_parts(comp):
    """Everything a compile yields but its time."""
    return comp.branches, comp.constraints, comp.cvars, comp.base_weights


# each later sentence reuses a clause of an earlier one, beside predicates
# S0, Z0, D0 or A0 of its own, the names that fresh ones would take
# without a quote
CLASHING = [
    "(V x E y B(x,y) | U(x)) & (E x V y ~B(x,y))",
    "(V x E y B(x,y) | U(x)) & (V x S0(x) | ~U(x))",
    "(V x E y B(x,y) | U(x)) & (E x V y ~B(x,y)) & (V x V y S0(x) | B(y,x))",
    "(E x E y B(x,y) | U(x)) & (E x U(x))",
    "(E x E y B(x,y) | U(x)) & (E x Z0(x) | U(x))",
    "(E x E y B(x,y) | U(x)) & (V x Z0 | ~U(x))",
    "(E=1 x B(x,x)) & (V x U(x) | B(x,x))",
    "(E=1 x B(x,x)) & (V x D0(x) | U(x))",
    "(E=1 x V y B(x,y)) & (V x U(x) | ~B(x,x))",
    "(E=1 x V y B(x,y)) & (V x A0(x) | ~B(x,x))",
    "(E=1 x V y B(x,y)) & (V x E y A0(x) | S0(y))",
]


def test_compiles_that_share_a_memo_take_fresh_names_past_their_own():
    shared = {}
    for text in CLASHING * 2:
        s = parse_sentence(text)
        comp = compile_sentence(s, memo=shared)
        assert compiled_parts(comp) == compiled_parts(compile_sentence(s)), text
        for n in range(1, 4):
            assert comp.values(n)[-1] == count_models(s, n), (text, n)
        # every fresh name ends in a quote, and none is a name s uses
        own = {p.name for p in s.predicates}
        for k, c in enumerate(sorted(s.clauses, key=logic.Clause.render)):
            fresh = {lit.pred.name for out in shared[c, k][0] for lit in out.body}
            fresh -= c.names
            assert all(name.endswith("'") for name in fresh), text
            assert fresh.isdisjoint(own), text
    # a name that holds a quote could meet a fresh one, so it is refused
    exists = pair(FORALL, EXISTS, [Literal(Predicate("B", 2), ("x", "y"))])
    quoted = single(FORALL, [Literal(Predicate("S0'", 1), ("x",))])
    with pytest.raises(ValueError, match="holds a quote"):
        compile_sentence(Sentence(frozenset([exists, quoted])))


def test_a_memo_serves_two_weight_maps():
    s = parse_sentence("(V x E y B(x,y) | U(x)) & (E x U(x) | P)")
    shared = {}
    seen = []
    for weights in ({"U": (2, 1), "P": (1, 3)}, {"U": (1, 2), "B": (3, 1)}) * 2:
        comp = compile_sentence(s, weights, memo=shared)
        assert compiled_parts(comp) == compiled_parts(compile_sentence(s, weights))
        seen.append(comp.values(4))
        assert seen[-1] == [weighted_count(s, n, weights) for n in range(1, 5)]
    assert seen[0] != seen[1] and seen[:2] == seen[2:]


# fingerprints


def fingerprint(s):
    return spectrum_fingerprint(compile_sentence(s))


def test_fingerprint_equal_for_sign_flip():
    a = parse_sentence("(V x E y B(x,y))")
    b = parse_sentence("(V x E y ~B(x,y))")
    assert fingerprint(a) == fingerprint(b)
    assert compute_spectrum(a, 6).terms == compute_spectrum(b, 6).terms


def test_fingerprint_equal_for_predicate_rename():
    a = parse_sentence("(E x U(x)) & (V x E y B(x,y) | ~U(x))")
    b = parse_sentence("(E x W(x)) & (V x E y R(x,y) | ~W(x))")
    assert fingerprint(a) == fingerprint(b)


def test_fingerprint_distinguishes_different_spectra():
    a = parse_sentence("(V x E y B(x,y))")
    b = parse_sentence("(E x V y B(x,y))")
    assert fingerprint(a) != fingerprint(b)


def test_fingerprint_determinism():
    s = parse_sentence("(V x E=1 y B(x,y)) & (V x ~B(x,x))")
    assert fingerprint(s) == fingerprint(s)


# canonical cell-graph labelling against a brute-force reference


def _reference_serial(g):
    """The minimiser _graph_serial replaced: refine colors once, then try
    every ordering inside each color block."""
    q = len(g.cells)
    if q == 0:
        return "empty"
    wser = [repr(_poly_serial(v)) for v in g.weights]
    eser = [[repr(_poly_serial(v)) for v in row] for row in g.r]

    colors = [f"{wser[i]};{eser[i][i]}" for i in range(q)]
    while True:
        refined = []
        for i in range(q):
            around = sorted((eser[i][j], colors[j]) for j in range(q) if j != i)
            refined.append(f"{colors[i]}|{around}")
        if len(set(refined)) == len(set(colors)):
            colors = refined
            break
        colors = refined

    blocks = {}
    for i, col in enumerate(colors):
        blocks.setdefault(col, []).append(i)
    ordered_blocks = [blocks[c] for c in sorted(blocks)]

    best = None
    for parts in itertools.product(
        *(itertools.permutations(b) for b in ordered_blocks)
    ):
        order = [i for part in parts for i in part]
        rows = [wser[i] for i in order]
        for a in range(q):
            for b in range(a, q):
                rows.append(eser[order[a]][order[b]])
        serial = "#".join(rows)
        if best is None or serial < best:
            best = serial
    return f"{q}:{best}"


def _graph(weights, r):
    return CellGraph(list(range(len(weights))), list(weights), r)


def _relabel(g, rng):
    q = len(g.weights)
    p = rng.sample(range(q), q)
    return _graph([g.weights[i] for i in p], [[g.r[i][j] for j in p] for i in p])


def _regular_layer(rng, q, r, value):
    """Give the value to the edges of a random union of cycles (length 3
    or more) or of a random perfect matching, on pairs still at 1; False
    when the draw overlaps an earlier layer."""
    p = rng.sample(range(q), q)
    if rng.random() < 0.5 and q % 2 == 0:
        pairs = [(p[i], p[i + 1]) for i in range(0, q, 2)]
    else:
        cuts = [0]
        while cuts[-1] < q:
            cuts.append(cuts[-1] + rng.randint(3, q))
        if cuts[-1] != q:
            return False
        pairs = []
        for lo, hi in zip(cuts, cuts[1:]):
            cycle = p[lo:hi]
            pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    if any(r[a][b] != 1 for a, b in pairs):
        return False
    for a, b in pairs:
        r[a][b] = r[b][a] = value
    return True


def _random_cell_graph(rng):
    q = rng.randint(1, 7)
    if q >= 3 and rng.random() < 0.4:
        # equal weights and every vertex meeting the same multiset of edge
        # values: color refinement cannot split such a graph, so only the
        # search orders its vertices, and it need not be vertex-transitive
        # (a 3-cycle beside a 4-cycle)
        w = [rng.randint(-1, 2)] * q
        r = [[0 if i == j else 1 for j in range(q)] for i in range(q)]
        # a 3-cycle leaves no room for a second layer
        for value in range(2, 3 if q == 3 else 2 + rng.randint(1, 2)):
            while not _regular_layer(rng, q, r, value):
                pass
        return _graph(w, r)
    w = [rng.randint(0, 2) for _ in range(q)]
    r = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            r[i][j] = r[j][i] = rng.randint(0, 2)
    for _ in range(rng.randint(0, 3) if q > 1 else 0):
        # plant a twin of a: equal weight and equal edges off the pair; half
        # the time a repeated row, with the pair edge equal to the loops too
        a, b = rng.sample(range(q), 2)
        w[b] = w[a]
        for k in range(q):
            if k not in (a, b):
                r[b][k] = r[k][b] = r[a][k]
        r[b][b] = r[a][a]
        if rng.random() < 0.5:
            r[a][b] = r[b][a] = r[a][a]
    if q >= 3 and rng.random() < 0.4:
        # plant a twin class of three or more cells with unequal weights:
        # each takes the first one's row, so every edge inside the class
        # equals its loop
        twins = rng.sample(range(q), rng.randint(3, q))
        a = twins[0]
        for b in twins:
            for k in range(q):
                value = r[a][a] if k in twins else r[a][k]
                r[b][k] = r[k][b] = value
            w[b] = rng.randint(0, 2)
        if len({w[b] for b in twins}) == 1:
            w[twins[1]] = (w[a] + 1) % 3
    return _graph(w, r)


def _has_unequal_twin_class(g):
    classes = {}
    for i, row in enumerate(g.r):
        classes.setdefault(tuple(row), []).append(g.weights[i])
    return any(len(ws) >= 3 and len(set(ws)) > 1 for ws in classes.values())


def test_canonical_form_matches_brute_force_reference():
    rng = random.Random(20261018)
    bases = [_random_cell_graph(rng) for _ in range(300)]
    assert sum(map(_has_unequal_twin_class, bases)) > 50
    pairs = set()
    for g in bases:
        key = _graph_serial(g)
        for h in [g] + [_relabel(g, rng) for _ in range(3)]:
            assert _graph_serial(h) == key
            pairs.add((key, _reference_serial(h)))
    # equal keys exactly when the reference keys are equal
    assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs})
    # independently drawn graphs coincide too, so both directions are tested
    assert len(pairs) < len(bases)


def test_twin_class_weights_belong_to_their_class():
    # twin classes A = {0, 1} and B = {2, 3}, equal loops, told apart only
    # by their edges to cell 4; every cell has the same loop, so each graph
    # below has the same cells, as (weight, loop), as g
    def graph(weights):
        r = [
            [1, 1, 1, 1, 2],
            [1, 1, 1, 1, 2],
            [1, 1, 1, 1, 0],
            [1, 1, 1, 1, 0],
            [2, 2, 0, 0, 1],
        ]
        return _graph(weights, r)

    g = graph([1, 2, 1, 2, 0])
    moved = graph([1, 1, 2, 2, 0])  # cells 1 and 2 swap: a 2 moves to B
    permuted = graph([2, 1, 2, 1, 0])  # the weights swapped inside A and B
    for h, same in ((moved, False), (permuted, True)):
        assert (_reference_serial(h) == _reference_serial(g)) is same
        assert (_graph_serial(h) == _graph_serial(g)) is same


def test_canonical_form_separates_graphs_refinement_cannot():
    # a 6-cycle and two triangles: both 2-regular with equal weights, so
    # color refinement leaves each as a single class
    def two_regular(edges):
        r = [[1] * 6 for _ in range(6)]
        for i in range(6):
            r[i][i] = 3
        for a, b in edges:
            r[a][b] = r[b][a] = 2
        return _graph([1] * 6, r)

    cycle = two_regular([(i, (i + 1) % 6) for i in range(6)])
    triangles = two_regular([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    for g in (cycle, triangles):
        adj = [[(j, g.r[i][j] * 6) for j in range(6) if j != i] for i in range(6)]
        assert logic._refine([0] * 6, adj) == [0] * 6
    assert _graph_serial(cycle) != _graph_serial(triangles)
    rng = random.Random(3)
    for g in (cycle, triangles):
        assert _graph_serial(_relabel(g, rng)) == _graph_serial(g)


# the cell order against the reference greedy


def _random_symbolic_graph(rng):
    """Weights and edges drawn from a few polynomials in X and Y and small
    ints, so that rows repeat and columns collapse."""
    q = rng.randint(1, 6)
    pool = [0, 1, 2, -1]
    for _ in range(3):
        mono = (rng.randint(0, 2), rng.randint(0, 1))
        pool.append(make({(0, 0): rng.randint(-1, 2), mono: rng.randint(1, 2)}))
    w = [rng.choice(pool) for _ in range(q)]
    r = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            r[i][j] = r[j][i] = rng.choice(pool)
    return _graph(w, r)


def _order_cases(rng):
    """100 integer and 100 symbolic cell graphs, the latter with caps."""
    cases = [(_random_cell_graph(rng), None) for _ in range(100)]
    cases += [
        (_random_symbolic_graph(rng), (rng.randint(1, 3), rng.randint(0, 2)))
        for _ in range(100)
    ]
    return cases


def test_cell_order_gives_the_values_of_the_reference_order(monkeypatch):
    rng = random.Random(14)
    packed = 0
    for g, caps in _order_cases(rng):
        length = rng.randint(1, 7)
        merged = engine._merge_cells(g)
        got = evaluate_cell_sum(merged, length, caps)
        with monkeypatch.context() as m:
            m.setattr(engine, "_greedy_cell_order", reference_cell_order)
            want = evaluate_cell_sum(merged, length, caps)
        # Poly equality is by value, whatever order its terms were made in
        assert got == want
        packed += any(isinstance(v, Poly) for v in got)
    assert packed > 20


# the slot width of a packed pass


def _norm_width(q, length, caps, weights, r):
    """The slot width of the norm bound alone, for any number of
    variables: bit_length(q^N * Wm^N * Rm^max(C(N, 2), N)) + 1."""
    wm = max([1, *map(norm1, weights)])
    rm = max([1, *(norm1(v) for row in r for v in row)])
    k = max(length * (length - 1) // 2, length)
    return (q**length * wm**length * rm**k).bit_length() + 1


def _recorded_widths(monkeypatch):
    """Record (width, norm width) of every packed pass from now on."""
    widths = []
    width = engine._slot_width

    def recording(*args):
        widths.append((width(*args), _norm_width(*args)))
        return widths[-1][0]

    monkeypatch.setattr(engine, "_slot_width", recording)
    return widths


def test_one_constrained_variable_narrows_the_slots(monkeypatch):
    widths = _recorded_widths(monkeypatch)
    s = parse_sentence("(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))")
    compiled = compile_sentence(s)
    assert compiled.cvars == ("B",)
    assert compiled.values(10) == [math.factorial(n) for n in range(1, 11)]
    assert widths
    # the (10,)-cap passes need slots for x^0 .. x^10 only
    assert all(new < norm for new, norm in widths), widths


def _one_variable(v):
    """v with Y set to X: a polynomial in X alone."""
    if not isinstance(v, Poly):
        return v
    terms = {}
    for (a, b), c in v.terms.items():
        terms[(a + b,)] = terms.get((a + b,), 0) + c
    return make(terms)


def test_the_kept_coefficient_width_gives_the_norm_width_sums(monkeypatch):
    rng = random.Random(14)
    cases = _order_cases(rng)
    widths = _recorded_widths(monkeypatch)
    for g, _ in cases:
        g = _graph(
            [_one_variable(v) for v in g.weights],
            [[_one_variable(v) for v in row] for row in g.r],
        )
        merged = engine._merge_cells(g)
        length, caps = rng.randint(1, 7), (rng.randint(0, 4),)
        got = evaluate_cell_sum(merged, length, caps)
        with monkeypatch.context() as m:
            m.setattr(engine, "_slot_width", _norm_width)
            want = evaluate_cell_sum(merged, length, caps)
        assert got == want
    assert len(widths) == len(cases)
    assert sum(new < norm for new, norm in widths) > 50


def _pow_majorant(cap, n, k, weights, r):
    """engine._kept_majorant with each base raised alone by the builtin
    three-argument pow, modulo the power of two that truncates at the cap."""
    bases = []
    for values in (weights, [v for row in r for v in row]):
        m = [1] + [0] * cap
        for v in values:
            for (e,), c in (v.terms if isinstance(v, Poly) else {(0,): v}).items():
                if e <= cap:
                    m[e] = max(m[e], abs(c))
        bases.append(m)
    width = (sum(bases[0]) ** n * sum(bases[1]) ** k).bit_length()
    mod = 1 << width * (cap + 1)
    x = 1
    for m, e in zip(bases, (n, k)):
        x = x * pow(sum(c << width * i for i, c in enumerate(m)), e, mod) % mod
    return max(x >> width * i & (1 << width) - 1 for i in range(cap + 1))


def test_the_kept_majorant_matches_the_builtin_power():
    rng = random.Random(42)

    def value():
        if rng.random() < 0.4:
            return rng.randint(-3, 3)
        return make({(e,): rng.choice([-2, -1, 1, 3]) for e in rng.sample(range(5), 2)})

    for _ in range(500):
        cap, q = rng.randint(0, 6), rng.randint(1, 3)
        n, k = rng.randint(0, 12), rng.randint(0, 12)
        weights = [value() for _ in range(q)]
        r = [[value() for _ in range(q)] for _ in range(q)]
        want = _pow_majorant(cap, n, k, weights, r)
        assert engine._kept_majorant(cap, n, k, weights, r) == want, (cap, n, k)


# grouped cell-DP steps against the per-state reference


def _typed_graph(rng, weights, edges, q):
    """Weights and symmetric edge rows of q cells, each of one of a few
    types, with the edge between cells of two types (a loop too) taken
    from one table but for a few drawn alone: cells of one type have equal
    rows on most cells, so they often merge, and the states of a step that
    differ only in the current cell's accumulator often share the later
    ones."""
    types = [rng.randrange(rng.randint(1, 3)) for _ in range(q)]
    table = {}
    r = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            pair = tuple(sorted((types[i], types[j])))
            if rng.random() < 0.2:
                r[i][j] = r[j][i] = rng.choice(edges)
            else:
                r[i][j] = r[j][i] = table.setdefault(pair, rng.choice(edges))
    return [rng.choice(weights) for _ in range(q)], r


def _grouped_cases(rng):
    """200 merged graphs with the length and caps of a pass: plain ints,
    symbolic weights and edges, and symbolic weights with plain-int edges
    (packed, with edges multiplied natively)."""
    ints = [-2, -1, 1, 2]
    polys = [
        make({(0, 0): rng.randint(-1, 1), (a, b): rng.choice([-1, 1, 2])})
        for a, b in ((1, 0), (0, 1), (1, 1), (2, 0))
    ]
    cases = []
    for k in range(200):
        q = rng.randint(1, 6)
        if k % 3 == 0:
            (w, r), caps = _typed_graph(rng, ints, [0, 1, 2, -1, 3], q), None
        elif k % 3 == 1:
            w, r = _typed_graph(rng, ints + polys, [0, 1, -1, 2] + polys, q)
            caps = (rng.randint(1, 3), rng.randint(0, 2))
        else:
            w, r = _typed_graph(rng, ints + polys, [0, 1, -1, 2], q)
            caps = (rng.randint(1, 3), rng.randint(0, 2))
        cases.append(((tuple(w), tuple(map(tuple, r))), rng.randint(1, 7), caps))
    return cases


def _steps_repeat_an_edge_value(merged, length):
    """Some edge value of the pass is in the rows of two of its steps, in
    the engine's cell order: the row of cell i from i on."""
    r = merged[1]
    order = engine._greedy_cell_order(r, len(r), length)
    seen: set = set()
    for t, i in enumerate(order):
        row = {r[i][j] for j in order[t:]}
        if row & seen:
            return True
        seen |= row
    return False


def test_grouped_cell_sum_gives_the_sums_of_the_per_state_loop():
    rng = random.Random(28)
    shared = cancelled = empty = 0

    def visit(used, bucket, g, last, mul, emul):
        # groups of states with equal later accumulators, and the group
        # sums of coeff * a0^c that cancel while a member's term does not;
        # and used counts that hold no state
        nonlocal shared, cancelled, empty
        empty += not bucket
        groups: dict = {}
        for accs, coeff in bucket.items():
            groups.setdefault(accs[1:], []).append((accs[0], coeff))
        for members in groups.values():
            shared += len(members) > 1
            runs = [coeff for _, coeff in members]
            for c in range(len(g)):
                if c:
                    runs = [emul(run, a0) for run, (a0, _) in zip(runs, members)]
                cancelled += any(runs) and not sum(runs)

    packed = hollow = repeats = 0
    for merged, length, caps in _grouped_cases(rng):
        before = empty
        want = reference_cell_sum(merged, length, caps, visit)
        assert evaluate_cell_sum(merged, length, caps) == want
        packed += any(isinstance(v, Poly) for v in want)
        hollow += empty > before
        repeats += _steps_repeat_an_edge_value(merged, length)
    assert shared > 300 and cancelled > 20 and packed > 50, (shared, cancelled, packed)
    assert hollow > 20 and repeats > 100, (hollow, repeats)


def test_a_passed_deadline_stops_a_grouped_pass():
    # five cells with distinct edges: far more than 256 states
    r = [[2, 3, 5, 7, 11], [3, 2, 13, 17, 19], [5, 13, 3, 23, 29],
         [7, 17, 23, 2, 31], [11, 19, 29, 31, 3]]
    merged = ((1, 1, 1, 1, 1), tuple(map(tuple, r)))
    states = 0

    def visit(used, bucket, *rest):
        nonlocal states
        states += len(bucket)

    want = reference_cell_sum(merged, 10, None, visit)
    assert states > 256
    assert evaluate_cell_sum(merged, 10) == want
    with pytest.raises(BudgetExceeded):
        evaluate_cell_sum(merged, 10, deadline=0.0)


# modules collapsed before the cell DP


def _substituted(rng, q, edge):
    """Symmetric edge rows of q cells with modules planted: with some
    chance a random graph, else a graph on m cells substituted for one
    cell of a graph on q - m + 1 cells, each built the same way, so that
    modules nest.  edge() draws an edge value."""
    if q <= 2 or rng.random() < 0.25:
        r = [[0] * q for _ in range(q)]
        for i in range(q):
            for j in range(i, q):
                r[i][j] = r[j][i] = edge()
        return r
    m = rng.randint(2, q - 1)
    inner, outer = _substituted(rng, m, edge), _substituted(rng, q - m + 1, edge)
    v = rng.randrange(q - m + 1)
    # each cell as (graph, its cell there): the outer cells but v, then the inner ones
    cells = [(outer, a) for a in range(q - m + 1) if a != v] + [(inner, b) for b in range(m)]
    return [
        [ga[a][b] if ga is gb else outer[v if ga is inner else a][v if gb is inner else b]
         for gb, b in cells]
        for ga, a in cells
    ]


def _collapse_cases(rng):
    """300 merged graphs with the length and caps of a pass: planted
    modules or prime-looking graphs (edges from many values), over plain
    ints with 0 edges and zero or negative weights, and over polynomials in
    one and in two variables, packed with one and with two caps."""
    x, y = (make({(0,): 1, (1,): 1}), make({(2,): -1})), (make({(1, 0): 1}), make({(0, 0): 1, (1, 1): -2}))
    cases = []
    for k in range(300):
        q = rng.randint(1, 6)
        polys, caps = [(), x, y][k % 3], [None, (rng.randint(0, 4),), (rng.randint(0, 3), rng.randint(0, 2))][k % 3]
        pool = [0, 1, 2, -1, *polys] if k % 2 else list(range(-3, 12)) + list(polys)
        r = _substituted(rng, q, lambda: rng.choice(pool))
        w = [rng.choice([-2, -1, 0, 1, 3, *polys]) for _ in range(q)]
        cases.append(((tuple(w), tuple(map(tuple, r))), rng.randint(1, 12), caps))
    return cases


def test_collapsed_passes_give_the_sums_of_the_uncollapsed_reference():
    rng = random.Random(51)
    shrunk = whole = prime = packed = 0
    for merged, length, caps in _collapse_cases(rng):
        assert evaluate_cell_sum(merged, length, caps) == reference_cell_sum(merged, length, caps)
        q, left = len(merged[0]), quotient_size(merged)
        shrunk += left < q
        whole += q > 1 and left == 1
        prime += left == q > 3
        packed += caps is not None and left < q
    assert shrunk > 170 and whole > 150 and prime > 40 and packed > 100, (shrunk, whole, prime, packed)


def test_a_convolved_factor_keeps_its_counts_past_a_zero():
    # two cells with zero loops and weights 1 and -1 collapse into one
    # vertex with f = [1, 0, -4]: one element cancels, two do not
    merged = ((1, -1), ((0, 2), (2, 0)))
    want = reference_cell_sum(merged, 6)
    assert evaluate_cell_sum(merged, 6) == want
    # a step that stopped at f's first zero would read 0 at n = 2 too
    assert want == [0, -4, 0, 0, 0, 0]


def test_every_two_cell_graph_collapses_to_one_vertex():
    rng = random.Random(52)
    for _ in range(200):
        length = rng.randint(1, 12)
        w = tuple(rng.choice([-1, 1, 2, 3]) for _ in range(2))
        r = [[rng.choice([0, 1, 2, -1, 5]) for _ in range(2)] for _ in range(2)]
        r[1][0] = r[0][1]
        two = (w, tuple(map(tuple, r)))
        assert quotient_size(two) == 1
        assert evaluate_cell_sum(two, length) == reference_cell_sum(two, length)


def test_the_order_search_sees_the_quotient(monkeypatch):
    # a path of four cells with three distinct edge values has no module
    path = ((1, 1, 1, 1), ((1, 2, 1, 1), (2, 1, 3, 1), (1, 3, 1, 5), (1, 1, 5, 1)))
    assert quotient_size(path) == 4
    seen = []
    search = engine._greedy_cell_order

    def recording(r, q, length):
        seen.append(q)
        return search(r, q, length)

    monkeypatch.setattr(engine, "_greedy_cell_order", recording)
    evaluate_cell_sum(path, 6)
    assert seen == [4]
    # with more than two vertices left, the search orders the quotient
    rng = random.Random(53)
    searched = 0
    for merged, length, caps in _collapse_cases(rng):
        seen.clear()
        evaluate_cell_sum(merged, length, caps)
        left = quotient_size(merged)
        if caps is None:
            assert seen == ([left] if left > 2 else [])
        else:
            # packed edges that differ only above the caps are equal ints,
            # so they can collapse further
            assert all(v <= left for v in seen)
        searched += left < len(merged[0]) and left > 2
    assert searched > 10, searched


def test_a_passed_deadline_stops_a_collapsing_pass():
    # cell i meets every later cell through its own edge value, and its
    # loop differs from all of them: no twins, but the last two cells form
    # a module, then the last three, and so on down to one vertex, and
    # the program after the collapse has no step to check the deadline in
    q = 8
    r = [[100 + i if i == j else 2 + min(i, j) for j in range(q)] for i in range(q)]
    g = _graph([1] * q, r)
    merged = engine._merge_cells(g)
    assert len(merged[0]) == q and quotient_size(merged) == 1
    compiled = engine.CompiledSentence([(1, g)], [], (), {}, 0.0)
    memo: dict = {}
    with pytest.raises(BudgetExceeded):
        compiled.values(40, deadline=0.0, memo=memo)
    assert memo == {}
    assert compiled.values(6) == reference_cell_sum(merged, 6)


def test_spectra_of_collapsing_branches_match_the_oracle():
    texts = [
        MEMO_TEXT,
        "(V x E y B(x,y)) & (V x E y B(y,x))",
        "(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))",
        "(E x V y ~B(x,y)) & (V x E y B(x,y) | U(y))",
        "(V x E=1 y ~B(y,x)) & (V x V y B(x,y) | U(x))",
        "(V x V y B(x,y) | U(x) | ~B(y,y))",
    ]
    for text in texts:
        merged = [engine._merge_cells(g) for _, g in compile_sentence(parse_sentence(text)).branches]
        assert any(1 <= quotient_size(m) < len(m[0]) for m in merged), text
        assert spectrum(text, MAXN_ORACLE) == oracle_terms(text, MAXN_ORACLE), text


def test_merge_cells_merges_as_the_pairwise_reference():
    rng = random.Random(2028)
    # zero weights, and a polynomial beside its negation, so that the
    # weights of a group of equal rows often sum to zero
    p, minus_p = make({(1,): 2}), make({(1,): -2})
    edges = [0, 1, 2, -1, make({(0,): 1, (1,): 1}), make({(2,): -1})]
    dropped = cancelled = 0
    for _ in range(300):
        g = _graph(*_typed_graph(rng, [-1, 0, 1, p, minus_p], edges, rng.randint(1, 7)))
        merged = engine._merge_cells(g)
        assert merged == reference_merge_cells(g)
        live = [i for i in range(len(g.cells)) if g.weights[i]]
        dropped += len(live) < len(g.cells)
        rows = {tuple(g.r[i][k] for k in live) for i in live}
        cancelled += len(merged[0]) < len(rows)
    assert dropped > 100 and cancelled > 15, (dropped, cancelled)


def test_two_cells_need_no_order_search():
    # the engine skips the search for one or two cells, as its tie-break
    # keeps the given order there; the reverse order is no substitute, as
    # it visits other (state, count) pairs when one loop is zero
    rng = random.Random(2)
    for _ in range(300):
        q = rng.randint(0, 2)
        r = [[0] * q for _ in range(q)]
        for i in range(q):
            for j in range(i, q):
                r[i][j] = r[j][i] = rng.choice([0, 1, 2, -1, 3])
        assert engine._greedy_cell_order(r, q, rng.randint(1, 8)) == list(range(q))


def _accumulator_values_brute(entries, length):
    """The most values that prod_v v ** count_v takes over counts of one
    total up to length: the accumulator of a later cell at one used count,
    with each distinct entry of its column standing for the class of
    processed cells that have it."""
    return max(
        len({math.prod(ms) for ms in itertools.combinations_with_replacement(entries, used)})
        for used in range(length + 1)
    )


def test_accumulator_values_against_brute_force():
    rng = random.Random(33)
    for _ in range(300):
        length = rng.randint(1, 6)
        m = rng.randint(1, 4)
        start, step = rng.randint(0, 2), rng.randint(1, 2)
        spaced = [2 ** (start + step * i) for i in range(m)]
        powers = [2**e for e in rng.sample(range(6), m)]
        mixed = rng.sample(range(1, 8), m)
        for entries in (spaced, powers, mixed):
            brute = _accumulator_values_brute(entries, length)
            count = engine._accumulator_values(m, False, length)
            # u counts over m distinct values in a torsion-free group give
            # at least u * (m - 1) + 1 products
            assert count <= brute, (entries, length)
            # a 0 adds exactly one value, the accumulator of any count of it
            assert _accumulator_values_brute(entries + [0], length) == brute + 1
            assert engine._accumulator_values(m, True, length) == count + 1
        # exact for powers of one base with evenly spaced exponents
        assert engine._accumulator_values(m, False, length) == _accumulator_values_brute(
            spaced, length
        ), (spaced, length)
    # a constant column, 0 or not, leaves one value per used count
    assert engine._accumulator_values(1, False, 9) == engine._accumulator_values(0, True, 9) == 1


def test_optimal_cell_order_visits_the_fewest_pairs():
    # positive weights and nonnegative edges: no coefficient cancels, so
    # dp_iterations counts the pairs that the helper minimizes
    rng = random.Random(33)
    for _ in range(60):
        q = rng.randint(1, 5)
        r = [[0] * q for _ in range(q)]
        for i in range(q):
            for j in range(i, q):
                r[i][j] = r[j][i] = rng.choice([0, 1, 2, 3, 4])
        merged = (tuple(rng.randint(1, 2) for _ in range(q)), tuple(map(tuple, r)))
        length = rng.randint(1, 5)
        fewest = min(
            dp_iterations(merged, length, None, lambda r, q, n, order=order: list(order))
            for order in itertools.permutations(range(q))
        )
        assert dp_iterations(merged, length, None, optimal_cell_order) == fewest
        assert dp_iterations(merged, length) >= fewest
