"""Layered sentence search and the pruning techniques behind it."""

import dataclasses
import gc
import hashlib
import itertools
import random
from collections import Counter

import pytest

from combspec import engine, generator
from combspec.cli import main
from combspec.engine import compute_spectrum
from combspec.generator import (
    DROPPED,
    HIDDEN,
    GenLimits,
    GenState,
    classify,
    generate,
    refinements,
    has_subsumed_clause,
    has_trivial_constraint,
    initial_clauses,
    is_decomposable,
    is_refuted,
    is_tautological,
    reflexive_only_binary,
)
from combspec.logic import (
    EXISTS,
    FORALL,
    VARS,
    Clause,
    FragmentError,
    Literal,
    Predicate,
    Sentence,
    canonical_key,
    counting,
    pair,
    parse_sentence,
)
from combspec.oracle import count_models
from combspec.seqdb import SpectrumDB
from helpers import (
    PredicateTransform,
    apply_transform,
    check_against_the_sweep,
    design_redundant,
    grounded_refuted,
    kept_cumulative,
    random_sentence,
    random_transform,
    record_duplicate_checks,
    record_orbit_rows,
    refuting_first_classify,
    reference_has_subsumed_clause,
    reference_relax_counting,
    reference_substitutions,
    same_partition,
    sweep_key,
    unfiltered_extensions,
    unpruned_layers,
)


def parse(text):
    return parse_sentence(text)


@pytest.mark.parametrize(
    "field, value",
    [("max_literals", 0), ("max_clauses", 0), ("unary", -1), ("binary", -2)],
)
def test_limits_out_of_range_are_refused(fo2_limits, field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least"):
        dataclasses.replace(fo2_limits, **{field: value})


@pytest.mark.parametrize("value", [-1, 2, 3])
def test_counting_other_than_e1_is_refused(fo2_limits, value):
    # E=k for k > 1 is not supported, and a negative k meant nothing
    with pytest.raises(ValueError, match="max_count must be 0 or 1"):
        dataclasses.replace(fo2_limits, max_count=value)


def test_the_searches_leave_no_cyclic_garbage(fo2_limits, c2_limits):
    # everything a search builds is freed by reference counting, so the
    # cyclic collector finds nothing once the result is dropped
    gc.collect()
    gc.disable()
    try:
        for limits in (fo2_limits, c2_limits):
            result = generate(limits, 3)
            assert result.all_kept()
            del result
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_limits_may_leave_out_a_predicate_kind(fo2_limits):
    limits = dataclasses.replace(fo2_limits, unary=0)
    assert {p.arity for p in limits.predicates()} == {2}


def test_initial_clause_counts(fo2_limits, c2_limits):
    # 1 unary + 1 binary, prefixes without counting: 24 seeds; counting adds 12
    assert len(initial_clauses(fo2_limits)) == 24
    assert len(initial_clauses(c2_limits)) == 36


def test_initial_clauses_are_single_literals(fo2_limits):
    for c in initial_clauses(fo2_limits):
        assert len(c.body) == 1


# individual techniques


def test_tautology_positive():
    assert is_tautological(parse("(V x U(x) | ~U(x))"))
    assert is_tautological(parse("(V x V y B(x,y) | ~B(x,y))"))
    # one clause tautological is enough
    assert is_tautological(parse("(V x U(x) | ~U(x)) & (E x U(x))"))


def test_tautology_diagonal_witness():
    # y := x satisfies the body for every x, so the clause is valid
    assert is_tautological(parse("(V x E y B(x,y) | ~B(y,x))"))
    assert is_tautological(parse("(V x E y B(x,y) | ~B(x,y))"))
    # without the existential the diagonal argument does not apply
    assert not is_tautological(parse("(V x V y B(x,y) | ~B(y,x))"))
    assert not is_tautological(parse("(V x E y B(x,y) | ~U(x))"))


def test_decomposable_positive_and_negative():
    # clauses over disjoint predicates factor into independent spectra
    assert is_decomposable(parse("(E x U(x)) & (V x E y B(x,y))"))
    assert not is_decomposable(parse("(V x E y B(x,y))"))
    assert not is_decomposable(parse("(E x U(x)) & (V x E y B(x,y) | U(y))"))


def test_trivial_constraint():
    assert has_trivial_constraint(parse("(V x V y B(x,y))"))
    assert has_trivial_constraint(parse("(V x V y ~B(x,y))"))
    assert has_trivial_constraint(parse("(V x U(x))"))
    assert not has_trivial_constraint(parse("(V x V y B(x,y) | U(x))"))
    assert not has_trivial_constraint(parse("(V x E y B(x,y))"))


def test_reflexive_only_binary():
    assert reflexive_only_binary(parse("(V x B(x,x))"))
    assert reflexive_only_binary(parse("(E x B(x,x) | U(x))"))
    assert not reflexive_only_binary(parse("(V x E y B(x,y))"))
    assert not reflexive_only_binary(parse("(V x B(x,x)) & (V x E y B(x,y))"))


def test_subsumption_same_prefix():
    assert has_subsumed_clause(
        parse("(V x E y B(x,y)) & (V x E y B(x,y) | U(x))")
    )
    assert not has_subsumed_clause(
        parse("(V x E y B(x,y)) & (V x E y ~B(x,y) | U(x))")
    )


def test_subsumption_across_prefixes():
    # a V x E y clause implies its E x E y weakening
    assert has_subsumed_clause(
        parse("(V x E y B(x,y)) & (E x E y B(x,y) | U(x))")
    )
    # but not the other way around
    assert not has_subsumed_clause(
        parse("(E x E y B(x,y)) & (V x E y B(x,y) | U(x))")
    )


def test_subsumption_counting_relaxation():
    # E=1 y guarantees a witness, so the plain existential version is implied
    assert has_subsumed_clause(
        parse("(V x E=1 y B(x,y)) & (V x E y B(x,y) | U(x))")
    )
    assert has_subsumed_clause(parse("(V x E y B(x,y)) & (V x E=1 y B(x,y))"))
    # opposite polarity blocks the relaxation
    assert not has_subsumed_clause(
        parse("(V x E=1 y B(x,y)) & (V x E y ~B(x,y))")
    )


def test_the_quantifier_order_rule_allows_the_reference_substitutions():
    # c1 has one literal whose images under the substitutions are all
    # distinct, so c1 implies a clause holding one image exactly when that
    # substitution is allowed; the reference table reads c1 relaxed
    quants = [FORALL, EXISTS, counting(1)]
    prefixes = [(q,) for q in quants] + list(itertools.product(quants, repeat=2))
    unary, binary = Predicate("U", 1), Predicate("B", 2)
    allowed = Counter()
    for p1, p2 in itertools.product(prefixes, repeat=2):
        lit = Literal(unary, ("x",)) if len(p1) == 1 else Literal(binary, ("x", "y"))
        c1 = Clause(p1, frozenset([lit]))
        got = set()
        for theta in itertools.product(VARS[: len(p2)], repeat=len(p1)):
            image = lit.substitute(dict(zip(VARS, theta)))
            if generator._implies_clause(c1, Clause(p2, frozenset([image]))):
                got.add(theta)
        relaxed = reference_relax_counting(c1)
        want = {
            tuple(m[v] for v in VARS[: len(p1)])
            for m in reference_substitutions(relaxed, Clause(p2, frozenset([lit])))
        }
        assert got == want, (p1, p2)
        allowed[len(got)] += 1
    # from no substitution to all four, over the 144 pairs
    assert sum(allowed.values()) == 144
    assert allowed[0] and allowed[4]


def test_subsumption_matches_the_reference_on_three_clauses():
    # no search fixture reaches three clauses; about half of the
    # three-clause hits here need a counting clause to subsume
    limits = GenLimits(3, 3, 2, 2, 1)
    rng = random.Random(24)
    hits = counted = 0
    for _ in range(2000):
        s = random_sentence(rng, limits)
        verdict = has_subsumed_clause(s)
        assert verdict == reference_has_subsumed_clause(s), s.render()
        if verdict and len(s.clauses) == 3:
            hits += 1
            plain = [c for c in s.clauses if not c.is_counting]
            counted += len(plain) < 2 or not has_subsumed_clause(Sentence(frozenset(plain)))
    assert (hits, counted) == (166, 81)


def test_refuted_positive():
    assert is_refuted(parse("(E x V y B(x,y)) & (V x E y ~B(x,y))"))
    assert is_refuted(parse("(V x U(x)) & (E x ~U(x))"))


def test_refuted_without_a_unit_clause():
    # every ground clause has two literals, so unit propagation alone
    # finds no conflict; only branching refutes the set
    s = parse(
        "(V x U(x) | B(x,x)) & (V x U(x) | ~B(x,x))"
        " & (V x ~U(x) | B(x,x)) & (V x ~U(x) | ~B(x,x))"
    )
    assert is_refuted(s)
    for n in (1, 2, 3):
        assert count_models(s, n) == 0


def test_refuted_negative():
    assert not is_refuted(parse("(V x E y B(x,y)) & (V x E y ~B(x,y))"))
    assert not is_refuted(parse("(V x E y B(x,y))"))
    # satisfiable only with A false, so a refuter must try both branches
    s = parse("(V x A(x) | B(x,x)) & (V x ~A(x) | C(x)) & (V x ~A(x) | ~C(x))")
    assert not is_refuted(s)
    assert count_models(s, 2) > 0


def test_refutation_is_sound():
    # anything reported unsatisfiable must really have zero models
    limits = GenLimits(max_literals=3, max_clauses=2, unary=1, binary=1, max_count=1)
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        s = random_sentence(rng, limits)
        if is_refuted(s):
            hits += 1
            for n in (1, 2, 3):
                assert count_models(s, n) == 0, s.render()
    assert hits > 0


def test_unsatisfiable_collapse_does_not_refute():
    # no one-element interpretation satisfies it, but two elements do
    s = parse("(E x U(x)) & (E x ~U(x))")
    assert not is_refuted(s)
    assert not grounded_refuted(s)
    assert count_models(s, 1) == 0 and count_models(s, 2) > 0


def test_refuter_agrees_with_the_grounded_decision_on_random_sentences(monkeypatch):
    limits = GenLimits(max_literals=2, max_clauses=3, unary=2, binary=2, max_count=1)
    rng = random.Random(15)
    sentences = [random_sentence(rng, limits) for _ in range(300)]
    grounded = []
    ground = generator._refute_ground
    monkeypatch.setattr(
        generator, "_refute_ground", lambda s: grounded.append(s) or ground(s)
    )
    verdicts = [is_refuted(s) for s in sentences]
    assert verdicts == [grounded_refuted(s) for s in sentences]
    # most are settled on the collapse; of those grounded, some are refuted
    # and some are not
    refuted = sum(verdicts)
    assert 0 < refuted < len(grounded) < len(sentences) // 10


def test_refuter_agrees_with_the_grounded_decision_with_nullary_predicates():
    cases = {
        "(V x P | U(x)) & (V x ~P | U(x)) & (E x ~U(x))": True,
        "(V x P | U(x)) & (E x ~P)": False,
        "(E x P) & (E x ~P)": True,
        "(V x V y P | B(x,y)) & (E x E y ~P | ~B(x,y))": False,
        "(V x ~P | B(x,x)) & (E x ~B(x,x)) & (V x P | U(x)) & (E x ~U(x))": True,
        "(V x ~P | B(x,x)) & (E x ~B(x,x)) & (V x P | U(x)) & (V x E y ~U(y))": True,
        "(V x Q | ~P) & (V x P | U(x)) & (E x ~U(x)) & (E x ~Q)": True,
        "(V x P | U(x)) & (E x ~U(x)) & (E x V y ~P | B(x,y))": False,
    }
    for text, refuted in cases.items():
        s = parse(text)
        assert is_refuted(s) == grounded_refuted(s) == refuted, text


def test_the_refuter_refutes_no_pair_of_forall_exists_clauses():
    # in a search of at most two clauses, two forall-exists clauses are
    # grounded only when their collapse is unsatisfiable: one body holds
    # B0 alone, positive, and the other ~B0 alone, each with an atom over
    # x and y as every search clause has.  None of these is refuted
    binary = generator._literal_options([Predicate("B0", 2)], 2)

    def bodies(negated):
        lits = [lit for lit in binary if lit.negated == negated]
        for r in range(1, len(lits) + 1):
            for body in itertools.combinations(lits, r):
                if any(set(lit.args) == set(VARS) for lit in body):
                    yield frozenset(body)

    prefixes = [(FORALL, EXISTS), (FORALL, counting(1))]
    sentences = [
        Sentence(frozenset([Clause(p, pos), Clause(q, neg)]))
        for p, q in itertools.product(prefixes, repeat=2)
        for pos, neg in itertools.product(bodies(False), bodies(True))
    ]
    assert len(sentences) == 576
    assert not any(is_refuted(s) for s in sentences)


def test_the_refuter_is_kept_by_every_map_of_the_key_group():
    # each forall-exists clause gets witnesses for the base elements
    # alone, never for another one's witnesses, so the verdict does not
    # depend on the clauses' render order, which a literal map moves.
    # Neither of this pair has a model, and the ground abstraction of
    # neither is unsatisfiable
    a = parse("(V x E y U0(y)) & (V x E y ~U0(x))")
    b = parse("(V x E y ~U0(y)) & (V x E y U0(x))")
    assert not is_refuted(a) and not is_refuted(b)
    limits = GenLimits(5, 3, 1, 1)
    group, exact = generator._key_group(limits)
    assert exact and len(group) == 8
    options = generator._literal_options(limits.predicates(), 2)
    rng = random.Random(53)
    grounded = refuted = 0
    for _ in range(400):
        clauses = []
        for _ in range(2):
            body = rng.sample(options, rng.randint(1, 2))
            clauses.append(pair(FORALL, EXISTS, body))
        if rng.random() < 0.5:
            clauses += sorted(random_sentence(rng, limits).clauses, key=Clause.render)
        s = Sentence(frozenset(clauses[:3]))
        verdicts = {
            is_refuted(Sentence(frozenset(
                Clause(c.prefix, frozenset(m.get(lit, lit) for lit in c.body))
                for c in s.clauses
            )))
            for m in group
        }
        assert len(verdicts) == 1, s.render()
        grounded += not generator._satisfiable([c.collapse for c in s.clauses])
        refuted += verdicts == {True}
    assert 0 < refuted < grounded


def _ground_digest(sentences) -> str:
    """sha256 of each sentence's text beside its refuter ground list, in
    text order; each ground clause is sorted, so that the digest does not
    depend on the string hash seed."""
    lines = sorted(
        f"{s.render()} {[sorted(g) for g in generator._refute_ground(s)]}"
        for s in set(sentences)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_refuter_grounds_the_pinned_clause_sets_at_fo2_l5(fo2_l5):
    # grounded_refuted and reference_is_refuted ground through
    # _refute_ground too, so only a pin catches a ground set that moves
    # and keeps every verdict; these are the calls whose collapse is
    # unsatisfiable
    grounded = [
        s
        for s, _ in fo2_l5.refuted
        if not generator._satisfiable([c.collapse for c in s.clauses])
    ]
    assert len(grounded) == 345
    assert _ground_digest(grounded) == (
        "0a57092d05c0ec3ebd92f3436d68f8d0ad10541528259cf01c0b50346d85d3a3"
    )


def test_refuter_grounds_the_pinned_clause_sets_at_c2_l3(c2_limits, monkeypatch):
    grounded = []
    ground = generator._refute_ground
    monkeypatch.setattr(
        generator, "_refute_ground", lambda s: grounded.append(s) or ground(s)
    )
    generate(c2_limits, 3)
    monkeypatch.undo()
    assert len(grounded) == 175
    assert _ground_digest(grounded) == (
        "bd16b8cf3df8fa8d173f427c8edd9cdae80911a59f8c9c333e8862848e0adfd8"
    )


def test_every_refuted_c2_candidate_has_no_model(c2_limits, monkeypatch):
    refuted = []

    def recording(s, state):
        verdict = classify(s, state)
        if verdict == "refuted":
            refuted.append(s)
        return verdict

    monkeypatch.setattr(generator, "classify", recording)
    generate(c2_limits, 3)
    assert len(refuted) == 53
    for s in refuted:
        for n in (1, 2, 3):
            assert count_models(s, n) == 0, s.render()


def test_design_redundant_covers_hiding_techniques():
    assert design_redundant(parse("(V x V y B(x,y))"))  # trivial
    assert design_redundant(parse("(V x B(x,x))"))  # reflexive
    assert design_redundant(parse("(V x U(x) | ~U(x))"))  # tautology
    assert not design_redundant(parse("(V x E y B(x,y))"))


# classify pipeline


def test_classify_verdicts():
    state = GenState()
    assert classify(parse("(V x E y B0(x,y))"), state) == "new"
    assert classify(parse("(V x E y ~B0(x,y))"), state) == "duplicate"
    assert classify(parse("(V x U0(x) | ~U0(x))"), state) == "tautology"
    assert (
        classify(parse("(V x U0(x)) & (E x ~U0(x))"), state) == "refuted"
    )
    assert classify(parse("(V x V y B0(x,y))"), state) == "trivial"
    assert classify(parse("(V x B0(x,x))"), state) == "reflexive"


def test_classify_spectrum_duplicate():
    state = GenState()
    a = parse("(E x E y B0(x,y))")
    b = parse("(E x E y B0(x,y) | B0(y,x))")
    assert classify(a, state) == "new"
    # structurally distinct, but the or-of-transposes changes nothing
    assert classify(b, state) == "spectrum_duplicate"
    assert compute_spectrum(a, 5).terms == compute_spectrum(b, 5).terms


def test_classify_negation_flip_is_duplicate():
    state = GenState()
    assert classify(parse("(E x U0(x))"), state) == "new"
    assert classify(parse("(E x ~U0(x))"), state) == "duplicate"


def test_classify_registers_the_key_of_a_large_vocabulary():
    # 4 unary and 3 binary predicates: a group of 147456 transforms
    s = parse(
        "(V x U0(x) | U1(x) | U2(x) | U3(x) | B0(x,x))"
        " & (V x V y B1(x,y) | B2(x,y) | U0(x))"
    )
    state = GenState()
    assert classify(s, state) == "reflexive"
    assert state.seen_canonical == {canonical_key(s)}
    t = PredicateTransform(
        rename={"U0": "U3", "U3": "U0", "B1": "B2", "B2": "B0", "B0": "B1"},
        flip_sign=frozenset({"U1", "B1"}),
        flip_args=frozenset({"B2"}),
    )
    assert classify(apply_transform(s, t), state) == "duplicate"


def test_classify_labels_a_cell_graph_with_many_equal_cells():
    # the second sentence's cell graph has classes of equal cells too large
    # for a brute-force labelling; its spectrum is the first one's
    state = GenState()
    a = parse("(E x V y B0(x,x) | B0(x,y) | U0(x)) & (E x V y B0(x,x) | ~B0(x,y))")
    b = parse("(E x V y B0(x,x) | B0(x,y) | U0(x)) & (E x V y B0(x,x) | ~B0(y,x))")
    assert classify(a, state) == "new"
    assert classify(b, state) == "spectrum_duplicate"
    assert compute_spectrum(a, 6).terms == compute_spectrum(b, 6).terms


def key_state(limits: GenLimits) -> GenState:
    """A GenState with the key group generate gives the pool."""
    group, exact = generator._key_group(limits)
    return GenState(group=group, exact=exact)


@pytest.mark.parametrize(
    "limits, checked, labelled",
    [
        # one predicate of each arity: every candidate, none of them a
        # tautology, reaches the check and is keyed by its least orbit
        # column
        (GenLimits(5, 2, 1, 1, 1), 1706, 0),
        # two of each: keyed by an earlier candidate's column, or labelled
        (GenLimits(3, 2, 2, 2), 3574, 1131),
    ],
    ids=["c2", "wide"],
)
def test_canonical_key_partition_matches_the_sweep(
    limits, checked, labelled, monkeypatch
):
    # every key of the L1-L3 search splits the candidates as the
    # exhaustive transform sweep does; test_l5.py checks the fo2 L1-L5
    # search
    checks = record_duplicate_checks(monkeypatch)
    generate(limits, 3)
    reached = [v != "tautology" for _, v, _, _ in checks]
    assert sum(reached) == checked
    assert sum(key is not None for _, _, key, _ in checks) == checked
    assert sum(labels for *_, labels in checks) == labelled
    assert check_against_the_sweep(checks)


@pytest.mark.parametrize("max_count", [0, 1])
def test_generator_images_keep_the_canonical_key(max_count):
    # 2 unary and 2 binary predicates: 4 flips, 2 transpositions and 2
    # exchanges, each its own inverse, then each clause's x-y swap
    limits = GenLimits(3, 2, 2, 2, max_count)
    maps = generator._generators(limits)
    transforms = [
        PredicateTransform(flip_sign=frozenset({p})) for p in ("U0", "U1", "B0", "B1")
    ]
    transforms += [PredicateTransform(flip_args=frozenset({p})) for p in ("B0", "B1")]
    transforms += [
        PredicateTransform(rename={"U0": "U1", "U1": "U0"}),
        PredicateTransform(rename={"B0": "B1", "B1": "B0"}),
    ]
    assert len(maps) == len(transforms)
    assert all(m[m[lit]] == lit for m in maps for lit in m)
    rng = random.Random(20 + max_count)
    prefixes = Counter()
    for _ in range(150):
        s = random_sentence(rng, limits)
        key = canonical_key(s)
        images = [
            frozenset(
                Clause(c.prefix, frozenset(m.get(lit, lit) for lit in c.body))
                for c in s.clauses
            )
            for m in maps
        ]
        assert images == [apply_transform(s, t).clauses for t in transforms]
        for c in s.clauses:
            kind = (
                "counting" if c.is_counting
                else "one variable" if c.nvars == 1
                else "mixed" if c.prefix[0] != c.prefix[1]
                else "swappable"
            )
            prefixes[kind] += 1
            # only a repeated non-counting quantifier may swap x and y
            assert c.swappable == (kind == "swappable"), c.render()
            swapped = Clause(c.prefix, c.images["y", "x"])
            if c.swappable and swapped not in s.clauses:
                images.append((s.clauses - {c}) | {swapped})
        for image in images:
            assert canonical_key(Sentence(image)) == key, (s.render(), image)
    assert all(prefixes[kind] for kind in ("one variable", "mixed", "swappable"))
    assert bool(prefixes["counting"]) == bool(max_count)


@pytest.mark.parametrize(
    "limits",
    [
        GenLimits(3, 2, 1, 1),
        GenLimits(3, 2, 1, 1, 1),
        GenLimits(3, 2, 0, 1),
        GenLimits(3, 2, 2, 2),
        GenLimits(3, 2, 0, 2),
    ],
    ids=["fo2", "c2", "binary only", "wide", "two binary"],
)
def test_orbit_keys_split_sentences_as_the_sweep(limits):
    # one predicate of each arity: the group holds every product of the
    # flips and the transposition; more: the identity and the generators,
    # and the keys are labellings or an earlier sentence's
    generators = generator._generators(limits)
    state = key_state(limits)
    if state.exact:
        assert len(state.group) == 2 ** len(generators) == 2 ** (limits.unary + 2)
    else:
        assert state.group == [{}] + generators
    rng = random.Random(30 + limits.unary + limits.max_count)
    sentences = []
    for _ in range(80):
        s = random_sentence(rng, limits)
        sentences += [s] + [random_transform(s, rng) for _ in range(3)]
    keys = [generator._orbit_key(s, state) for s in sentences]
    assert same_partition(keys, [sweep_key(s) for s in sentences])
    assert 1 < len(set(keys)) < len(keys)
    counted = any(c.is_counting for s in sentences for c in s.clauses)
    assert counted == bool(limits.max_count)


def test_a_swap_onto_another_clause_proves_nothing():
    # swapping x and y in one clause gives the other, so both count as one
    # swap class; the pair's registered column still keys neither clause
    # alone: a different sentence, with another key
    limits = GenLimits(3, 2, 1, 1)
    state = GenState(group=[{}] + generator._generators(limits))
    s = parse("(V x V y B0(x,y)) & (V x V y B0(y,x))")
    merged = [Sentence(frozenset({c})) for c in s.clauses]
    assert all(canonical_key(m) != canonical_key(s) for m in merged)
    assert generator._orbit_key(s, state) == canonical_key(s)
    keys = [generator._orbit_key(m, state) for m in merged]
    assert keys == [canonical_key(m) for m in merged]


def test_orbit_key_tells_a_swapped_pair_from_either_clause():
    # the two clauses are each other's x-y swap: the pair is one orbit,
    # and each clause alone another, whether the group is exact or not
    texts = [
        "(V x V y B0(x,y) | U0(x)) & (V x V y B0(y,x) | U0(y))",
        "(V x V y ~B0(y,x) | ~U0(x)) & (V x V y ~B0(x,y) | ~U0(y))",
        "(V x V y B0(x,y) | U0(x))",
        "(V x V y B0(y,x) | U0(y))",
        "(V x V y B0(x,y) | U0(x)) & (V x V y B0(x,y) | U0(y))",
    ]
    sentences = [parse(text) for text in texts]
    for limits in (GenLimits(3, 2, 1, 1), GenLimits(3, 2, 2, 2)):
        state = key_state(limits)
        keys = [generator._orbit_key(s, state) for s in sentences]
        assert same_partition(keys, [sweep_key(s) for s in sentences])
        assert keys[0] == keys[1] != keys[2] == keys[3] != keys[4] != keys[0]


@pytest.mark.parametrize(
    "limits, layers",
    [(GenLimits(5, 2, 1, 1), 4), (GenLimits(5, 2, 1, 1, 1), 3), (GenLimits(3, 2, 2, 2), 3)],
    ids=["fo2", "c2", "wide"],
)
def test_orbit_rows_match_the_interning_reference(limits, layers, monkeypatch):
    # numbered image bodies give every row that interned image clauses do
    rows = record_orbit_rows(monkeypatch)
    generate(limits, layers)
    assert len(rows) > 1000
    assert all(row == ref for row, ref in rows)


def test_orbit_rows_of_a_bare_state_match_the_interning_reference(monkeypatch):
    # the identity alone, with swappable clauses among those rowed
    rows = record_orbit_rows(monkeypatch)
    state = GenState()
    rng = random.Random(51)
    for limits in (GenLimits(3, 2, 1, 1), GenLimits(3, 2, 2, 2, 1)):
        for _ in range(60):
            generator._orbit_key(random_sentence(rng, limits), state)
    assert any(c.swappable for c in state.rows) and len(rows) > 100
    assert all(row == ref for row, ref in rows)


def test_verdict_partition():
    assert set(DROPPED) & set(HIDDEN) == set()
    assert "new" not in DROPPED and "new" not in HIDDEN


# layered generation


def test_layer1_kept_fo2(fo2_limits):
    out = generate(fo2_limits, 1)
    got = {s.render() for s in out.kept[0]}
    assert got == {
        "(E x E y B0(x,y))",
        "(E x U0(x))",
        "(E x V y B0(x,y))",
        "(V x E y B0(x,y))",
    }


def test_layer1_kept_c2(c2_limits):
    out = generate(c2_limits, 1)
    got = {s.render() for s in out.kept[0]}
    assert got == {
        "(E x E y B0(x,y))",
        "(E x U0(x))",
        "(E x V y B0(x,y))",
        "(V x E y B0(x,y))",
        "(E=1 x U0(x))",
        "(E=1 x V y B0(x,y))",
        "(V x E=1 y B0(x,y))",
    }


def test_cumulative_kept_two_layers(fo2_limits, c2_limits):
    assert kept_cumulative(generate(fo2_limits, 2)) == [4, 40]
    assert kept_cumulative(generate(c2_limits, 2)) == [7, 80]


# per-layer verdict counts of the search, to be kept by any change to a
# canonical form or a filter.  A change to the order of the dropping tests
# moves only the dropped tallies (tautology, refuted, decomposable,
# duplicate), as test_keying_first_moves_only_the_dropped_tallies checks
# for the order that keys duplicates before the refuter
FO2_VERDICTS = [
    {"duplicate": 16, "new": 4, "reflexive": 2, "trivial": 2},
    {
        "decomposable": 12,
        "duplicate": 113,
        "new": 36,
        "reflexive": 4,
        "refuted": 13,
        "spectrum_duplicate": 3,
        "subsumed": 8,
        "trivial": 7,
    },
    {
        "decomposable": 30,
        "duplicate": 458,
        "new": 179,
        "reflexive": 12,
        "refuted": 22,
        "spectrum_duplicate": 77,
        "subsumed": 72,
        "trivial": 50,
    },
]
C2_VERDICTS = [
    {"duplicate": 24, "new": 7, "reflexive": 3, "trivial": 2},
    {
        "decomposable": 27,
        "duplicate": 232,
        "new": 73,
        "reflexive": 8,
        "refuted": 24,
        "spectrum_duplicate": 3,
        "subsumed": 16,
        "trivial": 11,
    },
    {
        "decomposable": 45,
        "duplicate": 609,
        "new": 302,
        "reflexive": 20,
        "refuted": 29,
        "spectrum_duplicate": 107,
        "subsumed": 114,
        "trivial": 50,
    },
]


def test_verdict_counts_per_layer_are_pinned(fo2_limits, c2_limits):
    assert generate(fo2_limits, 3).counts == [Counter(c) for c in FO2_VERDICTS]
    assert generate(c2_limits, 3).counts == [Counter(c) for c in C2_VERDICTS]


# layers 4 and 5 of the fo2 search, read off the one L5 run
FO2_L4_L5_VERDICTS = [
    {
        "decomposable": 42,
        "duplicate": 1846,
        "new": 676,
        "reflexive": 10,
        "refuted": 19,
        "spectrum_duplicate": 654,
        "subsumed": 285,
        "trivial": 160,
    },
    {
        "decomposable": 26,
        "duplicate": 6483,
        "new": 1641,
        "refuted": 8,
        "spectrum_duplicate": 2676,
        "subsumed": 810,
        "trivial": 271,
    },
]


def test_fo2_l5_verdict_counts_are_pinned(fo2_l5):
    want = FO2_VERDICTS + FO2_L4_L5_VERDICTS
    assert fo2_l5.result.counts == [Counter(c) for c in want]


@pytest.mark.parametrize(
    "limits, layers, tautologies",
    [
        (GenLimits(5, 2, 1, 1), 4, [0, 14, 208, 1706]),
        (GenLimits(5, 2, 1, 1, 1), 3, [0, 14, 289]),
        # two predicates of each arity: the duplicate check labels
        (GenLimits(3, 2, 2, 2), 3, [0, 14, 266]),
    ],
    ids=["fo2", "c2", "wide"],
)
def test_keying_first_moves_only_the_dropped_tallies(
    limits, layers, tautologies, monkeypatch
):
    # against the search that builds every valid extension and classifies
    # it a tautology, and refutes and decomposes before the duplicate
    # check: the same candidates but the tautologies, in the same order,
    # each with the same verdict, but that a refuted or decomposable one
    # may now be a duplicate of an earlier one; so the same sentences are
    # kept and hidden
    def recording(classify, verdicts):
        def run(s, state):
            verdicts.append((s, classify(s, state)))
            return verdicts[-1][1]

        return run

    new_verdicts, old_verdicts = [], []
    monkeypatch.setattr(generator, "classify", recording(classify, new_verdicts))
    new = generate(limits, layers)
    monkeypatch.setattr(generator, "_extensions", unfiltered_extensions)
    monkeypatch.setattr(
        generator, "classify", recording(refuting_first_classify, old_verdicts)
    )
    old = generate(limits, layers)
    assert [c["tautology"] for c in old.counts] == tautologies
    old_verdicts = [(s, v) for s, v in old_verdicts if v != "tautology"]
    assert [s for s, _ in new_verdicts] == [s for s, _ in old_verdicts]
    moved = Counter(
        (o, n) for (_, n), (_, o) in zip(new_verdicts, old_verdicts) if n != o
    )
    assert moved.keys() <= {("refuted", "duplicate"), ("decomposable", "duplicate")}
    assert new.kept == old.kept
    assert new.hidden == old.hidden
    dropped = ("refuted", "decomposable", "duplicate")
    for n, o in zip(new.counts, old.counts):
        assert all(n[v] == o[v] for v in ("new",) + HIDDEN)
        assert n["tautology"] == 0
        assert sum(n[v] for v in dropped) == sum(o[v] for v in dropped)
        assert sum(n.values()) == sum(o.values()) - o["tautology"]


@pytest.mark.parametrize(
    "limits, search, parents, tautologies",
    [
        # the parents of L1-L4, and the L1-L5 lists of the one L5 run
        ("fo2_limits", "fo2_l5", 4, [14, 208, 1706, 9111]),
        ("c2_limits", "c2_l4", 3, [14, 289, 2300]),
    ],
)
def test_refinements_refuse_the_tautologies_alone(
    limits, search, parents, tautologies, request, monkeypatch
):
    # a parent's children are its refinements with every valid clause
    # kept, in the same order, less those that hold one; each of those is
    # a tautology, and none is kept or hidden
    limits = request.getfixturevalue(limits)
    result = request.getfixturevalue(search)
    # fo2_l5 holds its GenResult beside the run's output
    result = getattr(result, "result", result)
    retained = {s for layer in result.kept for s in layer}
    retained |= {s for layer in result.hidden for s, _ in layer}
    pool = initial_clauses(limits)
    state, unfiltered = GenState(), GenState()
    found = []
    for kept, hidden in list(zip(result.kept, result.hidden))[:parents]:
        valid = set()
        for s in kept + [t for t, _ in hidden]:
            children = refinements(s, limits, pool, state)
            with monkeypatch.context() as mp:
                mp.setattr(generator, "_extensions", unfiltered_extensions)
                every = refinements(s, limits, pool, unfiltered)
            holding = [t for t in every if any(c.valid for c in t)]
            assert children == [t for t in every if t not in holding]
            valid.update(frozenset(t) for t in holding)
        found.append(len(valid))
        assert not any(c.valid for c in state.clauses.values())
        for clauses in valid:
            s = Sentence(clauses)
            assert classify(s, GenState()) == "tautology"
            assert s not in retained
    assert found == tautologies


def test_generate_is_deterministic(fo2_limits):
    a = generate(fo2_limits, 2)
    b = generate(fo2_limits, 2)
    assert [s.render() for layer in a.kept for s in layer] == [
        s.render() for layer in b.kept for s in layer
    ]
    assert a.counts == b.counts


def test_generate_counts_cover_all_candidates(fo2_limits):
    out = generate(fo2_limits, 2)
    for layer, counter in enumerate(out.counts):
        assert counter["new"] == len(out.kept[layer])
        hidden_total = sum(counter[v] for v in HIDDEN)
        assert hidden_total == len(out.hidden[layer])


def test_hidden_sentences_are_still_refined(fo2_limits):
    # a hidden sentence's refinement can be kept, so layer 2 must see them
    out = generate(fo2_limits, 2)
    hidden1 = {s.render() for s, _ in out.hidden[0]}
    assert hidden1  # layer 1 hides at least the trivial/reflexive seeds
    kept2 = {s.render() for s in out.kept[1]}
    refined_from_hidden = [
        t
        for t in kept2
        if any(t.startswith(h[:-1]) or h[1:-1] in t for h in hidden1)
    ]
    assert refined_from_hidden


@pytest.mark.parametrize("limits, layers", [("fo2_limits", 4), ("c2_limits", 3)])
def test_the_frontier_holds_interned_clauses_in_text_order(
    limits, layers, request, monkeypatch
):
    # each child is a tuple of the search's own clause objects in text
    # order, and sorting the candidates of every layer together by their
    # clause texts sorts them as their rendered sentences do
    children, states = {}, []
    refinements = generator.refinements

    def recorded(s, limits, pool, state):
        children[s] = refinements(s, limits, pool, state)
        states.append(state)
        return children[s]

    monkeypatch.setattr(generator, "refinements", recorded)
    result = generate(request.getfixturevalue(limits), layers)
    state = states[0]
    assert all(st is state for st in states)
    for i in range(layers - 1):
        parents = result.kept[i] + [s for s, _ in result.hidden[i]]
        layer = {t for s in parents for t in children[s]}
        assert len(layer) == sum(result.counts[i + 1].values())
    # a child whose extended clause is already in the parent has fewer
    # literals, so it can repeat a candidate of an earlier layer
    candidates = {t for out in children.values() for t in out}
    for t in candidates:
        assert all(state.clauses[c.prefix, c.body] is c for c in t)
        assert [c.text for c in t] == sorted({c.text for c in t})
    by_texts = sorted(candidates, key=generator._texts)
    assert by_texts == sorted(candidates, key=lambda t: Sentence(frozenset(t)).render())


def test_generate_budget_truncates(fo2_limits):
    out = generate(fo2_limits, 3, budget_secs=0)
    assert out.truncated


@pytest.mark.parametrize("secs", [float("nan"), -1.0])
@pytest.mark.parametrize("budget", ["budget_secs", "spectrum_secs"])
def test_a_budget_below_zero_or_nan_is_refused(fo2_limits, budget, secs, monkeypatch):
    # NaN would disable the budget and a negative one run out at once;
    # either is refused before the first candidate
    def no_candidate(*args):
        raise AssertionError("a candidate was classified")

    monkeypatch.setattr(generator, "classify", no_candidate)
    with pytest.raises(ValueError, match="budget must be at least 0"):
        generate(fo2_limits, 2, length=3, **{budget: secs})


def test_a_spectrum_budget_without_a_length_is_refused(fo2_limits, monkeypatch):
    # without a length no spectrum is computed, so the budget would be
    # silently unused
    def no_candidate(*args):
        raise AssertionError("a candidate was classified")

    monkeypatch.setattr(generator, "classify", no_candidate)
    with pytest.raises(ValueError, match="spectrum_secs needs a length"):
        generate(fo2_limits, 1, spectrum_secs=1)


@pytest.mark.parametrize("layers, length", [(0, None), (-2, None), (3, 0), (3, -1)])
def test_layers_or_length_below_one_is_refused(fo2_limits, layers, length, monkeypatch):
    # refused before the first candidate, as a bad budget is, not answered
    # with an empty search or an error at the first kept sentence
    def no_candidate(*args):
        raise AssertionError("a candidate was classified")

    monkeypatch.setattr(generator, "classify", no_candidate)
    name = "layers" if layers < 1 else "length"
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        generate(fo2_limits, layers, length=length)


# sha256 of the file `combspec generate --profile fo2-paper --layers 2 --db`
# writes
FO2_L2_DB_SHA256 = "cfaf383512adad8a62ff5e9d6d0040e38c157df09fb3f3d72e64e890b5b6f049"


def test_store_writes_what_generate_db_writes(fo2_limits, tmp_path, capsys):
    path = tmp_path / "p.jsonl"
    result = generate(fo2_limits, 2, length=10)
    # the unique count per layer after products are settled
    assert result.store(SpectrumDB(path), "fo2-paper") == [4, 35]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FO2_L2_DB_SHA256
    q = tmp_path / "q.jsonl"
    assert main(["generate", "--profile", "fo2-paper", "--layers", "2", "--db", str(q)]) == 0
    assert q.read_bytes() == path.read_bytes()


def test_store_needs_spectra(fo2_limits, tmp_path):
    path = tmp_path / "p.jsonl"
    with pytest.raises(ValueError, match="length=N"):
        generate(fo2_limits, 2).store(SpectrumDB(path))
    assert not path.exists()


@pytest.mark.parametrize(
    "limits, layers, kept, unique",
    [
        ("fo2_limits", 4, [4, 39, 256, 1330], [4, 30, 144, 482]),
        ("c2_limits", 3, [7, 76, 409], [7, 61, 225]),
    ],
)
def test_kept_spectrum_duplicates_add_no_unique_spectrum(
    limits, layers, kept, unique, tmp_path, request, monkeypatch
):
    # the same-cell-graph check hides only sentences whose spectrum is
    # stored already: keeping them instead, and refining them as kept
    # sentences, leaves each layer's unique tally as the plain search
    # stores it (test_cli pins those DB bytes)
    real = generator.classify

    def keeping(s, state):
        verdict = real(s, state)
        if verdict != "spectrum_duplicate":
            return verdict
        state.spectra[s] = engine.compute_spectrum(s, state.length, memo=state.passes)
        return "new"

    monkeypatch.setattr(generator, "classify", keeping)
    result = generate(request.getfixturevalue(limits), layers, length=10)
    assert [len(layer) for layer in result.kept] == kept
    assert result.store(SpectrumDB(tmp_path / "db.jsonl")) == unique


@pytest.mark.parametrize(
    "limits, layers, kept, unique, candidates",
    [
        ("fo2_limits", 4, [4, 36, 179, 676], [4, 30, 144, 482], 3979),
        ("c2_limits", 3, [7, 73, 302], [7, 61, 225], 1482),
    ],
)
def test_refined_refuted_and_decomposable_parents_add_no_sentence(
    limits, layers, kept, unique, candidates, tmp_path, request, monkeypatch
):
    # refining the dropped refuted and decomposable sentences as parents,
    # as the hidden ones are (the first of each key; a later one is a
    # duplicate), reaches more candidates in the last layer
    # (the plain searches reach 3 692 and 1 276) but keeps the plain
    # searches' sentences and stores their unique tallies
    monkeypatch.setattr(generator, "HIDDEN", generator.HIDDEN + ("refuted", "decomposable"))
    result = generate(request.getfixturevalue(limits), layers, length=10)
    assert [len(layer) for layer in result.kept] == kept
    assert sum(result.counts[-1].values()) == candidates
    assert result.store(SpectrumDB(tmp_path / "db.jsonl")) == unique


def test_structural_mode_keeps_more(fo2_limits):
    full = generate(fo2_limits, 1)
    raw = unpruned_layers(fo2_limits, 1)
    assert len(raw[0]) > len(full.kept[0])


def test_random_sentence_is_well_formed(c2_limits):
    rng = random.Random(99)
    for _ in range(200):
        s = random_sentence(rng, c2_limits)
        # parses back to itself and stays inside the declared limits
        assert parse_sentence(s.render()) == s
        assert len(s.clauses) <= c2_limits.max_clauses
        for c in s.clauses:
            assert len(c.body) <= c2_limits.max_literals
