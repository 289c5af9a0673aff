"""Whole-corpus checks over the fo2-paper L1-L4 and c2-paper L1-L3 searches:
the verdict sequence against the reference that labels every duplicate
check (also over two predicates of each arity), the bitmask cell graphs
against the reference build, the refuter against the grounded decision,
the filters that read cached clause facts against
references that compute them afresh, candidates that hold only their
clause set, the spectra of dropped and hidden
candidates against the kept ones, canonical labellings against the reference
refinement, the size of the cell graphs' twin quotients that the engine
labels, the module quotients that the cell DP runs on, the engine
against the brute-force oracle, compiles that share
clause records against compiles one by one, spectra that share
cell-DP passes against spectra computed one by one, the spectra that the
search computes as it keeps each sentence against fresh ones, the cell
order against the reference greedy, and fingerprints that share
cell-graph labellings against fingerprints computed one by one."""

import dataclasses
from typing import NamedTuple

import pytest

from combspec import engine, generator, logic
from combspec.engine import compile_sentence, compute_spectrum, spectrum_fingerprint
from combspec.generator import GenLimits, GenResult, GenState, generate
from combspec.logic import parse_sentence
from combspec.oracle import count_models
from helpers import (
    all_retained,
    dp_iterations,
    dp_keyed_updates,
    grounded_refuted,
    optimal_cell_order,
    quotient_size,
    recorded_passes,
    reference_branches,
    reference_cell_order,
    reference_cell_sum,
    reference_classify,
    reference_has_subsumed_clause,
    reference_is_decomposable,
    reference_is_refuted,
    reference_is_tautological,
    reference_merge_cells,
    reference_refine,
)

FO2_LIMITS = GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=0)
C2_LIMITS = GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=1)
# two predicates of each arity, so that the duplicate check's group is
# not exact and it labels
WIDE_LIMITS = GenLimits(max_literals=3, max_clauses=2, unary=2, binary=2)


class Recorded(NamedTuple):
    result: GenResult
    # (args, branches) of every build_cell_graph call, without its memo
    graphs: list
    # (sentence, verdict) of every is_refuted call
    refuted: list
    # (caller module, invariants, adj) of every canonical_labelling call
    labellings: list
    # (sentence, verdict) of every candidate the search classified
    classified: list


def _recorded_generate(limits, layers, length=None):
    """The search, computing spectra of length when given one, with the
    arguments and result of every cell graph it builds, every refuter
    verdict, every labelling input and every candidate's verdict."""
    graphs, refuted, labellings, classified = [], [], [], []
    build, refute, label, classify = (
        engine.build_cell_graph,
        generator.is_refuted,
        logic.canonical_labelling,
        generator.classify,
    )

    def building(*args, memo=None):
        branches = build(*args, memo=memo)
        graphs.append((args, branches))
        return branches

    def refuting(s):
        verdict = refute(s)
        refuted.append((s, verdict))
        return verdict

    def labelling(caller):
        def run(invariants, adj):
            labellings.append((caller, invariants, adj))
            return label(invariants, adj)

        return run

    def classifying(s, state):
        verdict = classify(s, state)
        classified.append((s, verdict))
        return verdict

    engine.build_cell_graph = building
    generator.is_refuted = refuting
    generator.classify = classifying
    logic.canonical_labelling = labelling("logic")
    engine.canonical_labelling = labelling("engine")
    try:
        result = generate(limits, layers, length=length)
    finally:
        engine.build_cell_graph = build
        generator.is_refuted = refute
        generator.classify = classify
        logic.canonical_labelling = engine.canonical_labelling = label
    return Recorded(result, graphs, refuted, labellings, classified)


# the fo2 and c2 searches compute their spectra, as generate --db runs them
@pytest.fixture(scope="module")
def fo2():
    return _recorded_generate(FO2_LIMITS, 4, length=10)


@pytest.fixture(scope="module")
def c2():
    return _recorded_generate(C2_LIMITS, 3, length=10)


@pytest.fixture(scope="module")
def wide():
    return _recorded_generate(WIDE_LIMITS, 3)


@pytest.mark.parametrize("search", ["fo2", "c2", "wide"])
def test_verdicts_match_the_reference_that_labels_every_candidate(search, request):
    # the search's candidates, in order, through the reference classify
    classified = request.getfixturevalue(search).classified
    assert len(classified) == {"fo2": 6740, "c2": 2009, "wide": 3854}[search]
    state = GenState()
    want = [(s, reference_classify(s, state)) for s, _ in classified]
    assert classified == want


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_bitmask_cell_graphs_match_the_reference(search, request):
    calls = request.getfixturevalue(search).graphs
    assert calls
    for args, branches in calls:
        assert branches == reference_branches(*args), args


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_refuter_agrees_with_the_grounded_decision(search, request):
    verdicts = request.getfixturevalue(search).refuted
    # (calls, refuted) over the whole search
    expected = {"fo2": (4812, 96), "c2": (1706, 100)}[search]
    assert (len(verdicts), sum(v for _, v in verdicts)) == expected
    bad = [s.render() for s, v in verdicts if v != grounded_refuted(s)]
    assert not bad


FILTERS = [
    (generator.is_tautological, reference_is_tautological),
    (generator.is_refuted, reference_is_refuted),
    (generator.is_decomposable, reference_is_decomposable),
    (generator.has_subsumed_clause, reference_has_subsumed_clause),
]


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_cached_clause_facts_give_the_reference_verdicts(search, request):
    classified = request.getfixturevalue(search).classified
    assert len(classified) == {"fo2": 6740, "c2": 2009}[search]
    bad = []
    for s, _ in classified:
        # a parsed copy builds its own clauses, with no fact cached on them
        # beside the hash each clause stores on construction
        fresh = parse_sentence(s.render())
        assert fresh == s
        assert all(vars(c).keys() == {"prefix", "body", "_hash"} for c in fresh.clauses)
        for new, reference in FILTERS:
            if new(s) != reference(fresh):
                bad.append((s.render(), new.__name__))
    assert not bad


def test_fo2_candidates_share_one_object_per_distinct_clause(fo2):
    clauses = [c for s, _ in fo2.classified for c in s.clauses]
    assert len(clauses) == 12889
    assert len({id(c) for c in clauses}) == len(set(clauses)) == 835


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_candidates_share_one_object_per_distinct_literal(search, request):
    classified = request.getfixturevalue(search).classified
    literals = [lit for s, _ in classified for c in s.clauses for lit in c.body]
    assert len({id(lit) for lit in literals}) == len(set(literals)) == 12


def test_fo2_candidates_carry_only_their_clause_set(fo2):
    sentences = [s for s, _ in fo2.classified]
    assert not any(hasattr(s, "__dict__") for s in sentences)
    shared = {}
    for s in sentences:
        assert s.predicates == {lit.pred for c in s.clauses for lit in c.body}
        assert s.predicates == frozenset().union(*(c.predicates for c in s.clauses))
        for c in s.clauses:
            assert shared.setdefault(c, c.predicates) is c.predicates
    assert len(shared) == 835


def test_dropped_and_hidden_fo2_spectra_are_covered_by_kept_ones(fo2):
    # each is a kept spectrum, the zero spectrum or a termwise product
    # of two kept spectra
    memo: dict = {}

    def spectrum(s):
        return tuple(compute_spectrum(s, 8, memo=memo).terms)

    kept = {spectrum(s) for s in fo2.result.all_kept()}

    def product(t):
        return any(
            all(a) and all(x % y == 0 for x, y in zip(t, a))
            and tuple(x // y for x, y in zip(t, a)) in kept
            for a in kept
        )

    uncovered = []
    for s, verdict in fo2.classified:
        if verdict == "new":
            continue
        t = spectrum(s)
        if t not in kept and any(t) and not product(t):
            uncovered.append((s.render(), verdict, t[:3]))
    # the cover of these needs a second unary predicate, which fo2-paper
    # lacks (see generator.reflexive_only_binary)
    assert sorted(uncovered) == [
        ("(E x B0(x,x) | U0(x)) & (E x B0(x,x) | ~U0(x))", "reflexive", (2, 56, 3968)),
        ("(E x B0(x,x) | U0(x)) & (E x U0(x) | ~B0(x,x))", "reflexive", (2, 56, 3968)),
        ("(E x B0(x,x) | U0(x)) & (E x ~B0(x,x) | ~U0(x))", "reflexive", (2, 56, 3968)),
    ]


@pytest.mark.parametrize("search", ["fo2", "c2", "wide"])
def test_labellings_match_the_reference_refinement(search, request, monkeypatch):
    inputs = request.getfixturevalue(search).labellings
    # cell-graph serials, and sentence keys only where the duplicate check
    # labels: fo2 and c2 key each candidate by its orbit
    callers = {"fo2": {"engine"}, "c2": {"engine"}, "wide": {"logic", "engine"}}
    assert {caller for caller, _, _ in inputs} == callers[search]
    got = [logic.canonical_labelling(inv, adj) for _, inv, adj in inputs]
    monkeypatch.setattr(logic, "_refine", reference_refine)
    want = [logic.canonical_labelling(inv, adj) for _, inv, adj in inputs]
    assert got == want


@pytest.mark.parametrize(
    "search, labellings, vertices, entries",
    [("fo2", 663, 2534, 9482), ("c2", 288, 859, 2276)],
)
def test_cell_graphs_are_labelled_on_their_twin_classes(
    search, labellings, vertices, entries, request
):
    # one vertex per twin class: a vertex per cell would take 4 382
    # vertices and 30 664 adjacency entries on fo2, and 1 504 and 8 448 on c2
    inputs = [
        (inv, adj)
        for caller, inv, adj in request.getfixturevalue(search).labellings
        if caller == "engine"
    ]
    assert len(inputs) == labellings
    assert sum(len(inv) for inv, _ in inputs) == vertices
    assert sum(len(row) for _, adj in inputs for row in adj) == entries


def test_retained_fo2_sentences_match_the_oracle(fo2):
    result = fo2.result
    sentences = all_retained(result)
    assert len(sentences) == 2241
    bad = [
        s.render()
        for s in sentences
        if compute_spectrum(s, 4).terms != [count_models(s, n) for n in range(1, 5)]
    ]
    assert not bad


def test_kept_c2_sentences_match_the_oracle(c2):
    result = c2.result
    sentences = result.all_kept()
    assert len(sentences) == 382
    bad = [
        s.render()
        for s in sentences
        if compute_spectrum(s, 3).terms != [count_models(s, n) for n in range(1, 4)]
    ]
    assert not bad


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_shared_compiles_give_the_compiled_forms_of_separate_ones(search, request):
    # every sentence the search compiled, in its order
    classified = request.getfixturevalue(search).classified
    compiled = [s for s, v in classified if v in ("new", "spectrum_duplicate")]
    assert len(compiled) == {"fo2": 1629, "c2": 492}[search]
    shared: dict = {}
    for s in compiled:
        got = compile_sentence(s, memo=shared)
        want = compile_sentence(s)
        assert got.branches == want.branches, s.render()
        assert (got.constraints, got.cvars, got.base_weights) == (
            want.constraints,
            want.cvars,
            want.base_weights,
        )
    # the search's compiles read far fewer clause records than clauses, and
    # total far fewer sets of oriented clauses than cell pairs
    layouts = [v for v in shared.values() if isinstance(v, engine._Layout)]
    records = sum(len(layout.records) for layout in layouts)
    assert records == {"fo2": 743, "c2": 544}[search]
    edges = sum(len(layout.edges) for layout in layouts)
    assert edges == {"fo2": 2876, "c2": 1578}[search]


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_shared_passes_give_the_spectra_of_separate_ones(search, request):
    result = request.getfixturevalue(search).result
    # the first three layers; c2 sentences carry symbolic caps, so a key
    # without caps or length would mix passes up
    kept = [s for layer in result.kept[:3] for s in layer]
    memo: dict = {}
    for length in (6, 10):
        for s in kept:
            alone = compute_spectrum(s, length)
            shared = compute_spectrum(s, length, memo=memo)
            assert shared == alone, s.render()
    # fewer passes ran than the two lengths' branches asked for
    branches = sum(len(engine.compile_sentence(s).branches) for s in kept)
    assert len(memo) < 2 * branches


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_cell_order_gives_the_values_of_the_reference_order(search, request, monkeypatch):
    result = request.getfixturevalue(search).result
    passes = recorded_passes([s for layer in result.kept[:3] for s in layer], 10)
    assert passes
    monkeypatch.setattr(engine, "_greedy_cell_order", reference_cell_order)
    for merged, length, caps, sums in passes:
        # Poly equality is by value, whatever order its terms were made in
        assert engine.evaluate_cell_sum(merged, length, caps) == sums


def test_cell_order_cuts_the_fo2_dp_iterations(fo2):
    result = fo2.result
    passes = recorded_passes(result.all_kept(), 10)
    assert len(passes) == 408
    new = sum(dp_iterations(m, n, caps) for m, n, caps, _ in passes)
    ref = sum(dp_iterations(m, n, caps, reference_cell_order) for m, n, caps, _ in passes)
    assert new <= 0.7 * ref, (new, ref)


def test_cell_order_visits_near_the_fewest_fo2_dp_iterations(fo2):
    # the optimum searches cell subsets, so it stays on passes of at most 8
    # cells; the search's old measure, each column's distinct values,
    # visited 1.31 times the optimum's pairs here
    passes = [
        (m, n, caps)
        for m, n, caps, _ in recorded_passes(fo2.result.all_kept(), 10)
        if 4 <= len(m[0]) <= 8
    ]
    assert len(passes) == 208
    ours = sum(dp_iterations(m, n, caps) for m, n, caps in passes)
    best = sum(dp_iterations(m, n, caps, optimal_cell_order) for m, n, caps in passes)
    assert ours <= 1.10 * best, (ours, best)


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_grouped_cell_sum_gives_the_sums_of_the_per_state_loop(search, request):
    passes = recorded_passes(request.getfixturevalue(search).result.all_kept(), 10)
    assert len(passes) == {"fo2": 408, "c2": 231}[search]
    for merged, length, caps, sums in passes:
        assert reference_cell_sum(merged, length, caps) == sums


def test_grouped_steps_cut_the_fo2_keyed_writes(fo2):
    # the per-state loop writes a key for nearly every (state, count) pair
    passes = recorded_passes(fo2.result.all_kept(), 10)
    iterations = sum(dp_iterations(m, n, caps) for m, n, caps, _ in passes)
    writes = sum(dp_keyed_updates(m, n, caps) for m, n, caps, _ in passes)
    assert iterations == 272_753
    assert writes <= 0.6 * iterations, writes


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_modules_collapse_the_recorded_passes(search, request):
    # counted on the merged graphs that the pass memo keys, on which the
    # dp_iterations pins above count the program as it is
    passes = recorded_passes(request.getfixturevalue(search).result.all_kept(), 10)
    sizes = [(len(m[0]), quotient_size(m)) for m, *_ in passes]
    assert len(sizes) == {"fo2": 408, "c2": 231}[search]
    assert sum(left < q for q, left in sizes) == {"fo2": 242, "c2": 150}[search]
    assert sum(left == 1 for _, left in sizes) == {"fo2": 215, "c2": 159}[search]
    assert sum(left == 1 < q for q, left in sizes) == {"fo2": 203, "c2": 140}[search]


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_merge_cells_merges_as_the_pairwise_reference(search, request):
    calls = request.getfixturevalue(search).graphs
    graphs = [g for *_, branches in calls for _, g in branches]
    assert len(graphs) == {"fo2": 3771, "c2": 935}[search]
    for g in graphs:
        assert engine._merge_cells(g) == reference_merge_cells(g)


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_search_spectra_are_the_fresh_spectra(search, request):
    result = request.getfixturevalue(search).result
    kept = result.all_kept()
    assert list(result.spectra) == kept
    # the search shares its passes; c2 sentences carry symbolic caps
    for s in kept:
        assert result.spectra[s] == compute_spectrum(s, 10), s.render()


def test_a_search_without_a_length_merges_no_cell_graph(monkeypatch):
    merges = []
    merge = engine._merge_cells

    def merging(g):
        merges.append(g)
        return merge(g)

    monkeypatch.setattr(engine, "_merge_cells", merging)
    result = generate(C2_LIMITS, 3)
    assert len(result.all_kept()) == 382
    assert result.spectra == {}
    assert merges == []


def _search_fingerprints(limits, layers, fingerprint):
    """The search with fingerprint in place of spectrum_fingerprint, and
    every compiled sentence it was asked to fingerprint, without its
    compile time."""
    asked = []

    def recording(s, memo=None):
        asked.append(dataclasses.replace(s, compile_secs=0.0))
        return fingerprint(s, memo)

    real = generator.spectrum_fingerprint
    generator.spectrum_fingerprint = recording
    try:
        return generate(limits, layers), asked
    finally:
        generator.spectrum_fingerprint = real


def _outcome(result):
    return (
        [[s.render() for s in layer] for layer in result.kept],
        [[(s.render(), v) for s, v in layer] for layer in result.hidden],
        result.counts,
    )


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_shared_labellings_give_the_fingerprints_of_separate_ones(search, request):
    result = request.getfixturevalue(search).result
    limits = {"fo2": FO2_LIMITS, "c2": C2_LIMITS}[search]
    layers = len(result.kept)
    # a second search in the same process, with its own labelling dict
    again, asked = _search_fingerprints(limits, layers, spectrum_fingerprint)
    assert _outcome(again) == _outcome(result)
    # and one that labels every cell graph afresh
    alone, asked_alone = _search_fingerprints(
        limits,
        layers,
        lambda s, memo: spectrum_fingerprint(s),
    )
    assert _outcome(alone) == _outcome(result)
    assert asked_alone == asked
    # c2 sentences try every renaming of their counted predicates, so a
    # dict keyed without the renaming would mix the serials up
    shared: dict = {}
    for s in asked:
        assert spectrum_fingerprint(s, memo=shared) == spectrum_fingerprint(s), s.render()
    assert len(shared) < len(asked)
