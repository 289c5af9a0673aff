"""Whole-corpus checks over the fo2-paper L1-L4 and c2-paper L1-L3 searches:
the bitmask cell graphs against the reference build, the engine against the
brute-force oracle, and spectra that share cell-DP passes against spectra
computed one by one."""

import pytest

from combspec import engine
from combspec.engine import compute_spectrum
from combspec.generator import GenLimits, generate
from combspec.oracle import count_models
from helpers import all_retained, reference_cell_graph

FO2_LIMITS = GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=0)
C2_LIMITS = GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=1)


def _recorded_generate(limits, layers):
    """The search, with the arguments and result of every cell graph it
    builds."""
    calls = []
    build = engine.build_cell_graph

    def recording(*args, **kwargs):
        g = build(*args, **kwargs)
        calls.append((args, kwargs, g))
        return g

    engine.build_cell_graph = recording
    try:
        result = generate(limits, layers)
    finally:
        engine.build_cell_graph = build
    return result, calls


@pytest.fixture(scope="module")
def fo2():
    return _recorded_generate(FO2_LIMITS, 4)


@pytest.fixture(scope="module")
def c2():
    return _recorded_generate(C2_LIMITS, 3)


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_bitmask_cell_graphs_match_the_reference(search, request):
    _, calls = request.getfixturevalue(search)
    assert calls
    for args, kwargs, g in calls:
        assert g == reference_cell_graph(*args, **kwargs), args


def test_retained_fo2_sentences_match_the_oracle(fo2):
    result, _ = fo2
    sentences = all_retained(result)
    assert len(sentences) == 2241
    bad = [
        s.render()
        for s in sentences
        if compute_spectrum(s, 4).terms != [count_models(s, n) for n in range(1, 5)]
    ]
    assert not bad


def test_kept_c2_sentences_match_the_oracle(c2):
    result, _ = c2
    sentences = result.all_kept()
    assert len(sentences) == 382
    bad = [
        s.render()
        for s in sentences
        if compute_spectrum(s, 3).terms != [count_models(s, n) for n in range(1, 4)]
    ]
    assert not bad


@pytest.mark.parametrize("search", ["fo2", "c2"])
def test_shared_passes_give_the_spectra_of_separate_ones(search, request):
    result, _ = request.getfixturevalue(search)
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
