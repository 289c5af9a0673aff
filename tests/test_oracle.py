"""Brute-force model counter used as the ground truth in other tests."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import combspec
from combspec.logic import (
    EXISTS,
    FORALL,
    VARS,
    Literal,
    Predicate,
    Sentence,
    counting,
    make_clause,
    parse_sentence,
)
from combspec.oracle import MAX_ATOMS, count_models, weighted_count
from helpers import reference_count


def count(text, n):
    return count_models(parse_sentence(text), n)


def test_irreflexive_counts_all_off_diagonal_relations():
    # free choice on n^2 - n ordered pairs
    for n in range(1, 4):
        assert count("(V x ~R(x,x))", n) == 2 ** (n * n - n)


def test_exists_unary():
    for n in range(1, 6):
        assert count("(E x U(x))", n) == 2**n - 1


def test_total_relation_small():
    assert count("(V x E y R(x,y))", 1) == 1
    assert count("(V x E y R(x,y))", 2) == 9


def test_functional_relation_is_n_to_the_n():
    for n in range(1, 5):
        assert count("(V x E=1 y R(x,y))", n) == n**n


def test_counting_quantifier_exactly_two():
    # choose 2 of n witnesses per row
    assert count("(V x E=2 y R(x,y))", 3) == 27
    assert count("(E=2 x U(x))", 4) == 6


def test_domain_starts_at_one():
    with pytest.raises(ValueError):
        count("(V x U(x))", 0)


def test_multi_clause_conjunction():
    got = count("(V x ~R(x,x)) & (V x E y R(x,y))", 2)
    # irreflexive and every row hits something: R(1,2) and R(2,1) forced
    assert got == 1


def test_weighted_count_scales_by_true_atoms():
    s = parse_sentence("(E x Heads(x))")
    for n in range(1, 5):
        assert weighted_count(s, n, {"Heads": (4, 1)}) == 5**n - 1


def test_weighted_count_negative_weight():
    s = parse_sentence("(V x Heads(x) | ~Heads(x))")
    # weight sum per atom is 1 + (-1) = 0 once any atom exists
    assert weighted_count(s, 1, {"Heads": (1, -1)}) == 0


def test_weighted_defaults_match_unweighted():
    s = parse_sentence("(V x E y R(x,y) | U(x))")
    for n in range(1, 4):
        assert weighted_count(s, n, {}) == count_models(s, n)


QUANTS = [FORALL, EXISTS, counting(1), counting(2)]
# 1 + 3 + 9 ground atoms at n = 3, within reference_count's 16
PREDS = [Predicate("P", 0), Predicate("U", 1), Predicate("B", 2)]
PREFIXES = [(q,) for q in QUANTS] + list(product(QUANTS, repeat=2))


def random_clause(rng, prefix):
    options = [
        Literal(p, args, neg)
        for p in PREDS
        for args in product(VARS[: len(prefix)], repeat=p.arity)
        for neg in (False, True)
    ]
    return make_clause(zip(prefix, VARS), rng.sample(options, rng.randint(1, 3)))


def test_reference_count_agrees_with_count_models():
    texts = [
        "(V x ~R(x,x))",
        "(V x E y R(x,y))",
        "(E x V y R(x,y))",
        "(V x E=1 y R(x,y))",
        "(V x E y R(x,y) | ~R(y,x)) & (E x U(x))",
    ]
    rng = random.Random(20261018)
    sentences = [parse_sentence(text) for text in texts]
    # every prefix twice, half the time beside a second random clause
    for prefix in PREFIXES * 2:
        clauses = [random_clause(rng, prefix)]
        if rng.random() < 0.5:
            clauses.append(random_clause(rng, rng.choice(PREFIXES)))
        sentences.append(Sentence(frozenset(clauses)))
    assert any(p.arity == 0 for s in sentences for p in s.predicates)
    for s in sentences:
        for n in range(1, 4):
            assert reference_count(s, n) == count_models(s, n), (s.render(), n)


def test_reference_count_rejects_large_domains():
    s = parse_sentence("(V x E y R(x,y))")
    with pytest.raises(ValueError):
        reference_count(s, 5)  # 25 binary atoms is past the cutoff


def test_brute_spectrum_prefix():
    s = parse_sentence("(V x E=1 y R(x,y))")
    assert [count_models(s, n) for n in range(1, 5)] == [1, 4, 27, 256]


def test_count_models_cap_guards_blowup():
    s = parse_sentence("(V x E y R(x,y))")
    assert 3 * 3 <= MAX_ATOMS < 5 * 5
    with pytest.raises(ValueError):
        count_models(s, 5)  # 25 binary atoms is past the cap
    assert count_models(s, 3) == 7**3  # each row independently nonempty


def test_oracle_runs_on_the_standard_library_alone():
    # the CLI runs in one process too: no pool module is imported
    code = (
        "import sys, combspec, combspec.oracle, combspec.cli; "
        "print([m for m in ('numpy', 'concurrent.futures', 'multiprocessing') "
        "if m in sys.modules])"
    )
    src = str(Path(combspec.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
