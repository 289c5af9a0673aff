"""Brute-force model counter used as the ground truth in other tests."""

import pytest

from combspec.logic import parse_sentence
from combspec.oracle import count_models, reference_count, weighted_count


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


def test_reference_count_agrees_with_count_models():
    texts = [
        "(V x ~R(x,x))",
        "(V x E y R(x,y))",
        "(E x V y R(x,y))",
        "(V x E=1 y R(x,y))",
        "(V x E y R(x,y) | ~R(y,x)) & (E x U(x))",
    ]
    for text in texts:
        s = parse_sentence(text)
        for n in range(1, 4):
            assert reference_count(s, n) == count_models(s, n), (text, n)


def test_reference_count_rejects_large_domains():
    s = parse_sentence("(V x E y R(x,y))")
    with pytest.raises(ValueError):
        reference_count(s, 5)  # 25 binary atoms is past the cutoff


def test_brute_spectrum_prefix():
    s = parse_sentence("(V x E=1 y R(x,y))")
    assert [count_models(s, n) for n in range(1, 5)] == [1, 4, 27, 256]


def test_count_models_cap_guards_blowup():
    s = parse_sentence("(V x E y R(x,y))")
    with pytest.raises(ValueError):
        count_models(s, 6, cap=9)  # 36 binary atoms is past the cap
    assert count_models(s, 3, cap=9) == 7**3  # each row independently nonempty
