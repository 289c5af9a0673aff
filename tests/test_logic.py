"""Sentence model: parsing, rendering, normalization, canonical keys."""

import pytest

from combspec.logic import (
    EXISTS,
    FORALL,
    Clause,
    Literal,
    ParseError,
    Predicate,
    PredicateTransform,
    Sentence,
    canonical_key,
    counting,
    make_clause,
    parse_sentence,
)
from helpers import apply_transform


def rt(text):
    return parse_sentence(text).render()


def test_round_trip_simple():
    assert rt("(V x E y B0(x,y))") == "(V x E y B0(x,y))"
    assert rt("(E x U0(x))") == "(E x U0(x))"
    assert rt("(V x E=1 y B0(x,y))") == "(V x E=1 y B0(x,y))"


def test_round_trip_multi_clause_and_literal_order():
    s = parse_sentence("(V x ~B(x,x)) & (E x V y B(x,y) | U(x))")
    assert parse_sentence(s.render()).render() == s.render()


def test_alpha_normalization_renames_variables():
    # variable names are positional: first bound variable renders as x
    assert rt("(V y E x B0(y,x))") == "(V x E y B0(x,y))"
    assert rt("(V y B0(y,y))") == "(V x B0(x,x))"


def test_clause_order_is_canonical():
    a = parse_sentence("(E x U(x)) & (V x E y B(x,y))")
    b = parse_sentence("(V x E y B(x,y)) & (E x U(x))")
    assert a == b
    assert a.render() == b.render()


def test_duplicate_literals_collapse():
    s = parse_sentence("(V x U(x) | U(x))")
    clause = next(iter(s.clauses))
    assert len(clause.body) == 1


def test_parse_errors():
    for bad in [
        "",
        "(V x U(x)",
        "(V x V y)",
        "(V x B(x,y))",  # y unbound
        "(V x U(y))",
        "(E z U0(z))",  # only x and y are variable names
        "(V x 3(x))",
        "(V x U(x) &)",
        "(V x U(x))(E x U(x))",
    ]:
        with pytest.raises(ParseError):
            parse_sentence(bad)


def test_duplicate_prefix_variable_rejected():
    with pytest.raises(ValueError):
        parse_sentence("(V x V x U(x))")


def test_reserved_predicate_names_rejected():
    with pytest.raises(ParseError):
        parse_sentence("(V x E(x,x))")
    with pytest.raises(ParseError):
        parse_sentence("(E x V(x))")


def test_counting_quantifier_parses_with_count():
    s = parse_sentence("(V x E=1 y B(x,y))")
    clause = next(iter(s.clauses))
    assert clause.prefix[1] == counting(1)
    s2 = parse_sentence("(E=2 x U(x))")
    clause2 = next(iter(s2.clauses))
    assert clause2.prefix[0] == counting(2)


def test_predicate_arity_mismatch():
    with pytest.raises(ParseError):
        parse_sentence("(V x U(x)) & (V x E y U(x,y))")


def test_literal_substitute_and_negate():
    lit = Literal(Predicate("B", 2), ("x", "y"))
    assert lit.substitute({"y": "x"}).args == ("x", "x")
    assert lit.negate().negated is True
    assert lit.negate().negate() == lit


def test_sentence_predicates():
    s = parse_sentence("(V x ~B(x,x)) & (E x U(x) | B(x,x))")
    names = sorted(p.name for p in s.predicates)
    assert names == ["B", "U"]


def canon(text):
    return canonical_key(parse_sentence(text))


def test_canonical_key_predicate_renaming():
    assert canon("(E x U0(x)) & (V x U1(x) | U0(x))") == canon(
        "(E x U1(x)) & (V x U0(x) | U1(x))"
    )


def test_canonical_key_negation_flip():
    assert canon("(V x E y B(x,y))") == canon("(V x E y ~B(x,y))")
    assert canon("(V x U(x) | B(x,x))") == canon("(V x ~U(x) | B(x,x))")


def test_canonical_key_argument_flip():
    assert canon("(V x E y B(x,y))") == canon("(V x E y B(y,x))")
    assert canon("(V x E y B(x,y) | ~B(y,x))") == canon(
        "(V x E y B(y,x) | ~B(x,y))"
    )


def test_canonical_key_variable_swap_same_prefix():
    assert canon("(V x V y B(x,y) | U(x))") == canon("(V x V y B(y,x) | U(y))")


def test_canonical_key_separates_distinct_sentences():
    assert canon("(V x E y B(x,y))") != canon("(E x V y B(x,y))")
    assert canon("(V x E y B(x,y))") != canon("(V x E y B(x,y) | U(x))")
    assert canon("(V x E y B(x,y) | U(x))") != canon("(V x E y B(x,y) | U(y))")


def test_canonical_key_no_swap_for_counting_prefix():
    # E=1 witnesses are directional, so x/y swap must not identify these
    assert canon("(V x E=1 y B(x,y) | U(x))") != canon(
        "(V x E=1 y B(x,y) | U(y))"
    )


def test_apply_transform_round_trip():
    s = parse_sentence("(V x E y B(x,y) | ~U(x))")
    t = PredicateTransform(
        flip_sign=frozenset({"B"}),
        flip_args=frozenset({"B"}),
    )
    back = apply_transform(apply_transform(s, t), t)
    assert back == s


def test_apply_transform_rename():
    s = parse_sentence("(V x E y B(x,y) | ~U(x))")
    t = PredicateTransform(rename={"B": "R", "U": "W"})
    assert apply_transform(s, t).render() == "(V x E y R(x,y) | ~W(x))"


def test_clause_helpers():
    c = make_clause(
        [(FORALL, "x"), (EXISTS, "y")],
        [Literal(Predicate("B", 2), ("x", "y"))],
    )
    assert c.nvars == 2
    assert not c.is_counting
    s = Sentence(frozenset([c]))
    assert s.render() == "(V x E y B(x,y))"
