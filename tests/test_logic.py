"""Sentence model: parsing, rendering, normalization, canonical keys."""

import dataclasses
import gc
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from combspec import logic
from combspec.generator import GenLimits
from combspec.logic import (
    EXISTS,
    FORALL,
    Clause,
    Literal,
    ParseError,
    Predicate,
    Quantifier,
    Sentence,
    _ranks,
    canonical_key,
    canonical_labelling,
    counting,
    make_clause,
    parse_sentence,
)
from helpers import (
    PredicateTransform,
    apply_transform,
    random_sentence,
    random_transform,
    reference_refine,
    same_partition,
    sweep_key,
)


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
    for bad, message in [
        ("", "empty input"),
        ("(V x U(x)", "unexpected end of input"),
        ("(V x V y)", "bad predicate name ')'"),
        ("(V x B(x,y))", "unbound variable in ['y']"),
        ("(V x U(y))", "unbound variable in ['y']"),
        # only x and y are variable names
        ("(E z U0(z))", "expected variable x or y, got 'z'"),
        ("(V x 3(x))", "bad predicate name '3'"),
        ("(V x U(x) &)", "expected ')', got '&'"),
        ("(V x U(x))(E x U(x))", "trailing input at '('"),
        # refused by a constructor, and a parse error all the same
        ("(V x B(x,y,x))", "unsupported arity 3 for B"),
        ("(V x V x U(x))", "bad prefix variables ['x', 'x']"),
        ("(V=1 x U(x))", "only E takes a count"),
        ("(E=0 x U(x))", "count must be at least 1"),
        ("(X x U(x))", "bad quantifier kind 'X'"),
        ("(V x U(z))", "bad variable 'z'"),
        ("(E=x x U(x))", "expected a count, got 'x'"),
        # V and E name no predicate, so after a quantifier they start one
        ("(V x V)", "expected variable x or y, got ')'"),
        ("(V x V(x))", "expected variable x or y, got '('"),
        # a quote is kept for the engine's fresh names (S0', D1')
        ("(V x S0'(x))", "unexpected character"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_sentence(bad)
        assert message in str(info.value), bad


def test_duplicate_prefix_variable_rejected():
    with pytest.raises(ParseError):
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


def _reachable(roots):
    """The ids of the literals, dicts, tuples and sets reachable from roots
    through gc.get_referents, roots included."""
    seen, todo = set(), list(roots)
    while todo:
        o = todo.pop()
        if id(o) not in seen and isinstance(o, (Literal, dict, tuple, frozenset)):
            seen.add(id(o))
            todo += gc.get_referents(o)
    return seen


def test_a_literal_keeps_its_complement_and_moved_images():
    maps = [{"x": a, "y": b} for a in logic.VARS for b in logic.VARS]
    for pred in (Predicate("P", 0), Predicate("U", 1), Predicate("B", 2)):
        for args in itertools.product(logic.VARS, repeat=pred.arity):
            for negated in (False, True):
                lit = Literal(pred, args, negated)
                assert lit.negate() == Literal(pred, args, not negated)
                assert lit.negate() is lit.negate()
                for m in maps:
                    image = lit.substitute(m)
                    moved = tuple(m[a] for a in args)
                    assert image == Literal(pred, moved, negated)
                    assert image is lit.substitute(dict(m))
                    assert (image is lit) == (moved == args)
                clause = Clause((FORALL, FORALL), frozenset([lit]))
                for (a, b), body in clause.images.items():
                    assert body == {lit.substitute({"x": a, "y": b})}
                # what the literal keeps, and what that keeps in turn, never
                # refers back to it
                lit.negate().negate()
                for m in maps:
                    lit.substitute(m).substitute({"x": "x", "y": "x"})
                assert vars(lit).keys() > {"_negation", "_images"}
                assert id(lit) not in _reachable(vars(lit).values())


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
    # the same literals on each side of the two-variable clauses, paired
    # differently: U1 goes with W1 twice in the first, once in the second
    one_v = " & (V x U1(x) | W1(x))"
    assert canon(
        "(V x E y U1(x) | W1(y)) & (V x E y U2(x) | W2(y))" + one_v
    ) != canon("(V x E y U1(x) | W2(y)) & (V x E y U2(x) | W1(y))" + one_v)


def test_canonical_key_no_swap_for_counting_prefix():
    # E=1 witnesses are directional, so x/y swap must not identify these
    assert canon("(V x E=1 y B(x,y) | U(x))") != canon(
        "(V x E=1 y B(x,y) | U(y))"
    )
    assert canon("(E=1 x E=1 y B(x,y) | U(x))") != canon(
        "(E=1 x E=1 y B(x,y) | U(y))"
    )


NULLARY_TEXTS = [
    "(V x V y B(x,y) | U(x) | Z)",
    "(V x V y B(x,y) | U(y) | Z)",
    "(V x V y B(x,y) | U(x) | ~Z)",
    "(V x E y B(x,y) | U(x) | Z)",
    "(V x E y B(x,y) | U(y) | Z)",
    "(V x E y B(x,y) | Z) & (E x ~Z | U(x))",
    "(V x E y B(x,y) | ~Z) & (E x Z | U(x))",
    "(V x E y B(y,x) | Z) & (E x ~Z | ~U(x))",
    "(V x E y B(x,y) | Z) & (E x Z | U(x))",
    "(E x Z | W | U(x)) & (V x ~W | ~U(x))",
    "(E x ~W | Z | U(x)) & (V x ~Z | ~U(x))",
    "(E x Z | W | U(x)) & (V x W | ~U(x))",
    "(V x E=1 y B(x,y) | Z)",
    "(V x E=1 y B(y,x) | ~Z)",
    "(E=1 x V y B(x,y) | Z)",
]


def test_canonical_key_partition_matches_sweep_with_nullary_predicates():
    # a nullary literal must tell neither variable of its clause apart
    sents = [parse_sentence(t) for t in NULLARY_TEXTS]
    keys = [canonical_key(s) for s in sents]
    assert same_partition(keys, [sweep_key(s) for s in sents])
    assert 1 < len(set(keys)) < len(keys)


FOUR_THREE = (
    "(V x U0(x) | U1(x) | ~U2(x) | U3(x) | B0(x,x))"
    " & (V x V y B1(x,y) | ~B2(y,x) | U0(x) | U3(y))"
    " & (E x E y B0(x,y) | B1(y,x) | ~U1(y))"
    " & (V x E y ~B2(x,y) | B0(y,x) | U2(x))"
    " & (E x V y B1(x,x) | ~B1(x,y) | U3(y))"
)


def test_canonical_key_invariant_under_random_transforms():
    # 4 unary and 3 binary predicates: 147456 transforms, too many to sweep
    s = parse_sentence(FOUR_THREE)
    key = canonical_key(s)
    rng = random.Random(12)
    images = {random_transform(s, rng) for _ in range(60)}
    assert len(images) > 50
    for t in images:
        assert canonical_key(t) == key, t.render()
    # dropping one literal, or moving a variable, changes the key
    assert canon(FOUR_THREE.replace(" | U3(x)", "", 1)) != key
    assert canon(FOUR_THREE.replace("U0(x) | U3(y)", "U0(x) | U3(x)")) != key


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


# stored hashes


def _syntax_objects(s):
    """Every Predicate, Quantifier and Literal of the sentence s."""
    out = set()
    for c in s.clauses:
        out.update(c.prefix)
        for lit in c.body:
            out.update((lit, lit.pred))
    return out


def test_equal_syntax_objects_hash_equal():
    # each object is built twice, at random and by the parser; equal
    # objects hash equal, and as the tuple of their fields, which is the
    # hash the generated __hash__ gives, so sets iterate as they did
    rng = random.Random(61)
    pairs = []
    for _ in range(300):
        name, arity = rng.choice(["P", "U0", "U1", "B0", "Heads"]), rng.randint(0, 2)
        args = tuple(rng.choice("xy") for _ in range(arity))
        count = rng.choice([None, None, 1, 3])
        kind = "E" if count else rng.choice("VE")
        negated = rng.random() < 0.5
        pairs.append((Predicate(name, arity), Predicate(name, arity)))
        pairs.append((Quantifier(kind, count), Quantifier(kind, count)))
        pairs.append((
            Literal(Predicate(name, arity), args, negated),
            Literal(Predicate(name, arity), args, negated),
        ))
    for limits in (GenLimits(3, 2, 1, 1, 1), GenLimits(3, 2, 2, 2, 1)):
        for _ in range(100):
            s = random_sentence(rng, limits)
            parsed = parse_sentence(s.render())
            assert parsed == s and hash(parsed) == hash(s)
            mine = {repr(o): o for o in _syntax_objects(s)}
            theirs = {repr(o): o for o in _syntax_objects(parsed)}
            assert mine.keys() == theirs.keys()
            pairs += [(mine[k], theirs[k]) for k in mine]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(dataclasses.astuple(a))


def test_a_pickled_literal_is_found_under_another_hash_seed():
    # a stored str hash is valid only in the process that computed it, so
    # unpickling must hash anew: one process pickles a counting sentence
    # and its clauses, quantifiers, literals and predicates, and another,
    # under another hash seed, finds each among those it parses itself, by
    # equality, with an equal hash
    text = "(V x E y ~B0(x,y) | U0(y) | P) & (E=1 x U0(x)) & (V x V y B0(x,y) | ~P)"
    parts = (
        "import pickle, sys\n"
        "from combspec.logic import parse_sentence\n"
        f"s = parse_sentence({text!r})\n"
        "objects = [s]\n"
        "for c in s.clauses:\n"
        "    objects += [c, *c.prefix, *c.body, *(lit.pred for lit in c.body)]\n"
    )
    dump = parts + "sys.stdout.buffer.write(pickle.dumps((hash('B0'), objects)))\n"
    load = parts + (
        "foreign, theirs = pickle.loads(sys.stdin.buffer.read())\n"
        "assert foreign != hash('B0')\n"
        "mine = set(objects)\n"
        "for o in theirs:\n"
        "    twin, = {m for m in objects if m == o}\n"
        "    assert hash(o) == hash(twin) and o in mine\n"
        "print(len(theirs), sorted({type(o).__name__ for o in theirs}))\n"
    )
    src = str(Path(logic.__file__).parent.parent)
    out = b""
    for seed, code in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=out,
            env=env,
            capture_output=True,
            check=True,
            timeout=60,
        ).stdout
    assert out.decode().split(maxsplit=1) == [
        "21",
        "['Clause', 'Literal', 'Predicate', 'Quantifier', 'Sentence']\n",
    ]


# canonical labelling against the reference refinement


def _adjacency(q, edges):
    """Adjacency in canonical_labelling's form from {(a, b): label}."""
    adj = [[] for _ in range(q)]
    for (a, b), label in edges.items():
        adj[a].append((b, label * q))
        adj[b].append((a, label * q))
    return adj


def _random_colored_graph(rng):
    q = rng.randint(1, 9)
    colors = [rng.randint(0, 2) for _ in range(q)]
    density = rng.random()
    edges = {
        (a, b): rng.randint(0, 2)
        for a in range(q)
        for b in range(a + 1, q)
        if rng.random() < density
    }
    return colors, _adjacency(q, edges)


def _labelled_both_ways(colors, adj, monkeypatch):
    got = canonical_labelling(colors, adj)
    with monkeypatch.context() as m:
        m.setattr(logic, "_refine", reference_refine)
        want = canonical_labelling(colors, adj)
    return got, want


def test_refinement_matches_the_reference_on_random_graphs(monkeypatch):
    rng = random.Random(2026)
    mixed = 0
    for _ in range(200):
        colors, adj = _random_colored_graph(rng)
        start = _ranks(colors)
        assert logic._refine(start, adj) == reference_refine(start, adj)
        got, want = _labelled_both_ways(colors, adj, monkeypatch)
        assert got == want
        # vertex v of the copy is vertex perm[v] of the graph
        q = len(colors)
        perm = rng.sample(range(q), q)
        where = {v: i for i, v in enumerate(perm)}
        moved = [[(where[j], off) for j, off in adj[v]] for v in perm]
        assert canonical_labelling([colors[v] for v in perm], moved) == got
        sizes = [start.count(c) for c in set(start)]
        mixed += 1 in sizes and max(sizes) > 1
    # singleton classes beside larger ones, where the two keys differ
    assert mixed > 20


def test_labelling_leaves_no_cyclic_garbage():
    # refinement leaves the 6-cycle one class, so the search individualises
    cycle = _adjacency(6, {(i, (i + 1) % 6): 1 for i in range(6)})
    assert logic._refine([0] * 6, cycle) == [0] * 6
    gc.collect()
    gc.disable()
    try:
        assert canonical_labelling([0] * 6, cycle)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_refinement_matches_the_reference_on_the_cycle_and_triangles(monkeypatch):
    cycle = _adjacency(6, {(i, (i + 1) % 6): 1 for i in range(6)})
    triangles = _adjacency(
        6, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (3, 4): 1, (4, 5): 1, (3, 5): 1}
    )
    serials = []
    for adj in (cycle, triangles):
        # both 2-regular: refinement alone leaves one class
        assert logic._refine([0] * 6, adj) == reference_refine([0] * 6, adj) == [0] * 6
        got, want = _labelled_both_ways([0] * 6, adj, monkeypatch)
        assert got == want
        serials.append(got)
    assert serials[0] != serials[1]
