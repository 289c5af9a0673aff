"""End-to-end acceptance checks, one per stated criterion.

Each test prints a single PASS/FAIL line with its measurements, then
asserts.  Frozen expectations live next to the test that uses them; the
oracle cross-checks cover every derived value up to its enumeration cap.
"""

import json
import random
import sys
import time
from collections import defaultdict
from itertools import accumulate
from pathlib import Path

from combspec import engine
from combspec.cli import main
from combspec.engine import (
    compile_sentence,
    compute_spectrum,
    spectrum_fingerprint,
    wfomc,
)
from combspec.generator import GenLimits, generate
from combspec.logic import FragmentError, parse_sentence
from combspec.oracle import count_models
from combspec.seqdb import SpectrumDB
from helpers import (
    all_retained,
    design_redundant,
    dp_iterations,
    kept_cumulative,
    random_sentence,
    reference_cell_order,
    unpruned_layers,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(num: int, ok: bool, detail: str) -> None:
    # written past pytest's capture so every verdict shows, pass or fail
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}", file=sys.__stdout__)
    assert ok, detail


def _spectrum(text: str, length: int) -> list[int]:
    return compute_spectrum(parse_sentence(text), length).terms


def test_criterion_01_closed_forms():
    t0 = time.perf_counter()
    ok = all(
        wfomc(parse_sentence("(V x ~R(x,x))"), n) == 2 ** (n * n - n)
        for n in range(1, 9)
    )
    ok &= all(
        wfomc(parse_sentence("(E x Heads(x))"), n, weights={"Heads": (4, 1)})
        == 5**n - 1
        for n in range(1, 9)
    )
    functional = [wfomc(parse_sentence("(V x E=1 y R(x,y))"), n) for n in range(1, 7)]
    ok &= functional == [n**n for n in range(1, 7)]
    ok &= functional[4] == 3125
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    _verdict(1, ok, f"three closed forms exact, {dt:.2f}s (< 1s)")


def test_criterion_02_oracle_equivalence():
    rng = random.Random(20260818)
    limits = GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=1)
    t0 = time.perf_counter()
    checked = mismatches = skipped = 0
    while checked < 200:
        s = random_sentence(rng, limits)
        try:
            values = {n: wfomc(s, n) for n in (1, 2, 3)}
        except FragmentError:
            skipped += 1
            continue
        nmax = 4 if sum(1 for p in s.predicates if p.arity == 2) <= 1 else 3
        if nmax == 4:
            values[4] = wfomc(s, 4)
        for n in range(1, nmax + 1):
            if count_models(s, n) != values[n]:
                mismatches += 1
                print("mismatch:", s.render(), n)
        checked += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 600
    _verdict(
        2,
        ok,
        f"200 random sentences vs oracle, {mismatches} mismatches,"
        f" {skipped} outside fragment, {dt:.0f}s (< 600s)",
    )


GOLDEN = [
    (
        "(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))",
        [1, 2, 6, 24, 120, 720, 5040],
    ),
    (
        "(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))"
        " & (V x V y B(x,x) | B(x,y) | ~B(y,x))",
        [1, 2, 4, 10, 26, 76, 232],
    ),
    (
        "(V x B(x,x)) & (V x E=1 y ~B(x,y)) & (V x E=1 y ~B(y,x))",
        [0, 1, 2, 9, 44, 265, 1854],
    ),
]


def test_criterion_03_golden_spectra():
    t0 = time.perf_counter()
    bad = []
    for text, want in GOLDEN:
        s = parse_sentence(text)
        got = compute_spectrum(s, len(want)).terms
        if got != want:
            bad.append((text, got))
        for n in range(1, 5):
            if count_models(s, n) != want[n - 1]:
                bad.append((text, f"oracle disagrees at n={n}"))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60
    _verdict(3, ok, f"3 golden spectra exact with oracle cross-check, {dt:.1f}s (< 60s)")


NOVEL = [
    (
        "(V x ~B(x,x)) & (E x V y ~B(y,x)) & (V x E=1 y B(x,y))",
        [0, 0, 6, 72, 980, 15360],
    ),
    (
        "(V x E y B(x,y)) & (E x V y B(x,y) | B(y,x))",
        [1, 7, 237, 31613, 16224509, 31992952773],
    ),
    (
        "(V x E y B(x,y)) & (E x V y B(x,y))",
        [1, 5, 127, 12209, 4329151, 5723266625],
    ),
    (
        "(V x ~B(x,x)) & (V x V y ~B(x,y) | B(y,x))"
        " & (E x V y ~B(x,y) | ~U(y)) & (E x E y B(x,y))",
        [0, 3, 43, 747, 22813, 1352761],
    ),
]


def test_criterion_04_novel_sequences():
    t0 = time.perf_counter()
    bad = [text for text, want in NOVEL if _spectrum(text, len(want)) != want]
    dt = time.perf_counter() - t0
    ok = not bad and dt < 300
    _verdict(4, ok, f"4 novel sequences exact, {dt:.1f}s (< 300s)")


PRUNE_LIMITS = GenLimits(max_literals=3, max_clauses=2, unary=1, binary=1, max_count=0)
ALL_ZERO = (0, 0, 0, 0)


def test_criterion_05_pruning_preserves_spectra():
    t0 = time.perf_counter()
    pruned = generate(PRUNE_LIMITS, 3)
    structural = [s for layer in unpruned_layers(PRUNE_LIMITS, 3) for s in layer]
    survivors = [s for s in structural if not design_redundant(s)]

    cache: dict[str, tuple[int, ...]] = {}

    def spec4(s) -> tuple[int, ...]:
        text = s.render()
        if text not in cache:
            cache[text] = tuple(compute_spectrum(s, 4).terms)
        return cache[text]

    kept_specs = {spec4(s) for s in pruned.all_kept()} - {ALL_ZERO}
    full_specs = {spec4(s) for s in survivors} - {ALL_ZERO}
    dt = time.perf_counter() - t0
    ok = kept_specs == full_specs and dt < 1800
    _verdict(
        5,
        ok,
        f"pruned run kept {len(pruned.all_kept())} of {len(structural)}"
        f" sentences, {len(kept_specs)} distinct spectra on both sides, {dt:.0f}s"
        f" (< 1800s)",
    )


def test_criterion_06_fingerprint_soundness():
    groups = defaultdict(list)
    for s in all_retained(generate(PRUNE_LIMITS, 3)):
        groups[spectrum_fingerprint(compile_sentence(s))].append(s)
    violations = pairs = 0
    for sents in groups.values():
        if len(sents) < 2:
            continue
        pairs += len(sents) * (len(sents) - 1) // 2
        specs = {tuple(compute_spectrum(s, 6).terms) for s in sents}
        if len(specs) != 1:
            violations += 1
            print("fingerprint collision with differing spectra:",
                  [s.render() for s in sents])
    _verdict(
        6,
        violations == 0,
        f"{pairs} equal-fingerprint pairs share spectra to n=6,"
        f" {violations} violations",
    )


def _prefix_rule(s) -> str:
    (clause,) = s.clauses
    kinds = tuple(q.kind for q in clause.prefix)
    return "pass" if kinds in (("V",), ("V", "V")) else "".join(kinds)


def test_criterion_07_prefix_rules_match_oracle():
    rng = random.Random(7)
    limits = GenLimits(max_literals=3, max_clauses=1, unary=1, binary=1, max_count=0)
    buckets: dict[str, int] = defaultdict(int)
    mismatches = 0
    draws = 0
    rules = ("pass", "E", "EE", "VE", "EV")
    while draws < 5000 and any(buckets[r] < 30 for r in rules):
        s = random_sentence(rng, limits)
        draws += 1
        rule = _prefix_rule(s)
        if buckets[rule] >= 30:
            continue
        buckets[rule] += 1
        for n in (1, 2, 3):
            if wfomc(s, n) != count_models(s, n):
                mismatches += 1
                print("mismatch:", s.render(), n)
    filled = {r: buckets[r] for r in rules}
    ok = mismatches == 0 and all(v >= 30 for v in filled.values())
    _verdict(7, ok, f"prefix-rule samples {filled}, {mismatches} oracle mismatches")


FO2_LIMITS = GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=0)
C2_LIMITS = GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=1)
FO2_KEPT_TARGETS = [4, 40, 216, 923, 2642]
C2_KEPT_TARGETS = [7, 91, 405]
UNIQUE_TARGETS = [4, 37, 171, 590, 1390]


def test_criterion_08_generation_scale(fo2_l5):
    t0 = time.perf_counter()
    # the one generate --db run's per-layer counts, accumulated
    kept_cum = list(accumulate(row["kept"] for row in fo2_l5.doc["layers"]))
    unique_cum = list(accumulate(row["unique"] for row in fo2_l5.doc["layers"]))

    c2_cum = kept_cumulative(generate(C2_LIMITS, 3))
    dt = fo2_l5.secs + time.perf_counter() - t0

    def band(got, targets, tol):
        return [
            f"L{i + 1} {g} vs {t} ({(g - t) / t * 100:+.1f}%"
            f" {'ok' if abs(g - t) <= tol * t else 'OUT'})"
            for i, (g, t) in enumerate(zip(got, targets))
        ]

    fo2_ok = all(abs(g - t) <= 0.15 * t for g, t in zip(kept_cum, FO2_KEPT_TARGETS))
    c2_ok = all(abs(g - t) <= 0.15 * t for g, t in zip(c2_cum, C2_KEPT_TARGETS))
    uni_ok = all(abs(g - t) <= 0.10 * t for g, t in zip(unique_cum, UNIQUE_TARGETS))
    ok = fo2_ok and c2_ok and uni_ok and dt < 7200
    _verdict(
        8,
        ok,
        "kept " + "; ".join(band(kept_cum, FO2_KEPT_TARGETS, 0.15))
        + " | c2 " + "; ".join(band(c2_cum, C2_KEPT_TARGETS, 0.15))
        + " | unique " + "; ".join(band(unique_cum, UNIQUE_TARGETS, 0.10))
        + f" | {dt:.0f}s (< 7200s)",
    )


CATALOG = [
    (
        "(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))"
        " & (V x V y B(x,x) | B(x,y) | ~B(y,x))",
        "A000085",
    ),
    ("(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))", "A000142"),
    ("(V x B(x,x)) & (V x E=1 y ~B(x,y)) & (V x E=1 y ~B(y,x))", "A000166"),
    (
        "(V x V y B(x,y) | ~B(y,x)) & (E x B(x,x)) & (V x E=1 y ~B(x,y))",
        "A001189",
    ),
    ("(V x V y U(x) | B(x,y)) & (V x V y ~U(x) | B(y,x))", "A047863"),
    ("(V x B(x,x)) & (V x E y ~B(x,y)) & (V x E y ~B(y,x))", "A086193"),
    (
        "(V x V y U(x) | ~U(y) | B(x,y)) & (V x E=1 y ~B(x,y))",
        "A290840",
    ),
]


def test_criterion_09_catalog_matching(tmp_path, capsys):
    db_path = tmp_path / "catalog.jsonl"
    db = SpectrumDB(db_path)
    for text, _ in CATALOG:
        db.insert(text, _spectrum(text, 8))
    code = main(
        [
            "oeis",
            "--db",
            str(db_path),
            "--stripped",
            str(FIXTURES / "oeis_stripped.txt"),
            "--json",
        ]
    )
    rows = json.loads(capsys.readouterr().out)
    matched = {row["sentence"]: row["matches"] for row in rows}
    expected = {text: [ident] for text, ident in CATALOG}
    reported = {m for hits in matched.values() for m in hits}
    ok = code == 0 and matched == expected
    _verdict(
        9,
        ok,
        f"7 catalog sentences report exactly {sorted(reported)}",
    )


# the first two take the longest of any two-clause shape at these limits:
# two existential-universal clauses leave the most merged cells alive
PERF_SENTENCES = [
    "(E x V y B0(x,y) | U0(y) | ~B0(y,x)) & (E x V y B0(x,y) | ~B0(y,y))",
    "(E x V y B0(x,y) | U0(y) | ~B0(y,x)) & (E x V y B0(y,x) | ~B0(y,y))",
    "(E x V y B0(x,y) | B0(y,y) | ~B0(y,x)) & (E x V y B0(y,x) | U0(y))",
    "(E x V y B0(x,y) | B0(y,x) | U0(y)) & (E x V y B0(x,y) | ~B0(y,y))",
]

# the length-20 terms of the two sentences with a 16-cell branch, where the
# cell-order search widens its beam: a sum over cell counts does not depend
# on the order its cells run in, so no order may move them
PERF_TERMS = {
    PERF_SENTENCES[0]: [
        4,
        60,
        3578,
        850804,
        802668292,
        2994268307182,
        44102674680037446,
        2563827759930464477608,
        588309131238280616843387080,
        533034054117829204830491562785058,
        1907749104682695480716513141167661475626,
        26984163043843510839963187811351610639251526268,
        1509142854423217609082874452862111934253104946921362348,
        333886652237903605326740602214620901967088653953493857725260598,
        292365660945435043601239728369997907445533602510094056839290400949035342,
        1013723030619701160167794569225068766007457948174152324864153161400838202501265744,
        13924503500240629405476812535625001511534503080874471099529333643355594923472975765832284560,
        758060167407410502612596724760185622620957780046747365852827148273219404435254853931086725968878060106,
        163636952234470017640182681159320436341407288011247452490079599672352273101571777397241517170512844599232816743026,
        140119009644959593336004606171066919571821856746355239142716181346848724106102410246922221478688258722239155770772998933467428,
    ],
    PERF_SENTENCES[1]: [
        4,
        60,
        3578,
        850868,
        802654372,
        2993594053614,
        44080559048561382,
        2561700584974896573352,
        587598503202963591384385096,
        532160145139722417862391762096802,
        1903686990369485283321664638722628001226,
        26911789829320390102281653557492448642632740860,
        1504159386653833067650445936996175661523280621631635436,
        332553345851324768921740154626749739304431988761191997527301494,
        290974466472115470460373365043360629018612930893780834826646706372088494,
        1008046175327136090962105967089268405146802358059199206209768117969002798693605712,
        13833714127250511341401541371941343260930432618626184638810538128964607331088397450735025296,
        752359250717502959760965328995497913023157369938257895653765351550657820026859484994225374387203282250,
        162229304679928917048798152969067812218847853482290756505783913036038916321267047210049603253736534497765489866386,
        138750482684464018122403340591337649269280530516109018101859250620541913352425082287867773508990982018260177053843506029905060,
    ],
}


def _perf_basket() -> list[str]:
    """PERF_SENTENCES and six seeded random two-clause sentences."""
    rng = random.Random(2024)
    basket = list(PERF_SENTENCES)
    while len(basket) < 10:
        s = random_sentence(rng, FO2_LIMITS)
        if len(s.clauses) == 2:
            basket.append(s.render())
    return basket


def test_criterion_10_spectrum_performance():
    basket = _perf_basket()
    worst = 0.0
    slow = []
    for text in basket:
        t0 = time.perf_counter()
        sp = compute_spectrum(parse_sentence(text), 20)
        dt = time.perf_counter() - t0
        assert len(sp.terms) == 20 and not sp.truncated, text
        assert sp.terms == PERF_TERMS.get(text, sp.terms), text
        worst = max(worst, dt)
        if dt >= 10.0:
            slow.append((text, round(dt, 1)))
    ok = not slow
    _verdict(
        10,
        ok,
        f"{len(basket)} two-clause length-20 spectra, worst {worst:.1f}s (< 10s each)"
        + (f", over budget: {slow}" if slow else ""),
    )


def test_criterion_10_branches_take_no_more_dp_steps_than_the_reference():
    # the widest branches, 16 cells, carry the basket's time; fo2 sentences
    # have no counting quantifier, so their passes have no caps
    graphs = [
        g
        for text in _perf_basket()
        for _, g in compile_sentence(parse_sentence(text)).branches
        if len(g.cells) == 16
    ]
    assert len(graphs) >= 2
    for g in graphs:
        merged = _, r = engine._merge_cells(g)
        q = len(r)
        # one order gives one count, so only a new order needs counting
        if engine._greedy_cell_order(r, q, 20) != reference_cell_order(r, q, 20):
            assert dp_iterations(merged, 20) <= dp_iterations(
                merged, 20, None, reference_cell_order
            )
