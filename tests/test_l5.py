"""Checks over one `combspec generate --profile fo2-paper --layers 5
--length 10 --db --json` run (the session fixture fo2_l5): its duplicate
keys against the transform sweep, its refuter against the grounded
decision, its output and the spectra it stored."""

import hashlib
from pathlib import Path

from combspec.engine import compute_spectrum
from combspec.logic import parse_sentence
from combspec.seqdb import SpectrumDB
from helpers import check_against_the_sweep, grounded_refuted


def test_l5_keys_split_the_candidates_as_the_sweep(fo2_l5):
    checks = fo2_l5.checks
    # each of the 16 370 candidates that reach the duplicate check is
    # keyed by its least orbit column, and none is labelled
    checked = [v not in ("tautology", "refuted", "decomposable") for _, v, _, _ in checks]
    assert sum(checked) == 16370
    assert sum(key is not None for _, _, key, _ in checks) == 16370
    assert not any(labelled for *_, labelled in checks)
    assert check_against_the_sweep(checks)


def test_l5_refuter_agrees_with_the_grounded_decision(fo2_l5):
    # most verdicts are settled on the one-element collapse
    assert len(fo2_l5.refuted) == 16727
    assert fo2_l5.result.counts[-1]["refuted"] == 13
    bad = [s.render() for s, v in fo2_l5.refuted if v != grounded_refuted(s)]
    assert not bad


def test_l5_run_keeps_the_pinned_counts(fo2_l5):
    assert fo2_l5.code == 0
    assert fo2_l5.doc["truncated"] is False
    assert [row["kept"] for row in fo2_l5.doc["layers"]] == [4, 36, 179, 676, 1641]


def test_l5_db_is_the_pinned_file(fo2_l5):
    # the digest recorded in BENCH_compile_once.json
    digest = hashlib.sha256(Path(fo2_l5.db).read_bytes()).hexdigest()
    assert digest == "a7c3934ff4ce06f75fd41838e6cd7f6f8d507585bfb1f9bf3ec07a8c61cc49c0"


def test_l5_stdout_is_the_pinned_text(fo2_l5):
    digest = hashlib.sha256(fo2_l5.out.encode()).hexdigest()
    assert digest == "aad110d6e1802c42cd445749f7586463eca01376a71427a2ce814a332528962d"


def test_l5_records_hold_the_spectra_computed_one_by_one(fo2_l5):
    # the run's spectra share cell-DP passes; these run each one alone
    records = SpectrumDB(fo2_l5.db).records()
    assert len(records) == 2536
    bad = [
        r.sentence
        for r in records
        if list(r.spectrum) != compute_spectrum(parse_sentence(r.sentence), 10).terms
    ]
    assert not bad
