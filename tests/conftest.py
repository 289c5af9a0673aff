import contextlib
import io
import json
import time
from typing import NamedTuple

import pytest

from combspec import cli, generator
from combspec.generator import GenLimits, GenResult
from helpers import record_duplicate_checks


@pytest.fixture
def fo2_limits():
    return GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=0)


@pytest.fixture
def c2_limits():
    return GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1, max_count=1)


class L5Run(NamedTuple):
    code: int
    # the --json output, as printed and as parsed
    out: str
    doc: dict
    db: str
    result: GenResult
    # (sentence, verdict, key or None, labelled) of every candidate of the
    # search, as helpers.record_duplicate_checks records them
    checks: list
    # (sentence, verdict) of every is_refuted call of the search
    refuted: list
    secs: float


@pytest.fixture(scope="session")
def fo2_l5(tmp_path_factory):
    """`combspec generate --profile fo2-paper --layers 5 --length 10 --db
    --json`, run once for every test that checks the whole L5 search or its
    database, with the search's duplicate checks, its refuter calls and its
    GenResult."""
    db = str(tmp_path_factory.mktemp("l5") / "fo2.jsonl")
    refuted, results = [], []
    refute, search = generator.is_refuted, cli.generate

    def refuting(s):
        refuted.append((s, refute(s)))
        return refuted[-1][1]

    def searching(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    out = io.StringIO()
    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        checks = record_duplicate_checks(mp)
        mp.setattr(generator, "is_refuted", refuting)
        mp.setattr(cli, "generate", searching)
        code = cli.main([
            "generate", "--profile", "fo2-paper", "--layers", "5",
            "--length", "10", "--db", db, "--json",
        ])
    secs = time.perf_counter() - t0
    (result,) = results
    text = out.getvalue()
    return L5Run(code, text, json.loads(text), db, result, checks, refuted, secs)
