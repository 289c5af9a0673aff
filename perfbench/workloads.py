"""The benchmark's workloads: set-up, timed pass, and output checks.

Each workload has the same three steps.  `setup(workdir)` does everything
before the timed pass and returns a digest of the inputs it made, so the
harness can repeat it and see that the inputs did not change.  `run(passdir)`
is the timed pass.  `check(outcome, checks)` verifies that pass's outputs
outside the timed region and returns the number of items it completed.

The timed passes call combspec through module attributes
(`cli.main`, `engine.compute_spectrum`, `seqdb.SpectrumDB`), so the
traced run's wrappers see those calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from combspec import cli, engine, generator, logic, seqdb

from . import synth

# criterion-3 sentences with their first ten terms: A000142, A000085, A000166
GOLDEN = {
    "(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))":
        [1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800],
    "(V x E=1 y B(x,y)) & (V x E=1 y B(y,x)) & (V x V y B(x,x) | B(x,y) | ~B(y,x))":
        [1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496],
    "(V x B(x,x)) & (V x E=1 y ~B(x,y)) & (V x E=1 y ~B(y,x))":
        [0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961],
}
LENGTH = 10
BUDGET_SECS = 30.0
ORACLE_SAMPLE = 10
ORACLE_MAX_N = 3


class Checks:
    """Tally of checked operations; each failure keeps a description."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_relations(records: list[seqdb.Record], checks: Checks) -> None:
    """Re-verify every duplicate_of and product_of termwise."""
    by_id = {r.id: r for r in records}
    for rec in records:
        if rec.status == "duplicate":
            other = by_id.get(rec.duplicate_of)
            k = min(len(rec.spectrum), len(other.spectrum)) if other else 0
            checks.expect(
                k >= seqdb.MIN_OVERLAP and rec.spectrum[:k] == other.spectrum[:k],
                f"record {rec.id} is not a duplicate of {rec.duplicate_of}",
            )
        elif rec.status == "product_redundant":
            pair = [by_id.get(i) for i in rec.product_of or ()]
            triples = []
            if len(pair) == 2 and None not in pair:
                triples = list(zip(pair[0].spectrum, pair[1].spectrum, rec.spectrum))
            checks.expect(
                len(triples) >= seqdb.MIN_OVERLAP and all(f * c == s for f, c, s in triples),
                f"record {rec.id} is not the product of {rec.product_of}",
            )


def check_oracle(
    spectra: dict[str, list[int]], rng: random.Random, checks: Checks
) -> None:
    """Terms n <= ORACLE_MAX_N of a seed-chosen sample match brute force."""
    from combspec.oracle import count_models

    for text in rng.sample(sorted(spectra), min(ORACLE_SAMPLE, len(spectra))):
        s = logic.parse_sentence(text)
        for n in range(1, ORACLE_MAX_N + 1):
            terms = spectra[text]
            checks.expect(
                len(terms) >= n and count_models(s, n) == terms[n - 1],
                f"term {n} of {text} disagrees with the oracle",
            )


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Fo2Pipeline:
    """`combspec generate --profile fo2-paper --layers 4 --db ... --json`."""

    LAYERS = 4

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self, workdir: Path) -> str:
        return _digest(f"fo2-paper {self.LAYERS}".encode())

    def run(self, passdir: Path) -> dict:
        db = passdir / "fo2.jsonl"
        code, out = _cli([
            "generate", "--profile", "fo2-paper", "--layers", str(self.LAYERS),
            "--length", str(LENGTH), "--db", str(db), "--json",
        ])
        return {"code": code, "out": out, "db": db}

    def check(self, outcome: dict, checks: Checks) -> int:
        checks.expect(outcome["code"] == 0, f"generate exited {outcome['code']}")
        records = seqdb.SpectrumDB(outcome["db"]).records()
        try:
            kept = sum(row["kept"] for row in json.loads(outcome["out"])["layers"])
        except (ValueError, KeyError, TypeError):
            kept = -1
        checks.expect(kept == len(records), f"{kept} kept but {len(records)} records")
        for rec in records:
            checks.expect(
                not rec.truncated and len(rec.spectrum) == LENGTH,
                f"spectrum of {rec.sentence} truncated",
            )
        check_relations(records, checks)
        check_oracle({r.sentence: list(r.spectrum) for r in records}, self.rng, checks)
        return len(records)


class C2Spectra:
    """Length-10 spectra of the c2-paper layer-3 sentences and the golden three."""

    LAYERS = 3

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.texts: list[str] = []

    def setup(self, workdir: Path) -> str:
        p = cli.PROFILES["c2-paper"]
        limits = generator.GenLimits(
            max_literals=p["ml"], max_clauses=p["mc"], unary=p["up"],
            binary=p["bp"], max_count=p["k"],
        )
        kept = {s.render() for s in generator.generate(limits, self.LAYERS).all_kept()}
        self.texts = sorted(kept | set(GOLDEN))
        return _digest("\n".join(self.texts).encode())

    def run(self, passdir: Path) -> dict:
        return {
            text: engine.compute_spectrum(
                logic.parse_sentence(text), LENGTH, budget_secs=BUDGET_SECS
            )
            for text in self.texts
        }

    def check(self, outcome: dict, checks: Checks) -> int:
        for text, sp in outcome.items():
            checks.expect(
                not sp.truncated and len(sp.terms) == LENGTH,
                f"spectrum of {text} truncated",
            )
        for text, want in GOLDEN.items():
            got = outcome[text].terms
            checks.expect(got == want, f"golden {text}: {got} != {want}")
        found = {t: sp.terms for t, sp in outcome.items() if t not in GOLDEN}
        check_oracle(found, self.rng, checks)
        return len(outcome)


class DbCatalog:
    """Insert seeded synthetic spectra, reclassify, OEIS-match, reopen."""

    BASES = 1800

    def __init__(self, seed: int):
        self.seed = seed
        self.catalog: synth.Catalog | None = None
        self.spectra: list[tuple[str, tuple[int, ...]]] = []
        self.dump: Path | None = None

    def setup(self, workdir: Path) -> str:
        cat = synth.build(self.seed, self.BASES)
        spectra_path, self.dump = workdir / "spectra.jsonl", workdir / "stripped.gz"
        synth.write(cat, spectra_path, self.dump)
        # the dump is read back by the program; the harness keeps only what
        # its checks need
        cat.dump.clear()
        self.catalog = cat
        self.spectra = synth.read_spectra(spectra_path)
        return _digest(spectra_path.read_bytes(), self.dump.read_bytes())

    def run(self, passdir: Path) -> dict:
        path = passdir / "catalog.jsonl"
        db = seqdb.SpectrumDB(path)
        for name, terms in self.spectra:
            db.insert(name, terms)
        db.reclassify_products()
        code, out = _cli(["oeis", "--db", str(path), "--stripped", str(self.dump), "--json"])
        stats = seqdb.SpectrumDB(path).stats()
        return {"code": code, "out": out, "stats": stats, "db": path}

    def check(self, outcome: dict, checks: Checks) -> int:
        cat = self.catalog
        checks.expect(outcome["code"] == 0, f"oeis exited {outcome['code']}")
        records = seqdb.SpectrumDB(outcome["db"]).records()
        by_name = {r.sentence: r for r in records}
        checks.expect(
            len(records) == len(self.spectra) == outcome["stats"]["total"],
            f"{len(records)} records for {len(self.spectra)} spectra",
        )
        check_relations(records, checks)
        for name in list(cat.duplicates) + list(cat.products):
            rec = by_name.get(name)
            checks.expect(rec is not None and rec.status != "unique", f"planted {name} is unique")
        try:
            hits = {row["sentence"]: row["matches"] for row in json.loads(outcome["out"])}
        except (ValueError, KeyError, TypeError):
            hits = {}
        for name, aid in cat.oeis.items():
            rec = by_name.get(name)
            checks.expect(
                aid in hits.get(name, ()) and rec is not None and rec.oeis == aid,
                f"planted {aid} not reported for {name}",
            )
        return len(records)


WORKLOADS = {
    "fo2-pipeline": Fo2Pipeline,
    "c2-spectra": C2Spectra,
    "db-catalog": DbCatalog,
}
