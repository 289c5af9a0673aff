"""Command line front end: commands, exit codes, config handling."""

import gzip
import hashlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from combspec import cli, engine, generator
from combspec.cli import PROFILES, main
from combspec.engine import compute_spectrum
from combspec.generator import GenLimits, generate
from combspec.logic import parse_sentence
from combspec.oracle import count_models
from combspec.seqdb import STATUSES, SpectrumDB

FIXTURE = Path(__file__).parent / "fixtures" / "oeis_stripped.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exits(argv):
    """The status the entry point exits with: what main returns, or the
    code of the SystemExit that argparse raises for a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_wfomc_prints_count(capsys):
    code, out = run(capsys, "wfomc", "(V x ~R(x,x))", "--n", "3")
    assert code == 0
    assert out.strip() == "64"


def test_wfomc_weights(capsys):
    code, out = run(capsys, "wfomc", "(E x Heads(x))", "--n", "2", "--w", "Heads=4")
    assert code == 0
    assert out.strip() == "24"


NULLARY = "(V x E y B(x,y) | P) & (E x ~P | U(x))"
PERMUTATION = "(V x E=1 y B(x,y)) & (V x E=1 y B(y,x))"


@pytest.mark.parametrize(
    "argv, values",
    [
        (["wfomc", "(V x E=1 y R(x,y))", "--n", "5"], [3125]),
        (["wfomc", "(E x Heads(x))", "--n", "3", "--w", "Heads=4"], [124]),
        # a user nullary P beside the fresh nullary Z that (E x ~P | U(x))
        # becomes: the branch with both false is dead, and under P=0 the
        # two with P true have factor 0
        (["wfomc", NULLARY, "--n", "3", "--w", "P=0"], [2744]),
        (["wfomc", NULLARY, "--n", "3", "--w", "P=2", "--wbar", "P=-1"], [4424]),
        (["spectrum", NULLARY, "--length", "4"], [4, 84, 6328, 1793040]),
        # the packed symbolic cell DP, at length 14 beyond the benchmark's
        # 10 and at length 20
        *(
            (
                ["spectrum", PERMUTATION, "--length", str(length), "--json"],
                [math.factorial(n) for n in range(1, length + 1)],
            )
            for length in (7, 14, 20)
        ),
    ],
    ids=["3125", "124", "2744", "4424", "nullary", "n!-7", "n!-14", "n!-20"],
)
def test_commands_print_the_pinned_values(capsys, argv, values):
    code, out = run(capsys, *argv)
    terms = [str(v) for v in values]
    if "--json" in argv:
        doc = json.loads(out)
        assert (code, doc["terms"], doc["truncated"]) == (0, terms, False)
    else:
        assert (code, out.splitlines()) == (0, terms)


def test_spectrum_plain_output(capsys):
    code, out = run(capsys, "spectrum", "(V x E=1 y R(x,y))", "--length", "5")
    assert code == 0
    assert [int(t) for t in out.split()] == [1, 4, 27, 256, 3125]


def test_spectrum_json_output(capsys):
    code, out = run(capsys, "spectrum", "(E x U(x))", "--length", "4", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["terms"] == ["1", "3", "7", "15"]
    assert doc["truncated"] is False


def test_parse_error_exit_code(capsys):
    # the grammar allows the second; Predicate refuses its arity
    for text in ["(V x R(x,)", "(V x B(x,y,x))"]:
        assert main(["spectrum", text, "--length", "3"]) == 2
        assert capsys.readouterr().err.startswith("parse error:"), text


def test_fragment_error_exit_code(capsys):
    code, _ = run(capsys, "spectrum", "(V x E=2 y R(x,y))", "--length", "3")
    assert code == 3


def test_a_counting_clause_of_more_than_one_literal_matches_the_oracle(capsys):
    # the engine counts a fresh predicate defined as the clause's body
    text = "(V x E=1 y B(x,y) | U(x))"
    code, out = run(capsys, "spectrum", text, "--length", "4")
    want = [count_models(parse_sentence(text), n) for n in range(1, 5)]
    assert (code, [int(t) for t in out.split()]) == (0, want)


def test_budget_exit_code_with_partial_output(capsys):
    code, out = run(
        capsys,
        "spectrum",
        "(V x E y R(x,y))",
        "--length",
        "10",
        "--budget-secs",
        "0",
    )
    assert code == 4
    assert len(out.split()) < 10


def test_generate_budget_exit_code(tmp_path, capsys):
    # every spectrum runs out of its budget; generate itself does not
    code, out = run(
        capsys,
        "generate",
        "--profile",
        "fo2-paper",
        "--layers",
        "1",
        "--budget-secs",
        "0.000001",
        "--db",
        str(tmp_path / "t.jsonl"),
        "--json",
    )
    assert code == 4
    # the JSON flag is the one that sets the exit code
    assert json.loads(out)["truncated"] is True


@pytest.mark.parametrize("budget", ["nan", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "(V x E y R(x,y))", "--length", "3"],
        ["generate", "--profile", "fo2-paper", "--layers", "1"],
    ],
    ids=["spectrum", "generate"],
)
def test_a_budget_below_zero_or_nan_is_a_usage_error(tmp_path, argv, budget, capsys):
    # NaN would disable the budget and a negative one truncate everything;
    # generate reads --budget-secs only with --db
    if argv[0] == "generate":
        argv = argv + ["--db", str(tmp_path / "t.jsonl")]
    code = exits(argv + ["--budget-secs", budget])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"argument --budget-secs: must be at least 0, got {budget}" in err


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_a_search_budget_below_zero_or_nan_is_a_usage_error(budget, capsys):
    argv = ["generate", "--profile", "fo2-paper", "--layers", "1"]
    code = exits(argv + ["--search-budget-secs", budget])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"argument --search-budget-secs: must be at least 0, got {budget}" in err


def test_a_search_budget_names_the_layer_where_the_search_stopped(
    tmp_path, capsys, monkeypatch
):
    argv = ["generate", "--profile", "fo2-paper", "--layers", "3"]
    # a budget of 0 s runs out at the first candidate
    code, out = run(capsys, *argv, "--search-budget-secs", "0", "--json")
    doc = json.loads(out)
    assert (code, doc["truncated"], doc["stopped_layer"]) == (4, True, 1)
    # a clock that runs out after the 24 layer-1 candidates and 100 of
    # layer 2's 210, so the search stops inside layer 2
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= 124 else math.inf

    monkeypatch.setattr(generator, "time", SimpleNamespace(monotonic=clock))
    db = tmp_path / "t.jsonl"
    code, out = run(capsys, *argv, "--search-budget-secs", "60", "--db", str(db), "--json")
    doc = json.loads(out)
    assert (code, doc["truncated"], doc["stopped_layer"]) == (4, True, 2)
    kept = [row["kept"] for row in doc["layers"]]
    assert kept[0] == 4 and 0 < kept[1] < 36 and len(kept) == 2
    # the partial layer's kept sentences are stored like the others
    layers = [rec.layer for rec in SpectrumDB(db).records()]
    assert (layers.count(1), layers.count(2)) == (4, kept[1])
    reads.clear()
    code, out = run(capsys, *argv, "--search-budget-secs", "60")
    assert code == 4
    assert out.splitlines()[-1] == "search budget ran out in layer 2"


def test_a_search_budget_that_holds_changes_no_output(capsys):
    argv = ["generate", "--profile", "fo2-paper", "--layers", "2"]
    for flags in ([], ["--json"]):
        plain = run(capsys, *argv, *flags)
        assert run(capsys, *argv, *flags, "--search-budget-secs", "600") == plain
        assert plain[0] == 0


def test_generate_never_counts_a_truncated_spectrum_as_unique(tmp_path, capsys):
    db = tmp_path / "t.jsonl"
    code, out = run(
        capsys,
        "generate",
        "--profile",
        "fo2-paper",
        "--layers",
        "2",
        "--budget-secs",
        "0.000001",
        "--db",
        str(db),
    )
    assert code == 4
    layers = [line for line in out.splitlines() if line.startswith("layer ")]
    assert len(layers) == 2
    assert all(line.endswith(", unique 0") for line in layers)
    # the records themselves keep their truncation flag and status
    records = [json.loads(line) for line in db.read_text().splitlines()]
    assert records and all(r["truncated"] for r in records)
    assert all(r["status"] == "truncated" for r in records)
    code, out = run(capsys, "db", "stats", "--db", str(db))
    assert code == 0
    assert json.loads(out) == {"total": 40, "truncated": 40, "matched": 0}


def test_a_budgeted_run_does_not_hold_back_the_next_one(tmp_path, capsys):
    argv = ["generate", "--profile", "fo2-paper", "--layers", "2", "--json"]
    db = str(tmp_path / "t.jsonl")
    code, _ = run(capsys, *argv, "--budget-secs", "0.000001", "--db", db)
    assert code == 4
    code, out = run(capsys, *argv, "--db", db)
    assert code == 0
    code, fresh = run(capsys, *argv, "--db", str(tmp_path / "fresh.jsonl"))
    assert code == 0
    assert json.loads(out)["layers"] == json.loads(fresh)["layers"]
    # each sentence's latest record is whole
    latest = {r.sentence: r for r in SpectrumDB(db).records()}
    assert len(latest) == 40 and not any(r.truncated for r in latest.values())
    # stats and export read the latest records; the 40 truncated ones are
    # superseded
    stats = json.loads(out)["db"]
    code, out = run(capsys, "db", "stats", "--db", db)
    assert code == 0
    assert json.loads(out) == stats
    fresh_stats = json.loads(fresh)["db"]
    assert stats == fresh_stats | {"total": 80, "superseded": 40}
    code, out = run(capsys, "db", "export", "--db", db)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["id"] for r in rows] == [r.id for r in latest.values()]


def test_oeis_db_queries_no_truncated_spectrum(tmp_path, capsys):
    db = tmp_path / "t.jsonl"
    argv = ["generate", "--profile", "fo2-paper", "--layers", "2"]
    code, _ = run(capsys, *argv, "--budget-secs", "0.000001", "--db", str(db))
    assert code == 4
    # 40 records, all truncated: nothing to look up
    for flags in (["--json"], []):
        code, out = run(capsys, "oeis", "--db", str(db), "--stripped", str(FIXTURE), *flags)
        assert code == 0
        assert out == ("[]\n" if flags else "")


def test_generate_tallies_only_its_own_records(tmp_path, capsys):
    db = tmp_path / "t.jsonl"
    common = ["--layers", "2", "--db", str(db), "--json"]
    code, _ = run(
        capsys, "generate", "--ml", "2", "--mc", "2", "--up", "2", "--bp", "0", *common
    )
    assert code == 0
    code, out = run(capsys, "generate", "--profile", "fo2-paper", *common)
    assert code == 0
    # a demotion must not recount the first run's records into these layers
    layers = json.loads(out)["layers"]
    status = {r.sentence: r.status for r in SpectrumDB(db).records()}
    limits = GenLimits(max_literals=5, max_clauses=2, unary=1, binary=1)
    for row, kept in zip(layers, generate(limits, 2).kept):
        unique = sum(status[s.render()] == "unique" for s in kept)
        assert (row["kept"], row["unique"]) == (len(kept), unique)


def test_io_error_exit_code(capsys):
    code, _ = run(capsys, "db", "stats", "--db", "/nonexistent/dir/db.jsonl")
    assert code == 5


def test_generate_populates_db(tmp_path, capsys):
    db = tmp_path / "seq.jsonl"
    code, out = run(
        capsys,
        "generate",
        "--profile",
        "fo2-paper",
        "--layers",
        "2",
        "--db",
        str(db),
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["layers"][0] == {"layer": 1, "kept": 4, "unique": 4}
    assert doc["db"]["total"] == 40
    records = SpectrumDB(db).records()
    # records go in (layer, sentence) order, each with its own spectrum
    order = [(r.layer, r.sentence) for r in records]
    assert order == sorted(order)
    assert [r.id for r in records] == list(range(40))
    for rec in records:
        want = compute_spectrum(parse_sentence(rec.sentence), 10).terms
        assert list(rec.spectrum) == want


def test_generate_flags_without_profile(tmp_path, capsys):
    code, out = run(
        capsys,
        "generate",
        "--ml",
        "1",
        "--mc",
        "1",
        "--up",
        "1",
        "--bp",
        "1",
        "--k",
        "1",
        "--layers",
        "1",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["layers"][0]["kept"] == 7


@pytest.mark.parametrize("given", [["--ml", "1"], ["--ml", "1", "--mc", "1", "--bp", "1"]])
def test_generate_without_a_profile_needs_every_limit(capsys, given):
    assert exits(["generate", *given, "--layers", "1"]) == 2
    err = capsys.readouterr().err
    assert "missing limits" in err
    assert all(f"'{key}'" in err for key in ("ml", "mc", "up", "bp") if f"--{key}" not in given)


def test_db_stats_and_export(tmp_path, capsys):
    db = tmp_path / "seq.jsonl"
    run(capsys, "generate", "--profile", "fo2-paper", "--layers", "1", "--db", str(db))
    code, out = run(capsys, "db", "stats", "--db", str(db))
    assert code == 0
    assert json.loads(out)["total"] == 4
    code, out = run(capsys, "db", "export", "--db", str(db), "--status", "unique")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    assert all(r["status"] == "unique" for r in rows)


def test_db_stats_counts_what_export_lists_by_status(tmp_path, capsys):
    # a truncated record that duplicates a whole one is counted as the
    # duplicate it is, beside each other status and a superseded record
    db = tmp_path / "seq.jsonl"
    store = SpectrumDB(db)
    store.insert("a", [1, 2, 3, 4, 5, 6])
    assert store.insert("b", [1, 2, 3, 4, 5], truncated=True).status == "duplicate"
    store.insert("c", [2, 2, 2, 2, 2, 2])
    store.insert("d", [2, 4, 6, 8, 10, 12])
    store.insert("e", [7, 8], truncated=True)
    store.insert("f", [1, 9], truncated=True)
    store.insert("f", [1, 9, 81, 729, 6561])
    code, out = run(capsys, "db", "stats", "--db", str(db))
    assert code == 0
    stats = json.loads(out)
    assert stats == {
        "total": 7,
        "unique": 3,
        "duplicate": 1,
        "product_redundant": 1,
        "truncated": 1,
        "superseded": 1,
        "matched": 0,
    }
    for status in STATUSES:
        code, out = run(capsys, "db", "export", "--db", str(db), "--status", status)
        assert code == 0
        assert stats.get(status, 0) == len(out.splitlines())



@pytest.mark.parametrize("via_config", [False, True])
def test_db_export_refuses_an_unknown_status(tmp_path, capsys, via_config):
    db = tmp_path / "seq.jsonl"
    SpectrumDB(db).insert("(V x U(x))", [1, 1, 1, 1, 1])
    argv = ["db", "export", "--db", str(db)]
    if via_config:
        cfg = tmp_path / "db.cfg"
        cfg.write_text("status = uniqe\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--status", "uniqe"]
    code = exits(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    line = captured.err.splitlines()[-1]
    assert line.startswith(
        "combspec db: error: argument --status: invalid choice: 'uniqe'"
    )
    assert all(status in line for status in STATUSES)


@pytest.mark.parametrize("via_config", [False, True])
def test_db_stats_refuses_a_status(tmp_path, capsys, via_config):
    # stats counts every status, so a filter would read as applied
    db = tmp_path / "seq.jsonl"
    SpectrumDB(db).insert("(V x U(x))", [1, 1, 1, 1, 1])
    argv = ["db", "stats", "--db", str(db)]
    if via_config:
        cfg = tmp_path / "db.cfg"
        cfg.write_text("status = truncated\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--status", "truncated"]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --status applies to db export only\n"

def test_oeis_terms_against_fixture(capsys):
    argv = ["oeis", "--stripped", str(FIXTURE), "--terms"]
    assert run(capsys, *argv, "1,2,6,24,120,720") == (0, "A000142\n")
    code, out = run(capsys, *argv, "1,1,2,6,24,120,720", "--json")
    assert (code, json.loads(out)["matches"]) == (0, ["A000142"])



def test_oeis_without_a_source_is_a_usage_error(tmp_path, capsys):
    # every lookup would miss, and no output would read as no match
    code = main(["oeis", "--terms", "1,2,6,24,120,720"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: oeis needs --stripped or --online\n"
    # the check follows the parse, so a config file can name the dump
    cfg = tmp_path / "oeis.cfg"
    cfg.write_text(f"stripped = {FIXTURE}\n")
    code, out = run(capsys, "oeis", "--terms", "1,2,6,24,120,720", "--config", str(cfg))
    assert (code, out) == (0, "A000142\n")

def test_oeis_terms_beside_db_is_a_usage_error(tmp_path, capsys):
    # --terms would be looked up alone and the database left as it was
    db = tmp_path / "seq.jsonl"
    SpectrumDB(db).insert("(E x U(x))", [1, 3, 7, 15, 31])
    before = db.read_bytes()
    argv = ["oeis", "--terms", "1,1,2,6,24,120,720", "--stripped", str(FIXTURE)]
    cfg = tmp_path / "oeis.cfg"
    cfg.write_text(f"db = {db}\n")
    # a config file's options are parsed before the flags
    for extra, message in (
        (["--db", str(db)], "argument --db: not allowed with argument --terms"),
        (["--config", str(cfg)], "argument --terms: not allowed with argument --db"),
    ):
        code = exits(argv + extra)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines()[-1] == f"combspec oeis: error: {message}"
    assert db.read_bytes() == before


def test_oeis_db_annotates_matches(tmp_path, capsys):

    db_path = tmp_path / "seq.jsonl"
    db = SpectrumDB(db_path)
    db.insert("(E x U(x))", [1, 3, 7, 15, 31, 63])
    code, out = run(
        capsys,
        "oeis",
        "--db",
        str(db_path),
        "--stripped",
        str(FIXTURE),
        "--json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"sentence": "(E x U(x))", "matches": []}]


def test_oeis_db_writes_every_match_in_one_rewrite(tmp_path, capsys, monkeypatch):

    db_path = tmp_path / "seq.jsonl"
    db = SpectrumDB(db_path)
    db.insert("fact", [1, 1, 2, 6, 24, 120, 720])
    db.insert("none", [5, 7, 11, 13, 17, 19])
    db.insert("fib", [0, 1, 1, 2, 3, 5, 8, 13])
    db.insert("pow", [1, 2, 4, 8, 16, 32])
    rewrites = []
    rewrite = SpectrumDB._rewrite
    monkeypatch.setattr(
        SpectrumDB, "_rewrite", lambda self: rewrites.append(rewrite(self))
    )
    code, _ = run(
        capsys, "oeis", "--db", str(db_path), "--stripped", str(FIXTURE), "--json"
    )
    assert code == 0
    assert len(rewrites) == 1
    assert [r.oeis for r in SpectrumDB(db_path).records()] == [
        "A000142",
        None,
        "A000045",
        "A000079",
    ]


def test_oeis_db_keeps_matches_before_a_failed_lookup(tmp_path, capsys, monkeypatch):
    db_path = tmp_path / "seq.jsonl"
    db = SpectrumDB(db_path)
    db.insert("a", [1, 3, 7, 15, 31, 63])
    db.insert("b", [2, 5, 11, 23, 47, 95])
    answers = iter([["A000225"], OSError("connection reset")])

    def fake_online(terms):
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(cli, "online_search", fake_online)
    code, _ = run(capsys, "oeis", "--db", str(db_path), "--online")
    assert code == 5
    assert [r.oeis for r in SpectrumDB(db_path).records()] == ["A000225", None]


def _gzip_fixture() -> bytes:
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as fh:
        fh.write(FIXTURE.read_bytes() * 50)
    return buf.getvalue()


def _truncated(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _bad_block(data: bytes) -> bytes:
    # the deflate stream starts after the 10-byte header; block type 3 is
    # reserved, so zlib rejects it whatever its version
    return data[:10] + bytes([data[10] | 0b110]) + data[11:]


@pytest.mark.parametrize(
    "name, corrupt, why",
    [
        ("cut.gz", _truncated, "end-of-stream marker"),
        ("bad.gz", _bad_block, "invalid block type"),
        ("stripped.txt", lambda data: data, "can't decode"),
    ],
)
def test_oeis_unreadable_dump_is_a_file_error(tmp_path, capsys, name, corrupt, why):
    dump = tmp_path / name
    dump.write_bytes(corrupt(_gzip_fixture()))
    code = main(["oeis", "--terms", "1,2,6,24,120", "--stripped", str(dump)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("file error:") and why in err


def test_oeis_missing_db_is_a_file_error(tmp_path, capsys):
    db_path = tmp_path / "missing.jsonl"
    code = main(["oeis", "--db", str(db_path), "--stripped", str(FIXTURE)])
    assert code == 5
    assert capsys.readouterr().err.startswith("file error:")
    assert not db_path.exists()


@pytest.mark.parametrize(
    "line", [b'{"id": 0, bad', b'{"id": 0}', b'{"id": 0, "sentence": "\xff"']
)
@pytest.mark.parametrize(
    "argv",
    [
        ["db", "stats"],
        ["oeis", "--stripped", str(FIXTURE)],
        ["generate", "--profile", "fo2-paper", "--layers", "1"],
        ["db", "export"],
    ],
)
def test_malformed_db_is_a_file_error(tmp_path, capsys, line, argv):
    # bad JSON, good JSON that is not a record, and a line that is not
    # UTF-8: each names the file and line
    db = tmp_path / "bad.jsonl"
    db.write_bytes(line + b"\n")
    code = main(argv + ["--db", str(db)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"file error: {db}:1: ")
    assert db.read_bytes() == line + b"\n"


def test_oeis_db_refuses_a_concatenated_store(tmp_path, capsys):
    # the factorial record of the second file has id 0, so its match would
    # land on the first file's all-ones record
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    SpectrumDB(first).insert("ones", [1] * 7)
    SpectrumDB(first).insert("pow", [1, 2, 4, 8, 16, 32])
    SpectrumDB(second).insert("fact", [1, 1, 2, 6, 24, 120, 720])
    db = tmp_path / "both.jsonl"
    before = first.read_bytes() + second.read_bytes()
    db.write_bytes(before)
    code = main(["oeis", "--db", str(db), "--stripped", str(FIXTURE)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (5, "")
    assert captured.err.startswith(f"file error: {db}:3: malformed record")
    assert db.read_bytes() == before
    # each fo2 L1 store holds ids 0..3, so line 5 is the second store's id 0
    argv = ["generate", "--profile", "fo2-paper", "--layers", "1", "--db"]
    for path in (first, second):
        path.unlink()
        assert run(capsys, *argv, str(path))[0] == 0
    db.write_bytes(first.read_bytes() + second.read_bytes())
    code = main(["db", "stats", "--db", str(db)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (5, "")
    assert captured.err.startswith(f"file error: {db}:5: malformed record")


def test_generate_opens_the_db_before_the_search(tmp_path, capsys, monkeypatch):
    # a malformed file exits 5 at once, not after a search it cannot store
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "generate", no_search)
    db = tmp_path / "bad.jsonl"
    db.write_text("not json\n")
    code = main(["generate", "--profile", "fo2-paper", "--layers", "5", "--db", str(db)])
    assert code == 5
    assert capsys.readouterr().err.startswith(f"file error: {db}:1: ")


@pytest.mark.parametrize("parent", ["missing", "a file", "empty path"])
def test_generate_refuses_a_db_it_cannot_create_before_the_search(
    tmp_path, capsys, monkeypatch, parent
):
    # the first insert would fail only after the whole search
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "generate", no_search)
    if parent == "a file":
        (tmp_path / parent).write_text("")
    before = sorted(tmp_path.rglob("*"))
    # an empty path names the working directory, as it does to db stats
    monkeypatch.chdir(tmp_path)
    db = "" if parent == "empty path" else tmp_path / parent / "x.jsonl"
    code = main(["generate", "--profile", "fo2-paper", "--layers", "5", "--db", str(db)])
    assert code == 5
    assert capsys.readouterr().err.startswith("file error: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_generate_without_a_db_computes_no_spectrum(capsys, monkeypatch):
    # nothing is stored, so nothing needs a spectrum
    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was computed")

    monkeypatch.setattr(engine, "compute_spectrum", no_spectrum)
    argv = ["generate", "--profile", "fo2-paper", "--layers", "3", "--json"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert [row["kept"] for row in json.loads(out)["layers"]] == [4, 36, 179]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [("length", "5"), ("budget_secs", "1")])
def test_spectrum_options_without_a_db_are_usage_errors(
    tmp_path, capsys, monkeypatch, source, key, value
):
    # they bound the spectra that only --db computes, so they would read
    # as applied to a search that ignores them
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "generate", no_search)
    argv = ["generate", "--profile", "fo2-paper", "--layers", "2"]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    before = sorted(tmp_path.rglob("*"))
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --length and --budget-secs apply with --db only\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_generate_rows_carry_unique_only_with_a_db(tmp_path, capsys):
    argv = ["generate", "--profile", "fo2-paper", "--layers", "2", "--json"]
    code, out = run(capsys, *argv)
    assert code == 0
    # nothing was stored, so nothing was counted
    assert json.loads(out)["layers"] == [
        {"layer": 1, "kept": 4},
        {"layer": 2, "kept": 36},
    ]
    code, out = run(capsys, *argv, "--db", str(tmp_path / "t.jsonl"))
    assert code == 0
    assert json.loads(out)["layers"] == [
        {"layer": 1, "kept": 4, "unique": 4},
        {"layer": 2, "kept": 36, "unique": 35},
    ]


@pytest.mark.parametrize(
    "limits, kept",
    [
        # the first layer past the paper's L5: about 5 s of search
        ("--profile fo2-paper --layers 6", [4, 36, 179, 676, 1641, 3021]),
        # every counting sentence the paper's C2 profile builds: about 5 s
        ("--profile c2-paper --layers 6", [7, 73, 302, 943, 1976, 3228]),
        # duplicate checks map candidates by the generators alone,
        # exchanges of two predicates among them, and label the rest
        ("--ml 3 --mc 2 --up 2 --bp 2 --layers 3", [4, 42, 281]),
        ("--ml 3 --mc 2 --up 0 --bp 2 --layers 3", [3, 33, 167]),
        # without a unary predicate the duplicate checks key by orbit
        ("--ml 3 --mc 2 --up 0 --bp 1 --layers 4", [3, 29, 83, 170]),
    ],
    ids=["fo2-paper-L6", "c2-paper-L6", "up2-bp2-L3", "up0-bp2-L3", "up0-bp1-L4"],
)
def test_generate_prints_the_pinned_kept_rows(capsys, limits, kept):
    # nothing is stored without --db, so no row carries a unique count
    code, out = run(capsys, "generate", *limits.split(), "--json")
    rows = [{"layer": i, "kept": k} for i, k in enumerate(kept, 1)]
    assert (code, json.loads(out)) == (0, {"layers": rows, "truncated": False})


def test_db_export_writes_a_fresh_store_back_byte_for_byte(tmp_path, capsys):
    # no record of a fresh fo2 L3 run is superseded, so exporting the
    # latest records re-encodes the whole file
    db = tmp_path / "x.jsonl"
    argv = ["generate", "--profile", "fo2-paper", "--layers", "3", "--db", str(db)]
    assert run(capsys, *argv)[0] == 0
    code, out = run(capsys, "db", "export", "--db", str(db))
    assert (code, out.encode()) == (0, db.read_bytes())


def test_a_rerun_after_an_oeis_rewrite_stores_beside_the_match(tmp_path, capsys):
    # `oeis --db` matches the first unique fo2 L2 record against a one-line
    # dump and rewrites the file; the L3 rerun's inserts must land in the
    # rewritten file, beside the match it holds
    db, dump = tmp_path / "w.jsonl", tmp_path / "stripped.txt"
    argv = ["generate", "--profile", "fo2-paper", "--db", str(db), "--json"]
    assert run(capsys, *argv, "--layers", "2")[0] == 0
    first = next(r for r in SpectrumDB(db).records() if r.status == "unique")
    dump.write_text("A999999 ," + ",".join(map(str, first.spectrum)) + ",\n")
    assert run(capsys, "oeis", "--db", str(db), "--stripped", str(dump), "--json")[0] == 0
    code, out = run(capsys, *argv, "--layers", "3")
    stats = json.loads(out)["db"]
    assert (code, stats["total"]) == (0, 219) and stats["matched"] >= 1


def test_oeis_missing_dump_is_a_file_error_without_queries(tmp_path, capsys):
    # no unique record, and one too short to look up: the dump is still opened
    empty, short = tmp_path / "empty.jsonl", tmp_path / "short.jsonl"
    empty.write_text("")
    SpectrumDB(short).insert("short", [1, 2])
    missing = str(tmp_path / "missing.gz")
    for db in (empty, short):
        code = main(["oeis", "--db", str(db), "--stripped", missing])
        assert code == 5
        assert capsys.readouterr().err.startswith("file error:")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    # comment and blank lines are skipped: read as settings, a blank line
    # would be a bad line and "# k" an unknown key
    cfg.write_text("# k = 1\n\nml = 1\nmc = 1\n  # indented\nup = 1\nbp = 1\n\n"
                   "k = 0\nlayers = 1\njson = true\n")
    code, out = run(capsys, "generate", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["layers"][0]["kept"] == 4


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("ml = 1\nmc = 1\nup = 1\nbp = 1\nk = 0\nlayers = 1\n")
    code, out = run(capsys, "generate", "--config", str(cfg), "--k", "1", "--json")
    assert code == 0
    assert json.loads(out)["layers"][0]["kept"] == 7


def test_config_lists_repeatable_options(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("w = Heads=4\n")
    args = ("wfomc", "(E x Heads(x))", "--n", "2", "--config", str(cfg))
    assert run(capsys, *args) == (0, "24\n")
    cfg.write_text("w = Heads=4, Tails=3\nwbar = Tails=2\n")
    code, out = run(capsys, "wfomc", "(E x Heads(x)) & (V x Tails(x))", "--n", "2",
                    "--config", str(cfg))
    assert (code, out) == (0, "216\n")


def test_config_weights_fill_in_only_beside_no_flag_of_their_option(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("w = Heads=4\n")
    argv = ["wfomc", "(E x Heads(x))", "--n", "2", "--config", str(cfg)]
    argv += ["--w", "Heads=5"]
    # the flag's weight alone: (5 + 1)^2 - 1
    assert run(capsys, *argv) == (0, "35\n")
    # a wbar key still fills in beside a --w flag: (5 + 2)^2 - 2^2
    cfg.write_text("w = Heads=4\nwbar = Heads=2\n")
    assert run(capsys, *argv) == (0, "45\n")
    # a flag for another name keeps the key's Heads=4 out too: 3^2 * ((1 + 1)^2 - 1)
    cfg.write_text("w = Heads=4\n")
    argv = ["wfomc", "(E x Heads(x)) & (V x Tails(x))", "--n", "2", "--config", str(cfg)]
    assert run(capsys, *argv, "--w", "Tails=3") == (0, "27\n")


def test_a_config_value_that_starts_with_a_dash_stays_a_value(tmp_path, capsys):
    # on the command line `--terms -1,1,...` would read as an unknown option
    cfg = tmp_path / "oeis.cfg"
    cfg.write_text(f"terms = -1,1,-1,1,-1,1\nstripped = {FIXTURE}\njson = yes\n")
    code, out = run(capsys, "oeis", "--config", str(cfg))
    assert (code, json.loads(out)) == (0, {"terms": [-1, 1, -1, 1, -1, 1], "matches": []})


def test_config_supplies_required_options(tmp_path, capsys):
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n = 2\n")
    argv = ["wfomc", "(E x U(x))", "--config", str(cfg)]
    assert run(capsys, *argv) == (0, "3\n")
    # the flag wins: 2^3 - 1
    assert run(capsys, *argv, "--n", "3") == (0, "7\n")
    db = tmp_path / "seq.jsonl"
    SpectrumDB(db).insert("(E x U(x))", [1, 3, 7, 15, 31])
    cfg.write_text(f"db = {db}\n")
    code, out = run(capsys, "db", "stats", "--config", str(cfg))
    assert (code, json.loads(out)) == (0, {"total": 1, "unique": 1, "matched": 0})


@pytest.mark.parametrize(
    "value, output",
    [
        ("true", "json"),
        ("Yes", "json"),
        ("1", "json"),
        ("false", "plain"),
        ("NO", "plain"),
        ("0", "plain"),
        # read as false, a misspelt true would print plain terms and exit 0
        ("ture", None),
        ("", None),
        ("2", None),
    ],
)
def test_a_flag_key_takes_true_or_false_only(tmp_path, capsys, value, output):
    cfg = tmp_path / "j.cfg"
    cfg.write_text(f"json = {value}\n")
    code = exits(["spectrum", "(E x U(x))", "--length", "3", "--config", str(cfg)])
    captured = capsys.readouterr()
    if output is None:
        assert (code, captured.out) == (2, "")
        message = f"config key 'json' takes true or false, got {value!r}"
        assert captured.err.splitlines()[-1] == f"combspec spectrum: error: {message}"
    elif output == "json":
        assert code == 0
        assert json.loads(captured.out)["terms"] == ["1", "3", "7"]
    else:
        assert (code, captured.out) == (0, "1\n3\n7\n")


@pytest.mark.parametrize("via_config", [False, True])
def test_an_unknown_profile_is_a_usage_error(tmp_path, capsys, via_config):
    argv = ["generate", "--layers", "1"]
    if via_config:
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("profile = fo2-papr\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--profile", "fo2-papr"]
    code = exits(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    line = captured.err.splitlines()[-1]
    assert line.startswith(
        "combspec generate: error: argument --profile: invalid choice: 'fo2-papr'"
    )
    assert all(name in line for name in PROFILES)


@pytest.mark.parametrize(
    "argv, config, out_digest, db_digest",
    [
        (
            ["--profile", "fo2-paper", "--layers", "4", "--length", "10", "--json"],
            "",
            "3b7b7404a0ef53118c7c6401eb89d9d4bd4282dbd893031afb3c5434a93b5cd7",
            "afcd9b225b912358263e2f3f319dc8c3f0b9d88ae0d262979598ceaf02ac198c",
        ),
        (
            [],
            "profile = c2-paper\nlayers = 3\nlength = 10\njson = true\n",
            "02a7ac56c9b2703179dd8aee5fd0c43b9d5d1ecfd89c3058970d4db600b41944",
            "8468b10c5cf7f2dd14ad86711ffab153385eed12fd00bebfa9f1e0fca16e3af2",
        ),
    ],
    ids=["fo2-L4-flags", "c2-L3-config"],
)
def test_generate_db_json_is_the_pinned_bytes(
    tmp_path, capsys, argv, config, out_digest, db_digest
):
    # the stdout and database bytes of `generate --db --json`, from flags
    # and from an equivalent --config file
    db = tmp_path / "t.jsonl"
    if config:
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(config + f"db = {db}\n")
        argv = ["--config", str(cfg)]
    else:
        argv = argv + ["--db", str(db)]
    code, out = run(capsys, "generate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(db.read_bytes()).hexdigest() == db_digest


def test_config_unknown_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("profile = fo2-paper\nlayer = 1\n")
    try:
        main(["generate", "--config", str(cfg)])
    except SystemExit as e:
        assert e.code == 2
    else:
        raise AssertionError("an unknown config key should exit 2")
    assert "'layer'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["wfomc", "(E x U(x))", "--n", "2"], "json", "true"),
        (["wfomc", "(E x U(x))", "--n", "2"], "func", "nothing"),
        (["wfomc", "(E x U(x))", "--n", "2"], "command", "spectrum"),
        (["wfomc", "(E x U(x))", "--n", "2"], "sentence", "(V x U(x))"),
        (["wfomc", "(E x U(x))", "--n", "2"], "config", "other.cfg"),
        (["db", "stats"], "db_command", "export"),
        (["db", "stats"], "json", "true"),
    ],
)
def test_a_config_key_must_name_an_option_of_the_command(
    tmp_path, capsys, argv, key, value
):
    # positionals, the parser's own attributes and --config itself are
    # not options a config file may set
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    if argv[0] == "db":
        db = tmp_path / "seq.jsonl"
        SpectrumDB(db).insert("(E x U(x))", [1, 3, 7, 15, 31])
        argv = argv + ["--db", str(db)]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert f"unknown config key {key!r} for {argv[0]}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["wfomc", "(E x U(x))", "--n", "2"],
        ["db", "stats"],
        ["db", "export"],
    ],
)
def test_json_is_refused_where_no_command_reads_it(tmp_path, capsys, argv):
    if argv[0] == "db":
        db = tmp_path / "seq.jsonl"
        SpectrumDB(db).insert("(E x U(x))", [1, 3, 7, 15, 31])
        argv = argv + ["--db", str(db)]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--json"])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert "--json" in captured.err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("option", ["w", "wbar"])
@pytest.mark.parametrize(
    "argv", [["wfomc", "(E x Heads(x))", "--n", "2"], ["spectrum", "(E x Heads(x))"]]
)
def test_a_weight_for_a_name_not_in_the_sentence_is_a_usage_error(
    tmp_path, capsys, argv, option, source
):
    # the library ignores such a weight, so a misspelt name would print the
    # unweighted count
    if source == "flag":
        argv = argv + [f"--{option}", "Haeds=4"]
    else:
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"{option} = Haeds=4\n")
        argv = argv + ["--config", str(cfg)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "'Haeds'" in captured.err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["wfomc", "(E x H(x))", "--n", "2"], "w", "H=x"),
        (["spectrum", "(E x H(x))"], "wbar", "H"),
        (["oeis", "--stripped", str(FIXTURE)], "terms", "1,x,3"),
        # a query of no integer would match nothing and exit 0
        (["oeis", "--stripped", str(FIXTURE)], "terms", ""),
        (["oeis", "--stripped", str(FIXTURE)], "terms", ","),
    ],
    ids=["w", "wbar", "terms", "terms-empty", "terms-comma"],
)
def test_a_value_of_the_wrong_form_names_its_flag(
    tmp_path, capsys, argv, key, value, source
):
    if source == "flag":
        argv = argv + [f"--{key}", value]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = argv + ["--config", str(cfg)]
    code = exits(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    # argparse names the option's type: weight or terms
    kind = "terms" if key == "terms" else "weight"
    assert captured.err.splitlines()[-1] == (
        f"combspec {argv[0]}: error: argument --{key}: invalid {kind} value: {value!r}"
    )


def test_unreadable_config_is_a_file_error(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert main(["wfomc", "(E x U(x))", "--n", "2", "--config", str(cfg)]) == 5
    assert capsys.readouterr().err.startswith("file error: ")


def test_a_config_file_that_is_not_utf8_is_a_file_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# Größe\nn=2\n".encode("latin-1"))
    assert main(["wfomc", "(E x U(x))", "--n", "2", "--config", str(cfg)]) == 5
    assert capsys.readouterr().err.startswith(f"file error: {cfg}: not UTF-8: ")


def test_malformed_config_line_is_a_parse_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("junk line\n")
    assert main(["wfomc", "(E x U(x))", "--n", "2", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: bad config line: ")


def test_generate_rejects_unsupported_counting(capsys):
    code = main(["generate", "--profile", "c2-paper", "--k", "3", "--layers", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "E=1" in captured.err


@pytest.mark.parametrize("value", ["2", "-1"])
def test_generate_refuses_counting_other_than_e1(capsys, value):
    code = main(["generate", "--profile", "c2-paper", "--k", value, "--layers", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: max_count must be 0 or 1")


def test_unknown_command_exits_nonzero(capsys):
    try:
        main(["frobnicate"])
    except SystemExit as e:
        assert e.code != 0
    else:
        raise AssertionError("argparse should reject unknown commands")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "(V x U(x))", "--length", "0"],
        ["spectrum", "(V x U(x))", "--length", "-3"],
        ["generate", "--profile", "fo2-paper", "--layers", "1", "--length", "0"],
        ["generate", "--profile", "fo2-paper", "--layers", "0"],
        ["generate", "--profile", "fo2-paper", "--layers", "-1"],
    ],
)
def test_counts_below_one_are_errors(tmp_path, capsys, argv):
    # the last flag of argv is the one refused
    db = tmp_path / "t.jsonl"
    code = exits(argv + (["--db", str(db)] if argv[0] == "generate" else []))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    flag, value = argv[-2:]
    assert captured.err.splitlines()[-1] == (
        f"combspec {argv[0]}: error: argument {flag}: must be at least 1, got {value}"
    )
    assert not db.exists()


@pytest.mark.parametrize("n", ["0", "-2"])
def test_a_domain_size_below_one_names_its_flag(capsys, n):
    code = exits(["wfomc", "(V x E=1 y R(x,y))", "--n", n])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == (
        f"combspec wfomc: error: argument --n: must be at least 1, got {n}"
    )


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--ml", "0", "max_literals must be at least 1"),
        ("--mc", "0", "max_clauses must be at least 1"),
        ("--up", "-1", "unary must be at least 0"),
        ("--bp", "-2", "binary must be at least 0"),
        ("--bp", "-1", "binary must be at least 0"),
        ("--ml", "abc", "argument --ml: invalid int value: 'abc'"),
        ("--layers", "x", "argument --layers: invalid int value: 'x'"),
    ],
)
def test_generate_rejects_limits_out_of_range(tmp_path, capsys, flag, value, message):
    # a flag and a config key of the same value meet the same check
    db = tmp_path / "t.jsonl"
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    for source in ([flag, value], ["--config", str(cfg)]):
        argv = ["generate", "--profile", "fo2-paper", "--layers", "2", *source]
        code = exits(argv + ["--db", str(db), "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        # GenLimits refuses the value in main, argparse before it
        line = captured.err.splitlines()[-1]
        assert line.startswith(f"error: {message}") or (
            line == f"combspec generate: error: {message}"
        )
        assert not db.exists()


def test_generate_runs_in_one_process_agree(tmp_path, capsys):
    # the cell-DP memo lives for one run, so nothing carries to the next
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        db = tmp_path / name
        code, out = run(
            capsys, "generate", "--profile", "c2-paper", "--layers", "2", "--db", str(db)
        )
        assert code == 0
        outs.append((out, db.read_bytes()))
    assert outs[0] == outs[1]
