"""Append-only spectrum store: duplicates, products, persistence."""

import math
import os
import random
import re
from types import SimpleNamespace

import pytest

from combspec import seqdb
from combspec.seqdb import MIN_OVERLAP, STATUSES, Record, SpectrumDB
from helpers import ReferenceWriter, reference_record_json


def make_db(tmp_path, name="seq.jsonl"):
    return SpectrumDB(tmp_path / name)


def test_insert_and_lookup(tmp_path):
    db = make_db(tmp_path)
    rec = db.insert("(V x E y B(x,y))", [1, 9, 343, 50625, 28629151], layer=1)
    assert rec.status == "unique"
    assert rec.id == 0
    assert rec.layer == 1


def test_reinsert_same_sentence_is_idempotent(tmp_path):
    db = make_db(tmp_path)
    a = db.insert("(E x U(x))", [1, 3, 7, 15, 31])
    b = db.insert("(E x U(x))", [1, 3, 7, 15, 31])
    assert a.id == b.id
    assert db.stats()["total"] == 1


def test_duplicate_needs_five_terms(tmp_path):
    db = make_db(tmp_path)
    db.insert("s1", [1, 3, 7, 15, 31, 63])
    # four-term overlap is not enough evidence
    short = db.insert("s2", [1, 3, 7, 15])
    assert short.status == "unique"
    dup = db.insert("s3", [1, 3, 7, 15, 31])
    assert dup.status == "duplicate"
    assert dup.duplicate_of == 0


def test_differing_later_term_is_not_duplicate(tmp_path):
    db = make_db(tmp_path)
    db.insert("s1", [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023])
    other = db.insert("s2", [1, 3, 7, 15, 31, 64, 127, 255, 511, 1023])
    assert other.status == "unique"


def test_truncated_record_matches_on_common_prefix(tmp_path):
    db = make_db(tmp_path)
    db.insert("long", [2, 6, 26, 162, 1442, 18306, 330626])
    cut = db.insert("cut", [2, 6, 26, 162, 1442], truncated=True)
    assert cut.status == "duplicate"


def test_a_truncated_record_never_shadows_a_whole_one(tmp_path):
    db = make_db(tmp_path)
    cut = db.insert("cut", [2, 6, 26, 162, 1442], truncated=True)
    long = db.insert("long", [2, 6, 26, 162, 1442, 18306, 330626])
    assert cut.status == "truncated"
    assert long.status == "unique" and long.duplicate_of is None
    assert db.unique_records() == [long]
    assert make_db(tmp_path).unique_records() == [long]


def test_an_older_truncated_unique_record_reads_as_truncated(tmp_path):
    path = tmp_path / "seq.jsonl"
    path.write_text(
        '{"id": 0, "sentence": "cut", "spectrum": ["2", "6", "26", "162", "1442"],'
        ' "status": "unique", "truncated": true}\n'
    )
    db = SpectrumDB(path)
    assert [r.status for r in db.records()] == ["truncated"]
    assert db.insert("long", [2, 6, 26, 162, 1442, 18306]).status == "unique"


def test_a_whole_spectrum_supersedes_a_truncated_record(tmp_path):
    db = make_db(tmp_path)
    cut = db.insert("(E x U(x))", [], truncated=True)
    whole = db.insert("(E x U(x))", [1, 3, 7, 15, 31])
    assert (cut.id, cut.status) == (0, "truncated")
    assert (whole.id, whole.status) == (1, "unique")
    # the file keeps both, and the latest record is the sentence's
    again = make_db(tmp_path)
    assert [r.status for r in again.records()] == ["truncated", "unique"]
    assert again.insert("(E x U(x))", [1, 3, 7, 15, 31]) == whole
    assert again.stats()["total"] == 2


def test_square_is_product_redundant(tmp_path):
    db = make_db(tmp_path)
    base = db.insert("base", [1, 3, 7, 15, 31, 63])
    sq = db.insert("square", [1, 9, 49, 225, 961, 3969])
    assert sq.status == "product_redundant"
    assert sq.product_of == (base.id, base.id)


def test_product_of_two_factors(tmp_path):
    db = make_db(tmp_path)
    a = db.insert("a", [1, 2, 6, 24, 120, 720])
    b = db.insert("b", [1, 3, 7, 15, 31, 63])
    p = db.insert("p", [1, 6, 42, 360, 3720, 45360])
    assert p.status == "product_redundant"
    assert set(p.product_of) == {a.id, b.id}


def test_product_with_zero_factor_positions(tmp_path):
    # where the factor is zero the quotient is unconstrained, so the match
    # must verify those positions against the product directly
    db = make_db(tmp_path)
    a = db.insert("a", [0, 1, 2, 3, 4, 5])
    b = db.insert("b", [1, 1, 2, 2, 1, 3])
    p = db.insert("p", [0, 1, 4, 6, 4, 15])
    assert p.status == "product_redundant"
    assert set(p.product_of) == {a.id, b.id}


def test_zero_position_mismatch_rejected(tmp_path):
    db = make_db(tmp_path)
    db.insert("a", [0, 1, 2, 3, 4, 5])
    db.insert("b", [1, 1, 2, 2, 1, 3])
    # disagrees at the masked position: 7 != 0 * anything
    q = db.insert("q", [7, 1, 4, 6, 4, 15])
    assert q.status == "unique"


def test_all_ones_factor_is_ignored(tmp_path):
    db = make_db(tmp_path)
    db.insert("ones", [1, 1, 1, 1, 1, 1])
    db.insert("base", [1, 3, 7, 15, 31, 63])
    same = db.insert("copycat", [1, 3, 7, 15, 31, 62])
    # base * ones would "explain" any sequence equal to base; forbid it
    assert same.status == "unique"


def test_short_spectra_never_product_matched(tmp_path):
    db = make_db(tmp_path)
    db.insert("a", [2, 3, 5, 7])
    db.insert("b", [3, 4, 6, 8])
    p = db.insert("p", [6, 12, 30, 56])
    assert p.status == "unique"
    assert len(p.spectrum) < MIN_OVERLAP


def test_reclassify_products_settles_insert_order(tmp_path):
    db = make_db(tmp_path)
    # the product arrives before its factors, so insert-time detection misses it
    p = db.insert("p", [1, 6, 42, 360, 3720, 45360])
    db.insert("a", [1, 2, 6, 24, 120, 720])
    db.insert("b", [1, 3, 7, 15, 31, 63])
    assert db.records()[p.id].status == "unique"
    demoted = db.reclassify_products()
    assert demoted == 1
    assert db.records()[p.id].status == "product_redundant"
    assert set(db.records()[p.id].product_of) == {1, 2}


def test_reclassify_is_idempotent(tmp_path):
    db = make_db(tmp_path)
    db.insert("p", [1, 9, 49, 225, 961, 3969])
    db.insert("a", [1, 3, 7, 15, 31, 63])
    assert db.reclassify_products() == 1
    assert db.reclassify_products() == 0


def test_reclassify_never_takes_a_truncated_factor(tmp_path):
    db = make_db(tmp_path)
    prod = db.insert("prod", [2, 6, 24, 120, 720, 5040])
    cut = db.insert("cut", [1, 2, 6, 24, 120], truncated=True)
    two = db.insert("two", [2, 3, 4, 5, 6, 7])
    # prod is cut times two on their five common terms, but cut is truncated
    assert (cut.status, two.status) == ("truncated", "unique")
    assert db.reclassify_products() == 0
    assert (db.records()[prod.id].status, db.records()[prod.id].product_of) == (
        "unique",
        None,
    )


def test_persistence_round_trip(tmp_path):
    path = tmp_path / "seq.jsonl"
    db = SpectrumDB(path)
    db.insert("(E x U(x))", [1, 3, 7, 15, 31], layer=1, profile="fo2-paper")
    db.insert("(V x E y B(x,y))", [1, 9, 343, 50625, 28629151], layer=1)
    db.insert("dup", [1, 3, 7, 15, 31])
    reloaded = SpectrumDB(path)
    assert [r.to_json() for r in reloaded.records()] == [
        r.to_json() for r in db.records()
    ]
    assert reloaded.stats() == db.stats()
    # idempotency map survives the reload
    again = reloaded.insert("(E x U(x))", [1, 3, 7, 15, 31])
    assert again.id == 0
    assert reloaded.stats()["total"] == 3


def test_big_integers_survive_round_trip(tmp_path):
    path = tmp_path / "seq.jsonl"
    db = SpectrumDB(path)
    huge = [1, 18, 1699, 592260, 754179301, 3562635108438, 63770601591579079]
    db.insert("big", huge)
    assert SpectrumDB(path).records()[0].spectrum == tuple(huge)


@pytest.mark.parametrize(
    "bad",
    [
        '{"id": 1, bad',
        '{"id": 1}',
        "[1, 2]",
        '{"spectrum": 5}',
        # fields that to_json could not write back as they were read
        '{"id": "1", "sentence": "s", "spectrum": [], "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": [], "status": "unique", "layer": true}',
        '{"id": 1, "sentence": "s", "spectrum": [], "status": "unique", "product_of": [0]}',
        '{"id": 1, "sentence": "s", "spectrum": "11111", "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": "", "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": ["1", 1.5], "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": [true], "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": [], "status": "unique", "product_of": 0}',
        '{"id": 1, "sentence": "s", "spectrum": [], "status": "unique", "product_of": false}',
        '{"id": 1, "sentence": "s", "spectrum": [], "status": "unique", "product_of": ""}',
        '{"id": 1, "sentence": "s", "spectrum": [], "status": "unique", "product_of": []}',
        '{"id": 1, "sentence": "s", "spectrum": [], "status": "bogus"}',
        # terms that int() reads but to_json would write back as other bytes
        '{"id": 1, "sentence": "s", "spectrum": [" 1"], "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": ["1_000"], "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": ["+5"], "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": ["\u0663"], "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": ["-0"], "status": "unique"}',
        '{"id": 1, "sentence": "s", "spectrum": ["1", "007"], "status": "unique"}',
        # ids other than the record's position, as two stores concatenated
        # hold: set_oeis would write onto the record of that id
        '{"id": 0, "sentence": "s", "spectrum": [], "status": "unique"}',
        '{"id": 2, "sentence": "s", "spectrum": [], "status": "unique"}',
    ],
)
def test_malformed_line_names_file_and_line(tmp_path, bad):
    path = tmp_path / "seq.jsonl"
    SpectrumDB(path).insert("(E x U(x))", [1, 3, 7, 15, 31])
    with path.open("a") as fh:
        fh.write("\n" + bad + "\n")
    with pytest.raises(OSError, match=re.escape(f"{path}:3: malformed record")):
        SpectrumDB(path)


def test_a_line_that_is_not_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "seq.jsonl"
    SpectrumDB(path).insert("(E x U(x))", [1, 3, 7, 15, 31])
    line = b'{"id": 1, "sentence": "\xff", "spectrum": [], "status": "unique"}'
    with path.open("ab") as fh:
        fh.write(line + b"\n")
    with pytest.raises(OSError) as info:
        SpectrumDB(path)
    message = str(info.value)
    assert message == f"{path}:2: malformed record: not UTF-8 at byte {line.index(0xFF)}"
    # nothing of the line is repeated, in any spelling of its bytes
    for chunk in (line[:12], line[-12:]):
        assert chunk.decode() not in message and repr(chunk)[2:-1] not in message


def test_lines_are_numbered_as_text_mode_numbers_them(tmp_path):
    # \n, \r\n and a lone \r each end a line, as when the file was read
    # as text, so a malformed line keeps its number
    path = tmp_path / "seq.jsonl"
    db = SpectrumDB(path)
    lines = [db.insert(f"s{i}", [i, 3, 7, 15, 31]).to_json() for i in range(3)]
    path.write_bytes(
        (lines[0] + "\r\n" + lines[1] + "\r" + lines[2] + "\n\r\nbad\n").encode()
    )
    with path.open() as fh:
        assert [n for n, text in enumerate(fh, 1) if text.strip() == "bad"] == [5]
    with pytest.raises(OSError, match=re.escape(f"{path}:5: malformed record")):
        SpectrumDB(path)
    path.write_bytes(path.read_bytes()[: -len("bad\n")])
    assert [r.to_json() for r in SpectrumDB(path).records()] == lines


def random_records(rng):
    """Records with plain, non-ASCII, quoted and backslashed sentences,
    negative, 300-digit and empty spectra, and each optional field set in
    about half of them."""
    sentences = [
        "(V x E y B(x,y))",
        "(E x Größe(x)) & (V x ~Ω(x,x))",
        'say "hi" \\ or \\"',
        "tab\there\nnewline\u0001 and \u2028",
    ]
    for i in range(400):
        size = rng.randint(0, 8)
        spectrum = tuple(
            rng.choice((-1, 1)) * rng.randrange(10 ** rng.choice((1, 3, 300)))
            for _ in range(size)
        )

        def maybe(value):
            return value if rng.random() < 0.5 else None

        yield Record(
            id=i,
            sentence=rng.choice(sentences),
            spectrum=spectrum,
            truncated=rng.random() < 0.5,
            status=rng.choice(STATUSES),
            duplicate_of=maybe(rng.randrange(1000)),
            product_of=maybe((rng.randrange(1000), rng.randrange(1000))),
            layer=maybe(rng.randint(0, 5)),
            profile=maybe(rng.choice(("fo2-paper", "c2-paper", "ünïcode \"p\""))),
            oeis=maybe(rng.choice(("A000142", "A000225"))),
        )


def test_record_json_matches_the_dict_encoder_and_round_trips():
    records = list(random_records(random.Random(29)))
    fields = ("duplicate_of", "product_of", "layer", "profile", "oeis")
    # the draws reach every case the encoder writes apart
    for name in fields:
        assert {getattr(r, name) is None for r in records} == {True, False}, name
    assert any(r.spectrum == () for r in records)
    assert any(t < 0 for r in records for t in r.spectrum)
    assert any(len(str(abs(t))) >= 290 for r in records for t in r.spectrum)
    for rec in records:
        line = rec.to_json()
        assert line == reference_record_json(rec)
        # a truncated unique record reads back as truncated, as older files do
        want = rec
        if rec.truncated and rec.status == "unique":
            want = Record(**{**vars(rec), "status": "truncated"})
        assert Record.from_json(line) == want


def test_writes_match_the_text_stream_reference(tmp_path):
    # inserts, a rewrite that demotes a product, more inserts (some of
    # them supersede a truncated record) and an OEIS rewrite, written
    # byte for byte as text-mode appends and rewrites wrote them
    db = SpectrumDB(tmp_path / "db.jsonl")
    ref = ReferenceWriter(tmp_path / "ref.jsonl")
    records = list(random_records(random.Random(32)))

    def insert(sentence, spectrum, truncated=False, layer=None, profile=None):
        total = len(db.records())
        rec = db.insert(sentence, spectrum, truncated, layer, profile)
        if len(db.records()) > total:
            ref.append(rec)

    # the product arrives before its factors, so only the rewrite finds it
    insert("product", [1, 6, 42, 360, 3720, 45360])
    insert("a", [1, 2, 6, 24, 120, 720])
    insert("b", [1, 3, 7, 15, 31, 63])
    for r in records[:200]:
        insert(f"{r.sentence} {r.id}", r.spectrum, r.truncated, r.layer, r.profile)
    assert db.path.read_bytes() == ref.path.read_bytes()
    assert db.reclassify_products() >= 1
    ref.rewrite(db.records())
    assert db.path.read_bytes() == ref.path.read_bytes()
    for r in records[100:]:
        insert(f"{r.sentence} {r.id}", r.spectrum, r.truncated, r.layer, r.profile)
    assert any(r.truncated for r in records[100:200])
    db.set_oeis({rec.id: "A000142" for rec in db.records()[::7]})
    ref.rewrite(db.records())
    assert db.path.read_bytes() == ref.path.read_bytes()
    assert any(not r.sentence.isascii() for r in records[:200])


def test_a_store_opened_between_inserts_sees_every_record(tmp_path):
    path = tmp_path / "seq.jsonl"
    db = SpectrumDB(path)
    for i, terms in enumerate(random_spectra(random.Random(7))):
        db.insert(f"s{i}", terms, truncated=i % 3 == 0)
        assert [r.to_json() for r in SpectrumDB(path).records()] == [
            r.to_json() for r in db.records()
        ]


def test_an_insert_after_a_rewrite_lands_in_the_new_file(tmp_path):
    path = tmp_path / "seq.jsonl"
    db = SpectrumDB(path)
    rec = db.insert("a", [1, 3, 7, 15, 31])
    inode = path.stat().st_ino
    db.set_oeis({rec.id: "A000225"})
    # the rewrite replaced the file, so a descriptor kept from before it
    # would append to a file that no name reaches
    assert path.stat().st_ino != inode
    db.insert("b", [1, 9, 343, 50625, 28629151])
    again = SpectrumDB(path).records()
    assert [(r.sentence, r.oeis) for r in again] == [("a", "A000225"), ("b", None)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seq.jsonl"]


def test_a_rewrite_leaves_a_sibling_tmp_file_alone(tmp_path):
    # results.jsonl's temporary file must not be results.tmp, a name the
    # user may hold
    path, sibling = tmp_path / "results.jsonl", tmp_path / "results.tmp"
    sibling.write_bytes(b"the user's own file\n")
    db = SpectrumDB(path)
    # c's factors come after it, so only the reclassification demotes it
    db.insert("c", [1, 6, 36, 216, 1296])
    a = db.insert("a", [1, 2, 4, 8, 16])
    db.insert("b", [1, 3, 9, 27, 81])
    db.set_oeis({a.id: "A000079"})
    assert db.reclassify_products() == 1
    assert sibling.read_bytes() == b"the user's own file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.jsonl", "results.tmp"]
    assert [r.to_json() for r in SpectrumDB(path).records()] == [
        r.to_json() for r in db.records()
    ]


def test_an_insert_writes_its_whole_line_through_short_writes(tmp_path, monkeypatch):
    write, calls = os.write, []

    def one_byte(fd, data):
        calls.append(fd)
        return write(fd, data[:1])

    monkeypatch.setattr(seqdb.os, "write", one_byte)
    path = tmp_path / "seq.jsonl"
    db = SpectrumDB(path)
    db.insert("(E x Größe(x))", [1, 3, 7, 15, 31], layer=1, profile="fo2-paper")
    db.insert("big", [10**300, 3, 7, 15, 31], truncated=True)
    monkeypatch.undo()
    lines = [r.to_json() + "\n" for r in db.records()]
    assert path.read_text() == "".join(lines)
    assert len(calls) == sum(map(len, lines))


def test_an_insert_into_a_missing_directory_creates_nothing(tmp_path):
    db = SpectrumDB(tmp_path / "missing" / "seq.jsonl")
    with pytest.raises(FileNotFoundError):
        db.insert("a", [1, 3, 7, 15, 31])
    assert list(tmp_path.iterdir()) == []
    # the record that was not written is not held either
    assert db.records() == []


def test_set_oeis_and_stats(tmp_path):
    path = tmp_path / "seq.jsonl"
    db = SpectrumDB(path)
    rec = db.insert("(E x U(x))", [1, 3, 7, 15, 31])
    db.insert("other", [1, 9, 343, 50625, 28629151])
    db.set_oeis({rec.id: "A000225"})
    stats = db.stats()
    assert stats["total"] == 2
    assert stats["unique"] == 2
    assert stats["matched"] == 1
    assert SpectrumDB(path).records()[rec.id].oeis == "A000225"


def test_stats_counts_statuses(tmp_path):
    db = make_db(tmp_path)
    db.insert("a", [1, 3, 7, 15, 31, 63])
    db.insert("b", [1, 3, 7, 15, 31])
    db.insert("c", [1, 9, 49, 225, 961, 3969])
    db.insert("d", [1, 4], truncated=True)  # counted as truncated, never unique
    s = db.stats()
    assert s == {
        "total": 4,
        "unique": 1,
        "duplicate": 1,
        "product_redundant": 1,
        "truncated": 1,
        "matched": 0,
    }


def test_stats_count_each_sentence_by_its_latest_record(tmp_path):
    db = make_db(tmp_path)
    db.insert("a", [1, 3], truncated=True)
    cut = db.insert("b", [], truncated=True)
    whole = db.insert("a", [1, 3, 7, 15, 31])
    assert db.latest_records() == [cut, whole]
    # the superseded record is still in the file, and in the total
    want = {"total": 3, "superseded": 1, "truncated": 1, "unique": 1, "matched": 0}
    assert db.stats() == want
    again = make_db(tmp_path)
    assert again.stats() == want
    assert [r.id for r in again.latest_records()] == [1, 2]


def test_unique_records_leave_out_truncated_ones(tmp_path):
    db = make_db(tmp_path)
    whole = db.insert("a", [1, 3, 7, 15, 31, 63])
    db.insert("b", [2, 5], truncated=True)
    db.insert("c", [], truncated=True)
    assert db.unique_records() == [whole]
    assert db.stats()["unique"] == 1


class LinearReference:
    """Insert and reclassify by plain linear scans over the records.

    Same rules as `SpectrumDB`, with no index: every lookup walks the
    eligible records in id order.
    """

    def __init__(self):
        self.recs = []

    def _product(self, spectrum, carriers):
        if len(spectrum) < MIN_OVERLAP:
            return None
        for f in carriers:
            if min(len(f.spectrum), len(spectrum)) < MIN_OVERLAP:
                continue
            if any(s % d if d else s for d, s in zip(f.spectrum, spectrum)):
                continue
            for m in carriers:
                if len(m.spectrum) < MIN_OVERLAP or any(
                    d and m.spectrum[i] != spectrum[i] // d
                    for i, d in enumerate(f.spectrum[:MIN_OVERLAP])
                ):
                    continue
                triples = list(zip(f.spectrum, m.spectrum, spectrum))
                if (
                    len(triples) >= MIN_OVERLAP
                    and not all(a == 1 for a, _, _ in triples)
                    and not all(b == 1 for _, b, _ in triples)
                    and all(a * b == s for a, b, s in triples)
                ):
                    return (f.id, m.id)
        return None

    def insert(self, spectrum, truncated):
        rec = SimpleNamespace(
            id=len(self.recs), spectrum=tuple(spectrum), status="unique",
            duplicate_of=None, product_of=None,
        )
        unique = [r for r in self.recs if r.status == "unique"]
        for r in unique:
            k = min(len(r.spectrum), len(rec.spectrum))
            if k >= MIN_OVERLAP and r.spectrum[:k] == rec.spectrum[:k]:
                rec.status, rec.duplicate_of = "duplicate", r.id
                break
        else:
            prod = self._product(rec.spectrum, unique)
            if prod is not None:
                rec.status, rec.product_of = "product_redundant", prod
            elif truncated:
                rec.status = "truncated"
        self.recs.append(rec)

    def reclassify_products(self):
        carriers = [r for r in self.recs if r.status in ("unique", "product_redundant")]
        demoted = 0
        for rec in carriers:
            if rec.status != "unique":
                continue
            prod = self._product(rec.spectrum, [r for r in carriers if r is not rec])
            if prod is not None:
                rec.status, rec.product_of = "product_redundant", prod
                demoted += 1
        return demoted


def random_spectra(rng):
    """Small-integer spectra with zeros, short and all-ones ones, cut-off
    duplicates, shared heads and termwise products, sometimes placed before
    their factors.  Some second terms are negative, and some are so large
    that a product lookup walks the stored second terms rather than
    enumerate the divisors of its own."""
    out = []
    for _ in range(rng.randint(3, 30)):
        roll = rng.random()
        if out and roll < 0.15:
            base = rng.choice(out)
            out.append(base[: rng.randint(min(MIN_OVERLAP, len(base)), len(base))])
        elif out and roll < 0.35:
            a, b = rng.choice(out), rng.choice(out)
            out.append(tuple(x * y for x, y in zip(a, b)))
        elif out and roll < 0.45:
            # same head, new tail: a mate that fails only on verification
            tail = [rng.choice((0, 1, 2, 5)) for _ in range(rng.randint(1, 3))]
            out.append(rng.choice(out)[:MIN_OVERLAP] + tuple(tail))
        elif roll < 0.5:
            out.append((1,) * rng.randint(4, 7))
        else:
            terms = [rng.choice((0, 0, 1, 1, 2, 3, 4, 6, -1)) for _ in range(rng.randint(3, 8))]
            second = rng.random()
            if second < 0.3:
                terms[1] = 0
            elif second < 0.45:
                # isqrt of each is above the 30 keys a store can hold
                terms[1] = rng.choice((960, 1920, 5760, -2880))
            elif second < 0.6:
                terms[1] = -rng.choice((1, 2, 3, 4, 6, 12))
            out.append(tuple(terms))
    if rng.random() < 0.5:
        rng.shuffle(out)
    return out


def test_indexed_store_matches_linear_reference(tmp_path, monkeypatch):
    rng = random.Random(2023)
    totals = {"duplicate": 0, "product_redundant": 0, "demoted": 0}
    # product lookups by the way SpectrumDB finds their factors' second
    # terms: by enumerating the divisors of a nonzero second term s1, or by
    # walking the stored second terms when isqrt(|s1|) is at least their
    # number
    paths = {"enumerated": 0, "walked": 0}
    find_product = SpectrumDB._find_product

    def counted(self, spectrum, eligible):
        if len(spectrum) >= MIN_OVERLAP and spectrum[1]:
            walk = math.isqrt(abs(spectrum[1])) >= len(self._by_second)
            paths["walked" if walk else "enumerated"] += 1
        return find_product(self, spectrum, eligible)

    monkeypatch.setattr(SpectrumDB, "_find_product", counted)
    for store in range(300):
        ref = LinearReference()
        spectra = random_spectra(rng)
        path = tmp_path / f"store{store}.jsonl"
        db = SpectrumDB(path)
        cut = rng.randint(0, len(spectra))
        for i, terms in enumerate(spectra):
            if i == cut:
                db = SpectrumDB(path)
            truncated = rng.random() < 0.2
            db.insert(f"s{i}", terms, truncated=truncated)
            ref.insert(terms, truncated)

        def fields(recs):
            return [(r.status, r.duplicate_of, r.product_of) for r in recs]

        assert fields(db.records()) == fields(ref.recs), store
        demoted = db.reclassify_products()
        assert demoted == ref.reclassify_products(), store
        assert fields(db.records()) == fields(ref.recs), store
        assert fields(SpectrumDB(path).records()) == fields(ref.recs), store
        for rec in ref.recs:
            totals[rec.status] = totals.get(rec.status, 0) + 1
        totals["demoted"] += demoted
    # the random stores reach every rule
    assert totals["duplicate"] >= 100
    assert totals["product_redundant"] >= 100
    assert totals["demoted"] >= 20
    assert min(paths.values()) >= 50, paths
