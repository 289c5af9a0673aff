"""JSON-Lines store for computed spectra.

Append-only, with one record per sentence, except that re-inserting a
sentence whose latest record is truncated appends one that supersedes it.
A new spectrum is a duplicate when its prefix agrees with a stored unique
record's on their common length (at least five terms), and
product-redundant when it factors termwise into two stored unique
spectra.  A truncated spectrum that is neither takes the status
truncated, never unique, so it neither stands for a sequence, nor
shadows a whole one, nor is a factor of a product.  Both relations are
found by hash lookup on indexes kept up to date as records arrive, so an
insert does not scan the store: a duplicate is looked up by its first
terms, and a product's factors by the divisors of its second term, which
are enumerated when that is cheaper than walking the distinct second
terms stored.  Terms are serialized as decimal strings since they
routinely exceed every fixed-width integer, and each line is written
straight from a record's fields.  An insert appends its line with one
write (more only when a write is short) on a descriptor opened for it
alone, so the line is in the file, for any other reader to see, when
insert returns, though not synced to disk; nothing stays open between
inserts.  The file is read as bytes and decoded line by
line, so a line that is not UTF-8 is a malformed record like any other.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import isqrt
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

MIN_OVERLAP = 5
# every status a record can take
STATUSES = ("unique", "duplicate", "product_redundant", "truncated")
# the types an optional field of a record may hold
_INT_OR_NONE = (int, type(None))
_STR_OR_NONE = (str, type(None))
# a spectrum's terms, joined by commas, as str(int) writes each: no sign
# but a leading minus, no leading zero, no space, underscore or non-ASCII
# digit; the empty string is the spectrum []
_TERMS = re.compile(r"(?:(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*)?")


@dataclass
class Record:
    id: int
    sentence: str
    spectrum: tuple[int, ...]
    truncated: bool
    status: str
    duplicate_of: int | None = None
    product_of: tuple[int, int] | None = None
    layer: int | None = None
    profile: str | None = None
    oeis: str | None = None

    def to_json(self) -> str:
        """The record as one ASCII JSON line: the bytes that json.dumps
        writes, with sort_keys, for a dict of the fields that are set.  The
        line is written straight from the fields, with strings quoted by
        the function json.dumps quotes them with, so a record must hold
        the types declared above, as from_json checks."""
        parts = []
        if self.duplicate_of is not None:
            parts.append(f'"duplicate_of": {self.duplicate_of}')
        parts.append(f'"id": {self.id}')
        if self.layer is not None:
            parts.append(f'"layer": {self.layer}')
        if self.oeis is not None:
            parts.append(f'"oeis": {encode_basestring_ascii(self.oeis)}')
        if self.product_of is not None:
            parts.append(f'"product_of": [{self.product_of[0]}, {self.product_of[1]}]')
        if self.profile is not None:
            parts.append(f'"profile": {encode_basestring_ascii(self.profile)}')
        parts.append(f'"sentence": {encode_basestring_ascii(self.sentence)}')
        # a term is a decimal string, which JSON needs no escape for
        terms = '", "'.join(map(str, self.spectrum))
        parts.append(f'"spectrum": ["{terms}"]' if self.spectrum else '"spectrum": []')
        parts.append(f'"status": {encode_basestring_ascii(self.status)}')
        parts.append(f'"truncated": {"true" if self.truncated else "false"}')
        return "{" + ", ".join(parts) + "}"

    @classmethod
    def from_json(cls, line: str) -> "Record":
        """The record on one line; a truncated unique one, as older files
        hold, reads as truncated.  A field of another type than declared,
        a spectrum other than a list of decimal strings as str(int) writes
        them, and a status outside STATUSES are a TypeError, so that
        to_json can write the record back as it was read."""
        doc = json.loads(line)
        terms = doc["spectrum"]
        if type(terms) is not list:
            raise TypeError("the spectrum is not a list")
        # join tests that each term is a str, and one match over the joined
        # terms that each is written as to_json writes its int back
        if not _TERMS.fullmatch(",".join(terms)):
            raise TypeError("a term is not a decimal integer as to_json writes it")
        product = doc.get("product_of")
        truncated = doc.get("truncated", False)
        status = doc["status"]
        rec = cls(
            id=doc["id"],
            sentence=doc["sentence"],
            spectrum=tuple(map(int, terms)),
            truncated=truncated,
            status="truncated" if truncated and status == "unique" else status,
            duplicate_of=doc.get("duplicate_of"),
            product_of=None if product is None else tuple(product),
            layer=doc.get("layer"),
            profile=doc.get("profile"),
            oeis=doc.get("oeis"),
        )
        # bool is a subclass of int, so the types are compared exactly
        if not (
            type(rec.id) is int
            and type(rec.sentence) is str
            and type(rec.truncated) is bool
            and status in STATUSES
            and type(rec.duplicate_of) in _INT_OR_NONE
            and type(rec.layer) in _INT_OR_NONE
            and type(rec.profile) in _STR_OR_NONE
            and type(rec.oeis) in _STR_OR_NONE
            and (rec.product_of is None or list(map(type, rec.product_of)) == [int, int])
        ):
            raise TypeError("a field holds a value of an undeclared type")
        return rec


def _common_prefix_match(a: Sequence[int], b: Sequence[int]) -> bool:
    k = min(len(a), len(b))
    return k >= MIN_OVERLAP and tuple(a[:k]) == tuple(b[:k])


def _head(spectrum: Sequence[int], mask: frozenset[int]) -> tuple:
    return tuple(None if i in mask else spectrum[i] for i in range(MIN_OVERLAP))


def _verified(factor: Record, mate: Record, spectrum: Sequence[int]) -> bool:
    triples = list(zip(factor.spectrum, mate.spectrum, spectrum))
    return (
        len(triples) >= MIN_OVERLAP
        and any(f != 1 for f, _, _ in triples)
        and any(c != 1 for _, c, _ in triples)
        and all(f * c == s for f, c, s in triples)
    )


class SpectrumDB:
    """Append-only spectrum database backed by one JSONL file.

    Records of at least MIN_OVERLAP terms sit in two indexes, in id order:
    `_heads` maps a set of masked positions to the records keyed by their
    first MIN_OVERLAP terms with those positions blanked (one index per
    mask, built on first use), and `_by_second` maps a second term to its
    records.  Lookups filter by status as they run, so a status change
    needs no index update.
    """

    def __init__(self, path: str | Path):
        """Open the file at path, or start empty if there is none; a line
        that is not a UTF-8 record, or a record whose id is not its
        0-based position among the file's records, raises OSError naming
        the file and line, and for a line that is not UTF-8, the offset of
        its first bad byte, counted from 0."""
        self.path = Path(path)
        self._records: list[Record] = []
        # each sentence's latest record
        self._by_sentence: dict[str, Record] = {}
        self._heads: dict[frozenset[int], dict[tuple, list[Record]]] = {}
        self._by_second: dict[int, list[Record]] = {}
        if self.path.exists():
            # bytes split where text-mode iteration does: \n, \r and \r\n
            lines = self.path.read_bytes().splitlines()
            for lineno, raw in enumerate(lines, 1):
                try:
                    line = raw.decode().strip()
                    if not line:
                        continue
                    rec = Record.from_json(line)
                    # an id indexes _records, as set_oeis and insert take it to
                    if rec.id != len(self._records):
                        raise ValueError(f"id {rec.id} at position {len(self._records)}")
                except UnicodeDecodeError as exc:
                    # the error's repr would repeat the whole raw line
                    raise OSError(
                        f"{self.path}:{lineno}: malformed record: "
                        f"not UTF-8 at byte {exc.start}"
                    ) from exc
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise OSError(
                        f"{self.path}:{lineno}: malformed record: {exc!r}"
                    ) from exc
                self._add(rec)

    def _add(self, rec: Record) -> None:
        self._records.append(rec)
        self._by_sentence[rec.sentence] = rec
        if len(rec.spectrum) >= MIN_OVERLAP:
            self._by_second.setdefault(rec.spectrum[1], []).append(rec)
            for mask, index in self._heads.items():
                index.setdefault(_head(rec.spectrum, mask), []).append(rec)

    def _head_index(self, mask: frozenset[int]) -> dict[tuple, list[Record]]:
        index = self._heads.get(mask)
        if index is None:
            index = self._heads[mask] = {}
            for rec in self._records:
                if len(rec.spectrum) >= MIN_OVERLAP:
                    index.setdefault(_head(rec.spectrum, mask), []).append(rec)
        return index

    def records(self) -> list[Record]:
        return list(self._records)

    def latest_records(self) -> list[Record]:
        """Each sentence's latest record, in id order."""
        return [r for r in self._records if self._by_sentence[r.sentence] is r]

    def unique_records(self) -> list[Record]:
        """Records that stand for a sequence of their own."""
        return [r for r in self._records if r.status == "unique"]

    def _find_duplicate(self, spectrum: Sequence[int]) -> Record | None:
        # the empty mask keys on the first MIN_OVERLAP terms themselves
        for rec in self._head_index(frozenset()).get(spectrum[:MIN_OVERLAP], ()):
            if rec.status == "unique" and _common_prefix_match(
                spectrum, rec.spectrum
            ):
                return rec
        return None

    def _find_product(
        self, spectrum: Sequence[int], eligible: Callable[[Record], bool]
    ) -> tuple[int, int] | None:
        """A pair of eligible stored spectra whose termwise product matches.

        Factors are tried in id order, drawn from the records whose second
        term divides the query's second term s1.  Those second terms are
        found from s1's side: the divisors of |s1| up to isqrt(|s1|) by
        trial division, their cofactors, and the negatives of both (a
        weighted spectrum can be negative), each looked up in `_by_second`.
        When that takes at least as many steps as there are distinct
        stored second terms, and when s1 is 0 (which every term divides),
        each stored term is tested instead.  Dividing the query by a factor
        determines the cofactor head except at positions where both are
        zero, so mates are found by hash lookup on the masked head and
        verified over the whole overlap.  The factors whose third term does
        not divide the query's are left out as they are gathered, and each
        bucket of `_by_second` is in id order, so the rest are sorted by id
        only when they come from several buckets.  The
        all-ones factor is skipped (it would pair every spectrum with
        itself times nothing).
        """
        if len(spectrum) < MIN_OVERLAP:
            return None
        s1, s2 = spectrum[1], spectrum[2]
        by_second = self._by_second
        n, root = abs(s1), isqrt(abs(s1))
        if s1 and root < len(by_second):
            divisors = {q for d in range(1, root + 1) if n % d == 0 for q in (d, n // d)}
            keys = [k for d in divisors for k in (d, -d) if k in by_second]
        else:
            keys = [d for d in by_second if (s1 % d == 0 if d else s1 == 0)]
        # the third term rejects most candidates before they are sorted
        factors = [
            rec
            for k in keys
            for rec in by_second[k]
            if not (s2 % rec.spectrum[2] if rec.spectrum[2] else s2)
        ]
        if len(keys) > 1:
            factors.sort(key=attrgetter("id"))
        for rec in factors:
            if not eligible(rec) or any(
                s % f if f else s for f, s in zip(rec.spectrum, spectrum)
            ):
                continue
            key = tuple(
                s // f if f else None
                for f, s in zip(rec.spectrum[:MIN_OVERLAP], spectrum)
            )
            mask = frozenset(i for i, k in enumerate(key) if k is None)
            for mate in self._head_index(mask).get(key, ()):
                if eligible(mate) and _verified(rec, mate, spectrum):
                    return (rec.id, mate.id)
        return None

    def insert(
        self,
        sentence: str,
        spectrum: Sequence[int],
        truncated: bool = False,
        layer: int | None = None,
        profile: str | None = None,
    ) -> Record:
        """Classify and append.  Re-inserting a sentence returns its
        record when that is whole, and appends a new one when it is
        truncated, so a later run can complete it.  The record is held
        only once its line is written, so a failed write leaves the store
        as it was."""
        existing = self._by_sentence.get(sentence)
        if existing is not None and not existing.truncated:
            return existing
        spectrum = tuple(int(t) for t in spectrum)
        status, dup_of, prod_of = "unique", None, None
        dup = self._find_duplicate(spectrum)
        if dup is not None:
            status, dup_of = "duplicate", dup.id
        else:
            prod = self._find_product(spectrum, lambda r: r.status == "unique")
            if prod is not None:
                status, prod_of = "product_redundant", prod
            elif truncated:
                status = "truncated"
        rec = Record(
            id=len(self._records),
            sentence=sentence,
            spectrum=spectrum,
            truncated=truncated,
            status=status,
            duplicate_of=dup_of,
            product_of=prod_of,
            layer=layer,
            profile=profile,
        )
        data = (rec.to_json() + "\n").encode()
        # the flags and mode that open(path, "a") uses, without its stream
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        self._add(rec)
        return rec

    def reclassify_products(self) -> int:
        """Re-run product detection over the whole store, order-independently.

        Insert-time detection only sees factors stored before the query, so
        a product whose factors arrive later stays unique until this pass.
        Factors are drawn from the unique and product-redundant records
        but the query, since a redundant sequence still witnesses the
        factorization of another; a duplicate or truncated record is never
        a factor.  Returns the number of records demoted.
        """
        demoted = 0
        for rec in self._records:
            if rec.status != "unique":
                continue
            prod = self._find_product(
                rec.spectrum,
                lambda r: r.status in ("unique", "product_redundant") and r is not rec,
            )
            if prod is not None:
                rec.status = "product_redundant"
                rec.product_of = prod
                demoted += 1
        if demoted:
            self._rewrite()
        return demoted

    def set_oeis(self, oeis_ids: Mapping[int, str | None]) -> None:
        """Set the OEIS id of each record in {rec_id: oeis}; one rewrite."""
        for rec_id, oeis in oeis_ids.items():
            self._records[rec_id].oeis = oeis
        self._rewrite()

    def _rewrite(self) -> None:
        # the name gains a suffix, so no sibling such as results.tmp is touched
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w") as fh:
            for rec in self._records:
                fh.write(rec.to_json() + "\n")
        tmp.replace(self.path)

    def stats(self) -> dict[str, int]:
        """Counts by status of each sentence's latest record, the records
        that db export --status lists; a record that a later one
        superseded counts as superseded, so total counts every record."""
        out = {"total": len(self._records)}
        for rec in self._records:
            latest = self._by_sentence[rec.sentence] is rec
            key = rec.status if latest else "superseded"
            out[key] = out.get(key, 0) + 1
        out["matched"] = sum(1 for r in self._records if r.oeis)
        return out
