"""Matching integer sequences against an OEIS snapshot or the live API.

The offline path reads the "stripped" dump format, one sequence per line:

    A000142 ,1,1,2,6,24,120,720,

A query matches an entry that holds it as a contiguous run of at least
MIN_MATCH terms.  Spectra are indexed from n = 1 while many OEIS entries
start later or begin with extra zeros, so queries are retried with leading
zeros removed.  When the queries are known before the dump is read (as
for `combspec oeis --db` and `--terms`), their first three terms are put
in a set and the dump is streamed once, keeping only the entries that hold
one of those heads; memory is then linear in the number of queries, not
in the size of the dump.  Kept entries index every three consecutive
terms, and candidates are verified for a contiguous run.
"""

from __future__ import annotations

import gzip
import time
import zlib
from pathlib import Path
from typing import Callable, Iterable, Sequence

MIN_MATCH = 5
_WINDOW = 3


def _forms(query: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The runs looked up for a query: itself, and itself without its
    leading zeros if it has any."""
    stripped = query
    while stripped and stripped[0] == 0:
        stripped = stripped[1:]
    return [query] if stripped == query else [query, stripped]


class StrippedIndex:
    """Index over the entries of a stripped-format OEIS dump: every entry,
    or only those that can match a set of queries given to `load`."""

    def __init__(self, sequences: dict[str, tuple[int, ...]]):
        self.sequences = sequences
        self._windows: dict[tuple[int, int, int], list[tuple[str, int]]] = {}
        for sid, terms in sequences.items():
            for i in range(len(terms) - _WINDOW + 1):
                key = terms[i : i + _WINDOW]
                self._windows.setdefault(key, []).append((sid, i))

    @classmethod
    def load(
        cls, path: str | Path, queries: Iterable[Sequence[int]] | None = None
    ) -> "StrippedIndex":
        """Read a dump (gzip if its name ends in .gz) in one pass.

        With queries, an entry is kept only if it holds the head (first
        three terms) of one of their looked-up runs as consecutive terms:
        every entry that `match` can return for them.  Without, every
        entry is kept.  Malformed lines are skipped; a truncated or
        corrupt file raises OSError.
        """
        heads = None
        if queries is not None:
            heads = {
                run[:_WINDOW]
                for q in queries
                for run in _forms(tuple(int(t) for t in q))
                if len(run) >= MIN_MATCH
            }
        path = Path(path)
        opener = gzip.open if path.suffix == ".gz" else open
        sequences: dict[str, tuple[int, ...]] = {}
        try:
            with opener(path, "rt") as fh:
                if heads is not None and not heads:
                    # nothing can match: opening the dump is the only check
                    return cls(sequences)
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    sid, _, rest = line.partition(" ")
                    try:
                        terms = tuple(map(int, filter(None, rest.strip().split(","))))
                    except ValueError:
                        continue
                    if heads is None or not heads.isdisjoint(
                        zip(terms, terms[1:], terms[2:])
                    ):
                        sequences[sid] = terms
                    else:
                        # a later line for an id replaces the earlier one
                        sequences.pop(sid, None)
        except (EOFError, zlib.error, UnicodeDecodeError) as exc:
            raise OSError(f"{path}: truncated or corrupt dump: {exc}") from exc
        return cls(sequences)

    def _match_one(self, query: tuple[int, ...]) -> list[str]:
        if len(query) < MIN_MATCH:
            return []
        hits = []
        for sid, start in self._windows.get(query[:_WINDOW], ()):
            stored = self.sequences[sid]
            overlap = min(len(query), len(stored) - start)
            if overlap >= MIN_MATCH and stored[start : start + overlap] == query[:overlap]:
                hits.append(sid)
        return hits

    def match(self, terms: Sequence[int]) -> list[str]:
        """OEIS ids whose entry contains the query as a contiguous run
        (at least MIN_MATCH terms of overlap), tried verbatim and with
        leading zeros stripped."""
        hits = set()
        for run in _forms(tuple(int(t) for t in terms)):
            hits.update(self._match_one(run))
        return sorted(hits)


# the least time between two online queries, in seconds
MIN_INTERVAL = 1.0
_last_online_call = 0.0


def _default_fetch(url: str) -> str:
    # imported on first use to keep its import (tens of ms) out of start-up;
    # urlopen raises HTTPError on any non-2xx status
    import urllib.request

    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.read().decode("utf-8")


def online_search(
    terms: Sequence[int],
    fetch: Callable[[str], str] | None = None,
) -> list[str]:
    """Query the OEIS search API for a sequence, rate-limited to one call
    per MIN_INTERVAL seconds.  fetch is injectable for offline replay."""
    import json

    global _last_online_call
    if fetch is None:
        fetch = _default_fetch
    wait = _last_online_call + MIN_INTERVAL - time.monotonic()
    if wait > 0:
        time.sleep(wait)
    _last_online_call = time.monotonic()
    query = ",".join(str(int(t)) for t in terms)
    body = fetch(f"https://oeis.org/search?q={query}&fmt=json")
    doc = json.loads(body)
    results = doc.get("results") or []
    out = []
    for entry in results:
        number = entry.get("number")
        if number is not None:
            out.append(f"A{int(number):06d}")
    return out
