"""Matching integer sequences against an OEIS snapshot or the live API.

The offline path reads the "stripped" dump format, one sequence per line:

    A000142 ,1,1,2,6,24,120,720,

Lookups index every three consecutive terms, then verify candidates for a
contiguous run.  Spectra are indexed from n = 1 while many OEIS entries
start later or begin with extra zeros, so queries are retried with leading
zeros removed.
"""

from __future__ import annotations

import gzip
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

MIN_MATCH = 5
_WINDOW = 3


class StrippedIndex:
    """In-memory index over a stripped-format OEIS dump."""

    def __init__(self, sequences: dict[str, tuple[int, ...]]):
        self.sequences = sequences
        self._windows: dict[tuple[int, int, int], list[tuple[str, int]]] = {}
        for sid, terms in sequences.items():
            for i in range(len(terms) - _WINDOW + 1):
                key = terms[i : i + _WINDOW]
                self._windows.setdefault(key, []).append((sid, i))

    @classmethod
    def load(cls, path: str | Path) -> "StrippedIndex":
        path = Path(path)
        opener = gzip.open if path.suffix == ".gz" else open
        sequences: dict[str, tuple[int, ...]] = {}
        with opener(path, "rt") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                sid, _, rest = line.partition(" ")
                terms = [t for t in rest.strip().split(",") if t]
                try:
                    sequences[sid] = tuple(int(t) for t in terms)
                except ValueError:
                    continue
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
        query = tuple(int(t) for t in terms)
        hits = set(self._match_one(query))
        stripped = query
        while stripped and stripped[0] == 0:
            stripped = stripped[1:]
        if stripped != query:
            hits.update(self._match_one(stripped))
        return sorted(hits)


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
    min_interval: float = 1.0,
) -> list[str]:
    """Query the OEIS search API for a sequence, rate-limited to one call
    per min_interval seconds.  fetch is injectable for offline replay."""
    import json

    global _last_online_call
    if fetch is None:
        fetch = _default_fetch
    wait = _last_online_call + min_interval - time.monotonic()
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
