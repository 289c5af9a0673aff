"""Offline OEIS matching and the rate-limited online fallback."""

import gzip
import io
import json
import random
import shutil
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from combspec import oeis
from combspec.oeis import MIN_MATCH, StrippedIndex, online_search

FIXTURE = Path(__file__).parent / "fixtures" / "oeis_stripped.txt"


@pytest.fixture(scope="module")
def index():
    return StrippedIndex.load(FIXTURE)


def test_load_plain_and_gzip(tmp_path, index):
    gz = tmp_path / "stripped.gz"
    with open(FIXTURE, "rb") as src, gzip.open(gz, "wb") as dst:
        shutil.copyfileobj(src, dst)
    assert StrippedIndex.load(gz).sequences == index.sequences


def test_exact_prefix_match(index):
    assert index.match([1, 1, 2, 6, 24, 120, 720]) == ["A000142"]
    assert index.match([0, 1, 1, 2, 3, 5, 8, 13]) == ["A000045"]


def test_offset_match_inside_entry(index):
    # entries are matched as contiguous runs, not only from the start
    assert index.match([2, 4, 10, 26, 76, 232]) == ["A000085"]
    assert index.match([2, 6, 24, 120, 720, 5040]) == ["A000142"]


def test_leading_zero_stripping(index):
    # spectra often start with zeros that the OEIS entry omits
    query = [0, 1, 18, 1699, 592260, 754179301, 3562635108438]
    assert index.match(query) == ["A086193"]
    assert index.match([0, 0, 1, 2, 4, 8, 16, 32]) == ["A000079"]


def test_short_queries_never_match(index):
    assert index.match([1, 1, 2, 6]) == []
    assert index.match([]) == []


def test_four_term_overlap_rejected(index):
    # window hit at the tail, but only a 4-term run of agreement
    assert index.match([330626, 8491842, 1, 2, 3, 4]) == []


def test_truncated_query_overlapping_suffix(index):
    # query longer than the stored tail still matches on the stored part
    q = [27525, 585108, 14726411, 999, 999]
    assert index.match(q) == []  # only 3 stored terms remain past the window
    q2 = [1584, 27525, 585108, 14726411]
    assert index.match(q2) == []  # 4-term overlap below the threshold
    q3 = [117, 1584, 27525, 585108, 14726411]
    assert index.match(q3) == ["A290840"]


def test_no_false_positives_on_decoys(index):
    # agreement must hold over the whole overlap, not just the first window
    assert index.match([1, 2, 4, 10, 26, 77]) == []
    assert index.match([5, 14, 42, 132, 429, 1430, 4863]) == []


def test_min_match_constant():
    assert MIN_MATCH == 5


def _zero_stripped(query):
    i = 0
    while i < len(query) and query[i] == 0:
        i += 1
    return query[i:]


def _holds_head(terms, queries):
    """Does the entry hold, as 3 consecutive terms, the head of a query
    (verbatim or without leading zeros) that is long enough to match?"""
    heads = {
        run[:3]
        for q in queries
        for run in (tuple(q), _zero_stripped(tuple(q)))
        if len(run) >= MIN_MATCH
    }
    return any(tuple(terms[i : i + 3]) in heads for i in range(len(terms) - 2))


def _synthetic_dump(rng, entries=300):
    """Stripped-format lines over the digits, so that windows recur across
    entries, with comments, malformed lines, spellings int() reads (+5, 05,
    1_0) and an id given twice."""
    lines, made = ["# synthetic stripped dump", ""], []
    for k in range(entries):
        terms = [rng.choice([0, *range(10)]) for _ in range(rng.randint(1, 16))]
        if made and rng.random() < 0.2:
            # a run shared with an earlier entry, so a query can hit both
            terms[2:] = rng.choice(made)[rng.randrange(3) :]
        made.append(terms)
        cells = [str(t) for t in terms]
        if rng.random() < 0.1:
            i = rng.randrange(len(cells))
            cells[i] = rng.choice(["+", "0", " "]) + cells[i]
        lines.append(f"A{k:06d} ," + ",".join(cells) + ",")
        if rng.random() < 0.05:
            lines.append(f"A{k:06d} ,1,2,x{k},3,")
    lines.append("A900001 ,1_0,2,0,")
    lines.append("A900002 ,5,1.5,")
    lines.append("#A900003 ,1,1,2,3,5,")
    lines.append("A900004 ,1,1,2,3,5,8,")
    lines.append("A900004 ,3,1,0,1,2,")
    return "\n".join(lines) + "\n"


def _queries(rng, entries, count):
    """Seeded queries of every kind a lookup meets: verbatim, offset inside
    an entry, behind leading zeros, too short, a 4-term overlap at an
    entry's tail, and decoys that agree on the first window only."""
    out = []
    for _ in range(count):
        terms = list(rng.choice(entries))
        i = rng.randrange(max(1, len(terms) - MIN_MATCH))
        kind = rng.randrange(6)
        if kind == 0:
            q = terms
        elif kind == 1:
            q = terms[i : i + rng.randint(5, 9)]
        elif kind == 2:
            q = [0] * rng.randint(1, 3) + terms[i:]
        elif kind == 3:
            q = terms[i : i + rng.randint(0, MIN_MATCH - 1)]
        elif kind == 4:
            q = terms[-4:] + [rng.randint(0, 9) for _ in range(rng.randint(1, 4))]
        else:
            q = terms[i : i + 3] + [rng.randint(4, 99) for _ in range(rng.randint(2, 5))]
        out.append(q)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query_index_matches_full_index(tmp_path, seed):
    rng = random.Random(seed)
    plain = tmp_path / "stripped.txt"
    plain.write_text(_synthetic_dump(rng))
    gz = tmp_path / "stripped.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(plain.read_text())
    for path in (FIXTURE, plain, gz):
        full = StrippedIndex.load(path)
        entries = [t for t in full.sequences.values() if t]
        queries = _queries(rng, entries, count=len(entries) // 4)
        kept = StrippedIndex.load(path, queries)
        assert kept.sequences == {
            sid: t for sid, t in full.sequences.items() if _holds_head(t, queries)
        }
        assert len(kept.sequences) < len(full.sequences)
        hits = [full.match(q) for q in queries]
        assert [kept.match(q) for q in queries] == hits
        assert sum(bool(h) for h in hits) > len(queries) // 10


FIXTURE_QUERIES = [
    [1, 1, 2, 6, 24, 120, 720],
    [0, 1, 1, 2, 3, 5, 8, 13],
    [2, 4, 10, 26, 76, 232],
    [2, 6, 24, 120, 720, 5040],
    [0, 1, 18, 1699, 592260, 754179301, 3562635108438],
    [0, 0, 1, 2, 4, 8, 16, 32],
    [1, 1, 2, 6],
    [],
    [330626, 8491842, 1, 2, 3, 4],
    [27525, 585108, 14726411, 999, 999],
    [1584, 27525, 585108, 14726411],
    [117, 1584, 27525, 585108, 14726411],
    [1, 2, 4, 10, 26, 77],
    [5, 14, 42, 132, 429, 1430, 4863],
]


@pytest.mark.parametrize("query", FIXTURE_QUERIES)
def test_one_query_index_matches_full_index(index, query):
    # the `oeis --terms` path: the dump is read for that one query
    assert StrippedIndex.load(FIXTURE, [query]).match(query) == index.match(query)


def test_synthetic_dump_reads_as_int_would(tmp_path):
    path = tmp_path / "stripped.txt"
    path.write_text(_synthetic_dump(random.Random(1)))
    seqs = StrippedIndex.load(path).sequences
    assert seqs["A900001"] == (10, 2, 0)
    assert "A900002" not in seqs and "A900003" not in seqs
    # a later line for an id replaces the earlier one, also when filtered
    assert seqs["A900004"] == (3, 1, 0, 1, 2)
    assert "A900004" not in StrippedIndex.load(path, [[1, 1, 2, 3, 5, 8]]).sequences


def test_no_query_reads_nothing_but_the_file_must_exist(tmp_path):
    assert StrippedIndex.load(FIXTURE, []).sequences == {}
    assert StrippedIndex.load(FIXTURE, [[1, 2, 6, 24]]).sequences == {}
    with pytest.raises(FileNotFoundError):
        StrippedIndex.load(tmp_path / "missing.gz", [])


@pytest.fixture
def no_rate_limit(monkeypatch):
    monkeypatch.setattr(oeis, "MIN_INTERVAL", 0.0)


def test_online_search_parses_results(no_rate_limit):
    calls = []

    def fake_fetch(url):
        calls.append(url)
        return json.dumps({"results": [{"number": 142}, {"number": 85}]})

    got = online_search([1, 1, 2, 6, 24, 120], fetch=fake_fetch)
    assert got == ["A000142", "A000085"]
    assert "1,1,2,6,24,120" in calls[0]


def test_online_search_handles_no_results(no_rate_limit):
    def fake_fetch(url):
        return json.dumps({"results": None, "count": 0})

    assert online_search([9, 9, 9, 9, 9], fetch=fake_fetch) == []


def test_online_search_rate_limits(monkeypatch):
    naps = []
    monkeypatch.setattr(oeis.time, "sleep", lambda s: naps.append(s))
    monkeypatch.setattr(oeis, "_last_online_call", time.monotonic())

    def fake_fetch(url):
        return json.dumps({"results": []})

    online_search([1, 2, 3, 4, 5], fetch=fake_fetch)
    assert naps and 0 < naps[0] <= oeis.MIN_INTERVAL


def test_default_fetch_uses_urllib(monkeypatch, no_rate_limit):
    seen = {}

    def fake_urlopen(url, timeout):
        seen.update(url=url, timeout=timeout)
        return io.BytesIO(json.dumps({"results": [{"number": 45}]}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    assert online_search([0, 1, 1, 2, 3]) == ["A000045"]
    assert seen["url"] == "https://oeis.org/search?q=0,1,1,2,3&fmt=json"
    assert seen["timeout"] == 30


def test_default_fetch_raises_on_http_error(monkeypatch, no_rate_limit):
    def fake_urlopen(url, timeout):
        raise urllib.error.HTTPError(url, 503, "Service Unavailable", None, None)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    with pytest.raises(urllib.error.HTTPError):
        online_search([1, 2, 3, 4, 5])
