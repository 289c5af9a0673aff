"""Offline OEIS matching and the rate-limited online fallback."""

import gzip
import io
import json
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


def test_online_search_parses_results():
    calls = []

    def fake_fetch(url):
        calls.append(url)
        return json.dumps({"results": [{"number": 142}, {"number": 85}]})

    got = online_search([1, 1, 2, 6, 24, 120], fetch=fake_fetch, min_interval=0)
    assert got == ["A000142", "A000085"]
    assert "1,1,2,6,24,120" in calls[0]


def test_online_search_handles_no_results():
    def fake_fetch(url):
        return json.dumps({"results": None, "count": 0})

    assert online_search([9, 9, 9, 9, 9], fetch=fake_fetch, min_interval=0) == []


def test_online_search_rate_limits(monkeypatch):
    naps = []
    monkeypatch.setattr(oeis.time, "sleep", lambda s: naps.append(s))
    monkeypatch.setattr(oeis, "_last_online_call", time.monotonic())

    def fake_fetch(url):
        return json.dumps({"results": []})

    online_search([1, 2, 3, 4, 5], fetch=fake_fetch, min_interval=5.0)
    assert naps and naps[0] > 0


def test_default_fetch_uses_urllib(monkeypatch):
    seen = {}

    def fake_urlopen(url, timeout):
        seen.update(url=url, timeout=timeout)
        return io.BytesIO(json.dumps({"results": [{"number": 45}]}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    assert online_search([0, 1, 1, 2, 3], min_interval=0) == ["A000045"]
    assert seen["url"] == "https://oeis.org/search?q=0,1,1,2,3&fmt=json"
    assert seen["timeout"] == 30


def test_default_fetch_raises_on_http_error(monkeypatch):
    def fake_urlopen(url, timeout):
        raise urllib.error.HTTPError(url, 503, "Service Unavailable", None, None)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    with pytest.raises(urllib.error.HTTPError):
        online_search([1, 2, 3, 4, 5], min_interval=0)
