"""Span tree arithmetic and the tracer's wrappers."""

import pytest

from combspec import engine
from combspec.logic import parse_sentence

from perfbench.trace import Span, Tracer, self_times


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", None, 0.0, 10.0, "r"),
        # overlapping children cover [1, 5] once, not 2 + 3
        Span(1, "a", 0, 1.0, 3.0, "r"),
        Span(2, "b", 0, 2.0, 5.0, "r"),
        # a child running past its parent counts only up to the parent's end
        Span(3, "c", 0, 8.0, 12.0, "r"),
        Span(4, "leaf", 1, 1.5, 2.5, "r"),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)


def test_tracer_records_parented_spans_and_restores_names():
    original = engine.compile_sentence
    tracer = Tracer("t")
    with tracer.installed():
        assert engine.compile_sentence is not original
        engine.compute_spectrum(parse_sentence("(V x E=1 y B(x,y))"), 4)
    assert engine.compile_sentence is original
    by_name = {s.name: s for s in tracer.spans}
    top = by_name["engine.compute_spectrum"]
    assert top.parent is None
    assert by_name["engine.compile_sentence"].parent == top.id
    assert all(s.run == "t" for s in tracer.spans)
    metrics = tracer.metrics()
    assert metrics["engine.compute_spectrum.calls"] == 1
    assert metrics["engine.evaluate_cell_sum.calls"] >= 4
    assert metrics["engine.symbolic_sentences"] == 1
    assert metrics["engine.truncated"] == 0
    assert 0 <= metrics["engine.compute_spectrum.s"] <= top.end - top.start
