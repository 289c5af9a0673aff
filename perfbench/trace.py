"""Spans around the calls into each combspec module, for the traced run.

A `Tracer` replaces the module-level names that combspec resolves at call
time (`generator.spectrum_fingerprint`, `engine.evaluate_cell_sum`,
`cli.generate`, `SpectrumDB.insert`, ...) with wrappers, and puts the
originals back when the traced pass ends, so no source file changes.  Each
wrapped call records one span: name, start, end, parent span and run id.
Spans stay in memory until `write` dumps them.  Calls too frequent to
time one by one (`mul_values`, `pow_value`) are only counted.  Hooks on
the same wrappers read counts from return values: `GenResult.counts`,
the compiled branches' cells, and `SpectrumDB.stats()`.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

from combspec import cli, engine, generator, logic, oeis, polynomial, seqdb

FILTERS = (
    "is_tautological",
    "is_refuted",
    "is_decomposable",
    "has_trivial_constraint",
    "reflexive_only_binary",
    "has_subsumed_clause",
)
STATUSES = ("unique", "duplicate", "product_redundant")
HOOK_COUNTS = (
    "generator.candidates",
    *(f"generator.verdict.{v}" for v in generator.DROPPED + ("new",) + generator.HIDDEN),
    "engine.cells",
    "engine.symbolic_sentences",
    "engine.truncated",
    "seqdb.demoted",
    "oeis.matched",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    run: str


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Collects spans and counts for one traced pass of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        # counts read from return values, zero until a hook sees one
        self.counts: Counter = Counter(dict.fromkeys(HOOK_COUNTS, 0))
        self.last_stats: dict[str, int] = {}
        self.db_path: Path | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    def _timed(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    Span(sid, name, parent, start - self._t0, end - self._t0, self.run_id)
                )
            if hook is not None:
                hook(result, args)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # hooks: read counts from the return values of the wrapped calls

    def _on_generate(self, result, args) -> None:
        for layer in result.counts:
            self.counts["generator.candidates"] += sum(layer.values())
            for verdict, n in layer.items():
                self.counts[f"generator.verdict.{verdict}"] += n

    def _on_compile(self, result, args) -> None:
        self.counts["engine.cells"] += sum(len(g.cells) for _, g in result.branches)
        self.counts["engine.symbolic_sentences"] += bool(result.cvars)

    def _on_spectrum(self, result, args) -> None:
        self.counts["engine.truncated"] += result.truncated

    def _on_open(self, result, args) -> None:
        self.db_path = args[0].path

    def _on_reclassify(self, result, args) -> None:
        self.counts["seqdb.demoted"] += result

    def _on_stats(self, result, args) -> None:
        self.last_stats = dict(result)

    def _on_match(self, result, args) -> None:
        self.counts["oeis.matched"] += bool(result)

    def _plan(self) -> list[tuple[object, str, str, str, Callable | None]]:
        """(owner, attribute, metric prefix, kind, hook) for every wrapper."""
        db, ix = seqdb.SpectrumDB, oeis.StrippedIndex
        plan = [
            (cli, "main", "cli.main", "span", None),
            (cli, "generate", "generator.generate", "span", self._on_generate),
            (generator, "refinements", "generator.refinements", "span", None),
            (generator, "canonical_key", "logic.canonical_key", "span", None),
            (generator, "spectrum_fingerprint", "engine.spectrum_fingerprint", "span", None),
            (cli, "parse_sentence", "logic.parse_sentence", "span", None),
            (logic, "parse_sentence", "logic.parse_sentence", "span", None),
            (cli, "compute_spectrum", "engine.compute_spectrum", "span", self._on_spectrum),
            (engine, "compute_spectrum", "engine.compute_spectrum", "span", self._on_spectrum),
            (engine, "compile_sentence", "engine.compile_sentence", "span", self._on_compile),
            (engine, "evaluate_cell_sum", "engine.evaluate_cell_sum", "span", None),
            (engine, "mul_values", "polynomial.mul_values", "count", None),
            (polynomial, "mul_values", "polynomial.mul_values", "count", None),
            (engine, "pow_value", "polynomial.pow_value", "count", None),
            (db, "__init__", "seqdb.open", "span", self._on_open),
            (db, "insert", "seqdb.insert", "span", None),
            (db, "reclassify_products", "seqdb.reclassify_products", "span", self._on_reclassify),
            (db, "set_oeis", "seqdb.set_oeis", "span", None),
            (db, "stats", "seqdb.stats", "span", self._on_stats),
            (ix, "load", "oeis.load", "span", None),
            (ix, "match", "oeis.match", "span", self._on_match),
        ]
        plan += [(generator, f, f"generator.{f}", "span", None) for f in FILTERS]
        return plan

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every planned name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, kind, hook in self._plan():
                orig = vars(owner)[attr]
                fn = orig.__func__ if isinstance(orig, classmethod) else orig
                new = self._timed(name, fn, hook) if kind == "span" else self._counted(name, fn)
                setattr(owner, attr, classmethod(new) if isinstance(orig, classmethod) else new)
                saved.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the tracer makes, zero where nothing ran.

        `<name>.calls` counts spans (or counted calls) and `<name>.s` sums
        their self time; the rest are read from return values.
        """
        out: dict[str, float] = {}
        for _, _, name, kind, _ in self._plan():
            out[name + ".calls"] = 0
            if kind == "span":
                out[name + ".s"] = 0.0
        out.update(self.counts)
        selfs = self_times(self.spans)
        spectrum_ms = []
        for s in self.spans:
            out[s.name + ".calls"] += 1
            out[s.name + ".s"] += selfs[s.id]
            if s.name == "engine.compute_spectrum":
                spectrum_ms.append((s.end - s.start) * 1e3)
        p50 = p90 = top = 0.0
        if len(spectrum_ms) > 1:
            p50 = statistics.median(spectrum_ms)
            p90 = statistics.quantiles(spectrum_ms, n=10)[8]
            top = max(spectrum_ms)
        out["engine.spectrum.p50_ms"] = p50
        out["engine.spectrum.p90_ms"] = p90
        out["engine.spectrum.max_ms"] = top
        out["generator.kept_ratio"] = out["generator.verdict.new"] / max(1, out["generator.candidates"])
        for status in STATUSES:
            out[f"seqdb.status.{status}"] = self.last_stats.get(status, 0)
        db = self.db_path
        out["seqdb.file_bytes"] = db.stat().st_size if db is not None and db.exists() else 0
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, in the order the spans ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
