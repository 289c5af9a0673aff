"""Command-line interface.

Exit codes: 0 success, 2 sentence parse error, 3 sentence outside the
supported fragment, 4 computation budget exhausted, 5 file error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import compute_spectrum, wfomc
from .generator import GenLimits, generate
from .logic import FragmentError, ParseError, Sentence, parse_sentence
from .oeis import StrippedIndex, online_search
from .seqdb import STATUSES, SpectrumDB

PROFILES = {
    "fo2-paper": {"ml": 5, "mc": 2, "up": 1, "bp": 1, "k": 0},
    "c2-paper": {"ml": 5, "mc": 2, "up": 1, "bp": 1, "k": 1},
}

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FRAGMENT = 3
EXIT_BUDGET = 4
EXIT_IO = 5

# repeatable NAME=INT options; a config file lists their values with commas
WEIGHT_OPTIONS = ("w", "wbar")


def read_config(path: str) -> dict[str, str]:
    """key=value file, one per line, # comments; a file that is not
    UTF-8 is a file error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8: {exc}") from exc
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line: {raw!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset options from --config; explicit flags win.  A key must
    name an option of the command other than --config itself."""
    if not args.config:
        return
    for key, value in read_config(args.config).items():
        if key not in args.options:
            parser.error(f"unknown config key {key!r} for {args.command}")
        current = getattr(args, key)
        # a store_true flag left at False is unset; `is` keeps 0 apart
        if current is False:
            setattr(args, key, value.lower() in ("1", "true", "yes"))
        elif current is None:
            if key in WEIGHT_OPTIONS:
                value = [item.strip() for item in value.split(",")]
            setattr(args, key, value)


def _parse_weights(pairs: list[str] | None, slot: int, weights: dict) -> dict:
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"expected NAME=INT, got {pair!r}")
        w = weights.get(name, (1, 1))
        weights[name] = (int(value), w[1]) if slot == 0 else (w[0], int(value))
    return weights


def _weights_from_args(args: argparse.Namespace, s: Sentence) -> dict | None:
    """The --w and --wbar weights; a name that is not a predicate of s is
    an error, since its weight would be ignored."""
    weights: dict = {}
    _parse_weights(args.w, 0, weights)
    _parse_weights(args.wbar, 1, weights)
    unknown = sorted(weights.keys() - {p.name for p in s.predicates})
    if unknown:
        raise ValueError(f"weight for {unknown[0]!r}, not a predicate of the sentence")
    return weights or None


def _at_least_one(value: str | None, default: int, flag: str) -> int:
    """A count option, or its default when unset; below 1 is an error."""
    n = int(value) if value is not None else default
    if n < 1:
        raise ValueError(f"{flag} must be at least 1, got {n}")
    return n


def _budget(value: str | None, default: float | None, flag: str) -> float | None:
    """A budget option in seconds, or its default when unset; NaN or below
    0 is an error."""
    if value is None:
        return default
    secs = float(value)
    # NaN compares false with everything, so `not secs >= 0` refuses it too
    if not secs >= 0:
        raise ValueError(f"{flag} must be at least 0, got {value}")
    return secs


def _limits_from_args(args: argparse.Namespace) -> GenLimits:
    base = dict(PROFILES[args.profile]) if args.profile else {}
    for key in ("ml", "mc", "up", "bp", "k"):
        value = getattr(args, key)
        if value is not None:
            base[key] = int(value)
    missing = [k for k in ("ml", "mc", "up", "bp") if k not in base]
    if missing:
        raise ValueError(f"missing limits (set --profile or {missing})")
    return GenLimits(
        max_literals=base["ml"],
        max_clauses=base["mc"],
        unary=base["up"],
        binary=base["bp"],
        max_count=base.get("k", 0),
    )


def cmd_wfomc(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    s = parse_sentence(args.sentence)
    value = wfomc(s, args.n, weights=_weights_from_args(args, s))
    print(value)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    s = parse_sentence(args.sentence)
    length = _at_least_one(args.length, 10, "--length")
    budget = _budget(args.budget_secs, None, "--budget-secs")
    sp = compute_spectrum(
        s, length, weights=_weights_from_args(args, s), budget_secs=budget
    )
    if args.json:
        print(
            json.dumps(
                {
                    "sentence": s.render(),
                    "terms": [str(t) for t in sp.terms],
                    "truncated": sp.truncated,
                }
            )
        )
    else:
        for t in sp.terms:
            print(t)
    return EXIT_BUDGET if sp.truncated else EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    # spectra are computed only to be stored, so without --db these would
    # read as applied
    if not args.db and (args.length is not None or args.budget_secs is not None):
        raise ValueError("--length and --budget-secs apply with --db only")
    limits = _limits_from_args(args)
    layers = _at_least_one(args.layers, 3, "--layers")
    search_budget = _budget(args.search_budget_secs, None, "--search-budget-secs")
    if args.db:
        length = _at_least_one(args.length, 10, "--length")
        budget = _budget(args.budget_secs, 30.0, "--budget-secs")
        # a malformed file, or a new one in a missing directory, fails
        # before the search, not after it
        if not Path(args.db).parent.is_dir():
            raise FileNotFoundError(f"no directory for --db {args.db}")
        db = SpectrumDB(args.db)
        result = generate(
            limits, layers, budget_secs=search_budget, length=length, spectrum_secs=budget
        )
        uniques = result.store(db, args.profile or "custom")
        truncated = result.truncated or any(sp.truncated for sp in result.spectra.values())
    else:
        result = generate(limits, layers, budget_secs=search_budget)
        truncated = result.truncated
    rows = [{"layer": i + 1, "kept": len(kept)} for i, kept in enumerate(result.kept)]
    doc: dict = {"layers": rows, "truncated": truncated}
    # the search stops inside the last layer it reports
    if result.truncated:
        doc["stopped_layer"] = len(result.kept)
    if args.db:
        for row, unique in zip(rows, uniques):
            row["unique"] = unique
        doc["db"] = db.stats()

    if args.json:
        print(json.dumps(doc))
    else:
        for row in rows:
            unique = f", unique {row['unique']}" if "unique" in row else ""
            print(f"layer {row['layer']}: kept {row['kept']}{unique}")
        if "stopped_layer" in doc:
            print(f"search budget ran out in layer {doc['stopped_layer']}")
        if "db" in doc:
            print(f"db: {doc['db']}")
    return EXIT_BUDGET if truncated else EXIT_OK


def cmd_db(args: argparse.Namespace) -> int:
    # stats counts every status, so a filter would read as applied
    if args.status is not None and args.db_command == "stats":
        raise ValueError("--status applies to db export only")
    # a misspelt status would match nothing, which reads as an empty result
    if args.status is not None and args.status not in STATUSES:
        allowed = ", ".join(STATUSES)
        raise ValueError(f"--status must be one of {allowed}, got {args.status!r}")
    # inspection never creates a database, so a missing path is an error
    if not Path(args.db).exists():
        raise FileNotFoundError(args.db)
    db = SpectrumDB(args.db)
    if args.db_command == "stats":
        print(json.dumps(db.stats()))
        return EXIT_OK
    records = db.latest_records()
    if args.status is not None:
        records = [r for r in records if r.status == args.status]
    for rec in records:
        print(rec.to_json())
    return EXIT_OK


def cmd_oeis(args: argparse.Namespace) -> int:
    # without a source every lookup would miss, which reads as no match
    if not (args.stripped or args.online):
        raise ValueError("oeis needs --stripped or --online")
    # --terms would run alone and leave the database as it was
    if args.terms and args.db:
        raise ValueError("oeis takes --terms or --db, not both")
    # every query is known before the dump is read, so only the entries
    # that can match them are kept
    if args.terms:
        terms = [int(t) for t in args.terms.replace(",", " ").split()]
        queries = [terms]
    elif args.db:
        if not Path(args.db).exists():
            raise FileNotFoundError(args.db)
        db = SpectrumDB(args.db)
        records = db.unique_records()
        queries = [rec.spectrum for rec in records]
    else:
        raise ValueError("oeis needs --terms or --db")
    index = StrippedIndex.load(args.stripped, queries) if args.stripped else None

    def lookup(terms: list[int]) -> list[str]:
        hits = index.match(terms) if index is not None else []
        if not hits and args.online:
            hits = online_search(terms)
        return hits

    if args.terms:
        hits = lookup(terms)
        if args.json:
            print(json.dumps({"terms": terms, "matches": hits}))
        else:
            for h in hits:
                print(h)
        return EXIT_OK

    rows, found = [], {}
    try:
        for rec in records:
            hits = lookup(list(rec.spectrum))
            if hits:
                found[rec.id] = hits[0]
            rows.append({"sentence": rec.sentence, "matches": hits})
            if not args.json:
                shown = ",".join(hits) if hits else "-"
                print(f"{shown}\t{rec.sentence}")
    finally:
        # an online lookup that fails part-way keeps the matches before it
        if found:
            db.set_oeis(found)
    if args.json:
        print(json.dumps(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combspec",
        description="Model-count spectra of two-variable sentences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weights(p: argparse.ArgumentParser) -> None:
        for name in WEIGHT_OPTIONS:
            p.add_argument(f"--{name}", action="append", metavar="NAME=INT")

    def add_common(p: argparse.ArgumentParser, func, json_output: bool = True) -> None:
        p.add_argument("--config", help="key=value defaults file")
        if json_output:
            p.add_argument("--json", action="store_true", help="JSON output")
        # the keys a --config file may set; argparse lists options in _actions
        options = {a.dest for a in p._actions if a.option_strings} - {"help", "config"}
        p.set_defaults(func=func, options=options)

    p = sub.add_parser("wfomc", help="weighted model count at one size")
    p.add_argument("sentence")
    p.add_argument("--n", type=int, required=True, help="domain size")
    add_weights(p)
    add_common(p, cmd_wfomc, json_output=False)

    p = sub.add_parser("spectrum", help="model counts for n = 1..length")
    p.add_argument("sentence")
    p.add_argument("--length", help="number of terms (default 10)")
    p.add_argument("--budget-secs", dest="budget_secs")
    add_weights(p)
    add_common(p, cmd_spectrum)

    p = sub.add_parser("generate", help="enumerate sentences, store spectra with --db")
    p.add_argument("--profile", choices=sorted(PROFILES))
    p.add_argument("--ml", help="max literals per clause")
    p.add_argument("--mc", help="max clauses")
    p.add_argument("--up", help="unary predicates")
    p.add_argument("--bp", help="binary predicates")
    p.add_argument("--k", help="counting parameter: 1 allows E=1, 0 disables")
    p.add_argument("--layers", help="refinement depth (default 3)")
    p.add_argument("--length", help="spectrum length, with --db (default 10)")
    p.add_argument("--budget-secs", dest="budget_secs", help="per-spectrum budget, with --db")
    p.add_argument(
        "--search-budget-secs", dest="search_budget_secs", help="whole-search budget"
    )
    p.add_argument("--db", help="JSONL database path")
    add_common(p, cmd_generate)

    p = sub.add_parser("db", help="inspect a spectrum database")
    p.add_argument("db_command", choices=["stats", "export"])
    p.add_argument("--db", required=True)
    p.add_argument("--status", help="filter export by status")
    add_common(p, cmd_db, json_output=False)

    p = sub.add_parser("oeis", help="match spectra against OEIS")
    p.add_argument("--terms", help="comma-separated integers")
    p.add_argument("--db", help="match every unique record in this database")
    p.add_argument("--stripped", help="path to OEIS stripped dump (.gz ok)")
    p.add_argument("--online", action="store_true", help="query oeis.org")
    add_common(p, cmd_oeis)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, parser)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FragmentError as exc:
        print(f"unsupported fragment: {exc}", file=sys.stderr)
        return EXIT_FRAGMENT
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
