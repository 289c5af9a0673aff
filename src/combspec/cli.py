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
# the values a config file may give a flag key
TRUE, FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _config_tokens(
    parser: argparse.ArgumentParser, command: str, argv: list[str]
) -> list[str]:
    """The tokens that the --config file among argv stands for, as argparse
    would see them on the command line of parser.

    The file holds one `key = value` per line, and # comments; a file that
    is not UTF-8 is a file error.  A key is the name of an option of the
    command other than --config itself, and becomes `--key=value`, so
    that a value such as -1 stays a value.  A flag key becomes the bare
    flag when true and nothing when false.  A weight key becomes one
    `--w=NAME=INT` per comma item, unless argv gives a flag of its option.
    """
    # the lenient nargs leave a flag without its value to the full parse
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    for name in WEIGHT_OPTIONS:
        pre.add_argument(f"--{name}", nargs="?", action="append")
    given = pre.parse_known_args(argv)[0]
    if not given.config:
        return []
    try:
        text = Path(given.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{given.config}: not UTF-8: {exc}") from exc
    options = {a.dest: a for a in parser._actions if a.option_strings}
    del options["help"], options["config"]
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in options:
            parser.error(f"unknown config key {key!r} for {command}")
        flag = options[key].option_strings[0]
        # a store_true flag takes no value on the command line
        if options[key].nargs == 0:
            if value.lower() not in TRUE + FALSE:
                parser.error(f"config key {key!r} takes true or false, got {value!r}")
            if value.lower() in TRUE:
                tokens.append(flag)
        elif key in WEIGHT_OPTIONS:
            if getattr(given, key) is None:
                tokens += [f"{flag}={item.strip()}" for item in value.split(",")]
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _at_least(low: int, convert):
    """An option type: the value as convert reads it, refused below low."""

    def check(text: str):
        value = convert(text)
        # NaN compares false with everything, so `not value >= low` refuses it too
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    # argparse names the type when convert refuses the text
    check.__name__ = convert.__name__
    return check


COUNT = _at_least(1, int)
SECONDS = _at_least(0, float)


def weight(text: str) -> tuple[str, int]:
    """An option type: a NAME=INT item of --w or --wbar; argparse reports
    other text as an invalid weight value."""
    name, value = text.split("=", 1)
    return name, int(value)


def terms(text: str) -> list[int]:
    """An option type: integers split by commas or spaces, at least one;
    argparse reports other text as an invalid terms value."""
    values = [int(t) for t in text.replace(",", " ").split()]
    if not values:
        raise ValueError(text)
    return values


def _weights_from_args(args: argparse.Namespace, s: Sentence) -> dict | None:
    """The --w and --wbar weights; a name that is not a predicate of s is
    an error, since its weight would be ignored."""
    w, wbar = dict(args.w or ()), dict(args.wbar or ())
    weights = {name: (w.get(name, 1), wbar.get(name, 1)) for name in w | wbar}
    unknown = sorted(weights.keys() - {p.name for p in s.predicates})
    if unknown:
        raise ValueError(f"weight for {unknown[0]!r}, not a predicate of the sentence")
    return weights or None


def _limits_from_args(args: argparse.Namespace) -> GenLimits:
    base = dict(PROFILES[args.profile]) if args.profile else {}
    for key in ("ml", "mc", "up", "bp", "k"):
        value = getattr(args, key)
        if value is not None:
            base[key] = value
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
    s = parse_sentence(args.sentence)
    value = wfomc(s, args.n, weights=_weights_from_args(args, s))
    print(value)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    s = parse_sentence(args.sentence)
    sp = compute_spectrum(
        s, args.length, weights=_weights_from_args(args, s), budget_secs=args.budget_secs
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
    if args.db is None and (args.length is not None or args.budget_secs is not None):
        raise ValueError("--length and --budget-secs apply with --db only")
    limits = _limits_from_args(args)
    spectra: dict = {}
    if args.db is not None:
        # a malformed file, or a new one in a missing directory, fails
        # before the search, not after it
        if not Path(args.db).parent.is_dir():
            raise FileNotFoundError(f"no directory for --db {args.db}")
        db = SpectrumDB(args.db)
        spectra["length"] = args.length or 10
        spectra["spectrum_secs"] = 30.0 if args.budget_secs is None else args.budget_secs
    result = generate(limits, args.layers, budget_secs=args.search_budget_secs, **spectra)
    # without --db no spectrum is computed, and none is truncated
    truncated = result.truncated or any(sp.truncated for sp in result.spectra.values())
    rows = [{"layer": i + 1, "kept": len(kept)} for i, kept in enumerate(result.kept)]
    doc: dict = {"layers": rows, "truncated": truncated}
    # the search stops inside the last layer it reports
    if result.truncated:
        doc["stopped_layer"] = len(result.kept)
    if args.db is not None:
        for row, unique in zip(rows, result.store(db, args.profile or "custom")):
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
    # every query is known before the dump is read, so only the entries
    # that can match them are kept
    if args.terms is not None:
        queries = [args.terms]
    else:
        if not Path(args.db).exists():
            raise FileNotFoundError(args.db)
        db = SpectrumDB(args.db)
        records = db.unique_records()
        queries = [rec.spectrum for rec in records]
    index = StrippedIndex.load(args.stripped, queries) if args.stripped else None

    def lookup(query: list[int]) -> list[str]:
        hits = index.match(query) if index is not None else []
        if not hits and args.online:
            hits = online_search(query)
        return hits

    if args.terms is not None:
        hits = lookup(args.terms)
        if args.json:
            print(json.dumps({"terms": args.terms, "matches": hits}))
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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and the parser of each command by its name."""
    parser = argparse.ArgumentParser(
        prog="combspec",
        description="Model-count spectra of two-variable sentences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weights(p: argparse.ArgumentParser) -> None:
        for name in WEIGHT_OPTIONS:
            p.add_argument(f"--{name}", type=weight, action="append", metavar="NAME=INT")

    def add_common(p: argparse.ArgumentParser, func, json_output: bool = True) -> None:
        p.add_argument("--config", help="key=value defaults file")
        if json_output:
            p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(func=func)

    p = sub.add_parser("wfomc", help="weighted model count at one size")
    p.add_argument("sentence")
    p.add_argument("--n", type=COUNT, required=True, help="domain size")
    add_weights(p)
    add_common(p, cmd_wfomc, json_output=False)

    p = sub.add_parser("spectrum", help="model counts for n = 1..length")
    p.add_argument("sentence")
    p.add_argument("--length", type=COUNT, default=10, help="number of terms (default 10)")
    p.add_argument("--budget-secs", type=SECONDS)
    add_weights(p)
    add_common(p, cmd_spectrum)

    p = sub.add_parser("generate", help="enumerate sentences, store spectra with --db")
    p.add_argument("--profile", choices=sorted(PROFILES))
    p.add_argument("--ml", type=int, help="max literals per clause")
    p.add_argument("--mc", type=int, help="max clauses")
    p.add_argument("--up", type=int, help="unary predicates")
    p.add_argument("--bp", type=int, help="binary predicates")
    p.add_argument("--k", type=int, help="counting parameter: 1 allows E=1, 0 disables")
    p.add_argument("--layers", type=COUNT, default=3, help="refinement depth (default 3)")
    p.add_argument("--length", type=COUNT, help="spectrum length, with --db (default 10)")
    p.add_argument("--budget-secs", type=SECONDS, help="per-spectrum budget, with --db")
    p.add_argument("--search-budget-secs", type=SECONDS, help="whole-search budget")
    p.add_argument("--db", help="JSONL database path")
    add_common(p, cmd_generate)

    p = sub.add_parser("db", help="inspect a spectrum database")
    p.add_argument("db_command", choices=["stats", "export"])
    p.add_argument("--db", required=True)
    p.add_argument("--status", choices=STATUSES, help="filter export by status")
    add_common(p, cmd_db, json_output=False)

    p = sub.add_parser("oeis", help="match spectra against OEIS")
    query = p.add_mutually_exclusive_group(required=True)
    query.add_argument("--terms", type=terms, help="comma-separated integers")
    query.add_argument("--db", help="match every unique record in this database")
    p.add_argument("--stripped", help="path to OEIS stripped dump (.gz ok)")
    p.add_argument("--online", action="store_true", help="query oeis.org")
    add_common(p, cmd_oeis)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a --config file's tokens go before the user's, so that flags win
        if argv and argv[0] in commands:
            argv[1:1] = _config_tokens(commands[argv[0]], argv[0], argv[1:])
        args = parser.parse_args(argv)
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
