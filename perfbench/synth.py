"""Seeded synthetic inputs for the db-catalog workload.

`build(seed, bases)` returns length-10 spectra shaped like real ones (small first
terms, big integers after, about one in six starting with 0) with planted
duplicates, termwise products and a few too-short records mixed in, plus an
OEIS stripped dump that holds planted copies of some unique spectra among
decoys.  Everything comes from one `random.Random(seed)`, and `write` emits
the files byte-for-byte the same for the same seed (the gzip header carries
no timestamp).
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

LENGTH = 10


@dataclass
class Catalog:
    spectra: list[tuple[str, tuple[int, ...]]]
    dump: list[tuple[str, tuple[int, ...]]]
    duplicates: dict[str, str] = field(default_factory=dict)
    products: dict[str, tuple[str, str]] = field(default_factory=dict)
    oeis: dict[str, str] = field(default_factory=dict)


def _base(rng: random.Random) -> tuple[int, ...]:
    """Fast-growing, non-smooth terms: about c*n^2 + d*n bits at n."""
    c, d = rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.0)
    first = 0 if rng.random() < 1 / 6 else rng.randint(1, 4)
    terms = [first]
    for n in range(2, LENGTH + 1):
        bits = int(c * n * n + d * n) + 1
        terms.append(rng.randrange(1 << (bits - 1), 1 << bits))
    return tuple(terms)


def build(seed: int, bases: int) -> Catalog:
    """Spectra in insertion order, and the stripped dump in id order.

    Planted records: about 8 % duplicates (a base's first 5 to 10 terms,
    placed after it), 5 % products of two bases (three in ten placed before
    a factor, so only `reclassify_products` can find them), and 1 % shorter
    than five terms.
    About 5 % of bases get an OEIS copy: verbatim, shifted behind extra
    terms, behind leading zeros, or without a leading zero.
    """
    rng = random.Random(seed)
    base_terms = [_base(rng) for _ in range(bases)]
    # (sort key, name, terms): bases sit at integer keys 0..bases-1
    placed = [(float(i), f"base-{i:05d}", t) for i, t in enumerate(base_terms)]
    cat = Catalog([], [])

    for k in range(bases * 8 // 100):
        i = rng.randrange(bases)
        name = f"dup-{k:04d}"
        # a duplicate agrees with its base on their whole common prefix,
        # so it is the base cut short, as a truncated spectrum would be
        cut = base_terms[i][: rng.randint(5, LENGTH)]
        placed.append((rng.uniform(i + 0.01, bases), name, cut))
        cat.duplicates[name] = f"base-{i:05d}"
    for k in range(bases * 5 // 100):
        i, j = sorted(rng.sample(range(bases), 2))
        name = f"prod-{k:04d}"
        lo = i if rng.random() < 0.3 else j
        terms = tuple(a * b for a, b in zip(base_terms[i], base_terms[j]))
        placed.append((rng.uniform(lo + 0.01, lo + 0.99), name, terms))
        cat.products[name] = (f"base-{i:05d}", f"base-{j:05d}")
    for k in range(bases // 100):
        short = tuple(rng.randint(0, 50) for _ in range(rng.randint(1, 4)))
        placed.append((rng.uniform(0, bases), f"short-{k:04d}", short))
    placed.sort(key=lambda p: p[0])
    cat.spectra = [(name, terms) for _, name, terms in placed]

    planted = rng.sample(range(bases), bases * 5 // 100)
    entries: list[tuple[int, ...]] = []
    owners: list[str | None] = []
    for i in planted:
        terms = base_terms[i]
        tail = tuple(rng.randrange(1, 1 << 64) for _ in range(rng.randint(0, 3)))
        style = rng.randrange(4)
        if style == 0:
            copy = terms
        elif style == 1:
            copy = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3))) + terms
        elif style == 2:
            copy = (0,) * rng.randint(1, 2) + terms
        else:
            copy = terms[1:] if terms[0] == 0 else terms
        entries.append(copy + tail)
        owners.append(f"base-{i:05d}")
        # decoys share the window a lookup starts from (the first three
        # terms, or the three after a leading zero), then diverge
        for _ in range(rng.randint(2, 4)):
            start = rng.randint(0, 1)
            lead = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 2)))
            window = terms[start:start + 3]
            rest = tuple(t + rng.randint(1, 1 << 20) for t in terms[start + 3:])
            entries.append(lead + window + rest)
            owners.append(None)
    for _ in range(bases * 8):
        size = rng.randint(8, 30)
        first = rng.choice((0, 1, 1, 2))
        entries.append((first,) + tuple(rng.randrange(1, 1 << rng.randint(4, 80))
                                        for _ in range(size - 1)))
        owners.append(None)
    ids = rng.sample(range(1, 400_000), len(entries))
    for sid, terms, owner in zip(ids, entries, owners):
        aid = f"A{sid:06d}"
        cat.dump.append((aid, terms))
        if owner is not None:
            cat.oeis[owner] = aid
    cat.dump.sort()
    return cat


def write(cat: Catalog, spectra_path: Path, dump_path: Path) -> None:
    """Spectra as JSON lines of decimal strings; the dump as stripped.gz."""
    with spectra_path.open("w") as fh:
        for name, terms in cat.spectra:
            fh.write(json.dumps([name, [str(t) for t in terms]]) + "\n")
    lines = ["# synthetic OEIS stripped dump\n"]
    lines += [f"{aid} ,{','.join(map(str, terms))},\n" for aid, terms in cat.dump]
    with dump_path.open("wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as gz:
            gz.write("".join(lines).encode())


def read_spectra(path: Path) -> list[tuple[str, tuple[int, ...]]]:
    out = []
    with path.open() as fh:
        for line in fh:
            name, terms = json.loads(line)
            out.append((name, tuple(int(t) for t in terms)))
    return out
