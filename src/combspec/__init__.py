"""Combinatorial spectra of two-variable logic sentences.

Builds integer sequences by counting the models of quantified clause sets
over growing domains, using a lifted counting engine instead of brute-force
enumeration.  Includes a sentence generator with redundancy pruning, a
sequence database, and OEIS lookup helpers.
"""

from .logic import (
    Clause,
    FragmentError,
    Literal,
    ParseError,
    Predicate,
    Quantifier,
    Sentence,
    make_clause,
    parse_sentence,
)
from .engine import (
    CardinalityConstraint,
    Spectrum,
    WeightMap,
    compute_spectrum,
    wfomc,
)

__all__ = [
    "CardinalityConstraint",
    "Clause",
    "FragmentError",
    "Literal",
    "ParseError",
    "Predicate",
    "Quantifier",
    "Sentence",
    "Spectrum",
    "WeightMap",
    "compute_spectrum",
    "make_clause",
    "parse_sentence",
    "wfomc",
]
