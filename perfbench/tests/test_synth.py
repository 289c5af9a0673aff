"""Seeded db-catalog inputs: deterministic, and planted as the DB sees them."""

from combspec.oeis import StrippedIndex
from combspec.seqdb import SpectrumDB

from perfbench import synth


def test_same_seed_same_bytes(tmp_path):
    paths = []
    for run in ("a", "b"):
        spectra, dump = tmp_path / f"{run}.jsonl", tmp_path / f"{run}.gz"
        synth.write(synth.build(7, 120), spectra, dump)
        paths.append((spectra.read_bytes(), dump.read_bytes()))
    assert paths[0] == paths[1]
    other = synth.build(8, 120)
    assert other.spectra != synth.build(7, 120).spectra


def test_spectra_round_trip(tmp_path):
    cat = synth.build(3, 60)
    spectra, dump = tmp_path / "s.jsonl", tmp_path / "d.gz"
    synth.write(cat, spectra, dump)
    assert synth.read_spectra(spectra) == cat.spectra


def test_db_classifies_planted_records_as_planted(tmp_path):
    cat = synth.build(11, 300)
    db = SpectrumDB(tmp_path / "db.jsonl")
    for name, terms in cat.spectra:
        db.insert(name, terms)
    db.reclassify_products()
    status = {r.sentence: r.status for r in db.records()}
    assert cat.duplicates and cat.products
    assert all(status[name] == "duplicate" for name in cat.duplicates)
    assert all(status[name] == "product_redundant" for name in cat.products)
    bases = [name for name in status if name.startswith("base-")]
    assert all(status[name] == "unique" for name in bases)


def test_every_planted_oeis_copy_matches_its_base(tmp_path):
    cat = synth.build(5, 300)
    spectra, dump = tmp_path / "s.jsonl", tmp_path / "d.gz"
    synth.write(cat, spectra, dump)
    index = StrippedIndex.load(dump)
    terms = dict(cat.spectra)
    assert cat.oeis
    for name, aid in cat.oeis.items():
        assert index.match(terms[name]) == [aid]
