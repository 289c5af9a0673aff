"""Reduced-size pass of every workload prints every metric name."""

import json

import pytest

from perfbench import run, workloads


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads.Fo2Pipeline, "LAYERS", 2)
    monkeypatch.setattr(workloads.C2Spectra, "LAYERS", 1)
    monkeypatch.setattr(workloads.DbCatalog, "BASES", 120)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(small, capsys, workload, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
