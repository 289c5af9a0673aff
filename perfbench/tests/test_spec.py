"""BENCHMARK.json and layers.json agree with each other and the tracer."""

import json
from collections import Counter

from perfbench.run import ROOT
from perfbench.trace import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())


def test_every_per_layer_metric_is_mapped_once():
    mapped = Counter(m for group in LAYERS["map"] for m in group["metrics"])
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(mapped) == sorted(names)
    assert max(mapped.values()) == 1


def test_map_names_real_workloads_and_metrics():
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(LAYERS["workloads"]) == workloads
    for group in LAYERS["map"]:
        assert set(group["moves"]) | set(group["no_change"]) <= workloads
        for metrics in group["moves"].values():
            assert set(metrics) <= end_to_end


def test_tracer_makes_every_per_layer_metric():
    made = set(Tracer("t").metrics()) | {"trace.overhead_frac"}
    assert {m["name"] for m in SPEC["per_layer"]} <= made
