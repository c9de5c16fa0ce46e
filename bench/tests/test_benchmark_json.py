"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json

import run
import tracer
from checkout import ROOT


def _doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_untraced_output():
    doc = _doc()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_per_layer_metrics_match_the_traced_output():
    doc = _doc()
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracer.PER_LAYER


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in _doc()["workloads"]) == run.WORKLOADS
