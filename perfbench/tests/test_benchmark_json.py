"""BENCHMARK.json names exactly the metrics the runner prints."""

import json
from pathlib import Path

import layers
import measure
from workloads import WORKLOADS

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                 .read_text())


def test_workloads_match():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"]) for m in DOC["end_to_end"]] == \
        list(measure.END_TO_END)
    setup = [m for m in DOC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["better"] == "lower"


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"]) for m in DOC["per_layer"]] == \
        list(layers.PER_LAYER)
