"""Correctness checks: a corrupted result counts as a failed operation."""

import copy

import numpy as np
import pytest

from comulti import class_stats, datagen, fit_cmc, split
from comulti.classifiers import CombinerSpec, ForestSpec, SmoSpec

import checks
import measure
from workloads import BLOBS_SINGLES, BlobsServe


@pytest.fixture(scope="module")
def served():
    """A small BlobsServe with its model fitted in a fraction of a second."""
    ds = datagen.gaussian_blobs((120, 30, 25), seed=3)
    train, serve = split(ds, 0.5, 3)
    wl = BlobsServe()
    wl.serve = serve
    wl.model = fit_cmc(train, class_stats(train), seed=3,
                       specs=[ForestSpec(trees=3), SmoSpec(),
                              CombinerSpec(left=0, right=1)])
    wl.rows = np.arange(0, serve.n_instances, 7)
    return wl


def _ops(workload, seconds=0.0):
    ops = measure.Ops(workload, capture=None)
    ops.run(seconds)
    return ops.outcomes


def test_clean_operations_pass(served):
    outcomes = _ops(served)
    assert len(outcomes) >= measure.MIN_OPS
    attempted, failed = measure.counts(outcomes)
    assert failed == 0
    assert attempted == len(outcomes) * (1 + BLOBS_SINGLES)


def test_dropped_routed_row_is_a_failed_operation(served, monkeypatch):
    real = type(served.model).predict_batch

    def drop_one(self, x):
        labels, info = real(self, x)
        info = copy.deepcopy(info)
        info["layer_counts"]["multi"] -= 1
        return labels, info

    monkeypatch.setattr(type(served.model), "predict_batch", drop_one)
    outcomes = _ops(served)
    attempted, failed = measure.counts(outcomes)
    assert failed == len(outcomes)
    assert any("layer counts" in f for f in outcomes[0].failures)


def test_label_outside_the_classes_is_a_failed_operation(served, monkeypatch):
    real = type(served.model).predict_batch

    def bad_label(self, x):
        labels, info = real(self, x)
        labels = labels.copy()
        labels[0] = 99
        return labels, info

    monkeypatch.setattr(type(served.model), "predict_batch", bad_label)
    _, failed = measure.counts(_ops(served))
    assert failed > 0


def test_output_that_changes_between_repetitions_fails(served, monkeypatch):
    real = type(served.model).predict_batch
    calls = []

    def drifting(self, x):
        labels, info = real(self, x)
        calls.append(1)
        if len(calls) > 1:
            info = dict(info, drift=len(calls))
        return labels, info

    monkeypatch.setattr(type(served.model), "predict_batch", drifting)
    outcomes = _ops(served)
    assert not outcomes[0].failures
    assert "canonical output differs" in " ".join(outcomes[1].failures)


def test_routing_checks_on_cmcm_counts():
    routing = {
        "branch_counts": {"majority_consensus": 5, "minority_consensus": 3,
                          "quorum_disagreement": 2},
        "pseudo_label_resolutions": 1,
        "b_stage_histogram": [0, 0, 10], "m1_stage_histogram": [1, 0, 9],
        "m2_stage_histogram": [0, 0, 10], "m3_stage_histogram": [0, 0, 2],
    }
    assert checks.routing_failures(routing, 10) == []
    assert checks.routing_failures(routing, 11)  # a row routed nowhere
    routing["m3_stage_histogram"] = [0, 0, 3]
    assert checks.routing_failures(routing, 10)
