"""Per-operation correctness checks.

Each check returns a list of failure messages; an operation whose checks
return any message counts as failed.
"""

from __future__ import annotations

import numpy as np


def routing_failures(routing: dict, n: int) -> list:
    """Every row is routed exactly once, through one layer or branch, and
    the stage histograms account for the rows each model saw."""
    out = []

    def expect(what, got, want):
        if got != want:
            out.append(f"{what}: {got} != {want}")

    if "layer_counts" in routing:  # cmc
        counts = routing["layer_counts"]
        expect("layer counts", counts["binary"] + counts["multi"], n)
        expect("binary stage histogram",
               sum(routing["binary_stage_histogram"]), n)
        expect("multi stage histogram",
               sum(routing["multi_stage_histogram"]), counts["multi"])
    elif "branch_counts" in routing:  # cmcm
        counts = routing["branch_counts"]
        expect("branch counts", sum(counts.values()), n)
        for layer in ("b", "m1", "m2"):
            expect(f"{layer} stage histogram",
                   sum(routing[f"{layer}_stage_histogram"]), n)
        expect("m3 stage histogram", sum(routing["m3_stage_histogram"]),
               counts["quorum_disagreement"])
        consensus = counts["majority_consensus"] + counts["minority_consensus"]
        if not 0 <= routing["pseudo_label_resolutions"] <= consensus:
            out.append("pseudo-label resolutions outside the consensus rows")
    else:
        out.append(f"unknown routing record {sorted(routing)}")
    return out


def label_failures(labels, n: int, n_classes: int) -> list:
    """Exactly ``n`` labels, each an original class id."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"{labels.shape} labels for {n} rows"]
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        return [f"{int(bad.sum())} labels outside the {n_classes} classes"]
    return []


def report_failures(report, n_test: int, n_classes: int) -> list:
    """The scored confusion matrix covers every test row once."""
    cm = np.asarray(report.cm.matrix)
    if cm.shape != (n_classes, n_classes):
        return [f"confusion matrix shape {cm.shape}"]
    if int(cm.sum()) != n_test:
        return [f"confusion matrix holds {int(cm.sum())} of {n_test} rows"]
    return []


def run_failures(result, n_classes: int) -> list:
    """Checks on one ``RunResult``."""
    return (routing_failures(result.routing, result.n_test)
            + report_failures(result.report, result.n_test, n_classes))

