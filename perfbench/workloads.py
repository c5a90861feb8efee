"""The three workloads: set-up from a seed, one timed operation, checks.

Every workload drives public entry points only: ``comulti.datagen`` makes
the inputs, then ``run_grid``, ``run_experiment`` or a fitted
``CmcModel`` does the work.  The fit workloads keep the models their runs
fit (``Capture``) so that single-row ``predict`` is measured on every
workload, and so that the labels behind each scored confusion matrix can
be checked.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

import comulti.bench as bench_mod
import comulti.cmc as cmc_mod
from comulti import class_stats, confusion, datagen, evaluate, split
from comulti.classifiers import CombinerSpec, ForestSpec, SmoSpec
from comulti.bench import canonical_json
from comulti.dataset import write_csv, write_sparse

import pace
from checks import label_failures, routing_failures, run_failures
from spans import Patches

# What is fitted is fixed: data seed, config seed and the fitted part of the
# blobs pool.  The benchmark's seed draws the rows that are predicted one at
# a time and the rows blobs_serve serves.  With a fit per seed, the fitted
# trees moved the cost of a run by up to 19% (grid time) and 55% (median
# single-row latency) between seeds, more than any bound could absorb.
FIT_SEED = 0
# Trees per forest.  Each tree does the same work as at the default 100
# trees; fewer trees keep an operation short enough to repeat in a run.
GRID_TREES = 10
TOPICS_TREES = 3
BLOBS_TREES = 20
GRID_SAMPLINGS = ("under", "over", "over-under", "none")
# The criterion-4 classes at half their sizes: all 2000 columns, 1158 rows.
TOPICS_SIZES = tuple(n // 2 for n in datagen.MULTISKEW_SIZES)
BLOBS_POOL = (6000, 1000, 800, 600)  # one majority class
BLOBS_SEPARATION = 5.0
BLOBS_TRAIN = 0.125  # of the pool; the model is fitted on 1050 rows
BLOBS_SERVED = 3150
# Rows given to single-row predict: per operation, each to every model, on
# the fit workloads; on blobs_serve BLOBS_SINGLES of them per operation, in
# turn, so that batch predicts are timed all through the run.
SINGLE_ROWS = {"rule_grid_table": 432, "topics_cmcm": 320, "blobs_serve": 400}
BLOBS_SINGLES = 16
PACED_CHUNK = 32  # single-row predicts between two reference timings


class Capture:
    """Keeps the model each ``run_experiment`` call fits, by config name.

    Wraps the names ``run_experiment`` and ``run_grid``'s workers look up;
    the per-thread slot pairs a fit with the run that made it.
    """

    def __init__(self, patches: Patches):
        self.models: dict = {}
        local = threading.local()

        def keep_run(fn):
            def run_experiment(cfg, *args, **kwargs):
                out = fn(cfg, *args, **kwargs)
                self.models[cfg.display_name] = local.model
                return out
            return run_experiment

        def keep_model(fn):
            def fit(*args, **kwargs):
                local.model = fn(*args, **kwargs)
                return local.model
            return fit

        patches.replace(bench_mod, "run_experiment", keep_run)
        patches.replace(bench_mod, "fit_cmc", keep_model)
        patches.replace(bench_mod, "fit_cmcm", keep_model)


class Outcome:
    """What one operation did and what its checks found."""

    def __init__(self, main_s: float, rows: int, singles: tuple,
                 failures: list, single_failed: int, quality: tuple,
                 fingerprint, main_scale: float = 1.0):
        self.main_s = main_s
        self.main_scale = main_scale  # to the nominal speed; see pace.py
        self.rows = rows
        self.single_raw_ms, self.single_ms = singles
        self.failures = failures
        self.single_failed = single_failed
        self.quality = quality  # (sg_mean, macro_f1, recalled classes)
        self.fingerprint = fingerprint


def _quality(reports) -> tuple:
    reports = list(reports)
    return (float(np.mean([r.sg_mean for r in reports])),
            float(np.mean([r.macro_f1 for r in reports])),
            sum(r.cm.n_classes - r.zero_recall_count for r in reports))


def _singles(models, x, rows, clock, op_span):
    """Single-row ``predict`` of every row by every model; returns the
    latencies in ms, raw and paced (each chunk of ``PACED_CHUNK`` scaled by
    the reference timings around it), and each model's labels."""
    raw, paced, labels = [], [], []
    before = pace.reference_s(clock)
    for model in models:
        got = []
        for lo in range(0, len(rows), PACED_CHUNK):
            chunk = []
            with op_span("predict1"):
                for row in rows[lo:lo + PACED_CHUNK]:
                    t0 = clock()
                    label, _ = model.predict(x[row])
                    chunk.append((clock() - t0) * 1e3)
                    got.append(label)
            after = pace.reference_s(clock)
            scale = pace.scale(before, after)
            before = after
            raw += chunk
            paced += [ms * scale for ms in chunk]
        labels.append(np.asarray(got))
    return (raw, paced), labels


def _single_failures(models, labels, x, rows) -> int:
    """Singles whose label differs from ``predict_batch`` on the same rows."""
    return sum(int((model.predict_batch(x[rows])[0] != got).sum())
               for model, got in zip(models, labels))


def _pick_rows(seed: int, n: int, k: int) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).choice(n, size=k,
                                                      replace=False))


class RuleGridTable:
    """``run_grid(workers=2)`` over four cmc configs on the rule_grid CSV,
    one per sampling mode: the paper's table protocol at its first seed."""

    name = "rule_grid_table"
    traces_setup = False

    def setup(self, seed: int, workdir: Path):
        path = workdir / "rule_grid.csv"
        write_csv(datagen.rule_grid(), path, label_column="class")
        self.cfgs = [bench_mod.ExperimentConfig(
            dataset_path=str(path), label_column="class", model="cmc",
            sampling=s, seed=FIT_SEED, trees=GRID_TREES)
            for s in GRID_SAMPLINGS]
        self.ds = bench_mod.load_dataset(self.cfgs[0])
        self.rows = _pick_rows(seed, self.ds.n_instances,
                               SINGLE_ROWS[self.name])

    def op(self, capture: Capture, clock, op_span, pacer) -> Outcome:
        pacer.start()
        with op_span("grid"):
            t0 = clock()
            grid = bench_mod.run_grid(self.cfgs, workers=2)
            main_s = clock() - t0
        main_scale = pacer.finish(main_s)
        failures = [f"{name}: {err}" for name, err
                    in zip(grid.columns, grid.errors) if err is not None]
        if failures:
            return Outcome(main_s, 0, ([], []), failures, 0, (0.0, 0.0, 0),
                           None)
        models = [capture.models[c.display_name] for c in self.cfgs]
        lat, labels = _singles(models, self.ds.x, self.rows, clock, op_span)
        rows = 0
        for result, model in zip(grid.results, models):
            failures += run_failures(result, self.ds.n_classes)
            failures += _scored_failures(result, model, self.ds)
            rows += result.n_test
        return Outcome(main_s, rows, lat, failures,
                       _single_failures(models, labels, self.ds.x, self.rows),
                       _quality(r.report for r in grid.results),
                       grid.to_json(), main_scale)


def _scored_failures(result, model, ds) -> list:
    """The kept model's labels are original classes and reproduce the
    confusion matrix the run scored."""
    test = np.asarray(result.test_indices)
    labels, _ = model.predict_batch(ds.x[test])
    failures = label_failures(labels, test.size, ds.n_classes)
    if failures:
        return failures
    cm = confusion(ds.y[test], labels, ds.n_classes, ds.labels)
    if not np.array_equal(cm.matrix, result.report.cm.matrix):
        return ["kept model does not reproduce the scored confusion matrix"]
    return []


class TopicsCmcm:
    """One ``run_experiment`` with cmcm on the sparse_topics data, written
    as a sparse file (1158 x 2000)."""

    name = "topics_cmcm"
    traces_setup = False

    def setup(self, seed: int, workdir: Path):
        matrix, labels = workdir / "topics.sparse", workdir / "topics.labels"
        write_sparse(datagen.sparse_topics(TOPICS_SIZES, seed=FIT_SEED),
                     matrix, labels)
        self.cfg = bench_mod.ExperimentConfig(
            dataset_path=str(matrix), dataset_format="sparse",
            labels_path=str(labels), model="cmcm", sampling="none",
            seed=FIT_SEED, trees=TOPICS_TREES)
        self.ds = bench_mod.load_dataset(self.cfg)
        self.rows = _pick_rows(seed, self.ds.n_instances,
                               SINGLE_ROWS[self.name])

    def op(self, capture: Capture, clock, op_span, pacer) -> Outcome:
        pacer.start()
        with op_span("run"):
            t0 = clock()
            result = bench_mod.run_experiment(self.cfg)
            main_s = clock() - t0
        main_scale = pacer.finish(main_s)
        model = capture.models[self.cfg.display_name]
        lat, labels = _singles([model], self.ds.x, self.rows, clock, op_span)
        failures = run_failures(result, self.ds.n_classes)
        failures += _scored_failures(result, model, self.ds)
        return Outcome(main_s, result.n_test, lat, failures,
                       _single_failures([model], labels, self.ds.x,
                                        self.rows),
                       _quality([result.report]), result.to_json(),
                       main_scale)


class BlobsServe:
    """Serve a cmc model fitted in set-up on gaussian_blobs: each operation
    is one batch ``predict_batch`` over the served rows plus single-row
    ``predict`` of the next ``BLOBS_SINGLES`` picked rows."""

    name = "blobs_serve"
    traces_setup = True

    def __init__(self):
        self.next_row = 0

    def setup(self, seed: int, workdir: Path):
        pool = datagen.gaussian_blobs(BLOBS_POOL, separation=BLOBS_SEPARATION,
                                      seed=FIT_SEED)
        train, rest = split(pool, BLOBS_TRAIN, FIT_SEED)
        specs = [ForestSpec(trees=BLOBS_TREES), SmoSpec(),
                 CombinerSpec(left=0, right=1)]
        self.model = cmc_mod.fit_cmc(train, class_stats(train),
                                     seed=FIT_SEED, specs=specs)
        self.serve = rest.take(_pick_rows(seed, rest.n_instances,
                                          BLOBS_SERVED))
        self.rows = _pick_rows(seed, self.serve.n_instances,
                               SINGLE_ROWS[self.name])

    def op(self, capture: Capture, clock, op_span, pacer) -> Outcome:
        """``pacer`` is unused: a batch predict calls no fit."""
        x = self.serve.x
        before = pace.vector_reference_s(clock)
        with op_span("batch"):
            t0 = clock()
            labels, routing = self.model.predict_batch(x)
            main_s = clock() - t0
        main_scale = pace.scale(before, pace.vector_reference_s(clock))
        rows = np.take(self.rows, range(self.next_row,
                                        self.next_row + BLOBS_SINGLES),
                       mode="wrap")
        self.next_row = (self.next_row + BLOBS_SINGLES) % self.rows.size
        lat, [single] = _singles([self.model], x, rows, clock, op_span)
        n = self.serve.n_instances
        failures = label_failures(labels, n, self.serve.n_classes)
        failures += routing_failures(routing, n)
        single_failed = int((single != labels[rows]).sum())
        quality = (0.0, 0.0, 0) if failures else _quality([evaluate(
            confusion(self.serve.y, labels, self.serve.n_classes,
                      self.serve.labels))])
        return Outcome(main_s, n, lat, failures, single_failed, quality,
                       (labels.tobytes(), canonical_json(routing)),
                       main_scale)


WORKLOADS = {w.name: w for w in (RuleGridTable, TopicsCmcm, BlobsServe)}
