"""Which comulti names are wrapped in the traced run, and how the recorded
spans become the per-layer metrics listed in BENCHMARK.json.

Every wrapper replaces the name that the caller looks up: the modules
import by name, so ``comulti.bench.smote`` is what ``run_experiment``
calls, not ``comulti.sampling.smote``.
"""

from __future__ import annotations

import statistics
import threading

import numpy as np

import comulti.bench as bench_mod
import comulti.classifiers as clf_mod
import comulti.classifiers.smo as smo_mod
import comulti.cmc as cmc_mod
import comulti.cmcm as cmcm_mod
from comulti.classifiers.forest import TrainedForest
from comulti.classifiers.smo import TrainedSmo
from comulti.cmc import CmcModel
from comulti.cmcm import CmcmModel
from comulti.multistage import MultistageModel

from spans import Patches, Tracer, descendants, self_times, traced

N_STAGES = 3  # forest, SMO, combiner: the default recipe the workloads use
CMC_ROLES = {"binary": "binary", "full": "multi"}
CMCM_ROLES = {"binary": "b", "maj_cluster": "m1", "min_cluster": "m2",
              "full": "m3"}
BRANCHES = ("majority_consensus", "minority_consensus", "quorum_disagreement")

# Every per-layer metric with its unit, in the order BENCHMARK.json lists
# them.  Times are seconds per operation (per set-up for a traced set-up).
PER_LAYER = (
    [(f"bench.{stage}_s", "s") for stage in
     ("load", "split", "sampling", "fit", "predict", "metrics", "grid_busy")]
    + [("bench.grid_parallelism", "ratio"),
       ("dataset.load_s", "s"), ("dataset.view_s", "s"),
       ("dataset.rows_loaded", "count"),
       ("sampling.smote_s", "s"), ("sampling.undersample_s", "s"),
       ("sampling.rows_added", "count"), ("sampling.rows_out", "count"),
       ("forest.fit_s", "s"), ("forest.trees", "count"),
       ("forest.nodes", "count"), ("forest.max_depth", "count"),
       ("forest.predict_s", "s"), ("forest.predict_calls", "count"),
       ("forest.predict_rows", "count"),
       ("smo.fit_s", "s"), ("smo.solve_s", "s"),
       ("smo.iterations", "count"), ("smo.cap_hits", "count"),
       ("smo.cap_warnings", "count"), ("smo.max_kkt_gap", "gap"),
       ("smo.support_vectors", "count"), ("smo.predict_s", "s"),
       ("smo.predict_rows", "count")]
    + [(f"multistage.fit_s.{v}", "s")
       for v in ("binary", "full", "maj_cluster", "min_cluster")]
    + [("multistage.predict_self_s", "s")]
    + [(f"multistage.stage_exit.{k}", "share") for k in (1, 2, 3)]
    + [("cmc.fit_s.binary", "s"), ("cmc.fit_s.multi", "s"),
       ("cmc.gate_rate", "share"), ("cmc.predict_self_s", "s")]
    + [(f"cmcm.fit_s.{r}", "s") for r in ("b", "m1", "m2", "m3")]
    + [(f"cmcm.branch.{b}", "share") for b in BRANCHES]
    + [("cmcm.pseudo_resolved", "share"), ("metrics.s", "s"),
       ("trace.unattributed_s", "s"), ("trace.spans_per_op", "count"),
       ("trace.overhead_s", "s")]
)


def tree_depth(tree) -> int:
    """Depth of a fitted tree (a lone leaf has depth 0)."""
    frontier = np.zeros(1, dtype=np.int64)
    depth = -1
    while frontier.size:
        depth += 1
        inner = frontier[tree.feature[frontier] >= 0]
        frontier = np.concatenate([tree.left[inner], tree.right[inner]])
    return depth


def install(patches: Patches, tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    last_view = threading.local()

    def rows_out(attrs, args, kwargs, out):
        attrs["rows"] = int(out.n_instances)

    def smote_rows(attrs, args, kwargs, out):
        attrs["rows"] = int(out.n_instances)
        attrs["added"] = int(out.n_instances - args[0].n_instances)

    def view(attrs, args, kwargs, out):
        last_view.kind = attrs["view"] = args[1].kind

    def multistage_view(attrs, args, kwargs, out):
        attrs["view"] = last_view.kind

    def forest_fit(attrs, args, kwargs, out):
        attrs["trees"] = len(out.trees)
        attrs["nodes"] = sum(int(t.feature.size) for t in out.trees)
        attrs["depth"] = max(tree_depth(t) for t in out.trees)

    def smo_fit(attrs, args, kwargs, out):
        attrs["support_vectors"] = int(out.sv_x.shape[0])
        attrs["kkt_gap"] = float(np.max(out.kkt_gaps))

    def smo_solve(attrs, args, kwargs, out):
        max_iter = args[4] if len(args) > 4 else kwargs["max_iter"]
        attrs["iterations"] = int(out[3])
        attrs["cap_hit"] = int(out[3] >= max_iter)

    def batch_rows(attrs, args, kwargs, out):
        attrs["rows"] = int(args[1].shape[0])

    def stages(attrs, args, kwargs, out):
        attrs["exits"] = np.bincount(out[1], minlength=N_STAGES + 1)[1:]

    def cmc_batch(attrs, args, kwargs, out):
        counts = out[1]["layer_counts"]
        attrs["rows"] = counts["binary"] + counts["multi"]
        attrs["gate"] = counts["binary"]

    def cmc_single(attrs, args, kwargs, out):
        attrs["rows"] = 1
        attrs["gate"] = int(out[1].layer == "binary")

    def cmcm_batch(attrs, args, kwargs, out):
        attrs["branches"] = dict(out[1]["branch_counts"])
        attrs["pseudo"] = out[1]["pseudo_label_resolutions"]

    def cmcm_single(attrs, args, kwargs, out):
        attrs["branches"] = {out[1].branch: 1}
        attrs["pseudo"] = int(out[1].pseudo_resolved)

    hooks = [
        (bench_mod, "run_grid", "bench.grid", None),
        (bench_mod, "run_experiment", "bench.run", None),
        (bench_mod, "load_dataset", "bench.load", None),
        (bench_mod, "load_csv", "dataset.load", rows_out),
        (bench_mod, "load_sparse", "dataset.load", rows_out),
        (bench_mod, "split_indices", "bench.split", None),
        (bench_mod, "smote", "sampling.smote", smote_rows),
        (bench_mod, "undersample", "sampling.undersample", rows_out),
        (bench_mod, "fit_cmc", "cmc.fit", None),
        (cmc_mod, "fit_cmc", "cmc.fit", None),
        (bench_mod, "fit_cmcm", "cmcm.fit", None),
        (cmc_mod, "apply_view", "dataset.view", view),
        (cmcm_mod, "apply_view", "dataset.view", view),
        (cmc_mod, "fit_multistage", "multistage.fit", multistage_view),
        (cmcm_mod, "fit_multistage", "multistage.fit", multistage_view),
        (clf_mod, "fit_forest", "forest.fit", forest_fit),
        (clf_mod, "fit_smo", "smo.fit", smo_fit),
        (smo_mod, "solve_binary", "smo.solve", smo_solve),
        (TrainedForest, "predict_proba_batch", "forest.predict", batch_rows),
        (TrainedSmo, "predict_proba_batch", "smo.predict", batch_rows),
        (MultistageModel, "predict_batch", "multistage.predict", stages),
        (CmcModel, "predict_batch", "cmc.predict", cmc_batch),
        (CmcModel, "predict", "cmc.predict", cmc_single),
        (CmcmModel, "predict_batch", "cmcm.predict", cmcm_batch),
        (CmcmModel, "predict", "cmcm.predict", cmcm_single),
        (bench_mod, "confusion", "metrics.confusion", None),
        (bench_mod, "evaluate", "metrics.evaluate", None),
    ]
    for owner, attr, name, note in hooks:
        patches.replace(owner, attr, traced(tracer, name, note))


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, op_roots, setup_roots, cap_warnings: int,
                  untraced_op_s: float, traced_op_s: float) -> dict:
    """Per-layer values from the spans of a traced run.

    ``op_roots`` holds one list of root spans per operation.  Spans below
    them count per operation, spans below ``setup_roots`` per set-up.  The
    two operation times give the tracing overhead.
    """
    selfs = self_times(tracer.spans)
    op_spans = descendants(tracer.spans, [r for rs in op_roots for r in rs])
    groups = [(op_spans, len(op_roots))]
    if setup_roots:
        groups.append((descendants(tracer.spans, setup_roots),
                       len(setup_roots)))

    def per_unit(pick, value=lambda s: s.duration):
        return sum(sum(value(s) for s in group if pick(s)) / n
                   for group, n in groups)

    def named(*names):
        return lambda s: s.name in names

    def under(parent, *names):
        return lambda s: (s.name in names and s.parent is not None
                          and s.parent.name == parent)

    def attr(key):
        return lambda s: s.attrs.get(key, 0)

    def total(pick, value):
        return sum(value(s) for group, _ in groups for s in group if pick(s))

    def largest(pick, key):
        vals = [s.attrs[key] for group, _ in groups for s in group
                if pick(s)]
        return max(vals) if vals else 0

    def fit_view(model, view):
        return lambda s: (s.name == "multistage.fit"
                          and s.attrs.get("view") == view
                          and (model is None or s.parent.name == model))

    m = {}
    m["bench.load_s"] = per_unit(named("bench.load"))
    m["bench.split_s"] = per_unit(named("bench.split"))
    m["bench.sampling_s"] = per_unit(
        under("bench.run", "sampling.smote", "sampling.undersample"))
    m["bench.fit_s"] = per_unit(under("bench.run", "cmc.fit", "cmcm.fit"))
    m["bench.predict_s"] = per_unit(
        under("bench.run", "cmc.predict", "cmcm.predict"))
    m["bench.metrics_s"] = per_unit(
        under("bench.run", "metrics.confusion", "metrics.evaluate"))
    m["bench.grid_busy_s"] = per_unit(under("bench.grid", "bench.run"))
    m["bench.grid_parallelism"] = _share(
        total(under("bench.grid", "bench.run"), lambda s: s.duration),
        total(named("bench.grid"), lambda s: s.duration))

    m["dataset.load_s"] = per_unit(named("dataset.load"))
    m["dataset.view_s"] = per_unit(named("dataset.view"))
    m["dataset.rows_loaded"] = per_unit(named("dataset.load"), attr("rows"))

    m["sampling.smote_s"] = per_unit(named("sampling.smote"))
    m["sampling.undersample_s"] = per_unit(named("sampling.undersample"))
    m["sampling.rows_added"] = per_unit(named("sampling.smote"),
                                        attr("added"))
    # Rows leaving the sampling stage: the last sampler of each run.
    last_sampler = {id(s.parent): s for s in op_spans
                    if s.name.startswith("sampling.")}
    m["sampling.rows_out"] = sum(
        s.attrs["rows"] for s in last_sampler.values()) / len(op_roots)

    m["forest.fit_s"] = per_unit(named("forest.fit"))
    m["forest.trees"] = per_unit(named("forest.fit"), attr("trees"))
    m["forest.nodes"] = per_unit(named("forest.fit"), attr("nodes"))
    m["forest.max_depth"] = largest(named("forest.fit"), "depth")
    m["forest.predict_s"] = per_unit(named("forest.predict"))
    m["forest.predict_calls"] = per_unit(named("forest.predict"),
                                         lambda s: 1)
    m["forest.predict_rows"] = per_unit(named("forest.predict"),
                                        attr("rows"))

    m["smo.fit_s"] = per_unit(named("smo.fit"))
    m["smo.solve_s"] = per_unit(named("smo.solve"))
    m["smo.iterations"] = per_unit(named("smo.solve"), attr("iterations"))
    m["smo.cap_hits"] = per_unit(named("smo.solve"), attr("cap_hit"))
    m["smo.cap_warnings"] = cap_warnings
    m["smo.max_kkt_gap"] = largest(named("smo.fit"), "kkt_gap")
    m["smo.support_vectors"] = per_unit(named("smo.fit"),
                                        attr("support_vectors"))
    m["smo.predict_s"] = per_unit(named("smo.predict"))
    m["smo.predict_rows"] = per_unit(named("smo.predict"), attr("rows"))

    for view in ("binary", "full", "maj_cluster", "min_cluster"):
        m[f"multistage.fit_s.{view}"] = per_unit(fit_view(None, view))
    m["multistage.predict_self_s"] = per_unit(
        named("multistage.predict"), lambda s: selfs[id(s)])
    exits = total(named("multistage.predict"), attr("exits")) \
        + np.zeros(N_STAGES)
    for k in range(N_STAGES):
        m[f"multistage.stage_exit.{k + 1}"] = _share(float(exits[k]),
                                                     float(exits.sum()))

    for view, role in CMC_ROLES.items():
        m[f"cmc.fit_s.{role}"] = per_unit(fit_view("cmc.fit", view))
    m["cmc.gate_rate"] = _share(total(named("cmc.predict"), attr("gate")),
                                total(named("cmc.predict"), attr("rows")))
    m["cmc.predict_self_s"] = per_unit(named("cmc.predict"),
                                       lambda s: selfs[id(s)])

    for view, role in CMCM_ROLES.items():
        m[f"cmcm.fit_s.{role}"] = per_unit(fit_view("cmcm.fit", view))
    routed = total(named("cmcm.predict"),
                   lambda s: sum(s.attrs["branches"].values()))
    for branch in BRANCHES:
        m[f"cmcm.branch.{branch}"] = _share(
            total(named("cmcm.predict"),
                  lambda s: s.attrs["branches"].get(branch, 0)), routed)
    m["cmcm.pseudo_resolved"] = _share(
        total(named("cmcm.predict"), attr("pseudo")), routed)

    m["metrics.s"] = per_unit(named("metrics.confusion", "metrics.evaluate"))

    m["trace.unattributed_s"] = statistics.median(
        sum(selfs[id(r)] for r in roots) for roots in op_roots)
    m["trace.spans_per_op"] = len(op_spans) / len(op_roots)
    m["trace.overhead_s"] = traced_op_s - untraced_op_s
    return m
