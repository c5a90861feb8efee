import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comulti
from comulti import bench, metrics
from comulti.bench import (
    ExperimentConfig,
    auto_select,
    canonical_json,
    load_config,
    load_dataset,
    parse_config_text,
    run_experiment,
    run_grid,
    run_many,
)
from comulti.classifiers import ForestSpec, SmoSpec
from comulti.cli import main
from comulti.dataset import (
    class_stats,
    load_csv,
    split_indices,
    write_csv,
    write_sparse,
)
from comulti.datagen import gaussian_blobs
from comulti.errors import ConfigError, DataError
from comulti.metrics import REPORTED
from comulti.multistage import StageThresholds
from comulti.sampling import SmoteConfig, UndersampleConfig

from conftest import make_dataset

SMALL_SIZES = [60, 14, 12]


@pytest.fixture
def blobs_csv(tmp_path):
    ds = gaussian_blobs(SMALL_SIZES, separation=4.0, seed=3)
    path = tmp_path / "blobs.csv"
    write_csv(ds, path)
    return path


def small_cfg(path, **kw):
    base = dict(dataset_path=str(path), trees=15, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Config parsing


def test_parse_config_text_full():
    text = """
    # comment
    name = demo
    dataset.path = data.csv
    dataset.format = csv
    dataset.label_column = grade
    model = cmc
    sampling = over-under
    split = 0.75
    seed = 9
    seeds = 3
    majority = a, b
    delta = 0.01
    smote.k_neighbors = 4
    smote.rate = 2.0
    undersample.fraction = 0.8
    forest.trees = 50
    smo.degree = 2
    thresholds.binary = 0.9, 1.0, 1.0
    """
    kwargs = parse_config_text(text)
    cfg = ExperimentConfig(**kwargs)
    assert cfg.name == "demo"
    assert cfg.model == "cmc"
    assert cfg.sampling == "over-under"
    assert cfg.split_fraction == 0.75
    assert cfg.seeds == 3
    assert cfg.majority_override == ("a", "b")
    assert cfg.smote_k == 4 and cfg.smote_rate == 2.0
    assert cfg.undersample_fraction == 0.8
    assert cfg.trees == 50 and cfg.degree == 2
    assert cfg.thresholds["binary"] == (0.9, 1.0, 1.0)


EVERY_KEY = """
name = every key
dataset.path = d.sparse
dataset.format = sparse
dataset.label_column = grade
dataset.labels_path = d.labels
dataset.schema = schema.json
model = auto
sampling = over-under
split = 0.75
seed = 9
seeds = 3
majority = a, b
delta = 0.01
delta_per_factor = yes
smote.k_neighbors = 4
smote.rate = 2.5
undersample.fraction = 0.8
forest.trees = 50
smo.degree = 2
smo.c = 0.5
smo.tol = 0.0001
smo.max_iter = 1000
thresholds.binary = 0.9, 1.0, 1.0
thresholds.multi = 0.8, 1.0, 1.0
thresholds.b = 1.0, 1.0, 1.0
thresholds.m1 = 0.7, 1.0, 1.0
thresholds.m2 = 0.6, 1.0, 1.0
thresholds.m3 = 0.5, 1.0, 1.0
"""


def test_config_to_dict_golden_default():
    cfg = ExperimentConfig(dataset_path="data.csv")
    assert canonical_json(cfg.to_dict()) == (
        '{"c":1.0,"dataset_format":"csv","dataset_path":"data.csv",'
        '"degree":1,"delta":0.001,"label_column":"label","labels_path":null,'
        '"majority_override":null,"max_iter":200000,"model":"auto",'
        '"name":null,"per_factor_delta":false,"sampling":"none",'
        '"schema_path":null,"seed":0,"seeds":1,"smote_k":5,"smote_rate":1.0,'
        '"split_fraction":0.8,"thresholds":{},"tol":0.001,"trees":100,'
        '"undersample_fraction":0.9}\n')


def test_config_to_dict_golden_every_key():
    cfg = ExperimentConfig(**parse_config_text(EVERY_KEY))
    assert canonical_json(cfg.to_dict()) == (
        '{"c":0.5,"dataset_format":"sparse","dataset_path":"d.sparse",'
        '"degree":2,"delta":0.01,"label_column":"grade",'
        '"labels_path":"d.labels","majority_override":["a","b"],'
        '"max_iter":1000,"model":"auto","name":"every key",'
        '"per_factor_delta":true,"sampling":"over-under",'
        '"schema_path":"schema.json","seed":9,"seeds":3,"smote_k":4,'
        '"smote_rate":2.5,"split_fraction":0.75,"thresholds":{'
        '"b":[1.0,1.0,1.0],"binary":[0.9,1.0,1.0],"m1":[0.7,1.0,1.0],'
        '"m2":[0.6,1.0,1.0],"m3":[0.5,1.0,1.0],"multi":[0.8,1.0,1.0]},'
        '"tol":0.0001,"trees":50,"undersample_fraction":0.8}\n')


@pytest.mark.parametrize("cls", [ForestSpec, SmoSpec, SmoteConfig,
                                 UndersampleConfig])
def test_config_defaults_are_the_class_defaults(cls):
    assert ExperimentConfig(dataset_path="data.csv").build(cls) == cls()


@pytest.mark.parametrize("line,err", [
    ("mystery = 1", "unknown config key"),
    ("seed = ten", "bad numeric"),
    ("no equals sign", "expected"),
    ("thresholds.binary = a,b", "bad threshold"),
])
def test_parse_config_errors(line, err):
    with pytest.raises(ConfigError, match=err):
        parse_config_text(line)


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown model"):
        ExperimentConfig(dataset_path="x", model="boosted")
    with pytest.raises(ConfigError, match="sampling"):
        ExperimentConfig(dataset_path="x", sampling="sideways")
    with pytest.raises(ConfigError, match="labels file"):
        ExperimentConfig(dataset_path="x", dataset_format="sparse")
    with pytest.raises(ConfigError, match="threshold layer"):
        ExperimentConfig(dataset_path="x", thresholds={"m9": (1.0,)})


def test_load_config_flag_overrides(tmp_path):
    p = tmp_path / "a.conf"
    p.write_text("dataset.path = orig.csv\nseed = 1\nmodel = cmc\n")
    cfg = load_config(p, {"seed": 7, "model": None})
    assert cfg.seed == 7          # flag wins
    assert cfg.model == "cmc"     # None flags do not override


# ---------------------------------------------------------------------------
# Schema inference


def test_infer_csv_schema(tmp_path):
    p = tmp_path / "mix.csv"
    p.write_text("size,w,label\nsmall,1.5,a\nbig,2.0,b\nsmall,0.5,a\n")
    schema = load_csv(p, "label").schema
    assert schema.features[0].kind == "ordinal"
    assert schema.features[0].categories == ("small", "big")
    assert schema.features[1].kind == "numeric"


@pytest.mark.parametrize("text,message", [
    ("size,label\nsmall,a\nsmall,b\n", "'size' has a single category"),
    ("f0,class\n1,a\n2,b\n", "column.*'label'"),
    ("f0,f1,label\n1,2,a\n3\n", ":3: expected 3 fields"),
])
def test_schema_inference_errors_name_the_file(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(DataError, match=message) as err:
        load_dataset(small_cfg(p))
    assert str(err.value).startswith(str(p))


def test_csv_without_schema_loads_as_with_its_schema_json(tmp_path):
    p = tmp_path / "mix.csv"
    p.write_text("size,label,w\nsmall,a,1.5\n big ,b,2\n\nsmall,a,-0.5\n"
                 "mid,c,1e3\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([
        {"name": "size", "kind": "ordinal",
         "categories": ["small", "big", "mid"]},
        {"name": "w"}]))
    inferred = load_dataset(small_cfg(p))
    declared = load_dataset(small_cfg(p, schema_path=str(schema)))
    assert inferred.schema == declared.schema
    assert inferred.labels == declared.labels == ("a", "b", "c")
    assert inferred.x.tobytes() == declared.x.tobytes()
    assert inferred.y.tobytes() == declared.y.tobytes()


# ---------------------------------------------------------------------------
# auto_select


def test_auto_select():
    one = make_dataset(np.zeros((10, 1)), [0] * 6 + [1] * 2 + [2] * 2)
    assert auto_select(class_stats(one)) == "cmc"
    many = make_dataset(np.zeros((22, 1)), [0] * 9 + [1] * 9 + [2, 2] + [3, 3])
    assert auto_select(class_stats(many)) == "cmcm"
    flat = make_dataset(np.zeros((9, 1)), [0, 1, 2] * 3)
    with pytest.raises(DataError, match="not skewed"):
        auto_select(class_stats(flat))


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_pipeline(blobs_csv):
    res = run_experiment(small_cfg(blobs_csv, model="cmc", sampling="under"))
    assert res.resolved_model == "cmc"
    assert res.n_test == sum(SMALL_SIZES) - res.n_train
    assert res.report.cm.total == res.n_test
    assert res.routing["layer_counts"]["binary"] + \
        res.routing["layer_counts"]["multi"] == res.n_test
    assert res.duration_s > 0


def test_run_experiment_auto_resolves(blobs_csv):
    res = run_experiment(small_cfg(blobs_csv, model="auto"))
    assert res.resolved_model == "cmc"


MULTI_SKEW_SIZES = [45, 40, 12, 10, 8]
# A first-stage threshold every distribution meets (its top probability is
# at least 1/k), one per layer so a swapped layer shows.
LAYER_THRESHOLDS = {
    "binary": (0.01, 1.0, 1.0), "multi": (0.02, 1.0, 1.0),
    "b": (0.03, 1.0, 1.0), "m1": (0.04, 1.0, 1.0),
    "m2": (0.05, 1.0, 1.0), "m3": (0.06, 1.0, 1.0),
}
MODEL_LAYERS = {"cmc": ("binary", "multi"), "cmcm": ("b", "m1", "m2", "m3")}


def _kept_models(monkeypatch) -> list:
    """Every two-layer model ``run_experiment`` fits, in fit order."""
    import comulti.bench as bench_mod

    kept = []
    for name in ("fit_cmc", "fit_cmcm"):
        def keep(*args, _fit=getattr(bench_mod, name), **kwargs):
            kept.append(_fit(*args, **kwargs))
            return kept[-1]
        monkeypatch.setattr(bench_mod, name, keep)
    return kept


@pytest.mark.parametrize("model,sizes", [("cmc", SMALL_SIZES),
                                         ("cmcm", MULTI_SKEW_SIZES)])
def test_config_thresholds_reach_their_layer(tmp_path, monkeypatch, model,
                                             sizes):
    path = tmp_path / "blobs.csv"
    write_csv(gaussian_blobs(sizes, separation=3.0, seed=4), path)
    kept = _kept_models(monkeypatch)
    layers = MODEL_LAYERS[model]
    plain = run_experiment(small_cfg(path, model=model, trees=5))
    tuned = run_experiment(small_cfg(
        path, model=model, trees=5,
        thresholds={layer: LAYER_THRESHOLDS[layer] for layer in layers}))
    assert len(kept) == 2
    for layer in layers:
        assert getattr(kept[0], layer).thresholds == StageThresholds.ones(3)
        assert getattr(kept[1], layer).thresholds == \
            StageThresholds(LAYER_THRESHOLDS[layer])
        # Every row a layer evaluates now leaves it at the first stage.
        hist = tuned.routing[f"{layer}_stage_histogram"]
        assert hist[1:] == [0, 0]
    moved = [layer for layer in layers
             if plain.routing[f"{layer}_stage_histogram"]
             != tuned.routing[f"{layer}_stage_histogram"]]
    assert moved


@pytest.mark.parametrize("sizes,resolved", [(SMALL_SIZES, "cmc"),
                                            (MULTI_SKEW_SIZES, "cmcm")])
def test_config_naming_all_layers_runs_under_auto(tmp_path, monkeypatch,
                                                  sizes, resolved):
    path = tmp_path / "blobs.csv"
    write_csv(gaussian_blobs(sizes, separation=3.0, seed=4), path)
    kept = _kept_models(monkeypatch)
    res = run_experiment(small_cfg(path, model="auto", trees=5,
                                   thresholds=LAYER_THRESHOLDS))
    assert res.resolved_model == resolved
    for layer in MODEL_LAYERS[resolved]:
        assert getattr(kept[0], layer).thresholds == \
            StageThresholds(LAYER_THRESHOLDS[layer])


def test_sampling_never_touches_test_partition(blobs_csv):
    from comulti.bench import load_dataset

    results = {}
    for sampling in ("none", "over", "under", "over-under"):
        results[sampling] = run_experiment(
            small_cfg(blobs_csv, model="baseline-rf", sampling=sampling))
    ds = load_dataset(small_cfg(blobs_csv))
    _, test_idx = split_indices(ds, 0.8, seed=0)
    for sampling, res in results.items():
        # identity audit: the scored rows are exactly the split's test rows
        assert res.test_indices == tuple(int(i) for i in test_idx)
        assert res.n_test == len(test_idx)
        assert res.report.cm.total == len(test_idx)
    assert results["over"].n_train_sampled > results["none"].n_train_sampled
    assert results["under"].n_train_sampled < results["none"].n_train_sampled


def test_run_experiment_byte_identical(blobs_csv):
    cfg = small_cfg(blobs_csv, model="cmc", sampling="over-under", seed=5)
    a = run_experiment(cfg).to_json()
    b = run_experiment(cfg).to_json()
    assert a == b
    c = run_experiment(small_cfg(blobs_csv, model="cmc",
                                 sampling="over-under", seed=6)).to_json()
    assert a != c


def test_run_many_aggregates(blobs_csv):
    cfg = small_cfg(blobs_csv, model="baseline-rf", seeds=3)
    res = run_many(cfg)
    assert len(res.runs) == 3
    assert [r.seed for r in res.runs] == [0, 1, 2]
    summary = res.summary()
    vals = [r.report.macro_f1 for r in res.runs]
    assert summary["macro_f1"]["mean"] == pytest.approx(np.mean(vals))
    assert summary["macro_f1"]["std"] == pytest.approx(np.std(vals))


def test_run_is_one_run_or_the_seeds_runs(blobs_csv):
    one = bench.run(small_cfg(blobs_csv, model="cmc"))
    assert isinstance(one, bench.RunResult)
    assert one.to_json() == run_experiment(small_cfg(blobs_csv,
                                                     model="cmc")).to_json()
    assert one.cells() == one.report.cells()
    cfg = small_cfg(blobs_csv, model="cmc", seeds=2)
    many = bench.run(cfg)
    assert isinstance(many, bench.MultiSeedResult)
    assert many.to_json() == run_many(cfg).to_json()


def test_run_looks_up_run_experiment_when_called(blobs_csv, monkeypatch):
    # Wrappers of run_experiment (perfbench's among them) replace the
    # module's name, so run and run_many must reach it through that name.
    calls = []

    def wrapped(cfg, *args, _real=bench.run_experiment, **kwargs):
        calls.append(cfg.seeds)
        return _real(cfg, *args, **kwargs)

    monkeypatch.setattr(bench, "run_experiment", wrapped)
    bench.run(small_cfg(blobs_csv, model="baseline-rf"))
    bench.run(small_cfg(blobs_csv, model="baseline-rf", seeds=2))
    assert calls == [1, 2, 2]


def test_results_print_themselves(blobs_csv):
    one = bench.run(small_cfg(blobs_csv, model="cmc", sampling="under",
                              seed=3))
    head, sizes, *rest = one.to_text().split("\n")
    assert head == (f"dataset: {blobs_csv}   model: cmc   sampling: under   "
                    "seed: 3")
    assert sizes == (f"train/test: {one.n_train_sampled} (from {one.n_train})"
                     f" / {one.n_test}   {one.duration_s:.2f}s")
    assert rest == one.report.to_text().split("\n") + [
        f"routing: {one.routing}"]
    rf = bench.run(small_cfg(blobs_csv, model="baseline-rf"))
    assert rf.routing == {} and "routing" not in rf.to_text()
    many = bench.run(small_cfg(blobs_csv, model="auto", seeds=2))
    head, *rows = many.to_text().split("\n")
    assert head == (f"dataset: {blobs_csv}   model: cmc   sampling: none   "
                    "seeds: 2")
    assert "\n".join(rows) == metrics.cells_text(many.cells())


def test_run_experiment_baseline_smo_fits_the_configured_spec(
        blobs_csv, monkeypatch):
    specs = []
    real_fit = bench.fit

    def fit(spec, *args):
        specs.append(spec)
        return real_fit(spec, *args)

    monkeypatch.setattr(bench, "fit", fit)
    res = run_experiment(small_cfg(blobs_csv, model="baseline-smo",
                                   sampling="over", degree=2, c=0.5))
    assert specs == [SmoSpec(degree=2, c=0.5)]
    assert res.resolved_model == "baseline-smo" and res.routing == {}
    assert res.report.cm.total == res.n_test


# ---------------------------------------------------------------------------
# run_grid


def test_run_grid_isolates_errors(blobs_csv):
    good = small_cfg(blobs_csv, model="baseline-rf", name="rf")
    bad = small_cfg("/nonexistent/file.csv", model="baseline-rf", name="broken")
    grid = run_grid([good, bad])
    assert grid.columns == ("rf", "broken")
    assert grid.errors[0] is None
    assert grid.errors[1] is not None
    text = grid.to_text()
    assert "Macro-F1" in text and "ERR" in text
    doc = grid.to_dict()
    assert "error" in doc["columns"][1]
    assert "result" in doc["columns"][0]


def test_run_grid_parallel_matches_serial(blobs_csv):
    cfgs = [small_cfg(blobs_csv, model="baseline-rf", name="a"),
            small_cfg(blobs_csv, model="cmc", name="b")]
    serial = run_grid(cfgs, workers=1)
    parallel = run_grid(cfgs, workers=2)
    assert serial.to_json() == parallel.to_json()


def test_run_grid_multi_seed_column(blobs_csv):
    cfg = small_cfg(blobs_csv, model="cmc", seeds=2, name="two seeds")
    grid = run_grid([cfg])
    assert grid.errors == (None,)
    assert grid.results[0].to_json() == run_many(cfg).to_json()
    summary = grid.results[0].summary()
    for name, key in REPORTED:
        mean, std = summary[key]["mean"], summary[key]["std"]
        assert grid.cells[0][name] == (
            f"{mean:.1f}" if key == "zero_recall_count"
            else f"{mean:.3f}±{std:.3f}")
    assert grid.cells[0]["Macro-F1"] in grid.to_text()


def test_run_grid_requires_configs():
    with pytest.raises(ConfigError):
        run_grid([])


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_json_deterministic(blobs_csv, capsys):
    argv = ["run", "--dataset", str(blobs_csv), "--model", "cmc",
            "--sampling", "under", "--seed", "3", "--json"]
    # config-file-free run needs trees default; keep it small via config file
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["resolved_model"] == "cmc"
    assert "duration" not in json.dumps(doc)  # timings excluded from canon


def test_cli_run_seeds_deterministic(blobs_csv, tmp_path, capsys):
    conf = tmp_path / "seeds.conf"
    conf.write_text(f"dataset.path = {blobs_csv}\nmodel = cmc\n"
                    "forest.trees = 5\n")
    outs = {}
    for fmt in ("text", "json"):
        argv = ["run", "--config", str(conf), "--seeds", "2",
                *(["--json"] if fmt == "json" else [])]
        assert main(argv) == 0
        outs[fmt] = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == outs[fmt]
    doc = json.loads(outs["json"])
    assert [run["seed"] for run in doc["runs"]] == [0, 1]
    assert set(doc["summary"]) == {key for _, key in REPORTED}
    assert "seeds: 2" in outs["text"]
    for name, _ in REPORTED:
        assert name in outs["text"]


def test_cli_run_seeds_text_shows_resolved_model_and_grid_cells(
        blobs_csv, tmp_path, capsys):
    conf = tmp_path / "auto.conf"
    conf.write_text(f"dataset.path = {blobs_csv}\nforest.trees = 5\n"
                    "seeds = 2\n")
    assert main(["run", "--config", str(conf)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    cfg = load_config(conf)
    assert cfg.model == "auto"
    grid = run_grid([cfg])
    resolved = grid.results[0].runs[0].resolved_model
    assert f"model: {resolved}   " in header and "auto" not in header
    width = max(len(name) for name, _ in REPORTED)
    assert rows == [f"{name:>{width}}  {grid.cells[0][name]}"
                    for name, _ in REPORTED]
    zero = grid.results[0].summary()["zero_recall_count"]["mean"]
    assert rows[-1].endswith(f"# R_i=0  {zero:.1f}")


def test_cli_run_with_config_file(blobs_csv, tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        f"dataset.path = {blobs_csv}\nmodel = baseline-rf\n"
        "forest.trees = 10\nseed = 2\n")
    assert main(["run", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "Macro-F1" in out


def test_cli_exit_codes(tmp_path, capsys, blobs_csv):
    # config error: unknown flag value
    assert main(["run", "--dataset", "x.csv", "--model", "bogus"]) == 1
    # config error: no dataset
    assert main(["run"]) == 1
    # data error: missing file
    assert main(["run", "--dataset", str(tmp_path / "nope.csv")]) == 2
    # training error: single-label dataset with a baseline model
    single = tmp_path / "single.csv"
    single.write_text("f,label\n1,a\n2,a\n3,a\n4,a\n")
    assert main(["run", "--dataset", str(single), "--model",
                 "baseline-rf"]) == 3
    capsys.readouterr()


def test_cli_profile(blobs_csv, capsys):
    assert main(["profile", "--dataset", str(blobs_csv)]) == 0
    out = capsys.readouterr().out
    assert "majority" in out and "classes: 3" in out


def test_cli_convert_round_trip(tmp_path, capsys):
    ds = gaussian_blobs([8, 4], n_features=3, seed=0)
    csv_path = tmp_path / "d.csv"
    write_csv(ds, csv_path)
    sparse_path = tmp_path / "d.sparse"
    assert main(["convert", "--dataset", str(csv_path), "--to", "sparse",
                 "--out", str(sparse_path)]) == 0
    back_path = tmp_path / "back.csv"
    assert main(["convert", "--dataset", str(sparse_path), "--format",
                 "sparse", "--labels", str(sparse_path) + ".labels",
                 "--to", "csv", "--out", str(back_path)]) == 0
    round_tripped = load_csv(back_path, "label")
    assert np.allclose(round_tripped.x, ds.x)


def test_cli_convert_refuses_labels_the_sparse_format_cannot_hold(
        tmp_path, capsys):
    # load_sparse reads one stripped label per non-blank line, so these
    # labels used to reload shifted: x, x, x, y, z, y.
    csv_path, out = tmp_path / "d.csv", tmp_path / "d.sparse"
    for labels in ('x,x,"",x,"y\nz",y', 'x,"y\rz"', 'x,"y\nz"', '"",x'):
        rows = "".join(f"{i},{label}\n"
                       for i, label in enumerate(labels.split(",")))
        csv_path.write_text(f"f,label\n{rows}")
        assert main(["convert", "--dataset", str(csv_path), "--to",
                     "sparse", "--out", str(out)]) == 2, labels
        _one_line_error(capsys, "data error:")
        assert not out.exists() and not Path(str(out) + ".labels").exists()
    # The CSV reader strips labels; a dataset built otherwise may not.
    for label in (" y", "y\t", "\x85"):
        ds = make_dataset(np.eye(2), [0, 1], labels=("x", label))
        with pytest.raises(DataError, match="cannot be written"):
            write_sparse(ds, out, tmp_path / "d.labels")
        assert not out.exists()


def test_cli_grid(blobs_csv, tmp_path, capsys):
    c1 = tmp_path / "rf.conf"
    c1.write_text(f"dataset.path = {blobs_csv}\nmodel = baseline-rf\n"
                  "forest.trees = 10\n")
    c2 = tmp_path / "cmc.conf"
    c2.write_text(f"dataset.path = {blobs_csv}\nmodel = cmc\n"
                  "forest.trees = 10\nsampling = under\n")
    assert main(["grid", str(c1), str(c2)]) == 0
    out = capsys.readouterr().out
    assert "Measure" in out and "G-Mean" in out


def test_console_script_installed():
    # the child imports the comulti under test, installed or not
    src = str(Path(comulti.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "comulti.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "run" in proc.stdout


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_cli_malformed_schema_is_data_error(blobs_csv, tmp_path, capsys):
    for i, text in enumerate(['[{"name": "f0"', "[1, 2]", '{"name": "f0"}',
                              '[{"kind": "numeric"}]',
                              '[{"name": "f0", "kind": "ordinal"}]',
                              "[" * 100_000]):
        schema = tmp_path / f"schema{i}.json"
        schema.write_text(text)
        assert main(["profile", "--dataset", str(blobs_csv),
                     "--schema", str(schema)]) == 2, text
        _one_line_error(capsys, "data error:")


@pytest.mark.parametrize("feature,message", [
    ({"categories": ["x", "y"]}, "numeric feature 'f0' must not list "
                                 "categories"),
    ({"categories": "xy"}, "feature 'f0' needs its 'categories' as a list "
                           "of strings"),
    ({"kind": "ordinal", "categories": [1, 2]}, "feature 'f0' needs its "
                                                "'categories' as a list"),
    # Misspelt keys would otherwise load f0 as numeric, silently.
    ({"categoris": ["1", "2"], "knd": "ordinal"}, "feature 'f0' has unknown "
                                                  "key(s) 'categoris', 'knd'"),
], ids=["numeric-listed", "numeric-string", "ordinal-ints", "unknown-keys"])
def test_cli_schema_categories_are_checked(blobs_csv, tmp_path, capsys,
                                           feature, message):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": "f0", **feature}]
                                 + [{"name": f"f{i}"} for i in range(1, 5)]))
    assert main(["profile", "--dataset", str(blobs_csv),
                 "--schema", str(schema)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert message in err


def test_cli_non_utf8_csv_is_data_error(blobs_csv, tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(blobs_csv.read_bytes() + b"caf\xe9,1,2,3,4,5\n")
    assert main(["profile", "--dataset", str(bad)]) == 2  # inferred schema
    _one_line_error(capsys, "data error:")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": f"f{i}"} for i in range(5)]))
    assert main(["profile", "--dataset", str(bad), "--schema",
                 str(schema)]) == 2  # load_csv
    _one_line_error(capsys, "data error:")


def test_cli_short_csv_row_is_data_error(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("f0,f1,label\n1,2,a\n3\n")  # no schema given
    assert main(["profile", "--dataset", str(short)]) == 2
    _one_line_error(capsys, "data error:")


def test_cli_non_utf8_sparse_and_config(tmp_path, capsys):
    matrix = tmp_path / "d.sparse"
    matrix.write_bytes(b"1 2 1\n1 \xff\n")
    labels = tmp_path / "d.labels"
    labels.write_text("a\n")
    assert main(["profile", "--dataset", str(matrix), "--format", "sparse",
                 "--labels", str(labels)]) == 2
    _one_line_error(capsys, "data error:")
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"model = cmc\xff\n")
    assert main(["run", "--config", str(conf)]) == 1
    _one_line_error(capsys, "config error:")


@pytest.mark.parametrize("header,rows", [
    ("0 -5 0", ""), ("2 -1 0", "\n\n"), ("60 -5 240", ""),
    ("-1 20 240", "")])
def test_cli_negative_sparse_header_is_data_error(tmp_path, capsys, header,
                                                  rows):
    matrix = tmp_path / "d.sparse"
    matrix.write_text(f"{header}\n{rows}")
    labels = tmp_path / "d.labels"
    labels.write_text("a\nb\n")
    assert main(["run", "--dataset", str(matrix), "--format", "sparse",
                 "--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert "negative header field" in err


def test_cli_sparse_header_past_int32_columns_is_data_error(tmp_path,
                                                            capsys):
    # Column indices are int32: a header declaring more columns is refused
    # before any row is read, the row's column included.
    matrix = tmp_path / "d.sparse"
    matrix.write_text("1 3000000000 1\n2999999999 1.5\n")
    labels = tmp_path / "d.labels"
    labels.write_text("a\n")
    assert main(["profile", "--dataset", str(matrix), "--format", "sparse",
                 "--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert "3000000000 columns" in err and "2147483647" in err


def test_cli_empty_majority_override_is_config_error(blobs_csv, tmp_path,
                                                     capsys):
    # An empty override would make every class minority while the run JSON
    # recorded no override at all.
    for cmd in ("run", "profile"):
        assert main([cmd, "--dataset", str(blobs_csv), "--majority", ""]) == 1
        _one_line_error(capsys, "config error:")
    conf = tmp_path / "empty.conf"
    conf.write_text(f"dataset.path = {blobs_csv}\nmajority = ,\n")
    assert main(["run", "--config", str(conf)]) == 1
    _one_line_error(capsys, "config error:")


@pytest.mark.parametrize("text", [
    "dataset.format = parquet", "split = 1.5", "seeds = 0", "delta = 0",
    "delta_per_factor = maybe", None])
def test_cli_invalid_run_config_is_config_error(blobs_csv, tmp_path, capsys,
                                                text):
    # None: a config that names no dataset.
    conf = tmp_path / "bad.conf"
    conf.write_text("model = cmc\n" if text is None
                    else f"dataset.path = {blobs_csv}\n{text}\n")
    assert main(["run", "--config", str(conf)]) == 1
    _one_line_error(capsys, "config error:")


def test_cli_run_out_writes_the_report(blobs_csv, tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"dataset.path = {blobs_csv}\nmodel = baseline-rf\n"
                    "forest.trees = 10\ndelta_per_factor = no\n")
    assert main(["run", "--config", str(conf), "--json"]) == 0
    printed = capsys.readouterr().out
    report = tmp_path / "report.json"
    assert main(["run", "--config", str(conf), "--json",
                 "--out", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert report.read_text(encoding="utf-8") == printed
    missing = tmp_path / "missing" / "report.json"
    assert main(["run", "--config", str(conf), "--json",
                 "--out", str(missing)]) == 2
    _one_line_error(capsys, "data error:")
    assert not missing.parent.exists()


@pytest.mark.parametrize("line", [
    "seed = -1", "smote.rate = inf", "delta = nan", "delta = inf",
    "smo.c = nan", "smo.tol = nan", "forest.trees = -3",
])
def test_cli_bad_numeric_config_is_config_error(blobs_csv, tmp_path, capsys,
                                                line):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"dataset.path = {blobs_csv}\nsampling = over\n{line}\n")
    assert main(["run", "--config", str(conf)]) == 1
    _one_line_error(capsys, "config error:")


@pytest.mark.parametrize("line", [
    "forest.trees = 0", "smo.degree = 0", "smo.c = 0", "smo.tol = 0",
    "smo.max_iter = 0", "smote.k_neighbors = 0", "smote.rate = 0",
    "undersample.fraction = 0", "undersample.fraction = 1.5",
    "smo.max_iter = 18446744073709551621",
    "smo.max_iter = 9223372036854775808", "forest.trees = 99999999999999999999",
])
def test_cli_classifier_spec_out_of_range_is_config_error(
        blobs_csv, tmp_path, capsys, line):
    # Used to pass the config and fail at fit or sampling as a data error
    # (exit 2), or, for smo.max_iter = 0, to fit an SMO stage that never
    # iterated; a sampler value was not checked at all when that sampler
    # did not run.  A max_iter of 2^64 + 5 was wrapped by ctypes to a cap
    # of 5, and a tree count beyond int64 ended in a numpy traceback.
    conf = tmp_path / "bad.conf"
    conf.write_text(f"dataset.path = {blobs_csv}\n{line}\n")
    assert main(["run", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: {conf}:2: {line.split(' = ')[0]} must be ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("line,message", [
    ("bogus = 1", "unknown config key 'bogus'"),
    ("no equals sign", "expected 'key = value'"),
    ("split = abc", "bad numeric value 'abc' for split"),
    ("delta_per_factor = maybe", "bad boolean 'maybe' for delta_per_factor"),
    ("thresholds.binary = a,b", "bad threshold list"),
    ("thresholds.q9 = 1", "unknown threshold layer 'q9'"),
    ("split = 1.5", "split must be in (0,1), got 1.5"),
    ("smo.c = 0", "smo.c must be > 0, got 0.0"),
    ("seed = -1", "seed must be a finite number >= 0, got -1"),
    ("dataset.format = sparse", "sparse datasets need a labels file"),
])
def test_config_file_errors_name_the_file_and_line(blobs_csv, tmp_path,
                                                   capsys, line, message):
    # The second file of a grid, its line 3: each error of a file's text
    # says where it is.
    good = tmp_path / "a.cfg"
    good.write_text(f"dataset.path = {blobs_csv}\n")
    bad = tmp_path / "b.cfg"
    bad.write_text(f"dataset.path = {blobs_csv}\n# set below\n{line}\n")
    assert main(["grid", str(good), str(bad)]) == 1
    assert capsys.readouterr().err == f"config error: {bad}:3: {message}\n"


@pytest.mark.parametrize("model,line,message", [
    ("cmc", "thresholds.binary = 2, 1, 1",
     "thresholds.binary: threshold 2.0 outside (0, 1]"),
    ("cmc", "thresholds.binary = 0.5, 1",
     "thresholds.binary needs 3 values, one per stage of the recipe, got 2"),
    ("cmc", "thresholds.m1 = 0.5",
     "thresholds.m1 is a layer of model cmcm; model cmc has no such layer"),
    ("cmcm", "thresholds.multi = 0.5, 1, 1",
     "thresholds.multi is a layer of model cmc; model cmcm has no such layer"),
    ("baseline-rf", "thresholds.binary = 0.5, 1, 1",
     "thresholds.binary is a layer of model cmc; model baseline-rf has no "
     "such layer"),
    ("baseline-smo", "thresholds.b = 0.5, 1, 1",
     "thresholds.b is a layer of model cmcm; model baseline-smo has no "
     "such layer"),
    ("auto", "thresholds.q9 = 0.5, 1, 1", "unknown threshold layer 'q9'"),
])
def test_thresholds_are_checked_when_the_config_is_read(tmp_path, capsys,
                                                        model, line, message):
    # The dataset does not exist: each error comes before it is read (a
    # data error would exit 2), and names the file and line at fault.
    conf = tmp_path / "t.cfg"
    conf.write_text(f"dataset.path = {tmp_path / 'missing.csv'}\n"
                    f"model = {model}\n{line}\n")
    assert main(["run", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == f"config error: {conf}:3: {message}\n"


def test_auto_takes_either_models_thresholds():
    cfg = ExperimentConfig(dataset_path="x", model="auto",
                           thresholds={"binary": (0.5, 1.0, 1.0),
                                       "m3": (0.4, 1.0, 1.0)})
    assert set(cfg.thresholds) == {"binary", "m3"}
    with pytest.raises(ConfigError, match="model cmc has no such layer") as e:
        ExperimentConfig(dataset_path="x", model="cmc",
                         thresholds={"m3": (0.4, 1.0, 1.0)})
    assert e.value.key == "thresholds.m3"


def test_flag_errors_over_a_config_file_name_no_file(blobs_csv, tmp_path,
                                                     capsys):
    conf = tmp_path / "a.cfg"
    conf.write_text(f"dataset.path = {blobs_csv}\nsplit = 1.5\n")
    # A flag's value replaces the file's, errors and all.
    assert load_config(conf, {"split_fraction": 0.5}).split_fraction == 0.5
    with pytest.raises(ConfigError, match=r"^split must be in \(0,1\), got 2"):
        load_config(conf, {"split_fraction": 2.0})
    assert main(["run", "--config", str(conf), "--split", "abc"]) == 1
    assert capsys.readouterr().err == \
        "config error: bad numeric value 'abc' for split\n"


def test_unreadable_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"model = cmc\xff\n")
    for path, reason in [(tmp_path / "missing.cfg", "No such file"),
                         (tmp_path, "Is a directory"),
                         (bad, "not valid UTF-8")]:
        assert main(["grid", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {reason}"), err
        assert err.count("\n") == 1


def test_spec_counts_reach_the_int64_bound():
    assert SmoSpec(max_iter=2**63 - 1).max_iter == 2**63 - 1
    assert ForestSpec(trees=2**63 - 1).trees == 2**63 - 1


def test_cli_negative_seed_flag_is_config_error(blobs_csv, capsys):
    assert main(["run", "--dataset", str(blobs_csv), "--seed", "-1"]) == 1
    _one_line_error(capsys, "config error:")


def test_cli_overflowing_kernel_is_training_error(blobs_csv, tmp_path,
                                                 capsys):
    # One value of 1e200 overflows the SMO kernel.  The run used to spend
    # ~25 s at the default iteration cap with a NaN KKT gap and exit 0.
    lines = blobs_csv.read_text().splitlines()
    row = lines[5].split(",")
    row[1] = "1e200"
    lines[5] = ",".join(row)
    big = tmp_path / "big.csv"
    big.write_text("\n".join(lines) + "\n")
    conf = tmp_path / "big.conf"
    conf.write_text(f"dataset.path = {big}\nsmo.max_iter = 50\n")
    t0 = time.perf_counter()
    assert main(["run", "--config", str(conf)]) == 3
    assert time.perf_counter() - t0 < 10.0
    _one_line_error(capsys, "training error: [fit] SMO stage: ")


# ---------------------------------------------------------------------------
# Fuzzing: whatever bytes an input file holds, the CLI ends with an exit code


FUZZ_TOKENS = [b",", b"\n", b" ", b"=", b"0", b"-1", b"1e308", b"nan",
               b"inf", b'"', b"[", b"}", b":", b"\xff"]


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """``base`` with a few stretches overwritten, inserted, deleted or cut
    off, by random bytes or by tokens the file formats give meaning to."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.one_of(st.binary(min_size=1, max_size=4),
                               st.sampled_from(FUZZ_TOKENS)))
        op = draw(st.sampled_from(("set", "insert", "delete", "cut")))
        if op == "set":
            data[at:at + len(chunk)] = chunk
        elif op == "insert":
            data[at:at] = chunk
        elif op == "delete":
            del data[at:at + len(chunk)]
        else:
            del data[at:]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Valid bytes of each input file a run reads, keyed by role."""
    ds = gaussian_blobs(SMALL_SIZES, separation=4.0, seed=3)
    tmp = tmp_path_factory.mktemp("fuzz_base")
    write_csv(ds, tmp / "d.csv")
    write_sparse(ds, tmp / "d.sparse", tmp / "d.labels")
    return {
        "csv": (tmp / "d.csv").read_bytes(),
        "sparse": (tmp / "d.sparse").read_bytes(),
        "labels": (tmp / "d.labels").read_bytes(),
        "schema": json.dumps([{"name": f"f{i}"} for i in range(5)]).encode(),
        "config": (b"model = cmc\nsampling = over-under\nsplit = 0.8\n"
                   b"seed = 0\nsmote.k_neighbors = 5\n"
                   b"undersample.fraction = 0.9\n"
                   b"thresholds.binary = 0.9, 1.0, 1.0\n"),
    }


@settings(max_examples=30, deadline=None)
@given(role=st.sampled_from(("csv", "sparse", "labels", "schema", "config")),
       data=st.data())
def test_cli_fuzzed_input_file_exits_cleanly(fuzz_bases, role, data):
    files = dict(fuzz_bases)
    files[role] = data.draw(mutated(fuzz_bases[role]), label=role)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in files.items():
            (tmp / name).write_bytes(content)
        if role in ("sparse", "labels"):
            head = (f"dataset.path = {tmp / 'sparse'}\ndataset.format = "
                    f"sparse\ndataset.labels_path = {tmp / 'labels'}\n")
        else:
            head = f"dataset.path = {tmp / 'csv'}\n"
            if role == "schema":
                head += f"dataset.schema = {tmp / 'schema'}\n"
        # The fuzzed settings come after the dataset lines; the tree count
        # is set last so that no mutation can make a run slow.
        conf = tmp / "run.conf"
        conf.write_bytes(head.encode() + files["config"]
                         + b"\nforest.trees = 2\n")
        assert main(["run", "--config", str(conf)]) in (0, 1, 2, 3)
