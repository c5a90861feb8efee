"""Experiment runner: config, pipeline, grids and result serialization.

The pipeline for one run is fixed: load, profile class skew, stratified
split, resample the training partition only (never the test side), fit the
selected model, predict the held-out test set, and score it.  Identical
config and seed must reproduce the structured result byte for byte, so the
canonical JSON form excludes wall-clock timings (they are reported in the
human-readable output only).
"""

from __future__ import annotations

import json
import math
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .classifiers import (
    Classifier,
    ForestSpec,
    SmoSpec,
    default_stage_specs,
    fit,
)
from .cmc import CmcModel, fit_cmc
from .cmcm import CmcmModel, fit_cmcm
from .dataset import (
    ClassStats,
    Dataset,
    FeatureSchema,
    FeatureSpec,
    NUMERIC,
    ORDINAL,
    child_seeds,
    class_stats,
    load_csv,
    load_sparse,
    read_lines,
    split_indices,
)
from .errors import ComultiError, ConfigError, DataError, reading
from .metrics import (
    DEFAULT_DELTA,
    REPORTED,
    MetricsReport,
    cells_text,
    confusion,
    evaluate,
)
from .multistage import StageThresholds
from .sampling import SmoteConfig, UndersampleConfig, smote, undersample

MODELS = ("auto", "cmc", "cmcm", "baseline-rf", "baseline-smo")
SAMPLINGS = ("none", "over", "under", "over-under")
FORMATS = ("csv", "sparse")

_TWO_LAYER = {"cmc": CmcModel, "cmcm": CmcmModel}
_MODEL_OF_LAYER = {name: kind for kind, model in _TWO_LAYER.items()
                   for name, _ in model.LAYERS}


def _keyed(key: str, default=MISSING):
    """A field whose config-file key is ``key``, not its name."""
    return field(default=default, metadata={"key": key})


def _param(key: str, cls, param: str):
    """A field with config-file key ``key`` that sets parameter ``param`` of
    ``cls`` (a classifier spec or sampler config); its default is the
    class's."""
    return field(default=getattr(cls, param),
                 metadata={"key": key, "cls": cls, "param": param})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs.

    Each field has one config-file key, its name unless the field's
    metadata gives another; ``thresholds`` is filled by
    ``thresholds.<layer>`` lines.
    """

    dataset_path: str = _keyed("dataset.path")
    dataset_format: str = _keyed("dataset.format", "csv")  # one of FORMATS
    label_column: str = _keyed("dataset.label_column", "label")
    labels_path: Optional[str] = _keyed("dataset.labels_path", None)
    schema_path: Optional[str] = _keyed("dataset.schema", None)
    model: str = "auto"
    sampling: str = "none"
    split_fraction: float = _keyed("split", 0.8)
    seed: int = 0
    seeds: int = 1
    majority_override: Optional[tuple[str, ...]] = _keyed("majority", None)
    thresholds: dict = field(default_factory=dict)  # layer -> tuple of floats
    delta: float = DEFAULT_DELTA
    per_factor_delta: bool = _keyed("delta_per_factor", False)
    smote_k: int = _param("smote.k_neighbors", SmoteConfig, "k_neighbors")
    smote_rate: float = _param("smote.rate", SmoteConfig, "rate")
    undersample_fraction: float = _param("undersample.fraction",
                                         UndersampleConfig, "target_fraction")
    trees: int = _param("forest.trees", ForestSpec, "trees")
    degree: int = _param("smo.degree", SmoSpec, "degree")
    c: float = _param("smo.c", SmoSpec, "c")
    tol: float = _param("smo.tol", SmoSpec, "tol")
    max_iter: int = _param("smo.max_iter", SmoSpec, "max_iter")
    name: Optional[str] = None

    def __post_init__(self):
        # Each error names the config key whose value is at fault.
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and not (math.isfinite(value) and value >= 0)):
                key = _config_key(f.name)
                raise ConfigError(f"{key} must be a finite number >= 0, got "
                                  f"{value}", key)
        if self.dataset_format not in FORMATS:
            raise ConfigError(
                f"unknown dataset format {self.dataset_format!r}",
                "dataset.format")
        if self.dataset_format == "sparse" and not self.labels_path:
            raise ConfigError("sparse datasets need a labels file",
                              "dataset.format")
        if self.model not in MODELS:
            raise ConfigError(
                f"unknown model {self.model!r} (one of {MODELS})", "model")
        if self.sampling not in SAMPLINGS:
            raise ConfigError(
                f"unknown sampling {self.sampling!r} (one of {SAMPLINGS})",
                "sampling")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(
                f"split must be in (0,1), got {self.split_fraction}", "split")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1", "seeds")
        if self.delta <= 0:
            raise ConfigError("delta must be > 0", "delta")
        if self.majority_override is not None and not self.majority_override:
            raise ConfigError("the majority override names no class",
                              "majority")
        self._check_thresholds()
        for cls in dict.fromkeys(f.metadata["cls"] for f in fields(self)
                                 if "cls" in f.metadata):
            self.build(cls)

    def _check_thresholds(self):
        """Each ``thresholds.<layer>`` names a layer of the configured model
        (of either two-layer model under ``auto``) and gives one value in
        (0, 1] per stage of the recipe."""
        stages = len(default_stage_specs())
        for layer, values in self.thresholds.items():
            key, owner = f"thresholds.{layer}", _MODEL_OF_LAYER.get(layer)
            if owner is None:
                raise ConfigError(f"unknown threshold layer {layer!r}", key)
            if self.model not in (owner, "auto"):
                raise ConfigError(f"{key} is a layer of model {owner}; model "
                                  f"{self.model} has no such layer", key)
            try:
                StageThresholds(values)
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}", key) from None
            if len(values) != stages:
                raise ConfigError(f"{key} needs {stages} values, one per "
                                  f"stage of the recipe, got {len(values)}",
                                  key)

    def build(self, cls, **extra):
        """A classifier spec or sampler config set from the fields that
        name ``cls`` and from ``extra``.  Each class checks its own ranges
        with a message that starts with the parameter's name; a value out
        of range is a ConfigError naming its config key."""
        names = {f.metadata["param"]: f.name for f in fields(self)
                 if f.metadata.get("cls") is cls}
        try:
            return cls(**{p: getattr(self, f) for p, f in names.items()},
                       **extra)
        except DataError as exc:
            param, _, rest = str(exc).partition(" ")
            key = _config_key(names[param])
            raise ConfigError(f"{key} {rest}", key) from None

    @property
    def display_name(self) -> str:
        if self.name:
            return self.name
        tag = {"none": "", "over": " (O.)", "under": " (U.)",
               "over-under": " (O.U.)"}[self.sampling]
        return f"{self.model}{tag}"

    def to_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


def _jsonable(value):
    if isinstance(value, dict):  # thresholds
        return {k: list(v) for k, v in sorted(value.items())}
    return list(value) if isinstance(value, tuple) else value


# ---------------------------------------------------------------------------
# Config file parsing: flat `key = value` lines with dotted sections.

_KEY_OF_FIELD = {f.name: f.metadata.get("key", f.name)
                 for f in fields(ExperimentConfig)}


def _config_key(field_name: str) -> str:
    return _KEY_OF_FIELD[field_name]


_TYPES = typing.get_type_hints(ExperimentConfig)
_FIELD_OF_KEY = {key: name for name, key in _KEY_OF_FIELD.items()
                 if name != "thresholds"}


def parse_field(field_name: str, raw: str):
    """A config value for a field, parsed by the field's type
    (``Optional[T]`` as ``T``; a tuple is a comma-separated list)."""
    kind = _TYPES[field_name]
    if typing.get_origin(kind) is typing.Union:
        kind = typing.get_args(kind)[0]
    kind = typing.get_origin(kind) or kind
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"bad boolean {raw!r} for {_config_key(field_name)}")
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"bad numeric value {raw!r} for "
                              f"{_config_key(field_name)}") from None
    if kind is tuple:
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    return raw


def parse_config_text(text: str, path=None,
                      lines: Optional[dict] = None) -> dict:
    """Parse `key = value` lines into ExperimentConfig keyword arguments.

    An error names its line, as ``<path>:<line>: ...``, or ``line <line>:
    ...`` without a ``path``; ``lines``, if given, gets the line of each
    key set."""
    kwargs: dict = {}
    thresholds: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        at = f"line {lineno}" if path is None else f"{path}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{at}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key.startswith("thresholds."):
            layer = key.split(".", 1)[1]
            try:
                thresholds[layer] = tuple(float(v) for v in raw.split(","))
            except ValueError:
                raise ConfigError(f"{at}: bad threshold list") from None
        elif key not in _FIELD_OF_KEY:
            raise ConfigError(f"{at}: unknown config key {key!r}")
        else:
            try:
                kwargs[_FIELD_OF_KEY[key]] = parse_field(_FIELD_OF_KEY[key],
                                                         raw)
            except ConfigError as exc:
                raise ConfigError(f"{at}: {exc}") from None
        if lines is not None:
            lines[key] = lineno
    if thresholds:
        kwargs["thresholds"] = thresholds
    return kwargs


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a config file, apply overrides (CLI flags win), build the config.

    Every error the file causes is a ConfigError that names it, with the
    line of the value at fault, if there is one; an error in a flag's value
    reads as it would without a file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    lines: dict = {}
    kwargs = parse_config_text(text, path, lines)
    for name, value in (overrides or {}).items():
        if value is not None:
            kwargs[name] = value
            lines.pop(_config_key(name), None)
    if "dataset_path" not in kwargs:
        raise ConfigError(f"{path}: dataset.path is required")
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:
        if exc.key not in lines:
            raise
        raise ConfigError(f"{path}:{lines[exc.key]}: {exc}") from None


# ---------------------------------------------------------------------------
# Dataset loading


_SCHEMA_KEYS = {"name", "kind", "categories"}


def load_schema_json(path) -> FeatureSchema:
    """A JSON list of ``{"name", "kind", "categories"}`` feature objects."""
    with reading(f"{path}: schema"):
        doc = json.loads("".join(read_lines(path)))
    if not isinstance(doc, list):
        raise DataError(f"{path}: schema must be a JSON list of features")
    feats = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise DataError(f"{path}: feature {i} is not an object with a "
                            "string 'name'")
        unknown = sorted(set(item) - _SCHEMA_KEYS)
        if unknown:
            raise DataError(f"{path}: feature {item['name']!r} has unknown "
                            f"key(s) {', '.join(map(repr, unknown))}; a "
                            "feature has 'name', 'kind' and 'categories'")
        kind = item.get("kind", NUMERIC)
        cats = item.get("categories")
        if (kind == ORDINAL or cats is not None) and not (isinstance(
                cats, list) and all(isinstance(c, str) for c in cats)):
            raise DataError(f"{path}: feature {item['name']!r} needs its "
                            "'categories' as a list of strings")
        feats.append(FeatureSpec(item["name"], kind,
                                 None if cats is None else tuple(cats)))
    return FeatureSchema(tuple(feats))


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset_format == "sparse":
        return load_sparse(cfg.dataset_path, cfg.labels_path)
    schema = load_schema_json(cfg.schema_path) if cfg.schema_path else None
    return load_csv(cfg.dataset_path, cfg.label_column, schema)


# ---------------------------------------------------------------------------
# Running


def auto_select(stats: ClassStats) -> str:
    """Pick the model for a skew profile: one majority class means the
    single-skew model, several mean the multi-skew model."""
    n_major = len(stats.majority)
    if n_major == 0:
        raise DataError(
            "no class exceeds the balance point; the dataset is not skewed "
            "and neither co-multistage topology applies"
        )
    return "cmc" if n_major == 1 else "cmcm"


@dataclass(frozen=True)
class RunResult:
    """One experiment's outcome; canonical JSON excludes the wall clock."""

    config: dict
    resolved_model: str
    report: MetricsReport
    n_train: int
    n_train_sampled: int
    n_test: int
    test_indices: tuple[int, ...]
    routing: dict
    duration_s: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "resolved_model": self.resolved_model,
            "metrics": self.report.to_dict(),
            "n_train": self.n_train,
            "n_train_sampled": self.n_train_sampled,
            "n_test": self.n_test,
            "test_indices": list(self.test_indices),
            "routing": self.routing,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def cells(self) -> dict:
        return self.report.cells()

    def to_text(self) -> str:
        """Header, train/test sizes and wall clock, report, routing."""
        lines = [
            f"dataset: {self.config['dataset_path']}   model: "
            f"{self.resolved_model}   sampling: {self.config['sampling']}   "
            f"seed: {self.seed}",
            f"train/test: {self.n_train_sampled} (from {self.n_train}) / "
            f"{self.n_test}   {self.duration_s:.2f}s",
            self.report.to_text(),
        ]
        if self.routing:
            lines.append(f"routing: {self.routing}")
        return "\n".join(lines)


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class _Stage:
    """Context tag so failures surface with the pipeline stage identity."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, ComultiError):
            exc.args = (f"[{self.name}] {exc}",)
        return False


def run_experiment(cfg: ExperimentConfig, ds: Optional[Dataset] = None,
                   seed: Optional[int] = None) -> RunResult:
    """Run the full pipeline once.  ``ds`` may be passed to skip reloading
    (multi-seed runs); ``seed`` overrides ``cfg.seed`` for the same reason."""
    t0 = time.perf_counter()
    seed = cfg.seed if seed is None else seed
    with _Stage("load"):
        if ds is None:
            ds = load_dataset(cfg)
    with _Stage("stats"):
        stats = class_stats(ds, cfg.majority_override)
    with _Stage("split"):
        train_idx, test_idx = split_indices(ds, cfg.split_fraction, seed)
        ds_train = ds.take(train_idx)
        ds_test = ds.take(test_idx)
    with _Stage("sampling"):
        smote_seed, under_seed, fit_seed = child_seeds(seed, 3)
        n_train_raw = ds_train.n_instances
        if cfg.sampling in ("over", "over-under"):
            ds_train = smote(ds_train, stats,
                             cfg.build(SmoteConfig, seed=smote_seed))
        if cfg.sampling in ("under", "over-under"):
            ds_train = undersample(ds_train, stats, cfg.build(
                UndersampleConfig, seed=under_seed))
    with _Stage("fit"):
        model_kind = cfg.model
        if model_kind == "auto":
            model_kind = auto_select(stats)
        specs = default_stage_specs(cfg.build(ForestSpec), cfg.build(SmoSpec))
        if model_kind in _TWO_LAYER:
            # Looked up at call time, so a wrapped fit_cmc/fit_cmcm is used.
            fit_two_layer = fit_cmc if model_kind == "cmc" else fit_cmcm
            thresholds = {layer: StageThresholds(cfg.thresholds[layer])
                          for layer, _ in _TWO_LAYER[model_kind].LAYERS
                          if layer in cfg.thresholds}
            model = fit_two_layer(ds_train, stats, thresholds,
                                  seed=fit_seed, specs=specs)
        elif model_kind == "baseline-rf":
            model = fit(specs[0], ds_train, fit_seed)
        else:  # baseline-smo
            model = fit(specs[1], ds_train, fit_seed)
    with _Stage("predict"):
        if isinstance(model, Classifier):
            labels = model.predict_batch(ds_test.x)
            routing = {}
        else:
            labels, routing = model.predict_batch(ds_test.x)
    with _Stage("metrics"):
        cm = confusion(ds_test.y, labels, ds.n_classes, ds.labels)
        report = evaluate(cm, cfg.delta, cfg.per_factor_delta)
    return RunResult(
        config=cfg.to_dict(),
        resolved_model=model_kind,
        report=report,
        n_train=n_train_raw,
        n_train_sampled=ds_train.n_instances,
        n_test=ds_test.n_instances,
        test_indices=tuple(int(i) for i in test_idx),
        routing=routing,
        duration_s=time.perf_counter() - t0,
        seed=seed,
    )


@dataclass(frozen=True)
class MultiSeedResult:
    """Mean and spread over consecutive seeds for one config."""

    config: dict
    runs: tuple[RunResult, ...]

    def metric_values(self, key: str) -> np.ndarray:
        return np.array([getattr(r.report, key) for r in self.runs])

    def summary(self) -> dict:
        """Report attribute -> mean and std of each ``REPORTED`` measure."""
        out = {}
        for _, key in REPORTED:
            vals = self.metric_values(key)
            out[key] = {"mean": float(vals.mean()),
                        "std": float(vals.std(ddof=0))}
        return out

    def cells(self) -> dict:
        """Display name -> shown value of each ``REPORTED`` measure: the
        mean and std, the zero-recall count as a mean alone."""
        s = self.summary()
        return {name: f"{s[key]['mean']:.1f}" if key == "zero_recall_count"
                else f"{s[key]['mean']:.3f}±{s[key]['std']:.3f}"
                for name, key in REPORTED}

    def to_text(self) -> str:
        """A header line, then the mean and spread of each measure."""
        return (f"dataset: {self.config['dataset_path']}   model: "
                f"{self.runs[0].resolved_model}   sampling: "
                f"{self.config['sampling']}   seeds: {self.config['seeds']}\n"
                + cells_text(self.cells()))

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "summary": self.summary(),
            "runs": [r.to_dict() for r in self.runs],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def run_many(cfg: ExperimentConfig) -> MultiSeedResult:
    """Run ``cfg.seeds`` consecutive seeds starting at ``cfg.seed``."""
    ds = load_dataset(cfg)
    runs = tuple(
        run_experiment(cfg, ds=ds, seed=cfg.seed + off)
        for off in range(cfg.seeds)
    )
    return MultiSeedResult(cfg.to_dict(), runs)


def run(cfg: ExperimentConfig) -> RunResult | MultiSeedResult:
    """``cfg.seeds`` runs, or one; ``run_experiment`` is looked up at call
    time, so a wrapped one is used."""
    return run_many(cfg) if cfg.seeds > 1 else run_experiment(cfg)


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class GridResult:
    columns: tuple[str, ...]
    cells: tuple[dict, ...]          # per column: row name -> display string
    results: tuple[object, ...]      # RunResult | MultiSeedResult | None
    errors: tuple[Optional[str], ...]

    def to_text(self) -> str:
        names = ("Measure",) + self.columns
        widths = [len(n) for n in names]
        lines = []
        rows = []
        for row_name, _ in REPORTED:
            row = [row_name]
            for j, cell in enumerate(self.cells):
                row.append(cell.get(row_name, "-"))
                widths[j + 1] = max(widths[j + 1], len(row[-1]))
            rows.append(row)
        widths[0] = max(widths[0], max(len(r[0]) for r in rows))
        header = "  ".join(n.ljust(w) for n, w in zip(names, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        columns = []
        for name, result, err in zip(self.columns, self.results, self.errors):
            if err is not None:
                columns.append({"name": name, "error": err})
            else:
                columns.append({"name": name, "result": result.to_dict()})
        return {"columns": columns}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def run_grid(cfgs: Sequence[ExperimentConfig], workers: int = 1) -> GridResult:
    """Run several configs as table columns; a failing cell becomes an error
    marker and the rest of the grid still completes."""
    if not cfgs:
        raise ConfigError("a grid needs at least one config")

    def one(cfg: ExperimentConfig):
        try:
            return run(cfg), None
        except (ComultiError, OSError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, cfgs))
    else:
        outcomes = [one(cfg) for cfg in cfgs]

    columns, cells, results, errors = [], [], [], []
    for cfg, (result, err) in zip(cfgs, outcomes):
        columns.append(cfg.display_name)
        results.append(result)
        errors.append(err)
        cells.append(result.cells() if err is None else
                     {name: "ERR" for name, _ in REPORTED})
    return GridResult(tuple(columns), tuple(cells), tuple(results),
                      tuple(errors))
