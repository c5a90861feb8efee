"""Co-multistage ensembles for imbalanced multiclass classification.

Library surface: dataset loading and label-space views, resampling
preprocessing, probabilistic base classifiers, the single-skew and
multi-skew two-layer models, recall-based metrics, and a benchmark runner
(also exposed as the ``comulti`` command-line tool).
"""

from .classifiers import (
    ClassifierSpec,
    CombinerSpec,
    ForestSpec,
    SmoSpec,
    default_stage_specs,
    load_model,
    save_model,
)
from .cmc import CmcModel, fit_cmc
from .cmcm import CmcmModel, fit_cmcm
from .dataset import (
    BINARY,
    FULL,
    MAJ_CLUSTER,
    MIN_CLUSTER,
    ClassStats,
    Dataset,
    FeatureSchema,
    FeatureSpec,
    LabelView,
    apply_view,
    class_stats,
    load_csv,
    load_sparse,
    make_view,
    split,
    write_csv,
    write_sparse,
)
from .errors import ComultiError, ConfigError, DataError, TrainingError
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    confusion,
    evaluate,
    g_mean,
    macro_f1,
    sg_mean,
)
from .multistage import MultistageModel, StageThresholds, fit_multistage
from .sampling import SmoteConfig, UndersampleConfig, smote, undersample

__version__ = "0.1.0"
