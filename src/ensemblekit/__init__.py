"""Post-hoc ensembling of frozen base-model predictions.

The package combines per-model predictions on a validation split into a
single predictor, then scores it on a held-out test split. It ships a
trainable per-instance combiner with base-model dropout, a set of
classical weighting and selection baselines, diversity diagnostics, and
synthetic dataset generators for controlled experiments.
"""

from .baselines import (
    ModelSelection,
    akaike_weights,
    fit_constant_ma,
    greedy_select,
    model_losses,
    predict_static,
    quick_select,
    random_n,
    single_best,
    top_n,
)
from .data import (
    MetaDataset,
    Split,
    SyntheticSpec,
    TaskKind,
    generate,
    load_metadataset,
    save_metadataset,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DataValidationError,
    EnsembleKitError,
    LockError,
    NumericError,
    ShapeError,
    UndefinedMetricError,
)
from .metrics import (
    MetricReport,
    ambiguity,
    auc_binary,
    classification_report,
    error_rate,
    mse,
    nll,
    normalize_report,
    regression_report,
)
from .neural import (
    NEConfig,
    NEParams,
    diversity_limit_oracle,
    init_ne_params,
    ma_weights,
    param_count,
    predict,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ModelSelection",
    "akaike_weights",
    "fit_constant_ma",
    "greedy_select",
    "model_losses",
    "predict_static",
    "quick_select",
    "random_n",
    "single_best",
    "top_n",
    "MetaDataset",
    "Split",
    "SyntheticSpec",
    "TaskKind",
    "generate",
    "load_metadataset",
    "save_metadataset",
    "ConfigError",
    "DataFormatError",
    "DataValidationError",
    "EnsembleKitError",
    "LockError",
    "NumericError",
    "ShapeError",
    "UndefinedMetricError",
    "MetricReport",
    "ambiguity",
    "auc_binary",
    "classification_report",
    "error_rate",
    "mse",
    "nll",
    "normalize_report",
    "regression_report",
    "NEConfig",
    "NEParams",
    "diversity_limit_oracle",
    "init_ne_params",
    "ma_weights",
    "param_count",
    "predict",
    "train",
    "__version__",
]
