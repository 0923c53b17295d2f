"""Meta-datasets of frozen base-model predictions, plus synthetic generators.

A meta-dataset is everything an ensembling method is allowed to see: a
prediction cube of shape (instances, models, classes) and a label vector,
for a validation split (used for fitting) and a test split (evaluation
only). Regression datasets use a single pseudo-class column.

The on-disk layout is one directory per dataset: ``manifest.json`` plus
``<split>_predictions.csv`` / ``<split>_labels.csv``, written by
``np.savetxt`` with ``%.17g`` (17 significant digits, so a save/load round
trip is exact; class labels use ``%d``) and read back by ``np.loadtxt``.

The splits are written and parsed in forked worker processes, one per
split up to the usable CPUs (``fork_map``); there is no setting for it.
A dataset too small to repay starting the workers, a single CPU or a
platform without fork handles the splits one after another in this
process. The bytes written, the arrays read and every error are the same
either way; validation always runs in the calling process.
"""

from __future__ import annotations

import enum
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataFormatError, DataValidationError, ShapeError

SIMPLEX_TOL = 1e-4
SPLIT_NAMES = ("val", "test")

_FLOAT_FMT = "%.17g"

# Below these sizes the splits are handled in this process. In a fresh
# process, starting fork_map's workers (importing multiprocessing, forking,
# handing the arrays back) costs about 40 ms, which halving the serial work
# repays only from about 250 000 prediction values to write or 5 MB of
# prediction CSV to parse (measured on a 2-CPU host).
_FORK_MIN_VALUES = 250_000
_FORK_MIN_BYTES = 5_000_000


class TaskKind(enum.Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


@dataclass(frozen=True)
class Split:
    """Predictions (N, M, C) and labels (N,) for one split."""

    predictions: np.ndarray
    labels: np.ndarray

    @property
    def n_instances(self) -> int:
        return self.predictions.shape[0]


class _OwnedSplit(Split):
    """A Split whose arrays this module has just made and nothing else
    holds: MetaDataset freezes them in place instead of copying them."""


@dataclass(frozen=True)
class MetaDataset:
    """A named prediction dataset with validation and test splits.

    Arrays are validated and frozen read-only on construction: fitting
    code reads the validation split, evaluation reads test, nobody writes.
    """

    name: str
    task: TaskKind
    val: Split
    test: Split

    def __post_init__(self):
        if not isinstance(self.task, TaskKind):
            raise ConfigError(f"task must be a TaskKind, got {self.task!r}")
        val = _sanitize_split(self.val, self.task, "val")
        test = _sanitize_split(self.test, self.task, "test")
        if val.predictions.shape[1:] != test.predictions.shape[1:]:
            raise DataValidationError(
                f"val and test disagree on (models, classes): "
                f"{val.predictions.shape[1:]} vs {test.predictions.shape[1:]}"
            )
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "test", test)

    @property
    def n_models(self) -> int:
        return self.val.predictions.shape[1]

    @property
    def n_classes(self) -> int:
        return self.val.predictions.shape[2]


def check_simplex(cube: np.ndarray, where: str) -> None:
    """Raise DataValidationError unless every (instance, model) row of an
    (N, M, C) classification cube is a probability simplex: entries in
    [0, 1] that sum to 1 within SIMPLEX_TOL. ``where`` starts the message."""
    if np.any(cube < -1e-12) or np.any(cube > 1.0 + 1e-12):
        raise DataValidationError(f"{where}: predictions must be probabilities in [0, 1]")
    sums = cube.sum(axis=2)
    bad = np.abs(sums - 1.0) > SIMPLEX_TOL
    if np.any(bad):
        i, m = map(int, np.argwhere(bad)[0])
        raise DataValidationError(
            f"{where}: probabilities for instance {i}, model {m} "
            f"sum to {sums[i, m]:.6f}, expected 1 within {SIMPLEX_TOL}"
        )


def _sanitize_split(split: Split, task: TaskKind, split_name: str) -> Split:
    # A caller's array is copied, so that its later writes cannot reach the
    # dataset and it stays writeable.
    if isinstance(split, _OwnedSplit):
        preds = np.asarray(split.predictions, dtype=np.float64)
    else:
        preds = np.array(split.predictions, dtype=np.float64, copy=True)
    if preds.ndim != 3:
        raise ShapeError(
            f"{split_name} predictions must be (instances, models, classes), "
            f"got shape {preds.shape}"
        )
    n, m, c = preds.shape
    if n < 1:
        raise DataValidationError(f"{split_name} split has no instances")
    if m < 1 or c < 1:
        raise DataValidationError(f"{split_name} split needs at least one model and class")
    if not np.all(np.isfinite(preds)):
        raise DataValidationError(f"{split_name} predictions contain non-finite values")

    labels = np.asarray(split.labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise ShapeError(
            f"{split_name} labels must be 1-D with {n} entries, got shape {labels.shape}"
        )

    if task is TaskKind.CLASSIFICATION:
        if c < 2:
            raise DataValidationError("classification datasets need at least 2 classes")
        check_simplex(preds, f"{split_name} split")
        if not np.all(labels == labels.astype(np.int64)):
            raise DataValidationError(f"{split_name} labels must be class indices")
        labels = labels.astype(np.int64)
        if labels.min() < 0 or labels.max() >= c:
            raise DataValidationError(
                f"{split_name} labels must lie in [0, {c}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
    else:
        if c != 1:
            raise DataValidationError(
                f"regression datasets use a single prediction column, got {c}"
            )
        labels = labels.astype(np.float64)
        if not np.all(np.isfinite(labels)):
            raise DataValidationError(f"{split_name} labels contain non-finite values")

    preds.flags.writeable = False
    labels.flags.writeable = False
    return Split(predictions=preds, labels=labels)


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------

# The worker of the running fork_map call. Forked children inherit it,
# so a closure over the parent's state never has to be pickled.
_task_worker: Optional[Callable] = None


def _call_task_worker(task):
    return _task_worker(task)


def fork_map(worker: Callable, tasks: Sequence) -> List:
    """``[worker(task) for task in tasks]``, with the tasks spread over
    ``min(len(tasks), usable CPUs)`` forked worker processes; a single
    task, a single CPU or a platform without fork runs them one after
    another in this process.

    Results come back in task order, and the first failing task's
    exception, in task order, re-raises here. A worker process that dies
    raises BrokenProcessPool.
    """
    global _task_worker
    n_workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n_workers = min(len(tasks), len(os.sched_getaffinity(0)))
    if n_workers == 1:
        return [worker(task) for task in tasks]
    # Imported here, so that single-task commands start no slower.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # A call made inside a worker must hand that worker back its own.
    outer_worker, _task_worker = _task_worker, worker
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(n_workers, mp_context=context) as pool:
            return list(pool.map(_call_task_worker, tasks))
    finally:
        _task_worker = outer_worker


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------


def _map_splits(worker: Callable, work: int, break_even: int) -> List:
    """``worker`` of each split name, in fork_map's workers, or one after
    another in this process when ``work`` is below ``break_even``."""
    if work < break_even:
        return [worker(split_name) for split_name in SPLIT_NAMES]
    return fork_map(worker, SPLIT_NAMES)


def _prediction_header(n_models: int, n_classes: int) -> List[str]:
    return [f"m{m}_c{c}" for m in range(n_models) for c in range(n_classes)]


def save_metadataset(ds: MetaDataset, path: str) -> None:
    """Write a dataset directory; identical datasets produce identical bytes.

    This process writes the manifest; each split's two CSV files are
    written by a fork_map worker, or here for a small dataset."""
    os.makedirs(path, exist_ok=True)
    manifest = {
        "name": ds.name,
        "task": ds.task.value,
        "n_models": ds.n_models,
        "n_classes": ds.n_classes,
        "splits": list(SPLIT_NAMES),
    }
    with open(os.path.join(path, "manifest.json"), "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    label_fmt = "%d" if ds.task is TaskKind.CLASSIFICATION else _FLOAT_FMT
    header = ",".join(_prediction_header(ds.n_models, ds.n_classes))

    def write(split_name: str) -> None:
        split: Split = getattr(ds, split_name)
        stem = os.path.join(path, split_name)
        np.savetxt(f"{stem}_predictions.csv", split.predictions.reshape(split.n_instances, -1),
                   fmt=_FLOAT_FMT, delimiter=",", header=header, comments="")
        np.savetxt(f"{stem}_labels.csv", split.labels, fmt=label_fmt, header="label", comments="")

    _map_splits(write, ds.val.predictions.size + ds.test.predictions.size, _FORK_MIN_VALUES)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell  # float() takes digit separators; numpy does not


def _csv_fault(path: str, n_columns: int) -> Optional[str]:
    """Describe the first data line of ``path`` that np.loadtxt cannot
    read: a row with the wrong number of cells, or a cell that is not a
    number. Lines and columns count from 1; the header is line 1."""
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1 or not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if len(cells) != n_columns:
                return f"line {line_no} has {len(cells)} columns, expected {n_columns}"
            for column, cell in enumerate(cells, start=1):
                if not _is_number(cell):
                    return f"line {line_no}, column {column}: {cell!r} is not a number"
    return None


def _read_csv(path: str, n_columns: int) -> Tuple[List[str], np.ndarray]:
    """Return the header cells and the (rows, n_columns) float64 body of a
    CSV file; every error names the file."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"missing dataset file: {path}")
    with open(path, "r") as fh:
        header = fh.readline().rstrip("\n")
        try:
            with warnings.catch_warnings():
                # An empty or header-only file is rejected below instead.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            # numpy counts rows from its own start; name the file's line.
            raise DataFormatError(f"{path}: {_csv_fault(path, n_columns) or exc}") from exc
    if values.shape[0] == 0:
        raise DataFormatError(f"{path} is empty or holds only a header")
    if values.shape[1] != n_columns:
        raise DataFormatError(
            f"{path}: rows must have {n_columns} columns, got {values.shape[1]}"
        )
    return header.split(","), values


def load_metadataset(path: str) -> MetaDataset:
    """Load a dataset directory written by save_metadataset."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.isdir(path):
        raise FileNotFoundError(f"dataset directory not found: {path}")
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"missing manifest: {manifest_path}")
    try:
        with open(manifest_path, "r") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"manifest is not valid JSON: {exc}") from exc

    for key in ("name", "task", "n_models", "n_classes", "splits"):
        if key not in manifest:
            raise DataFormatError(f"manifest missing required key '{key}'")
    if sorted(manifest["splits"]) != sorted(SPLIT_NAMES):
        raise DataFormatError(
            f"manifest must declare splits {list(SPLIT_NAMES)}, got {manifest['splits']}"
        )
    try:
        task = TaskKind(manifest["task"])
    except ValueError:
        raise DataFormatError(f"unknown task kind '{manifest['task']}'") from None
    n_models = int(manifest["n_models"])
    n_classes = int(manifest["n_classes"])

    parent = os.getpid()
    with tempfile.TemporaryFile(buffering=0) as val_fh, \
            tempfile.TemporaryFile(buffering=0) as test_fh:
        files = dict(zip(SPLIT_NAMES, (val_fh, test_fh)))

        def parse(split_name: str) -> Optional[Split]:
            split = _parse_split(path, split_name, n_models, n_classes)
            if os.getpid() == parent:
                return split
            # The pool would pickle the arrays through its pipe, about 0.14 s
            # per 32 MB split; through the inherited file it takes 0.06 s.
            np.save(files[split_name], split.predictions)
            np.save(files[split_name], split.labels)
            return None

        pred_paths = [os.path.join(path, f"{name}_predictions.csv") for name in SPLIT_NAMES]
        csv_bytes = sum(os.path.getsize(p) for p in pred_paths if os.path.isfile(p))
        splits = _map_splits(parse, csv_bytes, _FORK_MIN_BYTES)
        val, test = (_read_back(fh) if split is None else split
                     for split, fh in zip(splits, files.values()))

    return MetaDataset(name=str(manifest["name"]), task=task, val=val, test=test)


def _read_back(fh) -> Split:
    """The split a forked worker saved into the file ``fh``."""
    fh.seek(0)
    return _OwnedSplit(predictions=np.load(fh), labels=np.load(fh))


def _parse_split(path: str, split_name: str, n_models: int, n_classes: int) -> Split:
    """Read one split's two CSV files and check their headers and sizes."""
    pred_path = os.path.join(path, f"{split_name}_predictions.csv")
    header, values = _read_csv(pred_path, n_models * n_classes)
    if header != _prediction_header(n_models, n_classes):
        raise DataFormatError(
            f"{pred_path}: header does not match manifest "
            f"({n_models} models x {n_classes} classes)"
        )
    preds = values.reshape(-1, n_models, n_classes)

    label_path = os.path.join(path, f"{split_name}_labels.csv")
    label_header, label_values = _read_csv(label_path, 1)
    if label_header != ["label"]:
        raise DataFormatError(f"{label_path}: expected single 'label' column")
    labels = label_values[:, 0]
    if labels.shape[0] != preds.shape[0]:
        raise DataFormatError(
            f"{label_path}: {labels.shape[0]} labels for {preds.shape[0]} prediction rows"
        )
    return _OwnedSplit(predictions=preds, labels=labels)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic generators.

    ``kind`` selects the generator: 'experts' (classification with
    region-wise reliable models), 'preferred' (regression with one
    informative model among noise) or 'poly' (regression with
    bootstrapped polynomial fits). Fields irrelevant to a kind are
    ignored. ``n_instances`` is the size of each split.
    """

    kind: str
    n_instances: int = 2000
    n_models: int = 5
    n_classes: int = 3
    rho_p: float = 0.9
    degree: int = 10
    noise_scale: float = 0.1
    seed: int = 0


def generate(spec: SyntheticSpec) -> MetaDataset:
    """Dispatch to the generator named by spec.kind."""
    generators = {
        "experts": generate_complementary_experts,
        "preferred": generate_preferred_model,
        "poly": generate_polynomial_regression,
    }
    if spec.kind not in generators:
        raise ConfigError(
            f"unknown synthetic kind '{spec.kind}', expected one of {sorted(generators)}"
        )
    return generators[spec.kind](spec)


def _check_sizes(spec: SyntheticSpec, min_models: int = 2) -> None:
    if spec.n_instances < 2:
        raise ConfigError(f"n_instances must be at least 2, got {spec.n_instances}")
    if spec.n_models < min_models:
        raise ConfigError(f"n_models must be at least {min_models}, got {spec.n_models}")


def generate_complementary_experts(spec: SyntheticSpec) -> MetaDataset:
    """Classification data where each instance has exactly one reliable model.

    Instances fall into one of M equally likely latent regions. The
    region's model assigns probability 0.9 to the true class and spreads
    the remaining 0.1 evenly. Every other model assigns 0.9 to class 0,
    a dump class that is never the true label, puts the remaining 0.1 on
    the true class and zero elsewhere. Labels are uniform over classes
    1..C-1, so C must be at least 3: with C = 2 every label would be 1.
    Any fixed model is therefore right in only one region out of M, while
    the reliable model can be recognized from the prediction pattern
    alone, which is what rewards per-instance weights.
    """
    _check_sizes(spec)
    m_models, n_classes = spec.n_models, spec.n_classes
    if n_classes < 3:
        raise ConfigError(f"n_classes must be at least 3 (class 0 is never a label), "
                          f"got {n_classes}")
    rng = np.random.default_rng(spec.seed)

    def one_split(n: int) -> Split:
        region = np.minimum((rng.random(n) * m_models).astype(np.int64), m_models - 1)
        labels = rng.integers(1, n_classes, size=n)
        preds = np.zeros((n, m_models, n_classes))
        rows = np.arange(n)
        for m in range(m_models):
            own = region == m
            idx = rows[own]
            preds[idx, m, :] = 0.1 / (n_classes - 1)
            preds[idx, m, labels[idx]] = 0.9
            idx = rows[~own]
            preds[idx, m, 0] = 0.9
            preds[idx, m, labels[idx]] = 0.1
        return _OwnedSplit(predictions=preds, labels=labels)

    name = f"experts-m{m_models}-c{n_classes}-seed{spec.seed}"
    return MetaDataset(
        name=name,
        task=TaskKind.CLASSIFICATION,
        val=one_split(spec.n_instances),
        test=one_split(spec.n_instances),
    )


def generate_preferred_model(spec: SyntheticSpec) -> MetaDataset:
    """Regression data with one informative model among pure-noise models.

    Targets are standard normal. Model 0 predicts
    rho_p * y + sqrt(1 - rho_p^2) * eps; the others are independent
    noise. Targets and every model column are standardized to sample
    mean 0 and variance 1 per split, so for rho_p = 1 model 0 equals the
    target exactly.
    """
    _check_sizes(spec)
    if not 0.0 <= spec.rho_p <= 1.0:
        raise ConfigError(f"rho_p must lie in [0, 1], got {spec.rho_p}")
    rng = np.random.default_rng(spec.seed)

    def standardize(a: np.ndarray) -> np.ndarray:
        return (a - a.mean()) / a.std()

    def one_split(n: int) -> Split:
        y = rng.standard_normal(n)
        eps = rng.standard_normal(n)
        z = rng.standard_normal((n, spec.n_models))
        z[:, 0] = spec.rho_p * y + np.sqrt(1.0 - spec.rho_p**2) * eps
        # Standardize each column through the same 1-D code path as the
        # labels so that rho_p = 1 makes model 0 equal the target bitwise.
        columns = [standardize(np.ascontiguousarray(z[:, m])) for m in range(spec.n_models)]
        return _OwnedSplit(
            predictions=np.stack(columns, axis=1)[:, :, None],
            labels=standardize(y),
        )

    name = f"preferred-m{spec.n_models}-rho{spec.rho_p:g}-seed{spec.seed}"
    return MetaDataset(
        name=name,
        task=TaskKind.REGRESSION,
        val=one_split(spec.n_instances),
        test=one_split(spec.n_instances),
    )


# Ground truth for the polynomial generator: f(x) = 2x^3 - x, degree 3.
TRUE_POLY_COEFFS = np.array([0.0, -1.0, 0.0, 2.0])
TRUE_POLY_DEGREE = 3
_POOL_SIZE = 20


def _true_function(x: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(x, TRUE_POLY_COEFFS)


def _fit_polynomial_pool(spec: SyntheticSpec, rng: np.random.Generator):
    """Draw the shared train pool and fit one polynomial per model.

    Each model is a least-squares polynomial of spec.degree fit on its
    own bootstrap resample of the 20-point pool. Returns the fitted
    polynomials.
    """
    pool_x = rng.uniform(-1.0, 1.0, _POOL_SIZE)
    pool_y = _true_function(pool_x) + spec.noise_scale * rng.standard_normal(_POOL_SIZE)
    fits = []
    for _ in range(spec.n_models):
        idx = rng.integers(0, _POOL_SIZE, size=_POOL_SIZE)
        with warnings.catch_warnings():
            # High-degree fits on few distinct points are rank deficient on
            # purpose; the wild extrapolations are the phenomenon of interest.
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            poly = np.polynomial.Polynomial.fit(pool_x[idx], pool_y[idx], spec.degree)
        fits.append(poly)
    return fits


def generate_polynomial_regression(spec: SyntheticSpec) -> MetaDataset:
    """Regression data from overparameterized polynomial base models.

    A 20-point train pool is drawn from a cubic ground truth plus noise.
    Each base model is a degree-``spec.degree`` least-squares polynomial
    fit on a bootstrap resample of that pool; split predictions are the
    fitted polynomials evaluated at fresh uniform x in [-1, 1]. High
    degrees overfit the pool and disagree wildly near the interval edges.
    """
    _check_sizes(spec)
    if spec.degree < 1:
        raise ConfigError(f"degree must be at least 1, got {spec.degree}")
    if spec.noise_scale < 0:
        raise ConfigError(f"noise_scale must be nonnegative, got {spec.noise_scale}")
    rng = np.random.default_rng(spec.seed)
    fits = _fit_polynomial_pool(spec, rng)

    def one_split(n: int) -> Split:
        x = rng.uniform(-1.0, 1.0, n)
        y = _true_function(x) + spec.noise_scale * rng.standard_normal(n)
        preds = np.column_stack([poly(x) for poly in fits])
        return _OwnedSplit(predictions=preds[:, :, None], labels=y)

    name = f"poly-d{spec.degree}-m{spec.n_models}-seed{spec.seed}"
    return MetaDataset(
        name=name,
        task=TaskKind.REGRESSION,
        val=one_split(spec.n_instances),
        test=one_split(spec.n_instances),
    )
