"""Command-line front door for dataset prep, method runs, and reports.

Subcommands: validate, synth, run, report. Methods fit on the validation
split and are evaluated on the test split; every run record carries raw
metrics plus metrics normalized by the single best base model on the
same dataset. Records are JSON lines appended under a per-file exclusive
lock, so concurrent runs must target distinct files.

`run ne-stack` and `run ne-ma` take a list of dropout rates, which makes
the dropout ablation one run: one record per (seed, rate) pair, with the
rate in `config.dropout_rate`. `report` shows one row per method and
rate (`ne-ma@0.75`), so each rate's normalized NLL reads off the table.

Exit codes: 0 success, 2 usage or data error, a dead worker or a
MemoryError, 3 numeric failure (a non-finite training loss or metric;
nothing is appended then).

Each (seed, rate) task of `run` is a copy of one `NEConfig`, so every
flag is checked, for every method, before the data is read. `validate`
and `run` hold one split at a time: `validate` counts each split and
drops it before it reads the next, and `run` loads the validation split
and fits every task on it, then drops it, and only then loads the test
split and scores every fit on it. The fits, and then the scoring, run
in forked child processes, one per task and at most one per usable CPU
at a time; a single task, a single CPU or a platform without fork runs
them one after another in this process. The mapper is `data.fork_map`,
which also writes the dataset splits. The parent loads each split, holds
the lock, appends the records seed-major in the order `--seeds` and
`--dropout-rate` list them and prints; only tasks, fits (a combiner's
parameters or static weights) and records cross between processes, so
the records are the same either way. A worker's error re-raises in the
parent, type and message; a worker that dies is WorkerDiedError, exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import json
import os
import sys
import time
from dataclasses import fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import baselines, metrics, neural
from .data import GENERATORS, SPLIT_NAMES, MetaDataset, SyntheticSpec, TaskKind, fork_map
from .data import check_integer, load_split, save_synthetic
from .errors import ConfigError, DataFormatError, EnsembleKitError, LockError, NumericError

METHODS = (
    "single-best",
    "random",
    "top-n",
    "quick",
    "greedy",
    "akaike",
    "ma",
    "ne-stack",
    "ne-ma",
)

_NE_MODE_BY_METHOD = {"ne-stack": neural.MODE_STACKING, "ne-ma": neural.MODE_MA}
_NE_FIELDS = ("layers", "hidden_dim", "steps", "batch_size", "learning_rate")  # set by run flags

# Lower is better for every normalized metric except AUC.
_HIGHER_IS_BETTER = {"auc"}


def _parse_list(text: str, flag: str, kind: type) -> list:
    """The comma-separated values of ``flag``, each converted by ``kind``;
    a value listed twice would write its records twice."""
    try:
        values = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of {kind.__name__}s, "
                          f"got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"{flag} lists a value more than once, got {text!r}")
    return values


@contextlib.contextmanager
def _locked_output(path: str):
    """Exclusive non-blocking lock on <path>.lock for the whole run."""
    fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        os.close(fd)
        raise LockError(f"output file {path} is locked by another run") from None
    try:
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _append_records(path: str, records: List[dict]) -> None:
    # allow_nan=False: bare NaN/Infinity is not JSON, so refuse to write it.
    lines = [json.dumps(record, sort_keys=True, allow_nan=False) + "\n" for record in records]
    with open(path, "a") as fh:
        fh.writelines(lines)


def _finite(values: Dict[str, float], where: str) -> Dict[str, float]:
    """Return ``values``, or raise NumericError naming the first metric
    that is not finite; records must never carry NaN or infinity."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise NumericError(f"{where}: metric '{name}' is not finite ({value})")
    return values


def _evaluate(task: TaskKind, predictions: np.ndarray, labels: np.ndarray) -> metrics.MetricReport:
    if task is TaskKind.CLASSIFICATION:
        return metrics.classification_report(predictions, labels)
    return metrics.regression_report(predictions, labels)


def _label(method: str, config: dict) -> str:
    """A record's row in `report`: ``method@<rate>`` when its config names
    a dropout rate (else neural.check_dropout_rate's ConfigError, a
    ValueError), or the plain method name. The rate is written with ``:g``
    when that reads back as the same number, else in full, so distinct
    rates get distinct rows."""
    rate = config.get("dropout_rate")
    if rate is None:
        return method
    neural.check_dropout_rate(rate)
    text = f"{rate + 0.0:g}"  # + 0.0: a rate of -0.0 shares the row of 0
    return f"{method}@{text if float(text) == rate else repr(rate)}"


def _static_weights(ds: MetaDataset, method: str, config: neural.NEConfig,
                    n: int) -> Tuple[np.ndarray, Dict]:
    """A static baseline's weights (M,), fitted on the validation split,
    and its config echo; ``n`` is the selections' ensemble size."""
    val_p, val_y = ds.val.predictions, ds.val.labels
    if method == "single-best":
        idx = baselines.single_best(val_p, val_y, ds.task)
        return baselines.ModelSelection((idx,), ds.n_models).weights(), {"index": idx}
    if method == "akaike":
        return baselines.akaike_weights(baselines.model_losses(val_p, val_y, ds.task)), {}
    if method == "ma":
        weights = baselines.fit_constant_ma(
            val_p, val_y, ds.task, steps=config.steps, learning_rate=config.learning_rate
        )
        return weights, {"steps": config.steps, "lr": config.learning_rate}
    selections = {
        "random": lambda: baselines.random_n(ds.n_models, n=n, seed=config.seed),
        "top-n": lambda: baselines.top_n(val_p, val_y, ds.task, n=n),
        "quick": lambda: baselines.quick_select(val_p, val_y, ds.task, n=n),
        "greedy": lambda: baselines.greedy_select(val_p, val_y, ds.task, n_slots=n),
    }
    if method not in selections:
        raise ConfigError(f"unknown method {method!r}")
    return selections[method]().weights(), {"n": n}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    counts = []
    for split_name in SPLIT_NAMES:
        ds = load_split(args.data, split_name)
        summary = f"{ds.name}: task={ds.task.value} models={ds.n_models} classes={ds.n_classes}"
        counts.append(f"{split_name}={getattr(ds, split_name).n_instances}")
        del ds  # counted: dropped before the next split is read
    print(" ".join([summary] + counts))
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
    name = save_synthetic(spec, args.out)
    print(f"wrote {name} to {args.out}")
    return 0


def cmd_run(args) -> int:
    seeds = _parse_list(args.seeds, "--seeds", int)
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must be non-negative integers, got {args.seeds!r}")
    rates = _parse_list(args.dropout_rate, "--dropout-rate", float)
    if len(rates) > 1 and args.method not in _NE_MODE_BY_METHOD:
        raise ConfigError(f"{args.method} has no dropout rate; a list of "
                          f"{len(rates)} rates would repeat each record")
    check_integer("--n", args.n, 1)
    # Every flag, seed and rate is checked here, for every method, before the load.
    config = neural.NEConfig(mode=_NE_MODE_BY_METHOD.get(args.method, neural.MODE_MA),
                             **{name: getattr(args, name) for name in _NE_FIELDS})
    # + 0.0 records a rate of -0.0 as 0.0.
    tasks = [replace(config, seed=seed, dropout_rate=rate + 0.0)
             for seed in seeds for rate in rates]
    fit_ds = load_split(args.data, "val")
    dataset, kind = fit_ds.name, fit_ds.task
    best = baselines.single_best(fit_ds.val.predictions, fit_ds.val.labels, kind)
    neural_method = args.method in _NE_MODE_BY_METHOD

    def fit(task: neural.NEConfig) -> Tuple[object, Dict, float]:
        """The task's fit on the validation split (NEParams, or a static
        baseline's weights), its config echo and the seconds it took."""
        start = time.perf_counter()
        if neural_method:
            fitted, _ = neural.train(fit_ds, task)
            echoed = ("dropout_rate", "layers", "hidden_dim", "steps", "batch_size")
            echo = dict({name: getattr(task, name) for name in echoed}, lr=task.learning_rate)
        else:
            fitted, echo = _static_weights(fit_ds, args.method, task, args.n)
        return fitted, echo, time.perf_counter() - start

    def score(job: Tuple[neural.NEConfig, Tuple[object, Dict, float]]) -> dict:
        """A task's record: its fit scored on the test split."""
        task, (fitted, echo, fit_seconds) = job
        start = time.perf_counter()
        if neural_method:
            predictions, mode = neural.predict(fitted, test.predictions), task.mode
        else:
            predictions, mode = baselines.predict_static(fitted, test.predictions), ""
        report = _evaluate(kind, predictions, test.labels)
        normalized = metrics.normalize_report(report, reference)
        where = f"{dataset} {_label(args.method, echo)} seed {task.seed}"
        return {
            "dataset": dataset,
            "method": args.method,
            "mode": mode,
            "seed": task.seed,
            "metrics": _finite(report.as_dict(), where),
            "normalized": _finite(normalized.as_dict(), where),
            "wall_time_seconds": fit_seconds + time.perf_counter() - start,
            "config": echo,
        }

    with _locked_output(args.out):
        fits = fork_map(fit, tasks)
        # The last reference to the validation arrays, which is also fit's
        # closure cell: the test split is read only once they are gone.
        del fit_ds
        test = load_split(args.data, "test").test
        reference = _evaluate(kind, test.predictions[:, best, :], test.labels)
        # Scored in forked children too: a full-split forward pass grows
        # only its own short-lived child, never the parent.
        records = fork_map(score, list(zip(tasks, fits)))
        _append_records(args.out, records)
    for record in records:
        print(
            f"{record['dataset']} {_label(record['method'], record['config'])} "
            f"seed={record['seed']} normalized_nll={record['normalized']['nll']:.6f}"
        )
    return 0


def _finite_number(text: str) -> float:
    """JSON number hook: every number as a float, refusing NaN, Infinity and
    literals that overflow float64."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _load_cells(path: str) -> Dict[Tuple[str, str, str], List[float]]:
    """The normalized values of each (dataset, row, metric) in a records
    file. Every line is parsed as JSON before any record is checked; JSON
    numbers parse as finite floats, so a bool or null is no metric value."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"records file not found: {path}")
    records = []
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            try:
                records.append((line_no, json.loads(
                    line, parse_float=_finite_number, parse_int=_finite_number,
                    parse_constant=_finite_number)))
            except ValueError as exc:  # json.JSONDecodeError is a ValueError
                raise DataFormatError(f"{path}:{line_no}: invalid record: {exc}") from exc
    if not records:
        raise DataFormatError(f"records file {path} is empty")
    cells: Dict[Tuple[str, str, str], List[float]] = {}
    for line_no, record in records:
        try:
            dataset, method = record["dataset"], record["method"]
            row = _label(method, record.get("config", {}))
            normalized = record["normalized"]
        except (AttributeError, KeyError, TypeError, ValueError):
            normalized = None
        if not (isinstance(normalized, dict) and normalized and isinstance(dataset, str)
                and isinstance(method, str)
                and all(isinstance(value, float) for value in normalized.values())):
            raise DataFormatError(
                f"{path}:{line_no}: a record needs a string 'dataset' and 'method', a "
                "non-empty 'normalized' object of numbers, and a number in [0, 1) as "
                "config 'dropout_rate' if it names one")
        for metric_name, value in normalized.items():
            cells.setdefault((dataset, row, metric_name), []).append(value)
    return cells


def cmd_report(args) -> int:
    cells = _load_cells(args.records)
    # Mean, std and run count of each (dataset, row, metric), in sorted order.
    stats = {key: (float(np.mean(cells[key])), float(np.std(cells[key])), len(cells[key]))
             for key in sorted(cells)}
    # The best row per (dataset, metric): the lowest signed mean, ties to the
    # first row name.
    best: Dict[Tuple[str, str], Tuple[float, str]] = {}
    for (dataset, row, metric_name), (mean, _, _) in stats.items():
        candidate = (-mean if metric_name in _HIGHER_IS_BETTER else mean, row)
        best[dataset, metric_name] = min(best.get((dataset, metric_name), candidate), candidate)

    for dataset in sorted({key[0] for key in stats}):
        rows = sorted({row for d, row, _ in stats if d == dataset})
        metric_names = sorted({m for d, _, m in stats if d == dataset})
        width = max(12, *map(len, rows))
        print(f"dataset: {dataset}")
        print(f"  {'method':<{width}}" + "".join(f"{m:>22}" for m in metric_names))
        for row in rows:
            line = f"  {row:<{width}}"
            for metric_name in metric_names:
                if (dataset, row, metric_name) not in stats:
                    line += f"{'-':>22}"
                    continue
                mean, std, _ = stats[dataset, row, metric_name]
                flag = "*" if best[dataset, metric_name][1] == row else " "
                line += f"{mean:>12.4f} ±{std:7.4f}{flag}"
            print(line)
        print()

    out_path = args.out or args.records + ".summary.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset", "method", "metric", "mean", "std", "n_runs", "best"])
        for (dataset, row, metric_name), (mean, std, n_runs) in stats.items():
            writer.writerow([dataset, row, metric_name, f"{mean:.12g}", f"{std:.12g}", n_runs,
                             str(best[dataset, metric_name][1] == row).lower()])
    print(f"summary written to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensemblekit",
        description="Post-hoc ensembling over frozen base-model predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_validate)

    # A flag that sets a SyntheticSpec or NEConfig field is stored under the field's name,
    # shown under its own, and takes the field's default; [1:] skips kind, which has none.
    p = sub.add_parser("synth", help="write a synthetic dataset directory")
    p.add_argument("--kind", required=True, choices=list(GENERATORS))
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--n", dest="n_instances", metavar="N", type=int, help="instances per split")
    p.add_argument("--models", dest="n_models", metavar="MODELS", type=int,
                   help="number of base models")
    p.add_argument("--classes", dest="n_classes", metavar="CLASSES", type=int,
                   help="classes, >= 3; used by experts, checked for every kind")
    p.add_argument("--rho", dest="rho_p", metavar="RHO", type=float,
                   help="target correlation in [0, 1]; used by preferred, checked for every kind")
    p.add_argument("--degree", type=int,
                   help="polynomial degree, >= 1; used by poly, checked for every kind")
    p.add_argument("--noise", dest="noise_scale", metavar="NOISE", type=float,
                   help="label noise scale, finite and >= 0; used by poly, checked for every kind")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth, **{f.name: f.default for f in fields(SyntheticSpec)[1:]})

    p = sub.add_parser("run", help="fit a method and append run records")
    p.add_argument("method", choices=list(METHODS))
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="JSON-lines records file")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--n", type=int, default=baselines.DEFAULT_N,
                   help="ensemble size for random/top-n/quick/greedy")
    p.add_argument("--dropout-rate", default=str(neural.NEConfig.dropout_rate),
                   help="comma-separated base-model dropout rates in [0, 1); "
                        "a list needs ne-stack or ne-ma")
    p.add_argument("--layers", type=int, help="stacking network depth")
    p.add_argument("--hidden-dim", type=int, help="hidden width")
    p.add_argument("--steps", type=int, help="training steps")
    p.add_argument("--batch-size", type=int, help="training batch size")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                   help="Adam learning rate")
    p.set_defaults(func=cmd_run, **{name: getattr(neural.NEConfig, name) for name in _NE_FIELDS})

    p = sub.add_parser("report", help="aggregate run records into a table")
    p.add_argument("--records", required=True, help="JSON-lines records file")
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EnsembleKitError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation; Python's own is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
