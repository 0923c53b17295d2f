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

Exit codes: 0 success, 2 usage or data error, 3 numeric failure (a
non-finite training loss or metric; nothing is appended then).

The (seed, rate) tasks of `run` run in forked worker processes, one per
usable CPU and never more than there are tasks; a single task, a single
CPU or a platform without fork runs them one after another in this
process. The mapper is `data.fork_map`, which also writes and parses the
dataset splits. The parent loads the data, holds the lock, appends the
records seed-major in the order `--seeds` and `--dropout-rate` list them
and prints; only tasks and records cross between processes, so the
records are the same either way. A worker's error re-raises in the
parent with its type and message.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import baselines, metrics, neural
from .data import MetaDataset, SyntheticSpec, TaskKind, fork_map, generate
from .data import load_metadataset, save_metadataset
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


def _evaluate(ds: MetaDataset, predictions: np.ndarray, split: str) -> metrics.MetricReport:
    labels = getattr(ds, split).labels
    if ds.task is TaskKind.CLASSIFICATION:
        return metrics.classification_report(predictions, labels)
    return metrics.regression_report(predictions, labels)


def _single_best_reference(ds: MetaDataset) -> metrics.MetricReport:
    idx = baselines.single_best(ds.val.predictions, ds.val.labels, ds.task)
    test_pred = ds.test.predictions[:, idx, :]
    if ds.task is TaskKind.REGRESSION:
        test_pred = test_pred[:, 0]
    return _evaluate(ds, test_pred, "test")


def _label(method: str, config: dict) -> str:
    """A record's row in `report`: ``method@<rate>`` when its config names
    a dropout rate, else the plain method name. The rate is written with
    ``:g`` when that reads back as the same number, else in full, so
    distinct rates get distinct rows."""
    rate = config.get("dropout_rate")
    if rate is None:
        return method
    text = f"{rate:g}"
    return f"{method}@{text if float(text) == rate else repr(float(rate))}"


def _run_method(
    ds: MetaDataset, method: str, args, seed: int, rate: float
) -> Tuple[np.ndarray, str, Dict]:
    """Fit one method on the validation split; return test predictions,
    the NE mode tag (empty for baselines), and a config echo. Only the
    NE methods use the dropout ``rate``."""
    val_p, val_y = ds.val.predictions, ds.val.labels
    test_p = ds.test.predictions

    def static(weights: np.ndarray) -> np.ndarray:
        combined = baselines.predict_static(weights, test_p)
        return combined[:, 0] if ds.task is TaskKind.REGRESSION else combined

    if method == "single-best":
        idx = baselines.single_best(val_p, val_y, ds.task)
        weights = np.zeros(ds.n_models)
        weights[idx] = 1.0
        return static(weights), "", {"index": idx}
    if method == "random":
        sel = baselines.random_n(ds.n_models, n=args.n, seed=seed)
        return static(sel.weights()), "", {"n": args.n}
    if method == "top-n":
        sel = baselines.top_n(val_p, val_y, ds.task, n=args.n)
        return static(sel.weights()), "", {"n": args.n}
    if method == "quick":
        sel = baselines.quick_select(val_p, val_y, ds.task, n=args.n)
        return static(sel.weights()), "", {"n": args.n}
    if method == "greedy":
        sel = baselines.greedy_select(val_p, val_y, ds.task, n_slots=args.n)
        return static(sel.weights()), "", {"n": args.n}
    if method == "akaike":
        weights = baselines.akaike_weights(baselines.model_losses(val_p, val_y, ds.task))
        return static(weights), "", {}
    if method == "ma":
        weights = baselines.fit_constant_ma(
            val_p, val_y, ds.task, steps=args.steps, learning_rate=args.lr
        )
        return static(weights), "", {"steps": args.steps, "lr": args.lr}
    if method in _NE_MODE_BY_METHOD:
        config = neural.NEConfig(
            mode=_NE_MODE_BY_METHOD[method],
            dropout_rate=rate,
            layers=args.layers,
            hidden_dim=args.hidden_dim,
            steps=args.steps,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            seed=seed,
        )
        params, _ = neural.train(ds, config)
        echo = {
            "dropout_rate": config.dropout_rate,
            "layers": config.layers,
            "hidden_dim": config.hidden_dim,
            "steps": config.steps,
            "batch_size": config.batch_size,
            "lr": config.learning_rate,
        }
        return neural.predict(params, test_p), config.mode, echo
    raise ConfigError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    ds = load_metadataset(args.data)
    print(
        f"{ds.name}: task={ds.task.value} models={ds.n_models} classes={ds.n_classes} "
        f"val={ds.val.n_instances} test={ds.test.n_instances}"
    )
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        kind=args.kind,
        n_instances=args.n,
        n_models=args.models,
        n_classes=args.classes,
        rho_p=args.rho,
        degree=args.degree,
        noise_scale=args.noise,
        seed=args.seed,
    )
    ds = generate(spec)
    save_metadataset(ds, args.out)
    print(f"wrote {ds.name} to {args.out}")
    return 0


def cmd_run(args) -> int:
    seeds = _parse_list(args.seeds, "--seeds", int)
    rates = _parse_list(args.dropout_rate, "--dropout-rate", float)
    for rate in rates:
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rates must lie in [0, 1), got {rate}")
    if len(rates) > 1 and args.method not in _NE_MODE_BY_METHOD:
        raise ConfigError(f"{args.method} has no dropout rate; a list of "
                          f"{len(rates)} rates would repeat each record")
    ds = load_metadataset(args.data)
    reference = _single_best_reference(ds)

    def worker(task: Tuple[int, float]) -> dict:
        seed, rate = task
        start = time.perf_counter()
        predictions, mode, echo = _run_method(ds, args.method, args, seed, rate)
        report = _evaluate(ds, predictions, "test")
        normalized = metrics.normalize_report(report, reference)
        where = f"{ds.name} {_label(args.method, echo)} seed {seed}"
        return {
            "dataset": ds.name,
            "method": args.method,
            "mode": mode,
            "seed": seed,
            "metrics": _finite(report.as_dict(), where),
            "normalized": _finite(normalized.as_dict(), where),
            "wall_time_seconds": time.perf_counter() - start,
            "config": echo,
        }

    with _locked_output(args.out):
        records = fork_map(worker, [(seed, rate) for seed in seeds for rate in rates])
        _append_records(args.out, records)
    for record in records:
        print(
            f"{record['dataset']} {_label(record['method'], record['config'])} "
            f"seed={record['seed']} normalized_nll={record['normalized']['nll']:.6f}"
        )
    return 0


def _finite_number(text: str) -> float:
    """JSON number hook that refuses NaN, Infinity and overflowing literals."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _load_records(path: str) -> List[dict]:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"records file not found: {path}")
    records = []
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            try:
                records.append(
                    json.loads(line, parse_float=_finite_number, parse_constant=_finite_number)
                )
            except ValueError as exc:  # json.JSONDecodeError is a ValueError
                raise DataFormatError(f"{path}:{line_no}: invalid record: {exc}") from exc
    if not records:
        raise DataFormatError(f"records file {path} is empty")
    return records


def cmd_report(args) -> int:
    records = _load_records(args.records)
    grouped: Dict[Tuple[str, str], Dict[str, List[float]]] = {}
    for record in records:
        try:
            key = (record["dataset"], _label(record["method"], record.get("config", {})))
            normalized = record["normalized"]
        except (AttributeError, KeyError, TypeError, ValueError):
            raise DataFormatError(
                "records must carry 'dataset', 'method' and 'normalized' fields, "
                "and a number as config 'dropout_rate' if they name one"
            ) from None
        bucket = grouped.setdefault(key, {})
        for metric_name, value in normalized.items():
            bucket.setdefault(metric_name, []).append(float(value))

    datasets = sorted({key[0] for key in grouped})
    summary_rows = []
    for dataset in datasets:
        methods = sorted(method for d, method in grouped if d == dataset)
        metric_names = sorted({m for method in methods for m in grouped[(dataset, method)]})
        best: Dict[str, str] = {}
        for metric_name in metric_names:
            candidates = [
                (method, float(np.mean(grouped[(dataset, method)][metric_name])))
                for method in methods
                if metric_name in grouped[(dataset, method)]
            ]
            reverse = metric_name in _HIGHER_IS_BETTER
            ordered = sorted(candidates, key=lambda mv: (-mv[1] if reverse else mv[1], mv[0]))
            best[metric_name] = ordered[0][0]
        width = max(12, *map(len, methods))
        print(f"dataset: {dataset}")
        header = f"  {'method':<{width}}" + "".join(f"{m:>22}" for m in metric_names)
        print(header)
        for method in methods:
            cells = []
            for metric_name in metric_names:
                values = grouped[(dataset, method)].get(metric_name)
                if values is None:
                    cells.append(f"{'-':>22}")
                    continue
                mean = float(np.mean(values))
                std = float(np.std(values))
                flag = "*" if best[metric_name] == method else " "
                cells.append(f"{mean:>12.4f} ±{std:7.4f}{flag}")
                summary_rows.append(
                    {
                        "dataset": dataset,
                        "method": method,
                        "metric": metric_name,
                        "mean": mean,
                        "std": std,
                        "n_runs": len(values),
                        "best": best[metric_name] == method,
                    }
                )
            print(f"  {method:<{width}}" + "".join(cells))
        print()

    out_path = args.out or args.records + ".summary.csv"
    with open(out_path, "w", newline="\n") as fh:
        fh.write("dataset,method,metric,mean,std,n_runs,best\n")
        for row in summary_rows:
            fh.write(
                f"{row['dataset']},{row['method']},{row['metric']},"
                f"{row['mean']:.12g},{row['std']:.12g},{row['n_runs']},"
                f"{str(row['best']).lower()}\n"
            )
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

    p = sub.add_parser("synth", help="write a synthetic dataset directory")
    p.add_argument("--kind", required=True, choices=["experts", "preferred", "poly"])
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--n", type=int, default=2000, help="instances per split")
    p.add_argument("--models", type=int, default=5, help="number of base models")
    p.add_argument("--classes", type=int, default=3, help="classes (experts kind)")
    p.add_argument("--rho", type=float, default=0.9, help="target correlation (preferred kind)")
    p.add_argument("--degree", type=int, default=10, help="polynomial degree (poly kind)")
    p.add_argument("--noise", type=float, default=0.1, help="label noise scale (poly kind)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="fit a method and append run records")
    p.add_argument("method", choices=list(METHODS))
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="JSON-lines records file")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--n", type=int, default=baselines.DEFAULT_N,
                   help="ensemble size for random/top-n/quick/greedy")
    p.add_argument("--dropout-rate", default="0.75",
                   help="comma-separated base-model dropout rates in [0, 1); "
                        "a list needs ne-stack or ne-ma")
    p.add_argument("--layers", type=int, default=4, help="stacking network depth")
    p.add_argument("--hidden-dim", type=int, default=32, help="hidden width")
    p.add_argument("--steps", type=int, default=10000, help="training steps")
    p.add_argument("--batch-size", type=int, default=2048, help="training batch size")
    p.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")
    p.set_defaults(func=cmd_run)

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


if __name__ == "__main__":
    sys.exit(main())
