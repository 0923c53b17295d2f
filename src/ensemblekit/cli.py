"""Command-line front door for dataset prep, method runs, and reports.

Subcommands: validate, synth, run, sweep-dropout, report. Methods fit on
the validation split and are evaluated on the test split; every run
record carries raw metrics plus metrics normalized by the single best
base model on the same dataset. Records are JSON lines appended under a
per-file exclusive lock, so concurrent runs must target distinct files.

Exit codes: 0 success, 2 usage or data error, 3 numeric failure (a
non-finite training loss or metric; nothing is appended then).

Seeds of `run` and `sweep-dropout` run in forked worker processes, one
per usable CPU and never more than there are seeds; a single seed, a
single CPU or a platform without fork runs them one after another in
this process. The parent loads the data, holds the lock, appends the
records in the order `--seeds` lists them and prints; only seeds and
records cross between processes, so the records are the same either way.
A worker's error re-raises in the parent with its type and message.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import baselines, metrics, neural
from .data import MetaDataset, SyntheticSpec, TaskKind, generate, load_metadataset, save_metadataset
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


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    return seeds


def _parse_rates(text: str) -> List[float]:
    try:
        rates = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--rates must be comma-separated floats, got {text!r}") from None
    if not rates:
        raise ConfigError("--rates must name at least one rate")
    for r in rates:
        if not 0.0 <= r < 1.0:
            raise ConfigError(f"dropout rates must lie in [0, 1), got {r}")
    return rates


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


# The worker of the running _map_seeds call. Forked children inherit it,
# so a closure over the loaded dataset never has to be pickled.
_seed_worker: Optional[Callable] = None


def _call_seed_worker(seed: int):
    return _seed_worker(seed)


def _map_seeds(worker: Callable, seeds: List[int]) -> List:
    """``[worker(seed) for seed in seeds]``, with the seeds spread over
    ``min(len(seeds), usable CPUs)`` forked worker processes.

    Results come back in seed order, and a worker's exception re-raises
    here. A worker process that dies raises BrokenProcessPool.
    """
    global _seed_worker
    n_workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n_workers = min(len(seeds), len(os.sched_getaffinity(0)))
    if n_workers == 1:
        return [worker(seed) for seed in seeds]
    # Imported here, so that single-seed commands start no slower.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _seed_worker = worker
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(n_workers, mp_context=context) as pool:
            return list(pool.map(_call_seed_worker, seeds))
    finally:
        _seed_worker = None


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


def _ne_config(args, mode: str, seed: int, dropout_rate: float) -> neural.NEConfig:
    return neural.NEConfig(
        mode=mode,
        dropout_rate=dropout_rate,
        layers=args.layers,
        hidden_dim=args.hidden_dim,
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=seed,
    )


def _run_method(ds: MetaDataset, method: str, args, seed: int) -> Tuple[np.ndarray, str, Dict]:
    """Fit one method on the validation split; return test predictions,
    the NE mode tag (empty for baselines), and a config echo."""
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
            val_p, val_y, ds.task, steps=args.steps, learning_rate=args.lr, seed=seed
        )
        return static(weights), "", {"steps": args.steps, "lr": args.lr}
    if method in _NE_MODE_BY_METHOD:
        mode = _NE_MODE_BY_METHOD[method]
        if getattr(args, "mode", None) not in (None, mode):
            raise ConfigError(f"--mode {args.mode} conflicts with method {method}")
        config = _ne_config(args, mode, seed, args.dropout_rate)
        params, _ = neural.train(ds, config)
        echo = {
            "dropout_rate": config.dropout_rate,
            "layers": config.layers,
            "hidden_dim": config.hidden_dim,
            "steps": config.steps,
            "batch_size": config.batch_size,
            "lr": config.learning_rate,
        }
        return neural.predict(params, test_p), mode, echo
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
    ds = load_metadataset(args.data)
    seeds = _parse_seeds(args.seeds)
    reference = _single_best_reference(ds)

    def worker(seed: int) -> dict:
        start = time.perf_counter()
        predictions, mode, echo = _run_method(ds, args.method, args, seed)
        report = _evaluate(ds, predictions, "test")
        normalized = metrics.normalize_report(report, reference)
        where = f"{ds.name} {args.method} seed {seed}"
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
        records = _map_seeds(worker, seeds)
        _append_records(args.out, records)
    for record in records:
        print(
            f"{record['dataset']} {record['method']} seed={record['seed']} "
            f"normalized_nll={record['normalized']['nll']:.6f}"
        )
    return 0


def cmd_sweep_dropout(args) -> int:
    ds = load_metadataset(args.data)
    seeds = _parse_seeds(args.seeds)
    rates = _parse_rates(args.rates)
    mode = args.mode or neural.MODE_MA

    def worker(seed: int) -> List[dict]:
        rows = []
        trained: Dict[float, float] = {}

        def nll_at(rate: float) -> Tuple[float, float]:
            start = time.perf_counter()
            params, _ = neural.train(ds, _ne_config(args, mode, seed, rate))
            report = _evaluate(ds, neural.predict(params, ds.test.predictions), "test")
            return report.nll, time.perf_counter() - start

        for rate in rates:
            value, elapsed = nll_at(rate)
            trained[rate] = value
            rows.append((rate, value, elapsed))
        # Per-seed normalization against the zero-dropout run; train one if
        # the rate list does not include it.
        zero = trained.get(0.0)
        if zero is None:
            zero, _ = nll_at(0.0)
        records = []
        for rate, value, elapsed in rows:
            scores = _finite(
                {"nll": value, "normalized_nll_vs_zero": value / max(zero, 1e-12)},
                f"{ds.name} {mode} seed {seed} rate {rate}",
            )
            records.append(
                {
                    "dataset": ds.name,
                    "method": "ne-ma" if mode == neural.MODE_MA else "ne-stack",
                    "mode": mode,
                    "seed": seed,
                    "dropout_rate": rate,
                    **scores,
                    "wall_time_seconds": elapsed,
                    "config": {
                        "layers": args.layers,
                        "hidden_dim": args.hidden_dim,
                        "steps": args.steps,
                        "batch_size": args.batch_size,
                        "lr": args.lr,
                    },
                }
            )
        return records

    with _locked_output(args.out):
        records = [record for rows in _map_seeds(worker, seeds) for record in rows]
        _append_records(args.out, records)
    for record in records:
        print(
            f"{record['dataset']} {record['method']} seed={record['seed']} "
            f"rate={record['dropout_rate']} nll={record['nll']:.6f} "
            f"vs_zero={record['normalized_nll_vs_zero']:.4f}"
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
            key = (record["dataset"], record["method"])
            normalized = record["normalized"]
        except (KeyError, TypeError):
            raise DataFormatError(
                "records must carry 'dataset', 'method' and 'normalized' fields"
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
        print(f"dataset: {dataset}")
        header = "  {:<12}".format("method") + "".join(f"{m:>22}" for m in metric_names)
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
            print("  {:<12}".format(method) + "".join(cells))
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


def _add_ne_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=[neural.MODE_STACKING, neural.MODE_MA],
                        default=None, help="ensembler mode")
    parser.add_argument("--layers", type=int, default=4, help="stacking network depth")
    parser.add_argument("--hidden-dim", type=int, default=32, help="hidden width")
    parser.add_argument("--steps", type=int, default=10000, help="training steps")
    parser.add_argument("--batch-size", type=int, default=2048, help="training batch size")
    parser.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")


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
    p.add_argument("--dropout-rate", type=float, default=0.75,
                   help="base-model dropout rate in [0, 1)")
    _add_ne_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-dropout", help="train over a dropout-rate grid")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="JSON-lines records file")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--rates", required=True, help="comma-separated dropout rates")
    _add_ne_flags(p)
    p.set_defaults(func=cmd_sweep_dropout)

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
