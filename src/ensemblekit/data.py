"""Meta-datasets of frozen base-model predictions, plus synthetic generators.

A meta-dataset is everything an ensembling method is allowed to see: a
prediction cube of shape (instances, models, classes) and a label vector,
for a validation split (used for fitting) and a test split (evaluation
only). Regression datasets use a single pseudo-class column. A dataset may
hold one split only, the other None: ``load_split`` loads one, so that a
run can fit on val and drop it before it reads test.

The on-disk layout is one directory per dataset: ``manifest.json`` plus
``<split>_predictions.csv`` / ``<split>_labels.csv``, read by ``np.loadtxt``
and written by ``_write_csv`` as ``np.savetxt`` would write them with
``%.17g`` (17 significant digits, so a save/load round trip is exact; class
labels use ``%d``), but formatting each distinct row once.
``save_metadataset`` writes a dataset it is given; ``save_synthetic``
writes the bytes ``save_metadataset(generate(spec))`` would, drawing each
split where it is written, so no process holds both splits. Both write
into a staging directory inside the target and move the files into place
only when every split is written, so a failure leaves no dataset.

Beside each split's CSV files, the writers put a parse cache,
``<split>_cache.npy``: three ``np.save`` records, its key and then the
float64 predictions and labels. The writers and the loaders take the key
alike, with ``_split_digest``: the sha256 of the two CSV files, each read
back and sized by its real size, then of the two arrays. A load takes a
split from its cache only when the cache opens, its key equals a fresh one
of the CSV files beside it and of the arrays it holds, and its shapes fit
the manifest; each split's cache is judged on its own. ``%.17g`` and ``%d``
round-trip exactly, so with both digests equal a hit returns the arrays a
parse of those bytes would. Anything else parses the CSV files, with the
parse's errors; the loaders never write a cache, and deleting one only
forces a parse.

Each sha256 is CPython's own below ``_OPENSSL_MIN_BYTES`` (4 MiB) and
OpenSSL's, through ``hashlib`` imported then, from there up: the same
digests, but a process that hashes only small files never loads OpenSSL.
A Python built without its own SHA-256 uses OpenSSL's for all.

Both loaders read a split with ``_read_split``, in this process:
``load_metadataset`` reads val, then test, and ``load_split`` its one.
The writers handle each split in a forked child process of its own, at
most one per usable CPU at a time (``fork_map``). There is no setting for
it. A dataset too small to repay the forks, a single CPU or a platform
without fork writes the splits one after another in this process, with
the same bytes and errors.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import os
import pickle
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

try:  # CPython's own SHA-256, which does not load OpenSSL
    from _sha2 import sha256 as _builtin_sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256
    except ImportError:  # a build without it, such as a FIPS one: OpenSSL's for all
        from hashlib import sha256 as _builtin_sha256

import numpy as np

from .errors import (ConfigError, DataFormatError, DataValidationError, EnsembleKitError,
                     ShapeError, WorkerDiedError)

SIMPLEX_TOL = 1e-4
SPLIT_NAMES = ("val", "test")

_FLOAT_FMT = "%.17g"
_CACHE_SUFFIX = "_cache.npy"
# _write_csv formats and writes about this many bytes of rows at a time.
_CHUNK_BYTES = 1 << 14

# Below this size the splits are written in this process. A fresh
# process's first fork_map of 2 trivial tasks takes about 5 ms, but on a
# 2-CPU host where two busy processes each run 1.5x slower than one alone,
# forked writes pay only from 250 000-400 000 values when no row repeats
# (0.18 s serial against 0.21 s forked at 250 000, 0.32 against 0.31 s at
# 400 000), and for experts data, whose repeated rows format once, not
# even at 2 000 000 (0.093 against 0.108 s).
_FORK_MIN_VALUES = 250_000

# Digests of fewer bytes than this use CPython's own SHA-256, larger ones
# OpenSSL's, through hashlib. Loading OpenSSL's _hashlib costs a process
# about 3.5 MB and 2 ms; on one Xeon core OpenSSL 3.0 hashes 1.5 GB/s and
# the built-in 0.27 GB/s, so below 4 MiB the built-in costs at most 13 ms
# more a digest.
_OPENSSL_MIN_BYTES = 4 << 20


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
    One split may be None, meaning not loaded: fitting needs val only.
    """

    name: str
    task: TaskKind
    val: Optional[Split]
    test: Optional[Split]

    def __post_init__(self):
        if not isinstance(self.task, TaskKind):
            raise ConfigError(f"task must be a TaskKind, got {self.task!r}")
        if self.val is None and self.test is None:
            raise ConfigError("a dataset needs a val or a test split")
        shapes = []
        for split_name in SPLIT_NAMES:
            split = getattr(self, split_name)
            if split is not None:
                split = _sanitize_split(split, self.task, split_name)
                object.__setattr__(self, split_name, split)
                shapes.append(split.predictions.shape[1:])
        if len(set(shapes)) > 1:
            raise DataValidationError(
                f"val and test disagree on (models, classes): {shapes[0]} vs {shapes[1]}"
            )

    @property
    def n_models(self) -> int:
        return (self.val or self.test).predictions.shape[1]

    @property
    def n_classes(self) -> int:
        return (self.val or self.test).predictions.shape[2]


def check_cube(cube: np.ndarray, where: str) -> None:
    """Raise unless the float64 ``cube`` is (N, M, C) with N, M, C >= 1 and
    every entry finite, naming the first entry that is not; when C > 1 each
    (instance, model) row must be a simplex: entries in [0, 1] that sum to 1
    within SIMPLEX_TOL. ``where`` starts each message."""
    if cube.ndim != 3:
        raise ShapeError(f"{where} must be (instances, models, classes), got shape {cube.shape}")
    if cube.shape[0] < 1:
        raise DataValidationError(f"{where} has no instances")
    if cube.shape[1] < 1 or cube.shape[2] < 1:
        raise DataValidationError(f"{where} needs at least one model and class")
    # The extremes carry a NaN through and show an infinity, so the checks
    # allocate nothing the size of the cube until one fails.
    with np.errstate(invalid="ignore"):
        lo, hi = cube.min(), cube.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        i, m, c = np.argwhere(~np.isfinite(cube))[0]
        raise DataValidationError(f"{where} entry (instance {i}, model {m}, "
                                  f"class {c}) is not finite: {cube[i, m, c]}")
    if cube.shape[2] == 1:
        return
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise DataValidationError(f"{where}: predictions must be probabilities in [0, 1]")
    deviation = cube.sum(axis=2)
    deviation -= 1.0
    np.abs(deviation, out=deviation)
    if deviation.max() > SIMPLEX_TOL:
        i, m = map(int, np.argwhere(deviation > SIMPLEX_TOL)[0])
        total = cube.sum(axis=2)[i, m]  # the sum the deviation was taken from
        raise DataValidationError(f"{where}: probabilities for instance {i}, model {m} "
                                  f"sum to {total:.6f}, expected 1 within {SIMPLEX_TOL}")


def check_labels(labels, n: int, task: TaskKind, n_classes: int, where: str) -> np.ndarray:
    """A new array of ``labels`` checked to be 1-D with ``n`` >= 1 entries:
    int64 class indices in [0, n_classes) for classification, finite
    float64 targets for regression. ``where`` starts each message."""
    if not isinstance(task, TaskKind):
        raise ConfigError(f"task must be a TaskKind, got {task!r}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise ShapeError(f"{where} labels must be 1-D with {n} entries, got shape {labels.shape}")
    if n == 0:
        raise DataValidationError(f"{where} has no instances")
    if task is TaskKind.REGRESSION:
        labels = labels.astype(np.float64)
        if not np.all(np.isfinite(labels)):
            raise DataValidationError(f"{where} labels contain non-finite values")
        return labels
    with np.errstate(invalid="ignore"):  # NaN and infinity fail the comparison
        if not np.all(labels == labels.astype(np.int64)):
            raise DataValidationError(f"{where} labels must be class indices")
    labels = labels.astype(np.int64)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataValidationError(f"{where} labels must lie in [0, {n_classes}), got range "
                                  f"[{labels.min()}, {labels.max()}]")
    return labels


def _sanitize_split(split: Split, task: TaskKind, split_name: str) -> Split:
    # A caller's array is copied, so that its later writes cannot reach the
    # dataset and it stays writeable; check_labels always returns a new array.
    if isinstance(split, _OwnedSplit):
        preds = np.asarray(split.predictions, dtype=np.float64)
    else:
        preds = np.array(split.predictions, dtype=np.float64, copy=True)
    check_cube(preds, f"{split_name} split")
    c = preds.shape[2]
    if task is TaskKind.CLASSIFICATION and c < 2:
        raise DataValidationError(f"{split_name} split: classification needs 2 or more classes")
    if task is TaskKind.REGRESSION and c != 1:
        raise DataValidationError(f"{split_name} split: regression needs 1 column, got {c}")
    labels = check_labels(split.labels, preds.shape[0], task, c, split_name)
    preds.flags.writeable = False
    labels.flags.writeable = False
    return Split(predictions=preds, labels=labels)


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------


def fork_map(worker: Callable, tasks: Sequence) -> List:
    """``[worker(task) for task in tasks]``, each task in a forked child of
    its own, at most ``min(len(tasks), usable CPUs)`` at once; a single
    task, a single CPU or a platform without fork runs them in this process.

    Results come back in task order. No task starts after one fails, and the
    first failing task's exception, in task order, re-raises here; a child
    that dies is WorkerDiedError, an outcome that does not pickle is
    EnsembleKitError. Only this call's children are reaped, all of them."""
    n_slots = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n_slots = min(len(tasks), len(os.sched_getaffinity(0)))
    if n_slots == 1:
        return [worker(task) for task in tasks]
    # Imported here, so that a command that never forks imports none of them.
    import select
    import signal
    import threading
    # Python runs signal handlers in the main thread only, and can put back
    # only a SIGINT handler that it knows.
    defer = (threading.current_thread() is threading.main_thread()
             and signal.getsignal(signal.SIGINT) is not None)
    results, failures, running, started = [None] * len(tasks), {}, {}, 0
    poller = select.poll()  # select.select refuses descriptors from 1024 up
    try:
        while running or (started < len(tasks) and not failures):
            while len(running) < n_slots and started < len(tasks) and not failures:
                # A SIGINT that comes before the child is in running, where
                # the finally below finds it, is only noted, and raised again
                # once it is there. The child puts the caller's handler back.
                caught, handler = [], None
                if defer:
                    handler = signal.signal(signal.SIGINT, lambda *_: caught.append(True))
                try:
                    read_fd, write_fd = os.pipe()
                    where = f"task {started + 1} of {len(tasks)}"
                    pid = os.fork()
                    if pid == 0:
                        _run_child(worker, tasks[started], where, write_fd, handler)
                    os.close(write_fd)
                    running[read_fd] = open(read_fd, "rb"), started, pid, where
                finally:
                    if defer:
                        signal.signal(signal.SIGINT, handler)
                poller.register(read_fd)
                started += 1
                if caught:
                    signal.raise_signal(signal.SIGINT)
            # A pipe turns readable once its child has pickled its outcome, or died.
            for fd, _ in poller.poll():
                pipe, index, pid, where = running[fd]
                with pipe:
                    payload, status = pipe.read(), os.waitpid(pid, 0)[1]
                poller.unregister(fd)
                del running[fd]
                if status:
                    failures[index] = WorkerDiedError(f"a worker process died (killed, perhaps "
                                                      f"out of memory) before {where} returned")
                    continue
                ok, results[index] = pickle.loads(payload)
                if not ok:
                    failures[index] = results[index]
    finally:
        for pipe, _, pid, _ in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    if failures:
        raise failures[min(failures)]
    return results


def _run_child(worker: Callable, task, where: str, pipe_fd: int, handler) -> None:
    """Put SIGINT's ``handler`` back unless it is None, write
    ``worker(task)``'s pickled outcome to ``pipe_fd``, then exit."""
    import signal
    try:
        try:
            if handler is not None:
                signal.signal(signal.SIGINT, handler)
            outcome = True, worker(task)
        except BaseException as exc:
            outcome = False, exc
        try:
            payload = pickle.dumps(outcome)
            pickle.loads(payload)  # what does not load here would not load in the parent
        except Exception as exc:
            error = EnsembleKitError(f"{where}'s outcome does not pickle: {exc!r}")
            payload = pickle.dumps((False, error))
        with open(pipe_fd, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    finally:
        os._exit(1)


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------


def _prediction_header(n_models: int, n_classes: int) -> List[str]:
    return [f"m{m}_c{c}" for m in range(n_models) for c in range(n_classes)]


def save_metadataset(ds: MetaDataset, path: str) -> None:
    """Write a dataset directory; identical datasets produce identical bytes.

    This process writes the manifest; each split's two CSV files and its
    parse cache are written by a fork_map worker, or here for a small
    dataset."""
    if ds.val is None or ds.test is None:
        raise ConfigError(f"dataset {ds.name} needs both splits loaded to be saved")
    _write_dataset(path, ds.name, ds.task, ds.n_models, ds.n_classes,
                   lambda split_name: getattr(ds, split_name),
                   ds.val.predictions.size + ds.test.predictions.size)


def save_synthetic(spec: SyntheticSpec, path: str) -> str:
    """Write the directory ``save_metadataset(generate(spec), path)`` would,
    byte for byte, and return the dataset's name.

    Each split is drawn, checked and written by its own fork_map worker,
    or here for a small dataset; the test split's draw first replays the
    val draw to reach its place in the spec's stream. So no process holds
    both splits, and data that fails validation leaves no dataset."""
    name, task, _ = _generator(spec)
    n_classes = spec.n_classes if task is TaskKind.CLASSIFICATION else 1

    def draw(split_name: str) -> Split:
        _, _, one_split = _generator(spec)
        for _ in range(SPLIT_NAMES.index(split_name)):
            one_split()  # an earlier split's draw, dropped at once
        return _sanitize_split(one_split(), task, split_name)

    _write_dataset(path, name, task, spec.n_models, n_classes, draw,
                   len(SPLIT_NAMES) * spec.n_instances * spec.n_models * n_classes)
    return name


def _write_dataset(path: str, name: str, task: TaskKind, n_models: int, n_classes: int,
                   source: Callable[[str], Split], n_values: int) -> None:
    """Write a dataset directory whose splits are ``source(split_name)``:
    each split's CSV files by _write_csv, then its cache keyed by _split_digest.

    The files go into a staging directory inside ``path`` and move into
    ``path`` only once every split is written, so an error, in ``source``
    or in a write, leaves ``path`` as it was (and no ``path`` if there was
    none). ``n_values``, the dataset's prediction values, picks between
    fork_map's workers and this process."""
    manifest = {
        "name": name,
        "task": task.value,
        "n_models": n_models,
        "n_classes": n_classes,
        "splits": list(SPLIT_NAMES),
    }
    label_fmt = "%d" if task is TaskKind.CLASSIFICATION else _FLOAT_FMT
    header = ",".join(_prediction_header(n_models, n_classes))
    new = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=path)

    def write(split_name: str) -> None:
        split = source(split_name)
        stem = os.path.join(staging, split_name)
        # C order and float64 labels: the arrays _parse_split returns.
        preds = np.ascontiguousarray(split.predictions)
        _write_csv(f"{stem}_predictions.csv", header, preds, _FLOAT_FMT)
        _write_csv(f"{stem}_labels.csv", "label", split.labels, label_fmt)
        labels = split.labels.astype(np.float64)
        with open(stem + _CACHE_SUFFIX, "wb") as fh:
            np.save(fh, np.frombuffer(_split_digest(stem, preds, labels), dtype=np.uint8))
            np.save(fh, preds)
            np.save(fh, labels)

    try:
        with open(os.path.join(staging, "manifest.json"), "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if n_values < _FORK_MIN_VALUES:
            for split_name in SPLIT_NAMES:
                write(split_name)
        else:
            fork_map(write, SPLIT_NAMES)
        for file_name in os.listdir(staging):
            os.replace(os.path.join(staging, file_name), os.path.join(path, file_name))
        os.rmdir(staging)
    except BaseException:
        shutil.rmtree(path if new else staging, ignore_errors=True)
        raise


def _sha256(n_bytes: int) -> Callable:
    """A SHA-256 constructor for ``n_bytes`` or fewer: CPython's own below
    _OPENSSL_MIN_BYTES, else hashlib's, imported here."""
    if n_bytes < _OPENSSL_MIN_BYTES:
        return _builtin_sha256
    import hashlib
    return hashlib.sha256


def _write_csv(path: str, header: str, rows: np.ndarray, fmt: str) -> None:
    """Write the bytes ``np.savetxt(path, rows, fmt, delimiter=",",
    header=header, comments="")`` would, N >= 1 rows of any shape flattened
    to lines. Rows are told apart by the sha256 of their bytes, as the parse
    cache trusts, so -0.0 is not 0.0: each distinct row is formatted once
    and its text kept only until its last repeat."""
    rows = np.ascontiguousarray(rows).reshape(len(rows), -1)
    line, step = ",".join([fmt] * rows.shape[1]) + "\n", max(1, _CHUNK_BYTES // rows[0].nbytes)
    row_sha256 = _sha256(rows.nbytes)
    digests = [row_sha256(row).digest() for row in rows]
    last = {digest: i for i, digest in enumerate(digests)}
    texts, lines, end = {}, [header + "\n"], len(rows) - 1
    with open(path, "wb") as fh:
        for i, digest in enumerate(digests):
            if digest not in texts:
                texts[digest] = line % tuple(rows[i].tolist())
            lines.append(texts.pop(digest) if last[digest] == i else texts[digest])
            if len(lines) > step or i == end:
                fh.write("".join(lines).encode())
                lines = []


def _split_digest(stem: str, preds: np.ndarray, labels: np.ndarray) -> bytes:
    """The cache key of the split at ``stem``: the sha256 of its predictions
    CSV, of its labels CSV, then of C-ordered float64 ``preds`` and ``labels``."""
    digests = b""
    for kind in ("predictions", "labels"):
        with open(f"{stem}_{kind}.csv", "rb") as fh:
            sha = _sha256(os.fstat(fh.fileno()).st_size)()
            # 64 KiB chunks: a digest holds little, however large the file.
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                sha.update(chunk)
        digests += sha.digest()
    sha = _sha256(preds.nbytes + labels.nbytes)(preds)
    sha.update(labels)
    return digests + sha.digest()


def _cached_split(stem: str, n_models: int, n_classes: int) -> Optional[Split]:
    """The split whose cache save_metadataset wrote at ``stem``, or None
    unless the cache opens, its digests equal those of the CSV files now
    beside it and of its own arrays, and it holds (N, n_models,
    n_classes) float64 predictions with N float64 labels."""
    try:
        with open(stem + _CACHE_SUFFIX, "rb") as fh:
            digest = np.load(fh, allow_pickle=False).tobytes()
            preds = np.load(fh, allow_pickle=False)
            labels = np.load(fh, allow_pickle=False)
        fits = (preds.dtype == np.float64 and labels.dtype == np.float64
                and preds.shape[1:] == (n_models, n_classes) and labels.shape == preds.shape[:1]
                and preds.flags.c_contiguous)
        if fits and digest == _split_digest(stem, preds, labels):
            return _OwnedSplit(predictions=preds, labels=labels)
    except (OSError, ValueError, EOFError, MemoryError):
        pass
    return None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell and cell.strip().isascii()  # float() takes "1_0" and "١"


def _csv_fault(path: str, n_columns: int) -> Optional[str]:
    """Describe the first data line of ``path`` that np.loadtxt cannot
    read: a row with the wrong number of cells, or a cell that is not a
    number. Lines and columns count from 1; the header is line 1. Like
    np.loadtxt, it skips empty lines only: a line of blanks is one cell."""
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1 or line == "\n":
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


def _read_manifest(path: str) -> Tuple[str, TaskKind, int, int]:
    """The name, task, n_models and n_classes of the dataset directory
    ``path``, from its checked manifest, once every split's two CSV files
    are found: a loader refuses an incomplete directory before any read."""
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
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: the manifest must be a JSON object, "
                              f"got {json.dumps(manifest)}")

    for key in ("name", "task", "n_models", "n_classes", "splits"):
        if key not in manifest:
            raise DataFormatError(f"{manifest_path}: '{key}' is missing")
    declared = manifest["splits"]
    # Sorted by str, so that a list of other values compares unequal instead of raising.
    if not isinstance(declared, list) or sorted(declared, key=str) != sorted(SPLIT_NAMES):
        raise DataFormatError(f"{manifest_path}: 'splits' must list {list(SPLIT_NAMES)}, "
                              f"got {json.dumps(declared)}")
    try:
        task = TaskKind(manifest["task"])
    except ValueError:
        raise DataFormatError(f"{manifest_path}: 'task' must be one of "
                              f"{[kind.value for kind in TaskKind]}, "
                              f"got {json.dumps(manifest['task'])}") from None
    for key in ("n_models", "n_classes"):
        size = manifest[key]
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise DataFormatError(
                f"{manifest_path}: '{key}' must be a JSON integer >= 1, got {json.dumps(size)}"
            )
    name = manifest["name"]
    if not isinstance(name, str) or not name:
        raise DataFormatError(
            f"{manifest_path}: 'name' must be a non-empty JSON string, got {json.dumps(name)}"
        )
    for split_name in SPLIT_NAMES:
        for kind in ("predictions", "labels"):
            csv_path = os.path.join(path, f"{split_name}_{kind}.csv")
            if not os.path.isfile(csv_path):
                raise FileNotFoundError(f"missing dataset file: {csv_path}")
    return name, task, manifest["n_models"], manifest["n_classes"]


def load_metadataset(path: str) -> MetaDataset:
    """Load a dataset directory written by save_metadataset, val first."""
    name, task, n_models, n_classes = _read_manifest(path)
    val = _read_split(path, "val", n_models, n_classes)
    MetaDataset(name=name, task=task, val=val, test=None)  # val's errors come before test's
    test = _read_split(path, "test", n_models, n_classes)
    return MetaDataset(name=name, task=task, val=val, test=test)


def load_split(path: str, split_name: str) -> MetaDataset:
    """The dataset directory ``path`` with only its ``split_name`` split
    loaded, the other None, and checked as load_metadataset checks it."""
    if split_name not in SPLIT_NAMES:
        raise ConfigError(f"split must be one of {list(SPLIT_NAMES)}, got {split_name!r}")
    name, task, n_models, n_classes = _read_manifest(path)
    splits = dict.fromkeys(SPLIT_NAMES)
    splits[split_name] = _read_split(path, split_name, n_models, n_classes)
    return MetaDataset(name=name, task=task, **splits)


def _read_split(path: str, split_name: str, n_models: int, n_classes: int) -> Split:
    """One split of the dataset directory ``path``: from its cache on a
    hit, else parsed from its CSV files."""
    return (_cached_split(os.path.join(path, split_name), n_models, n_classes)
            or _parse_split(path, split_name, n_models, n_classes))


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
        raise DataFormatError(f"{label_path}: {labels.shape[0]} labels for "
                              f"{preds.shape[0]} prediction rows")
    return _OwnedSplit(predictions=preds, labels=labels)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic generators, checked on construction.

    ``kind`` selects the generator: 'experts' (classification with
    region-wise reliable models), 'preferred' (regression with one
    informative model among noise) or 'poly' (regression with
    bootstrapped polynomial fits). Every field is checked for every kind,
    used only by their kind. ``n_instances`` is the size of each split.
    """

    kind: str
    n_instances: int = 2000
    n_models: int = 5
    n_classes: int = 3
    rho_p: float = 0.9
    degree: int = 10
    noise_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise ConfigError(
                f"unknown synthetic kind '{self.kind}', expected one of {sorted(GENERATORS)}"
            )
        # n_classes: experts never labels class 0, so C = 2 would label every instance 1.
        for name, least in (("n_instances", 2), ("n_models", 2), ("n_classes", 3), ("degree", 1),
                            ("seed", 0)):
            check_integer(name, getattr(self, name), least)
        if not _is_real(self.rho_p) or not 0.0 <= self.rho_p <= 1.0:
            raise ConfigError(f"rho_p must lie in [0, 1], got {self.rho_p!r}")
        if not _is_real(self.noise_scale) or not 0.0 <= self.noise_scale < np.inf:
            raise ConfigError(f"noise_scale must be a finite number >= 0, got {self.noise_scale!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(name: str, value, least: int) -> None:
    """The count rule of every size, step, model-count, model-index and
    seed argument in the package: raise ConfigError naming ``name`` unless
    ``value`` is an integer, numpy's included, not a bool, and at least
    ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")


def generate(spec: SyntheticSpec) -> MetaDataset:
    """The dataset of the generator named by spec.kind, with both splits
    drawn, val first, from one stream seeded by spec.seed."""
    name, task, one_split = _generator(spec)
    return MetaDataset(name=name, task=task, val=one_split(), test=one_split())


# A generator returns the dataset's name, its task and a function that
# draws one split of n instances.
_Generator = Tuple[str, TaskKind, Callable[[int], Split]]


def _generator(spec: SyntheticSpec) -> Tuple[str, TaskKind, Callable[[], Split]]:
    """The name, the task and a function that draws the next split of
    spec.n_instances, of spec.kind's generator on a stream seeded by
    spec.seed. Overflow and invalid values are left to validation, which
    names the first entry that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        name, task, one_split = GENERATORS[spec.kind](spec, np.random.default_rng(spec.seed))

    def draw() -> Split:
        with np.errstate(over="ignore", invalid="ignore"):
            return one_split(spec.n_instances)

    return name, task, draw


def _experts(spec: SyntheticSpec, rng: np.random.Generator) -> _Generator:
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
    m_models, n_classes = spec.n_models, spec.n_classes

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

    return f"experts-m{m_models}-c{n_classes}-seed{spec.seed}", TaskKind.CLASSIFICATION, one_split


def _preferred(spec: SyntheticSpec, rng: np.random.Generator) -> _Generator:
    """Regression data with one informative model among pure-noise models.

    Targets are standard normal. Model 0 predicts
    rho_p * y + sqrt(1 - rho_p^2) * eps; the others are independent
    noise. Targets and every model column are standardized to sample
    mean 0 and variance 1 per split, so for rho_p = 1 model 0 equals the
    target exactly.
    """
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

    # + 0.0: rho_p = -0.0 draws the data of 0, so it takes the name of 0.
    name = f"preferred-m{spec.n_models}-rho{spec.rho_p + 0.0:g}-seed{spec.seed}"
    return name, TaskKind.REGRESSION, one_split


# Ground truth for the polynomial generator: f(x) = 2x^3 - x, degree 3.
TRUE_POLY_COEFFS = np.array([0.0, -1.0, 0.0, 2.0])
_POOL_SIZE = 20


def _true_function(x: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(x, TRUE_POLY_COEFFS)


def _poly(spec: SyntheticSpec, rng: np.random.Generator) -> _Generator:
    """Regression data from overparameterized polynomial base models.

    A 20-point train pool is drawn from a cubic ground truth plus noise.
    Each base model is a degree-``spec.degree`` least-squares polynomial
    fit on its own bootstrap resample of that pool; split predictions are
    the fitted polynomials evaluated at fresh uniform x in [-1, 1]. High
    degrees overfit the pool and disagree wildly near the interval edges.
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
            fits.append(np.polynomial.Polynomial.fit(pool_x[idx], pool_y[idx], spec.degree))

    def one_split(n: int) -> Split:
        x = rng.uniform(-1.0, 1.0, n)
        y = _true_function(x) + spec.noise_scale * rng.standard_normal(n)
        preds = np.column_stack([poly(x) for poly in fits])
        return _OwnedSplit(predictions=preds[:, :, None], labels=y)

    return f"poly-d{spec.degree}-m{spec.n_models}-seed{spec.seed}", TaskKind.REGRESSION, one_split


# SyntheticSpec's kinds, in the order `synth --kind` lists them.
GENERATORS = {"experts": _experts, "preferred": _preferred, "poly": _poly}
