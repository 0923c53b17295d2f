"""One child process of the benchmark.

Usage (run.py builds these command lines; they are listed for debugging):

    python3 bench/child.py gen-wide OUT_DIR N MODELS CLASSES SEED
    python3 bench/child.py [--trace FILE --op ID] wide IN_DIR RECORDS STEPS BATCH
    python3 bench/child.py --trace FILE --op ID cli ENSEMBLEKIT_ARGS...

``gen-wide`` builds the wide-classes inputs in memory and hands them over as
``.npy`` arrays. ``wide`` is the library driver of the wide-classes op.
``cli`` runs ``ensemblekit.cli.main`` in place of ``python -m ensemblekit``.

With ``--trace`` the layer functions are wrapped under the names their
callers look up (``ensemblekit.nn.forward`` as ``neural`` calls it,
``ensemblekit.cli.load_metadataset`` as ``cli`` imported it, ...). Every call
becomes a span (id, parent, name, start, end, thread, work) kept in memory and
written to FILE as JSON when the child exits. Times are ``time.monotonic()``,
which on Linux is the system-wide CLOCK_MONOTONIC, so the parent can compare
them with the spawn times it took. A boundary missing from the program is
listed under ``absent`` and is not an error.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
from time import monotonic, thread_time

import numpy as np

WIDE_ARRAYS = ("val_predictions", "val_labels", "test_predictions", "test_labels")
WIDE_DROPOUT_RATE = 0.5


class Tracer:
    """In-memory span recorder; one per traced child."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, work=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; ``work(args, kwargs)``
        returns the span's work dict, computed outside the timed interval."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        returned = False
        start = monotonic()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = monotonic()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, threading.get_ident(),
                               self._work(name, work, args, kwargs) if returned else None))

    def _work(self, name, work, args, kwargs):
        """The span's work dict; a signature the work function no longer
        understands makes the work absent, not the op failed."""
        if work is None:
            return None
        try:
            return work(args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
            if f"{name} work" not in self.absent:
                self.absent.append(f"{name} work")
            return None

    def wrap(self, owner, attr, name, work=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        setattr(owner, attr, traced)

    def wrap_map_seeds(self, cli):
        """cli._map_seeds runs workers on a thread pool: each worker call is a
        ``cli.map_seeds.work`` span whose parent is the mapping span and
        whose work is the worker thread's CPU time."""
        fn = getattr(cli, "_map_seeds", None)
        if fn is None:
            self.absent.append("ensemblekit.cli._map_seeds")
            return

        def traced(worker, seeds, *rest, **kwargs):
            def outer():
                parent = self._stack()[-1]

                def timed_worker(*a, **k):
                    # Thread CPU time, so waiting for the GIL is not work.
                    cpu = thread_time()
                    return self.call("cli.map_seeds.work", worker, a, k,
                                     lambda *_: {"cpu_s": thread_time() - cpu}, parent)

                return fn(timed_worker, seeds, *rest, **kwargs)

            return self.call("cli.map_seeds", outer, (), {})

        cli._map_seeds = traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"op": self.op_id, "absent": self.absent, "spans": self.spans}, fh)


def _dense_work(net, batch, backward):
    """Flops and bytes of one dense forward or backward pass, computed from
    the layer shapes (float64, each operand read or written once)."""
    flops = nbytes = 0
    dims = net.layer_dims
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        if backward:
            flops += 4 * batch * d_in * d_out + batch * d_out + batch * d_in
            nbytes += 8 * (2 * batch * d_out + 2 * batch * d_in + 2 * d_in * d_out + d_out)
        else:
            flops += 2 * batch * d_in * d_out + 2 * batch * d_out
            nbytes += 8 * (batch * d_in + d_in * d_out + d_out + batch * d_out)
    return flops, nbytes


def _forward_work(args, kwargs):
    x = args[1]
    flops, nbytes = _dense_work(args[0], x.shape[0] if x.ndim == 2 else 1, False)
    return {"flops": flops, "bytes": nbytes}


def _backward_work(args, kwargs):
    g = np.asarray(args[2])
    flops, nbytes = _dense_work(args[0], g.shape[0] if g.ndim == 2 else 1, True)
    return {"flops": flops, "bytes": nbytes}


def _train_work(args, kwargs):
    ds, config = args[0], args[1]
    rows = config.steps * min(config.batch_size, ds.val.predictions.shape[0])
    return {"steps": config.steps, "rows": rows}


def _predict_work(args, kwargs):
    return {"rows": int(np.shape(args[1])[0])}


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if os.path.isfile(os.path.join(path, name))
    )


def _bound_arg(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def install(tracer):
    """Wrap every traced boundary; see README.md for the layer map."""
    from ensemblekit import baselines, cli, data, metrics, neural, nn

    tracer.wrap(nn, "forward", "nn.forward", _forward_work)
    tracer.wrap(nn, "backward", "nn.backward", _backward_work)
    tracer.wrap(nn, "adam_step_arrays", "nn.adam_step_arrays")
    tracer.wrap(neural, "train", "neural.train", _train_work)
    tracer.wrap(neural, "predict", "neural.predict", _predict_work)
    tracer.wrap(neural, "sample_mask", "neural.sample_mask")
    tracer.wrap(cli, "load_metadataset", "data.load",
                lambda a, k: {"bytes": _dir_bytes(a[0])})
    tracer.wrap(cli, "save_metadataset", "data.save",
                lambda a, k: {"bytes": _dir_bytes(a[1])})
    tracer.wrap(cli, "generate", "data.generate")
    tracer.wrap(data.MetaDataset, "__post_init__", "data.validate")
    fit_ma = getattr(baselines, "fit_constant_ma", None)
    tracer.wrap(baselines, "fit_constant_ma", "baselines.fit_constant_ma",
                lambda a, k: {"steps": _bound_arg(fit_ma, "steps", a, k)})
    tracer.wrap(baselines, "greedy_select", "baselines.greedy_select")
    tracer.wrap(baselines, "single_best", "baselines.single_best")
    tracer.wrap(metrics, "classification_report", "metrics.report")
    tracer.wrap(metrics, "regression_report", "metrics.report")
    tracer.wrap_map_seeds(cli)


def gen_wide(out_dir, n, models, classes, seed):
    from ensemblekit import data

    ds = data.generate(data.SyntheticSpec(
        kind="experts", n_instances=n, n_models=models, n_classes=classes, seed=seed))
    os.makedirs(out_dir, exist_ok=True)
    for split in ("val", "test"):
        np.save(os.path.join(out_dir, f"{split}_predictions.npy"), getattr(ds, split).predictions)
        np.save(os.path.join(out_dir, f"{split}_labels.npy"), getattr(ds, split).labels)
    with open(os.path.join(out_dir, "name.json"), "w") as fh:
        json.dump({"name": ds.name}, fh)
    return 0


def run_wide(in_dir, records_path, steps, batch):
    """The wide-classes op: fit and score both combiner modes from arrays."""
    from ensemblekit import baselines, data, metrics, neural

    arrays = {key: np.load(os.path.join(in_dir, key + ".npy")) for key in WIDE_ARRAYS}
    with open(os.path.join(in_dir, "name.json")) as fh:
        name = json.load(fh)["name"]
    ds = data.MetaDataset(
        name=name,
        task=data.TaskKind.CLASSIFICATION,
        val=data.Split(arrays["val_predictions"], arrays["val_labels"]),
        test=data.Split(arrays["test_predictions"], arrays["test_labels"]),
    )
    del arrays
    best = baselines.single_best(ds.val.predictions, ds.val.labels, ds.task)
    reference = metrics.classification_report(ds.test.predictions[:, best, :], ds.test.labels)
    records = []
    for mode in (neural.MODE_STACKING, neural.MODE_MA):
        config = neural.NEConfig(mode=mode, dropout_rate=WIDE_DROPOUT_RATE, steps=steps,
                                 batch_size=batch, seed=0)
        params, _ = neural.train(ds, config)
        report = metrics.classification_report(
            neural.predict(params, ds.test.predictions), ds.test.labels)
        records.append({
            "dataset": name,
            "method": "ne-" + mode,
            "mode": mode,
            "seed": 0,
            "metrics": report.as_dict(),
            "normalized": metrics.normalize_report(report, reference).as_dict(),
            "config": {"dropout_rate": WIDE_DROPOUT_RATE, "steps": steps, "batch_size": batch},
        })
    with open(records_path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def main(argv):
    tracer = None
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, op_id, argv = argv[1], int(argv[3]), argv[4:]
        tracer = Tracer(op_id)
        install(tracer)
    command, rest = argv[0], argv[1:]
    if command == "gen-wide":
        out_dir, n, models, classes, seed = rest
        return gen_wide(out_dir, int(n), int(models), int(classes), int(seed))
    if command == "wide":
        in_dir, records, steps, batch = rest
        job = functools.partial(run_wide, in_dir, records, int(steps), int(batch))
        root = "bench.wide"
    elif command == "cli":
        from ensemblekit import cli

        job = functools.partial(cli.main, rest)
        root = "cli.main"
    else:
        print(f"unknown child command {command!r}", file=sys.stderr)
        return 2
    if tracer is None:
        return job()
    try:
        return tracer.call(root, job, (), {})
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
