"""ensemblekit benchmark: three workloads, timed per op, traced per layer.

    python3 bench/run.py --workload narrow-ma --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload csv-pipeline --trace 1
    python3 bench/run.py --smoke

Run from anywhere; the program is taken from ``src/`` next to this
directory, and scratch files go to ``.bench_work/`` at the repository root.
See bench/README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import monotonic
from typing import Dict, List, Optional, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.json")

SETUP_REPEATS = 3
MIN_TIMED_OPS = 2
CHILD_TIMEOUT_S = 150.0
# Stop starting ops once the next one could end past this; the driver
# allows 180 s per run.
RUN_BUDGET_S = 165.0

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Left unset so the program's own default is what gets measured.
UNSET_ENV = ("ENSEMBLEKIT_THREADS",)
TIMING_KEYS = ("wall_time_seconds", "timings")


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# A child command is (kind, args): kind "cli" runs ``python -m ensemblekit``,
# "wide" and "gen-wide" run bench/child.py.
Command = Tuple[str, List[str]]


def _cli(*args) -> Command:
    return ("cli", [str(a) for a in args])


class Workload:
    name = ""
    why = ""
    methods: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def build(self, inputs: str) -> List[Command]:
        """Children that build the op's inputs under ``inputs``."""
        return []

    def op(self, inputs: str, out: str) -> List[Command]:
        """Children of one op, run in order in the fresh directory ``out``."""
        raise NotImplementedError

    def check(self, out: str) -> Tuple[list, List[dict]]:
        """Parse and check an op's outputs; return what must be identical
        across ops (records without timing fields, plus any report) and
        the records themselves."""
        records = read_records(os.path.join(out, "runs.jsonl"))
        if [r["method"] for r in records] != list(self.methods):
            raise CheckFailed(f"expected methods {list(self.methods)}, "
                              f"got {[r['method'] for r in records]}")
        return [strip_timings(r) for r in records], records


class NarrowMA(Workload):
    name = "narrow-ma"
    why = "M=20, C=1, B=256 ne-ma on two seeds: per-call overhead of the training step and the seed mapper"
    methods = ("ne-ma", "ne-ma")

    def size(self):
        return (200, 5, 50) if self.smoke else (2000, 20, 2000)

    def build(self, inputs):
        n, models, _ = self.size()
        return [_cli("synth", "--kind", "preferred", "--out", os.path.join(inputs, "data"),
                     "--n", n, "--models", models, "--rho", 0.9, "--seed", self.seed)]

    def op(self, inputs, out):
        _, _, steps = self.size()
        return [_cli("run", "ne-ma", "--data", os.path.join(inputs, "data"),
                     "--out", os.path.join(out, "runs.jsonl"), "--seeds", "0,1",
                     "--dropout-rate", 0.5, "--batch-size", 256, "--steps", steps)]

    def check(self, out):
        stable, records = super().check(out)
        if [r["seed"] for r in records] != [0, 1]:
            raise CheckFailed("records are not in seed order 0,1")
        return stable, records


class WideClasses(Workload):
    name = "wide-classes"
    why = "M=50, C=100 from in-memory arrays: memory-bound forward/backward, no CSV, no CLI, one seed"
    methods = ("ne-stacking", "ne-ma")

    def size(self):
        return (100, 5, 10, 5) if self.smoke else (2000, 50, 100, 30)

    def build(self, inputs):
        n, models, classes, _ = self.size()
        return [("gen-wide", [inputs, str(n), str(models), str(classes), str(self.seed)])]

    def op(self, inputs, out):
        steps = self.size()[3]
        return [("wide", [inputs, os.path.join(out, "runs.jsonl"), str(steps), "256"])]


class CsvPipeline(Workload):
    name = "csv-pipeline"
    why = "synth, greedy, ma, report as four CLI children: 36 MB of CSV written and read twice"
    methods = ("greedy", "ma")

    def size(self):
        return (300, 5, 5, 50) if self.smoke else (10000, 20, 20, 2000)

    def op(self, inputs, out):
        n, models, classes, steps = self.size()
        data = os.path.join(out, "data")
        runs = os.path.join(out, "runs.jsonl")
        return [
            _cli("synth", "--kind", "experts", "--out", data, "--n", n, "--models", models,
                 "--classes", classes, "--seed", self.seed),
            _cli("run", "greedy", "--data", data, "--out", runs, "--seeds", 0),
            _cli("run", "ma", "--data", data, "--out", runs, "--seeds", 0, "--steps", steps),
            _cli("report", "--records", runs, "--out", os.path.join(out, "summary.csv")),
        ]

    def check(self, out):
        stable, records = super().check(out)
        expected = {(r["dataset"], r["method"], metric)
                    for r in records for metric in r["normalized"]}
        path = os.path.join(out, "summary.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0].split(",")[:3] != ["dataset", "method", "metric"]:
            raise CheckFailed("report CSV has no dataset,method,metric header")
        rows = [tuple(line.split(",")[:3]) for line in lines[1:]]
        if len(rows) != len(set(rows)) or set(rows) != expected:
            raise CheckFailed(f"report CSV rows {sorted(rows)} are not one per "
                              f"(dataset, method, metric) {sorted(expected)}")
        return stable + lines, records


WORKLOADS = {w.name: w for w in (NarrowMA, WideClasses, CsvPipeline)}


def read_records(path: str) -> List[dict]:
    if not os.path.isfile(path):
        raise CheckFailed(f"no records file {os.path.basename(path)}")
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"record {line_no} does not parse: {exc}") from None
            missing = {"dataset", "method", "seed", "metrics", "normalized"} - set(record)
            if missing:
                raise CheckFailed(f"record {line_no} lacks keys {sorted(missing)}")
            nll = record["normalized"].get("nll") if isinstance(record["normalized"], dict) else None
            if not isinstance(nll, float) or not nll > 0.0:
                raise CheckFailed(f"record {line_no} has no positive normalized nll")
            records.append(record)
    return records


def strip_timings(value):
    """The record minus its timing fields, which may differ between runs."""
    if isinstance(value, dict):
        return {k: strip_timings(v) for k, v in value.items()
                if k not in TIMING_KEYS and not k.endswith("_seconds")}
    if isinstance(value, list):
        return [strip_timings(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    kind: str  # "build", "warmup", "timed", "traced" or "bad"
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    error: str = ""
    norm_nll: Optional[float] = None
    stable: Optional[list] = None
    spawns: List[float] = dataclasses.field(default_factory=list)
    traces: List[dict] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.error


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def _argv(command: Command, trace_file: Optional[str], op_id: int) -> List[str]:
    kind, args = command
    trace = ["--trace", trace_file, "--op", str(op_id)] if trace_file else []
    if kind == "cli" and not trace:
        return [sys.executable, "-m", "ensemblekit", *args]
    return [sys.executable, CHILD, *trace, kind, *args]


def run_children(commands: List[Command], cwd: str, op: Op, traced: bool, op_id: int) -> Op:
    """Run ``commands`` in order, one child at a time, and time them from
    the first spawn to the last exit; stop at the first failing child."""
    env = child_env()
    trace_files = []
    start = monotonic()
    for i, command in enumerate(commands):
        trace_file = os.path.join(cwd, f"trace{i}.json") if traced else None
        log_path = os.path.join(cwd, f"child{i}.log")
        with open(log_path, "w") as log:
            op.spawns.append(monotonic())
            proc = subprocess.Popen(_argv(command, trace_file, op_id), cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        op.cpu_s += usage.ru_utime + usage.ru_stime
        op.rss_mb = max(op.rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            with open(log_path) as fh:
                tail = fh.read().strip().splitlines()[-1:] or [""]
            op.error = f"{command[0]} {command[1][0]} exited {proc.returncode}: {tail[0]}"
            break
        if trace_file:
            trace_files.append(trace_file)
    op.wall_s = monotonic() - start
    for path in trace_files:
        with open(path) as fh:
            op.traces.append(json.load(fh))
    return op


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, work_dir: str, reference: Optional[float],
                 rtol: float):
        self.workload = workload
        self.work_dir = work_dir
        self.reference = reference
        self.rtol = rtol
        self.ops: List[Op] = []
        self.expected: Optional[list] = None
        self.expected_from = "the first op's"

    def _fresh(self, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def build(self, index: int) -> Tuple[str, Optional[Op]]:
        inputs = self._fresh(f"inputs{index}")
        op = run_children(self.workload.build(inputs), inputs, Op("build"), False, 0)
        return inputs, None if op.ok else op

    def op(self, kind: str, inputs: str) -> Op:
        op_id = len(self.ops)
        out = self._fresh(f"op{op_id}")
        op = run_children(self.workload.op(inputs, out), out, Op(kind), kind == "traced", op_id)
        if op.ok:
            try:
                op.stable, records = self.workload.check(out)
                op.norm_nll = statistics.fmean(r["normalized"]["nll"] for r in records)
                self._check_identical(op)
                self._check_reference(op)
            except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
                op.error = f"check failed: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(op)
        return op

    def _check_identical(self, op: Op) -> None:
        """Non-timing outputs are identical across every op of the run and
        every earlier run of the same code, seed and workload."""
        if self.expected is None:
            self.expected = op.stable
        if op.stable != self.expected:
            raise CheckFailed(f"outputs differ from {self.expected_from} (determinism)")

    def _check_reference(self, op: Op) -> None:
        want = self.reference
        if want is not None and abs(op.norm_nll - want) > self.rtol * abs(want):
            raise CheckFailed(f"norm_nll {op.norm_nll!r} differs from reference {want!r}")


def src_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _fingerprint_path(workload: Workload, digest: str) -> str:
    scale = "smoke" if workload.smoke else "full"
    return os.path.join(WORK, "fingerprints",
                        f"{workload.name}-{scale}-seed{workload.seed}-{digest[:16]}.json")


def run_workload(workload: Workload, seconds: float, trace: bool,
                 inject_bad: bool = False) -> Tuple[Dict[str, Tuple[float, str]], List[Op], dict]:
    """Set up, warm up, then run ops for ``seconds``; returns the metrics
    (name -> (value, unit)), every op run, and run notes."""
    with open(REFERENCE) as fh:
        references = json.load(fh)
    reference = None if workload.smoke else (
        references["norm_nll"].get(workload.name, {}).get(str(workload.seed)))
    digest = src_digest()
    run_start = monotonic()
    work_dir = os.path.join(WORK, f"{workload.name}-{workload.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(workload, work_dir, reference, references["rtol"])
    fingerprint = _fingerprint_path(workload, digest)
    if os.path.isfile(fingerprint):
        with open(fingerprint) as fh:
            runner.expected = json.load(fh)
        runner.expected_from = "an earlier run's of the same code and seed"
    setup_times = []
    inputs = None
    try:
        for k in range(1 if trace else SETUP_REPEATS):
            start = monotonic()
            inputs, failed_build = runner.build(k)
            if failed_build is not None:
                runner.ops.append(failed_build)
                inputs = None
                break
            runner.op("warmup", inputs)
            setup_times.append(monotonic() - start)
        if inputs and inject_bad:
            runner.op("bad", corrupt_inputs(inputs))
        deadline = monotonic() + seconds
        timed = 0
        while inputs:
            kind = "traced" if trace and timed % 2 else "timed"
            last = runner.op(kind, inputs)
            timed += 1
            now = monotonic()
            if now - run_start + last.wall_s > RUN_BUDGET_S:
                break
            # Start another op only if its midpoint would fall in the window.
            if now + last.wall_s / 2 >= deadline and timed >= MIN_TIMED_OPS:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ops = runner.ops
    if runner.expected is not None and all(op.ok for op in ops) and not os.path.isfile(fingerprint):
        os.makedirs(os.path.dirname(fingerprint), exist_ok=True)
        with open(fingerprint, "w") as fh:
            json.dump(runner.expected, fh)
    notes = {"setup_runs": len(setup_times), "src_sha256": digest}
    if trace:
        metrics, notes["absent"] = layer_metrics(ops)
    else:
        metrics = end_to_end_metrics(ops, setup_times)
    return metrics, ops, notes


def corrupt_inputs(inputs: str) -> str:
    """A copy of narrow-ma's inputs with one CSV cell that is not a number."""
    bad = inputs + "-bad"
    shutil.copytree(inputs, bad)
    path = os.path.join(bad, "data", "val_predictions.csv")
    with open(path) as fh:
        lines = fh.read().split("\n")
    cells = lines[1].split(",")
    cells[0] = "not-a-number"
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return bad


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end_metrics(ops: List[Op], setup_times: List[float]) -> Dict[str, Tuple[float, str]]:
    timed = [op for op in ops if op.kind == "timed"]
    good = [op for op in timed if op.ok] or timed
    nll = [op.norm_nll for op in ops if op.ok] or [op.norm_nll for op in ops if op.norm_nll]
    return {
        "setup_s": (_median(setup_times), "s"),
        "op_s": (_median(op.wall_s for op in good), "s"),
        "op_cpu_s": (_median(op.cpu_s for op in good), "s"),
        "peak_rss_mb": (_median(op.rss_mb for op in good), "MB"),
        "norm_nll": (_median(nll), "ratio"),
    }


# Spans reported as {calls, s, share}; cli.map_seeds has its own metrics.
SPANS = (
    "data.load", "data.save", "data.validate", "data.generate",
    "neural.train", "neural.predict", "neural.sample_mask",
    "nn.forward", "nn.backward", "nn.adam_step_arrays",
    "baselines.fit_constant_ma", "baselines.greedy_select", "baselines.single_best",
    "metrics.report",
)
LAYERS = ("cli", "data", "neural", "nn", "baselines", "metrics", "bench")


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def op_layers(op: Op) -> Dict[str, float]:
    """Per-layer values of one traced op."""
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    work: Dict[str, Dict[str, float]] = {}
    covered = import_s = 0.0
    map_capacity = 0.0
    for spawn, payload in zip(op.spawns, op.traces):
        spans = payload["spans"]
        if not spans:
            continue
        import_s += min(s[3] for s in spans) - spawn
        children: Dict[int, list] = {}
        for sid, parent, name, start, end, tid, extra in spans:
            children.setdefault(parent, []).append((start, end))
        covered += _union(children.get(0, []))
        workers: Dict[int, set] = {}
        for sid, parent, name, start, end, tid, extra in spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            inner = [(max(a, start), min(b, end)) for a, b in children.get(sid, [])]
            self_time[name] = self_time.get(name, 0.0) + dur - _union(inner)
            for key, value in (extra or {}).items():
                bucket = work.setdefault(name, {})
                bucket[key] = bucket.get(key, 0.0) + value
            if name == "cli.map_seeds.work":
                workers.setdefault(parent, set()).add(tid)
        for sid, parent, name, start, end, tid, extra in spans:
            if name == "cli.map_seeds":
                map_capacity += (end - start) * max(1, len(workers.get(sid, ())))
    wall = op.wall_s

    def per(name: str, key: str) -> float:
        return work.get(name, {}).get(key, 0.0)

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    # Shares divide by span time summed over threads plus the time no span
    # covers: the op's wall time when one thread runs, more when several do.
    thread_s = sum(self_time.values()) + wall - covered
    values: Dict[str, float] = {}
    for name in SPANS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.s"] = total.get(name, 0.0)
        values[f"{name}.share"] = total.get(name, 0.0) / thread_s
    for name in ("nn.forward", "nn.backward", "nn.adam_step_arrays", "neural.sample_mask"):
        values[f"{name}.us_per_call"] = 1e6 * rate(total.get(name, 0.0), calls.get(name, 0))
    flops = per("nn.forward", "flops") + per("nn.backward", "flops")
    nn_s = total.get("nn.forward", 0.0) + total.get("nn.backward", 0.0)
    values["nn.flops_computed"] = flops
    values["nn.bytes_computed"] = per("nn.forward", "bytes") + per("nn.backward", "bytes")
    values["nn.gflops_per_s_computed"] = rate(flops, nn_s) / 1e9
    values["neural.train.self_s"] = self_time.get("neural.train", 0.0)
    values["neural.train.steps"] = per("neural.train", "steps")
    values["neural.train.rows_per_s"] = rate(per("neural.train", "rows"),
                                             total.get("neural.train", 0.0))
    values["neural.predict.rows_per_s"] = rate(per("neural.predict", "rows"),
                                               total.get("neural.predict", 0.0))
    values["cli.map_seeds.wall_s"] = total.get("cli.map_seeds", 0.0)
    values["cli.map_seeds.work_s"] = per("cli.map_seeds.work", "cpu_s")
    values["cli.map_seeds.parallel_eff"] = rate(per("cli.map_seeds.work", "cpu_s"), map_capacity)
    values["data.load.mb_per_s"] = rate(per("data.load", "bytes") / 1e6, total.get("data.load", 0.0))
    values["data.save.mb_per_s"] = rate(per("data.save", "bytes") / 1e6, total.get("data.save", 0.0))
    values["baselines.fit_constant_ma.us_per_step"] = 1e6 * rate(
        total.get("baselines.fit_constant_ma", 0.0), per("baselines.fit_constant_ma", "steps"))
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_time.items() if k.split(".")[0] == layer)
        values[f"{layer}.self_s"] = layer_self
        values[f"{layer}.self_share"] = layer_self / thread_s
    values["proc.import_s"] = import_s
    values["proc.children"] = len(op.spawns)
    values["trace.op_s"] = wall
    values["trace.thread_s"] = thread_s
    values["trace.unattributed_frac"] = (wall - covered) / wall
    values["trace.spans"] = sum(calls.values())
    return values


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix in ("calls", "steps", "children", "spans", "absent_boundaries"):
        return "count"
    if suffix in ("s", "self_s", "wall_s", "work_s", "import_s", "op_s", "thread_s"):
        return "s"
    if suffix in ("us_per_call", "us_per_step"):
        return "us"
    return {"rows_per_s": "rows/s", "mb_per_s": "MB/s", "flops_computed": "flop",
            "bytes_computed": "B", "gflops_per_s_computed": "GFLOP/s"}.get(suffix, "ratio")


def layer_metrics(ops: List[Op]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    traced = [op for op in ops if op.kind == "traced" and op.ok and op.traces]
    untraced = [op for op in ops if op.kind == "timed" and op.ok]
    per_op = [op_layers(op) for op in traced]
    names = per_op[0] if per_op else op_layers(Op("traced", wall_s=1.0))
    metrics = {name: (_median(values[name] for values in per_op), layer_unit(name))
               for name in names}
    base = _median(op.wall_s for op in untraced)
    overhead = _median(op.wall_s for op in traced) / base - 1.0 if base and traced else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    absent = sorted({name for op in traced for t in op.traces for name in t["absent"]})
    metrics["trace.absent_boundaries"] = (len(absent), "count")
    return metrics, absent


# ---------------------------------------------------------------------------
# Host block and output
# ---------------------------------------------------------------------------


def host_block(seed: int, digest: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        commit = result.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "pinned_env": PINNED_ENV,
        "unset_env": {name: os.environ.get(name, "unset") for name in UNSET_ENV},
        "git_commit": commit,
        "src_sha256": digest,
        "seed": seed,
    }


def report(workload: Workload, metrics, ops: List[Op], notes: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    timed = sum(op.kind == "timed" for op in ops)
    print("host " + json.dumps(host_block(workload.seed, notes["src_sha256"]), sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<44} {failed / max(attempted, 1):>14.6g} ratio "
          f"({failed} of {attempted} ops; timings are medians of {timed} ops, "
          f"setup_s of {notes['setup_runs']} set-ups)")
    walls = " ".join(f"{op.kind}:{op.wall_s:.3f}" for op in ops)
    print(f"  op wall times (s): {walls}")
    for op in ops:
        if not op.ok:
            print(f"  failed {op.kind} op: {op.error}")
    for name in notes.get("absent", []):
        print(f"  absent boundary: {name}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "ensemblekit", "__init__.py")):
        print(f"error: no ensemblekit package under {SRC}", file=sys.stderr)
        sys.exit(2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def smoke() -> int:
    """Tiny version of each workload, traced and untraced, plus one
    injected bad op; checks that every metric prints with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            workload = cls(seed=0, smoke=True)
            result = report(workload, *run_workload(workload, 0.5, trace))
            _require(result["correct"], f"{name} trace={trace} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _require(got == wanted[trace], f"{name} trace={trace}: metrics or units "
                     f"differ from BENCHMARK.json")
    workload = NarrowMA(seed=0, smoke=True)
    metrics, ops, notes = run_workload(workload, 0.5, False, inject_bad=True)
    result = report(workload, metrics, ops, notes)
    bad = [op for op in ops if op.kind == "bad"]
    _require(result["failed"] == 1 and not result["correct"], "injected bad op was not counted")
    _require(" exited 2:" in bad[0].error, f"bad op should exit 2, got {bad[0].error!r}")
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="data seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    args = parser.parse_args(argv)
    require_program()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload](seed=args.seed, smoke=False)
    metrics, ops, notes = run_workload(workload, args.seconds, bool(args.trace))
    result = report(workload, metrics, ops, notes)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
