"""End-to-end tests for the command line interface: dataset synthesis,
validation, run records, dropout sweeps (one `run` over a list of
dropout rates) and their report rows, report aggregation, exit codes,
output locking, the forked task mapper, records across BLAS thread
counts, edge-case datasets, and the commands shown in README."""

import csv
import dataclasses
import fcntl
import json
import os
import re
import resource
import shlex
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import ensemblekit
from ensemblekit import baselines, cli, metrics, neural
from ensemblekit.cli import main
from ensemblekit.errors import (ConfigError, DataValidationError, EnsembleKitError,
                                WorkerDiedError)
from ensemblekit.data import (
    MetaDataset, Split, SyntheticSpec, TaskKind, generate, load_metadataset, save_metadataset,
)
from peakmem import child_peak_rss_mb, traced_peak

RECORD_KEYS = {
    "dataset", "method", "mode", "seed", "metrics",
    "normalized", "wall_time_seconds", "config",
}

FAST_NE = [
    "--steps", "60", "--batch-size", "64",
    "--layers", "2", "--hidden-dim", "4",
]


def _synth(tmp_path, name="ds", **over):
    flags = {"kind": "experts", "n": "200", "models": "2",
             "classes": "3", "seed": "0"}
    flags.update({k: str(v) for k, v in over.items()})
    out = str(tmp_path / name)
    argv = ["synth", "--out", out]
    for key, value in flags.items():
        argv += [f"--{key}", value]
    assert main(argv) == 0
    return out


def _overflowing_regression(tmp_path):
    """A valid regression dataset whose first test row predicts a finite
    1e200 for every model, so the test MSE overflows to infinity."""
    ds = generate(SyntheticSpec(kind="poly", n_instances=100, n_models=3,
                                degree=3, seed=0))
    test_predictions = ds.test.predictions.copy()
    test_predictions[0] = 1e200
    ds = MetaDataset(name=ds.name, task=ds.task, val=ds.val,
                     test=Split(test_predictions, ds.test.labels))
    out = str(tmp_path / "overflow")
    save_metadataset(ds, out)
    return out


def _scaled_regression(tmp_path, scale=1e155):
    """A valid poly dataset with predictions and targets multiplied by
    ``scale``, so every squared error overflows float64."""
    ds = generate(SyntheticSpec(kind="poly", n_instances=100, n_models=3,
                                degree=3, seed=0))
    splits = [Split(s.predictions * scale, s.labels * scale) for s in (ds.val, ds.test)]
    out = str(tmp_path / "scaled")
    save_metadataset(MetaDataset(name=ds.name, task=ds.task, val=splits[0], test=splits[1]), out)
    return out


def _read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _untimed_records(path):
    records = _read_records(path)
    for record in records:
        record.pop("wall_time_seconds")
    return records


def _child_env(**extra):
    """Environment for a child interpreter that imports the same package
    as this test."""
    src = os.path.dirname(os.path.dirname(ensemblekit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _count_children(monkeypatch):
    """Spy on os.fork and os.waitpid: the returned dict holds the children
    forked and not yet reaped, now and at most."""
    alive = {"now": 0, "most": 0}
    fork, waitpid = os.fork, os.waitpid

    def counted_fork():
        pid = fork()
        if pid:
            alive["now"] += 1
            alive["most"] = max(alive["most"], alive["now"])
        return pid

    def counted_waitpid(pid, options):
        assert pid > 0, "fork_map reaps only the children it forked"
        alive["now"] -= 1
        return waitpid(pid, options)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    return alive


def _no_children():
    """True when this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_commands(path):
    """The argument lists of the `ensemblekit ...` lines in the ```sh
    blocks of a markdown file, with backslash continuations joined."""
    commands, in_block, line = [], False, ""
    with open(path) as fh:
        for raw in fh:
            if raw.startswith("```"):
                in_block, line = raw.strip() == "```sh", ""
                continue
            if not in_block:
                continue
            line += raw.strip()
            if line.endswith("\\"):
                line = line[:-1] + " "
                continue
            if line.startswith("ensemblekit "):
                commands.append(shlex.split(line)[1:])
            line = ""
    return commands


def _split_io(monkeypatch, forked):
    """Write splits and fit tasks in forked workers (two usable CPUs and no
    size floor), or one after another in this process (one usable CPU)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if forked else {0})
    monkeypatch.setattr(ensemblekit.data, "_FORK_MIN_VALUES", 0)


def _assert_only_error_line(err, fragment):
    """stderr holds the CLI's one error line and nothing else, such as a
    numpy warning."""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error:") and fragment in lines[0]


class TestSynthAndValidate:
    def test_synth_writes_loadable_directory(self, tmp_path, capsys):
        data = _synth(tmp_path)
        assert os.path.isfile(os.path.join(data, "manifest.json"))
        assert main(["validate", "--data", data]) == 0
        out = capsys.readouterr().out
        assert "task=classification" in out
        assert "models=2" in out

    def test_all_generator_kinds(self, tmp_path):
        _synth(tmp_path, "a", kind="experts")
        _synth(tmp_path, "b", kind="preferred", rho="0.8", models="4")
        _synth(tmp_path, "c", kind="poly", degree="3", noise="0.0", models="3")

    def test_validate_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--data", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_test", [False, True], ids=["val", "val-and-test"])
    def test_validate_tampered_dataset_exits_2(self, tmp_path, capsys, bad_test):
        """A val split that fails validation is reported, as `run` reports
        it, even when the test split would not parse; load_metadataset
        raises the same error."""
        data = _synth(tmp_path)
        for split in ("val", "test") if bad_test else ("val",):
            path = os.path.join(data, f"{split}_predictions.csv")
            with open(path) as fh:
                lines = fh.readlines()
            lines[1] = ("2.5," if split == "val" else "abc,") + lines[1].split(",", 1)[1]
            with open(path, "w") as fh:
                fh.writelines(lines)
        capsys.readouterr()
        assert main(["validate", "--data", data]) == 2
        err = capsys.readouterr().err
        _assert_only_error_line(err, "val split: predictions must be probabilities in [0, 1]")
        with pytest.raises(DataValidationError) as raised:
            load_metadataset(data)
        assert err == f"error: {raised.value}\n"

    @pytest.mark.parametrize("edit, fragment", [
        (lambda m: 5, "the manifest must be a JSON object, got 5"),
        (lambda m: [1, 2], "the manifest must be a JSON object, got [1, 2]"),
        (lambda m: dict(m, name=None), "'name' must be a non-empty JSON string, got null"),
        (lambda m: dict(m, task=None),
         "'task' must be one of ['classification', 'regression'], got null"),
        (lambda m: dict(m, task={}),
         "'task' must be one of ['classification', 'regression'], got {}"),
        (lambda m: {k: v for k, v in m.items() if k != "splits"}, "'splits' is missing"),
    ], ids=["number", "array", "null-name", "null-task", "object-task", "missing-key"])
    def test_validate_malformed_manifest_exits_2(self, tmp_path, capsys, edit, fragment):
        data = _synth(tmp_path)
        path = os.path.join(data, "manifest.json")
        with open(path) as fh:
            manifest = json.dumps(edit(json.load(fh)))
        with open(path, "w") as fh:
            fh.write(manifest)
        capsys.readouterr()
        assert main(["validate", "--data", data]) == 2
        _assert_only_error_line(capsys.readouterr().err, f"{path}: {fragment}")

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        assert main(["synth", "--kind", "experts", "--out", out, "--seed", "-1"]) == 2
        _assert_only_error_line(capsys.readouterr().err,
                                "seed must be a non-negative integer, got -1")
        assert not os.path.exists(out)

    def test_unknown_kind_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--kind", "mystery", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    @pytest.mark.parametrize("kind, flag, value, fragment", [
        ("experts", "--rho", "7", "rho_p must lie in [0, 1], got 7.0"),
        ("experts", "--degree", "0", "degree must be at least 1, got 0"),
        ("experts", "--noise", "nan", "noise_scale must be a finite number >= 0, got nan"),
        ("preferred", "--classes", "2", "n_classes must be at least 3, got 2"),
        ("preferred", "--noise", "inf", "noise_scale must be a finite number >= 0, got inf"),
        ("poly", "--rho", "-0.5", "rho_p must lie in [0, 1], got -0.5"),
        ("poly", "--noise", "nan", "noise_scale must be a finite number >= 0, got nan"),
        ("poly", "--noise", "inf", "noise_scale must be a finite number >= 0, got inf"),
    ])
    def test_every_flag_is_checked_for_every_kind_before_writing(
            self, tmp_path, capsys, kind, flag, value, fragment):
        """A bad flag exits 2 naming its field, also for a kind that
        ignores the flag, and nothing is written."""
        out = str(tmp_path / "ds")
        assert main(["synth", "--kind", kind, "--out", out, "--n", "10", flag, value]) == 2
        _assert_only_error_line(capsys.readouterr().err, fragment)
        assert not os.path.exists(out)


class TestRun:
    def test_single_best_normalizes_to_one(self, tmp_path):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        assert main(["run", "single-best", "--data", data, "--out", out,
                     "--seeds", "0"]) == 0
        records = _read_records(out)
        assert len(records) == 1
        record = records[0]
        assert set(record) == RECORD_KEYS
        assert record["normalized"]["nll"] == pytest.approx(1.0)
        assert record["method"] == "single-best"
        assert record["mode"] == ""
        assert record["config"] == {"index": record["config"]["index"]}

    def test_every_method_appends_a_record(self, tmp_path):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        methods = ["single-best", "random", "top-n", "quick", "greedy",
                   "akaike", "ma", "ne-stack", "ne-ma"]
        for method in methods:
            argv = ["run", method, "--data", data, "--out", out,
                    "--seeds", "0", "--n", "2"] + FAST_NE
            assert main(argv) == 0, method
        records = _read_records(out)
        assert [r["method"] for r in records] == methods
        for record in records:
            assert set(record) == RECORD_KEYS
            assert np.isfinite(record["metrics"]["nll"])

    def test_static_records_score_the_library_weights(self, tmp_path):
        """Each static baseline's record holds the test metrics of
        predict_static under the weights the library fits."""
        data = _synth(tmp_path, models="4")
        ds = load_metadataset(data)
        val_p, val_y, task = ds.val.predictions, ds.val.labels, ds.task
        weights = {
            "single-best": np.eye(4)[baselines.single_best(val_p, val_y, task)],
            "random": baselines.random_n(4, n=2, seed=0).weights(),
            "top-n": baselines.top_n(val_p, val_y, task, n=2).weights(),
            "quick": baselines.quick_select(val_p, val_y, task, n=2).weights(),
            "greedy": baselines.greedy_select(val_p, val_y, task, n_slots=2).weights(),
            "akaike": baselines.akaike_weights(baselines.model_losses(val_p, val_y, task)),
            "ma": baselines.fit_constant_ma(val_p, val_y, task, steps=60, learning_rate=1e-3),
        }
        out = str(tmp_path / "runs.jsonl")
        for method in weights:
            assert main(["run", method, "--data", data, "--out", out, "--seeds", "0",
                         "--n", "2", "--steps", "60", "--lr", "1e-3"]) == 0
        records = _read_records(out)
        assert [record["method"] for record in records] == list(weights)
        for record, w in zip(records, weights.values()):
            expected = metrics.classification_report(
                baselines.predict_static(w, ds.test.predictions), ds.test.labels)
            assert record["metrics"] == expected.as_dict(), record["method"]

    @pytest.mark.parametrize("method, lr, seeds", [
        ("ma", "0", "0"), ("ma", "nan", "0"), ("ma", "inf", "0"), ("ne-ma", "nan", "0,1"),
    ])
    def test_bad_learning_rate_exits_2(self, tmp_path, capsys, method, lr, seeds):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        capsys.readouterr()
        assert main(["run", method, "--data", data, "--out", out, "--seeds", seeds,
                     "--lr", lr] + FAST_NE) == 2
        _assert_only_error_line(capsys.readouterr().err,
                                f"learning rate must be a finite number > 0, got {float(lr)!r}")
        assert not os.path.exists(out)

    def test_mode_flag_is_rejected(self, tmp_path):
        """The method names the mode: ne-stack or ne-ma."""
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        with pytest.raises(SystemExit) as err:
            main(["run", "ne-stack", "--data", data, "--out", out,
                  "--mode", "stacking", "--seeds", "0"] + FAST_NE)
        assert err.value.code == 2
        assert not os.path.exists(out)

    def test_records_append_across_invocations(self, tmp_path):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        main(["run", "single-best", "--data", data, "--out", out, "--seeds", "0"])
        main(["run", "akaike", "--data", data, "--out", out, "--seeds", "0,1"])
        records = _read_records(out)
        assert len(records) == 3
        assert [r["seed"] for r in records] == [0, 0, 1]

    def test_identical_seeds_reproduce_records_exactly(self, tmp_path):
        data = _synth(tmp_path)
        outs = [str(tmp_path / f"runs_{i}.jsonl") for i in range(2)]
        for out in outs:
            argv = ["run", "ne-ma", "--data", data, "--out", out,
                    "--seeds", "3,4", "--dropout-rate", "0.5"] + FAST_NE
            assert main(argv) == 0
        a, b = (_read_records(out) for out in outs)
        for ra, rb in zip(a, b):
            ra.pop("wall_time_seconds")
            rb.pop("wall_time_seconds")
            assert ra == rb

    def test_lines_are_sorted_key_json(self, tmp_path):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        main(["run", "single-best", "--data", data, "--out", out, "--seeds", "0"])
        with open(out) as fh:
            line = fh.readline().rstrip("\n")
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True)

    def test_numeric_blowup_exits_3(self, tmp_path, capsys):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        argv = ["run", "ne-ma", "--data", data, "--out", out, "--seeds", "0",
                "--lr", "1e200", "--dropout-rate", "0.0"] + FAST_NE
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_non_finite_metric_exits_3_before_appending(self, tmp_path, capsys):
        data = _overflowing_regression(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        assert main(["run", "greedy", "--data", data, "--out", out, "--seeds", "0"]) == 3
        _assert_only_error_line(capsys.readouterr().err, "not finite")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("method", ["single-best", "greedy", "ma", "ne-ma", "ne-stack"])
    def test_overflowing_squared_error_exits_3_without_warning(self, tmp_path, capsys, method):
        """Targets near 1e155: the loss is infinite from the single-best
        reference on, and numpy's overflow warning must not reach stderr."""
        data = _scaled_regression(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        assert main(["run", method, "--data", data, "--out", out, "--seeds", "0",
                     "--n", "2"] + FAST_NE) == 3
        _assert_only_error_line(capsys.readouterr().err, "finite")
        assert not os.path.exists(out)

    def test_locked_output_exits_2(self, tmp_path, capsys):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        lock = open(out + ".lock", "w")
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code = main(["run", "single-best", "--data", data,
                         "--out", out, "--seeds", "0"])
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)
            lock.close()
        assert code == 2
        assert "locked" in capsys.readouterr().err
        assert main(["run", "single-best", "--data", data,
                     "--out", out, "--seeds", "0"]) == 0

    def test_bad_seed_list_exits_2(self, tmp_path):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        assert main(["run", "single-best", "--data", data, "--out", out,
                     "--seeds", "0,zero"]) == 2

    @pytest.mark.parametrize("message, line", [
        ("", "error: out of memory"),
        ("Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type "
         "float64", "error: Unable to allocate 7.45 GiB for an array with shape"),
    ], ids=["python", "numpy"])
    @pytest.mark.parametrize("callee, argv", [
        ("save_synthetic", ["synth", "--kind", "experts", "--out", "ds"]),
        ("load_split", ["run", "greedy", "--data", "ds", "--out", "runs.jsonl"]),
    ], ids=["synth", "run"])
    def test_memory_error_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, message,
                                                line, callee, argv):
        """A callee raises MemoryError; no memory is asked for. Python's
        own carries no message, so the line says what happened."""
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, callee, out_of_memory)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        _assert_only_error_line(capsys.readouterr().err, line)
        assert os.listdir(tmp_path) == []


class TestOneSplitAtATime:
    """`run` fits on the validation split and reads the test split only
    after dropping it, `validate` counts each split and drops it before it
    reads the next, and `synth` draws each split where it writes it, so no
    process holds both prediction cubes."""

    def test_run_peak_stays_below_two_cubes(self, tmp_path):
        ds = generate(SyntheticSpec(kind="experts", n_instances=2000, n_models=20,
                                    n_classes=20, seed=0))
        cube_bytes = ds.val.predictions.nbytes
        data = str(tmp_path / "ds")
        save_metadataset(ds, data)
        del ds
        out = str(tmp_path / "runs.jsonl")
        code, peak = traced_peak(lambda: main(["run", "greedy", "--data", data, "--out", out,
                                               "--seeds", "0"]))
        assert code == 0
        assert peak < 1.5 * cube_bytes, peak / cube_bytes

    def test_serial_synth_peak_stays_below_two_cubes(self, tmp_path):
        n, models, classes = 800, 10, 10
        values = len(ensemblekit.data.SPLIT_NAMES) * n * models * classes
        assert values < ensemblekit.data._FORK_MIN_VALUES  # both splits drawn here
        _synth(tmp_path, "warm-up")  # numpy's writer imports what it needs once
        out = str(tmp_path / "ds")
        code, peak = traced_peak(lambda: main([
            "synth", "--kind", "experts", "--out", out, "--n", str(n), "--models", str(models),
            "--classes", str(classes)]))
        assert code == 0
        cube_bytes = n * models * classes * 8
        assert peak < 1.5 * cube_bytes, peak / cube_bytes

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is counted in KiB on Linux only")
    def test_cli_children_stay_below_two_cubes(self, tmp_path):
        """Each heavy child's peak RSS, its worker processes included, less
        that of a child that loads a tiny dataset. Every heavy child loads
        OpenSSL's hashlib, synth through numpy.random and the others for
        digests of 4 MiB and more, so the tiny child imports it at start."""
        env = _child_env()
        floor = child_peak_rss_mb(["validate", "--data", _synth(tmp_path, "tiny")], env,
                                  preload=["hashlib"])
        n, models, classes = 4000, 20, 20
        cube_mib = n * models * classes * 8 / 2**20
        data, out = str(tmp_path / "ds"), str(tmp_path / "runs.jsonl")
        children = {
            "synth": ["synth", "--kind", "experts", "--out", data, "--n", str(n),
                      "--models", str(models), "--classes", str(classes), "--seed", "0"],
            "greedy": ["run", "greedy", "--data", data, "--out", out, "--seeds", "0"],
            "ma": ["run", "ma", "--data", data, "--out", out, "--seeds", "0", "--steps", "50"],
            "validate": ["validate", "--data", data],
        }
        for name, argv in children.items():
            above = child_peak_rss_mb(argv, env) - floor
            assert above < 1.5 * cube_mib, (name, above, cube_mib)

    def test_bad_test_split_exits_2_after_the_fit(self, tmp_path, monkeypatch, capfd):
        data = _synth(tmp_path)
        out = tmp_path / "runs.jsonl"
        assert main(["run", "akaike", "--data", data, "--out", str(out), "--seeds", "0"]) == 0
        before = out.read_bytes()
        path = os.path.join(data, "test_predictions.csv")
        with open(path) as fh:
            lines = fh.readlines()
        lines[1] = "abc," + lines[1].split(",", 1)[1]
        with open(path, "w") as fh:
            fh.writelines(lines)
        fitted = []
        static_weights = cli._static_weights

        def spy(ds, method, config, n):
            fitted.append((method, config.seed, ds.test))
            return static_weights(ds, method, config, n)

        monkeypatch.setattr(cli, "_static_weights", spy)
        _split_io(monkeypatch, forked=False)
        capfd.readouterr()
        assert main(["run", "greedy", "--data", data, "--out", str(out), "--seeds", "0,1"]) == 2
        _assert_only_error_line(capfd.readouterr().err,
                                f"{path}: line 2, column 1: 'abc' is not a number")
        assert fitted == [("greedy", 0, None), ("greedy", 1, None)]
        assert out.read_bytes() == before

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    def test_overflowing_draw_exits_2_with_one_line(self, tmp_path, monkeypatch, capfd, forked):
        """numpy's overflow warnings stay quiet in the draw, in a worker or
        here; validation names the entry, and no directory is left."""
        _split_io(monkeypatch, forked)
        out = str(tmp_path / "ds")
        capfd.readouterr()
        assert main(["synth", "--kind", "poly", "--out", out, "--n", "10",
                     "--noise", "1e308"]) == 2
        _assert_only_error_line(capfd.readouterr().err,
                                "val split entry (instance 0, model 0, class 0) is not finite")
        assert not os.path.exists(out)


class TestRunDeterminism:
    def test_records_follow_the_listed_seed_order(self, tmp_path):
        """Seeds 2,0,1 run in up to min(3, usable CPUs) forked workers and
        give three records, in the order the seeds were listed."""
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        assert main(["run", "akaike", "--data", data, "--out", out,
                     "--seeds", "2,0,1"]) == 0
        assert [r["seed"] for r in _read_records(out)] == [2, 0, 1]

    @pytest.mark.parametrize(
        "method, seeds",
        [
            pytest.param("ne-stack", "0", id="ne-stack"),
            pytest.param("ne-ma", "0", id="ne-ma"),
            pytest.param("ne-ma", "0,1", id="ne-ma-two-seeds"),
        ],
    )
    def test_records_identical_across_blas_threads(self, tmp_path, method, seeds):
        data = _synth(tmp_path, n="400", models="5", classes="10")
        runs = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"runs_{threads}.jsonl")
            proc = subprocess.run(
                [sys.executable, "-m", "ensemblekit", "run", method, "--data", data,
                 "--out", out, "--seeds", seeds, "--steps", "200", "--batch-size", "128"],
                capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(_untimed_records(out))
        assert [r["seed"] for r in runs[0]] == [int(seed) for seed in seeds.split(",")]
        assert runs[0] == runs[1]


class TestSeedMapper:
    """cli maps its seeds with data.fork_map, which forks one worker per
    seed up to the usable CPUs; results, records and errors are those of
    the serial loop."""

    def test_workers_are_capped_and_order_is_kept(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        alive = _count_children(monkeypatch)
        results = cli.fork_map(lambda seed: (seed, os.getpid(), time.sleep(0.05)),
                               [2, 0, 1, 3])
        assert [seed for seed, _, _ in results] == [2, 0, 1, 3]
        assert all(pid != os.getpid() for _, pid, _ in results)
        assert alive == {"now": 0, "most": 2}

    def test_nested_call_keeps_the_outer_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        results = cli.fork_map(lambda i: cli.fork_map(lambda j: (i, j), [0, 1]),
                               [0, 1, 2, 3])
        assert results == [[(i, 0), (i, 1)] for i in range(4)]

    def test_callers_child_keeps_its_exit_code(self, monkeypatch):
        """fork_map reaps only the children it forked, so a child the
        caller started, and that exited before the call, keeps its status."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(5)"])
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped
        assert cli.fork_map(lambda seed: seed, [0, 1, 2]) == [0, 1, 2]
        assert proc.wait(timeout=60) == 5

    @pytest.mark.parametrize("bad", ["result", "exception"])
    def test_outcome_that_does_not_pickle_is_a_typed_error(self, monkeypatch, bad):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        class NeedsTwoArguments(Exception):
            def __init__(self, first, second):
                super().__init__(first + second)

        def worker(seed):
            if seed == 0:
                return seed
            if bad == "result":
                return threading.Lock()
            raise NeedsTwoArguments("a", "b")

        with pytest.raises(EnsembleKitError, match="^task 2 of 2's outcome does not pickle: "):
            cli.fork_map(worker, [0, 1])
        assert _no_children()

    @pytest.mark.parametrize("end", ["return", "error", "died", "interrupt"])
    def test_no_child_outlives_the_call(self, monkeypatch, end):
        """Whether fork_map returns or raises, even KeyboardInterrupt while
        its children still run, every child it forked is gone after: an
        interrupted call kills its running children instead of waiting."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        def worker(seed):
            if seed == 1 and end == "error":
                raise ConfigError("bad seed")
            if seed == 1 and end == "died":
                os._exit(7)
            time.sleep(60 if end == "interrupt" else 0.01)
            return seed

        expected = {"return": None, "error": ConfigError, "died": WorkerDiedError,
                    "interrupt": KeyboardInterrupt}[end]
        start = time.monotonic()
        handler = signal.signal(signal.SIGALRM, interrupt)
        try:
            if end == "interrupt":
                # As Ctrl-C's would, the interrupt arrives while the parent
                # waits; forked children do not inherit the timer.
                signal.setitimer(signal.ITIMER_REAL, 1.0)
            if expected is None:
                assert cli.fork_map(worker, [0, 1, 2]) == [0, 1, 2]
            else:
                with pytest.raises(expected):
                    cli.fork_map(worker, [0, 1, 2])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert time.monotonic() - start < 30  # the sleeping children were killed
        assert _no_children()

    # From Python 3.12 a fork with a second thread alive warns; this one is meant.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    @pytest.mark.parametrize("receiver", ["main-thread", "other-thread"])
    def test_interrupt_right_after_fork_leaves_no_child(self, monkeypatch, receiver):
        """A Ctrl-C that lands between the fork and the parent's note of the
        new child still finds that child killed and reaped, also when the
        kernel hands the signal to a thread other than the main one."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fork, done = os.fork, threading.Event()
        helper = threading.Thread(target=done.wait)
        helper.start()

        def fork_then_interrupt():
            pid = fork()
            if pid and receiver == "main-thread":
                signal.raise_signal(signal.SIGINT)
            elif pid:
                signal.pthread_kill(helper.ident, signal.SIGINT)
                time.sleep(0.1)  # the helper's C handler runs, the main thread's later
            return pid

        monkeypatch.setattr(os, "fork", fork_then_interrupt)
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                cli.fork_map(lambda seed: time.sleep(60), [0, 1])
        finally:
            done.set()
            helper.join()
        assert time.monotonic() - start < 30
        assert _no_children()

    def test_tasks_run_with_the_callers_sigint_handler(self, monkeypatch):
        """A task runs with the SIGINT handler its caller had, and the
        caller keeps it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def on_sigint(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            kept = cli.fork_map(lambda seed: signal.getsignal(signal.SIGINT) is on_sigint, [0, 1])
            assert signal.getsignal(signal.SIGINT) is on_sigint
        finally:
            signal.signal(signal.SIGINT, previous)
        assert kept == [True, True]

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_maps_from_a_thread_other_than_the_main_one(self, monkeypatch):
        """Python sets signal handlers from the main thread only; a call
        from another thread forks its tasks all the same."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        counted = _count_children(monkeypatch)
        results = []
        mapper = threading.Thread(target=lambda: results.append(
            cli.fork_map(lambda seed: seed * 2, [0, 1, 2])))
        mapper.start()
        mapper.join()
        assert results == [[0, 2, 4]]
        assert counted == {"now": 0, "most": 2}

    def test_pipes_above_descriptor_1023(self, monkeypatch):
        """select.select refuses descriptors from 1024 up; a process that
        holds that many files still maps its tasks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
            pytest.skip("the open-file limit is below 1100")
        held = [os.open(os.devnull, os.O_RDONLY)]
        try:
            while held[-1] < 1024:
                held.append(os.open(os.devnull, os.O_RDONLY))
            assert cli.fork_map(lambda seed: seed, [0, 1, 2]) == [0, 1, 2]
        finally:
            for fd in held:
                os.close(fd)

    def test_no_task_starts_after_a_failed_one(self, monkeypatch, tmp_path):
        """Task 1 fails first; task 0, already running, is still waited
        for and its later error wins, and tasks 2 and 3 never start."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def worker(seed):
            (tmp_path / str(seed)).touch()
            if seed == 0:
                time.sleep(0.3)
            if seed in (0, 1):
                raise ConfigError(f"seed {seed} is bad")
            return seed

        with pytest.raises(ConfigError, match="^seed 0 is bad$"):
            cli.fork_map(worker, [0, 1, 2, 3])
        assert sorted(os.listdir(tmp_path)) == ["0", "1"]

    def test_run_imports_no_process_pool(self, tmp_path):
        """Two seeds on two CPUs fork their tasks without multiprocessing
        or concurrent.futures."""
        data, out = _synth(tmp_path), str(tmp_path / "runs.jsonl")
        code = textwrap.dedent("""
            import os, sys
            from ensemblekit import cli
            os.sched_getaffinity = lambda pid: {0, 1}
            assert cli.main(sys.argv[1:]) == 0
            print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
        """)
        proc = subprocess.run([sys.executable, "-c", code, "run", "ne-ma", "--data", data,
                               "--out", out, "--seeds", "0,1"] + FAST_NE,
                              capture_output=True, text=True, env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert [r["seed"] for r in _untimed_records(out)] == [0, 1]

    def test_one_cpu_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        results = cli.fork_map(lambda seed: (seed, os.getpid()), [1, 0])
        assert results == [(1, os.getpid()), (0, os.getpid())]

    def test_worker_error_keeps_type_and_message(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def worker(seed):
            if seed == 1:
                raise ConfigError(f"seed {seed} is bad")
            return seed

        with pytest.raises(ConfigError, match="^seed 1 is bad$"):
            cli.fork_map(worker, [0, 1])

    def test_dead_worker_raises_instead_of_hanging(self):
        code = textwrap.dedent("""
            import os
            from ensemblekit import cli
            from ensemblekit.errors import WorkerDiedError
            os.sched_getaffinity = lambda pid: {0, 1}
            try:
                cli.fork_map(lambda seed: os._exit(7), [0, 1])
            except WorkerDiedError:
                print("died")
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "died\n"

    def test_dead_worker_exits_2_without_a_traceback(self, tmp_path):
        """A worker killed mid-run (say, for memory) ends `run` with one
        error line and exit 2, and appends no record."""
        data, out = _synth(tmp_path), str(tmp_path / "runs.jsonl")
        code = textwrap.dedent("""
            import os, sys
            from ensemblekit import cli, neural
            os.sched_getaffinity = lambda pid: {0, 1}
            neural.train = lambda *args, **kwargs: os._exit(9)
            sys.exit(cli.main(sys.argv[1:]))
        """)
        proc = subprocess.run([sys.executable, "-c", code, "run", "ne-ma", "--data", data,
                               "--out", out, "--seeds", "0,1"] + FAST_NE,
                              capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: a worker process died (killed, perhaps out of memory) "
                               "before task 1 of 2 returned\n")
        assert not os.path.exists(out)

    def test_run_records_match_single_seed_runs(self, tmp_path):
        data = _synth(tmp_path)
        flags = ["--dropout-rate", "0.5"] + FAST_NE
        multi = str(tmp_path / "multi.jsonl")
        single = str(tmp_path / "single.jsonl")
        assert main(["run", "ne-ma", "--data", data, "--out", multi,
                     "--seeds", "2,0,1"] + flags) == 0
        for seed in ("2", "0", "1"):
            assert main(["run", "ne-ma", "--data", data, "--out", single,
                         "--seeds", seed] + flags) == 0
        records = _untimed_records(multi)
        assert [r["seed"] for r in records] == [2, 0, 1]
        assert records == _untimed_records(single)

    def test_sweep_records_match_single_seed_runs(self, tmp_path):
        """A (seed, rate) grid writes seed-major records, each equal to the
        record of a run with that one seed and rate."""
        data = _synth(tmp_path)
        for method in ("ne-ma", "ne-stack"):
            multi = str(tmp_path / f"multi-{method}.jsonl")
            single = str(tmp_path / f"single-{method}.jsonl")
            assert main(["run", method, "--data", data, "--out", multi, "--seeds", "0,1",
                         "--dropout-rate", "0,0.5"] + FAST_NE) == 0
            for seed in ("0", "1"):
                for rate in ("0", "0.5"):
                    assert main(["run", method, "--data", data, "--out", single,
                                 "--seeds", seed, "--dropout-rate", rate] + FAST_NE) == 0
            records = _untimed_records(multi)
            assert [(r["seed"], r["config"]["dropout_rate"]) for r in records] == [
                (0, 0.0), (0, 0.5), (1, 0.0), (1, 0.5)]
            assert records == _untimed_records(single)

    def test_numeric_blowup_in_workers_exits_3(self, tmp_path):
        data = _synth(tmp_path)
        errors = []
        for seeds in ("0,1", "0"):
            out = str(tmp_path / f"runs_{len(seeds)}.jsonl")
            proc = subprocess.run(
                [sys.executable, "-m", "ensemblekit", "run", "ne-ma", "--data", data,
                 "--out", out, "--seeds", seeds, "--lr", "1e200",
                 "--dropout-rate", "0.0"] + FAST_NE,
                capture_output=True, text=True, env=_child_env(), timeout=120,
            )
            assert proc.returncode == 3
            _assert_only_error_line(proc.stderr, "non-finite")
            assert not os.path.exists(out)
            errors.append(proc.stderr)
        assert errors[0] == errors[1]


class TestDropoutRates:
    """A dropout sweep is one `run ne-stack` or `run ne-ma` over a list of
    rates: one record per (seed, rate), and one report row per rate."""

    @staticmethod
    def _assert_rejected_before_loading(tmp_path, monkeypatch, method, rates, seeds="0,1",
                                        extra=()):
        data = _synth(tmp_path)
        out = str(tmp_path / "sweep.jsonl")

        def load(path, split_name):
            raise AssertionError("the dataset was loaded before the flags were checked")

        monkeypatch.setattr(cli, "load_split", load)
        assert main(["run", method, "--data", data, "--out", out, "--seeds", seeds,
                     "--dropout-rate", rates] + FAST_NE + list(extra)) == 2
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".lock")

    def test_report_shows_one_row_per_rate(self, tmp_path, capsys):
        data = _synth(tmp_path)
        out = str(tmp_path / "sweep.jsonl")
        assert main(["run", "ne-ma", "--data", data, "--out", out, "--seeds", "0,1",
                     "--dropout-rate", "0,0.5"] + FAST_NE) == 0
        assert main(["run", "greedy", "--data", data, "--out", out, "--seeds", "0,1"]) == 0
        summary = str(tmp_path / "summary.csv")
        assert main(["report", "--records", out, "--out", summary]) == 0
        assert "ne-ma@0.5" in capsys.readouterr().out
        with open(summary) as fh:
            rows = {(cells[1], cells[2]): cells for cells in
                    (line.split(",") for line in fh.read().splitlines()[1:])}
        assert {method for method, _ in rows} == {"greedy", "ne-ma@0", "ne-ma@0.5"}
        assert {cells[5] for cells in rows.values()} == {"2"}
        records = _read_records(out)
        for rate, label in ((0.0, "ne-ma@0"), (0.5, "ne-ma@0.5")):
            nll = [r["normalized"]["nll"] for r in records
                   if r["config"].get("dropout_rate") == rate]
            assert float(rows[(label, "nll")][3]) == pytest.approx(np.mean(nll), rel=1e-11)

    def test_non_finite_metric_exits_3_before_appending(self, tmp_path, capsys):
        data = _overflowing_regression(tmp_path)
        out = str(tmp_path / "sweep.jsonl")
        argv = ["run", "ne-ma", "--data", data, "--out", out,
                "--seeds", "0", "--dropout-rate", "0.0,0.5"] + FAST_NE
        assert main(argv) == 3
        _assert_only_error_line(capsys.readouterr().err, "not finite")
        assert not os.path.exists(out)

    def test_rate_outside_range_exits_2(self, tmp_path, monkeypatch):
        self._assert_rejected_before_loading(tmp_path, monkeypatch, "ne-ma", "0.5,1.0")

    @pytest.mark.parametrize("method, rates", [
        pytest.param("ne-ma", "abc", id="not-a-number"),
        pytest.param("ne-stack", ",", id="empty"),
        pytest.param("greedy", "0,0.5", id="list-on-a-baseline"),
        pytest.param("ne-ma", "0.5,0.25,0.50", id="repeated-rate"),
    ])
    def test_bad_rate_list_exits_2_before_loading(self, tmp_path, monkeypatch, method, rates):
        self._assert_rejected_before_loading(tmp_path, monkeypatch, method, rates)

    def test_repeated_seed_exits_2_before_loading(self, tmp_path, monkeypatch):
        self._assert_rejected_before_loading(tmp_path, monkeypatch, "akaike", "0.75", "0,1,0")

    @pytest.mark.parametrize("seeds", ["-1", "0,-1"])
    def test_negative_seed_exits_2_before_loading(self, tmp_path, monkeypatch, capsys, seeds):
        self._assert_rejected_before_loading(tmp_path, monkeypatch, "random", "0.75", seeds)
        _assert_only_error_line(capsys.readouterr().err,
                                f"--seeds must be non-negative integers, got {seeds!r}")

    @pytest.mark.parametrize("method, extra, fragment", [
        ("greedy", ["--lr", "nan"], "learning rate must be a finite number > 0, got nan"),
        ("ma", ["--lr", "inf"], "learning rate must be a finite number > 0, got inf"),
        ("random", ["--layers", "0"], "layers must be at least 1, got 0"),
        ("akaike", ["--steps", "0"], "steps must be at least 1, got 0"),
        ("single-best", ["--batch-size", "0"], "batch_size must be at least 1, got 0"),
        ("top-n", ["--hidden-dim", "0"], "hidden_dim must be at least 1, got 0"),
        ("quick", ["--n", "0"], "--n must be at least 1, got 0"),
        ("ne-ma", ["--n", "0"], "--n must be at least 1, got 0"),
    ], ids=["greedy-lr-nan", "ma-lr-inf", "random-layers-0", "akaike-steps-0",
            "single-best-batch-size-0", "top-n-hidden-dim-0", "quick-n-0", "ne-ma-n-0"])
    def test_every_flag_is_checked_for_every_method_before_loading(
            self, tmp_path, monkeypatch, capsys, method, extra, fragment):
        """A bad flag exits 2 before the load, also for a method that
        ignores the flag."""
        self._assert_rejected_before_loading(tmp_path, monkeypatch, method, "0.75", extra=extra)
        _assert_only_error_line(capsys.readouterr().err, fragment)

    def test_run_report_and_config_share_one_rate_rule(self, tmp_path, capsys):
        message = "dropout rate must be a number in [0, 1), got 1.0"
        data = _synth(tmp_path)
        capsys.readouterr()
        assert main(["run", "ne-ma", "--data", data, "--out", str(tmp_path / "r.jsonl"),
                     "--dropout-rate", "1.0"] + FAST_NE) == 2
        _assert_only_error_line(capsys.readouterr().err, message)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            neural.NEConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cli._label("ne-ma", {"dropout_rate": 1.0})

    def test_integer_rate_shares_the_row_of_its_float(self, tmp_path, capsys):
        path = str(tmp_path / "records.jsonl")
        with open(path, "w") as fh:
            for rate in ("0", "0.0"):
                fh.write('{"dataset": "d", "method": "ne-ma", "seed": 0, "normalized": '
                         '{"nll": 1.0}, "config": {"dropout_rate": %s}}\n' % rate)
        summary = str(tmp_path / "summary.csv")
        assert main(["report", "--records", path, "--out", summary]) == 0
        capsys.readouterr()
        with open(summary) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert [(cells[1], cells[5]) for cells in rows] == [("ne-ma@0", "2")]

    def test_negative_zero_rate_is_recorded_and_reported_as_zero(self, tmp_path, capsys):
        """-0 is the rate 0: run records it as 0.0, and a record that holds
        -0.0 shares the row of 0."""
        data = _synth(tmp_path)
        out = str(tmp_path / "r.jsonl")
        for rate in ("-0", "0"):
            assert main(["run", "ne-ma", "--data", data, "--out", out, "--seeds", "0",
                         "--dropout-rate", rate] + FAST_NE) == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert all('"dropout_rate": 0.0,' in line for line in lines)
        with open(out, "a") as fh:
            fh.write(lines[0].replace('"dropout_rate": 0.0', '"dropout_rate": -0.0') + "\n")
        summary = str(tmp_path / "summary.csv")
        assert main(["report", "--records", out, "--out", summary]) == 0
        capsys.readouterr()
        with open(summary) as fh:
            rows = {(cells[1], cells[5]) for cells in
                    (line.split(",") for line in fh.read().splitlines()[1:])}
        assert rows == {("ne-ma@0", "3")}

    def test_rates_equal_to_six_digits_get_their_own_rows(self, tmp_path, capsys):
        path = str(tmp_path / "records.jsonl")
        with open(path, "w") as fh:
            for rate in (0.1234561, 0.1234562, 0.5):
                fh.write(json.dumps({"dataset": "d", "method": "ne-ma", "seed": 0,
                                     "normalized": {"nll": rate},
                                     "config": {"dropout_rate": rate}}) + "\n")
        summary = str(tmp_path / "summary.csv")
        assert main(["report", "--records", path, "--out", summary]) == 0
        capsys.readouterr()
        with open(summary) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert [(cells[1], cells[5]) for cells in rows] == [
            ("ne-ma@0.1234561", "1"), ("ne-ma@0.1234562", "1"), ("ne-ma@0.5", "1")]


class TestReport:
    @staticmethod
    def _write_records(path, rows):
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    # Output recorded before `report` computed each statistic in one pass.
    # Ties at the best mean go to the first row name in both directions.
    GOLDEN_RECORDS = [
        ("beta", "greedy", 0, {"nll": 0.75, "error_rate": 0.9, "auc": 1.0625}, {}),
        ("beta", "greedy", 1, {"nll": 0.25, "error_rate": 1.1, "auc": 1.0625}, {}),
        ("beta", "akaike", 0, {"nll": 0.5, "error_rate": 0.987654321, "auc": 1.03}, {}),
        ("beta", "akaike", 1, {"nll": 0.5, "error_rate": 1.012345679, "auc": 1.03}, {}),
        ("beta", "ne-ma", 0, {"nll": 0.61, "error_rate": 0.95, "auc": 1.125},
         {"dropout_rate": 0.1234561}),
        ("beta", "ne-ma", 1, {"nll": 0.63, "error_rate": 0.97, "auc": 1.0},
         {"dropout_rate": 0.1234561}),
        ("beta", "ne-ma", 0, {"nll": 0.6, "error_rate": 1.2}, {"dropout_rate": 0.1234562}),
        ("alpha", "single-best", 0, {"nll": 1.0, "mse": 1.0}, {}),
        ("alpha", "ma", 0, {"nll": 0.9876543211, "mse": 0.97}, {}),
        ("alpha", "ma", 1, {"nll": 0.9123456789, "mse": 0.99}, {}),
    ]
    GOLDEN_TABLE = [
        'dataset: alpha',
        '  method                         mse                   nll',
        '  ma                0.9800 ± 0.0100*      0.9500 ± 0.0377*',
        '  single-best       1.0000 ± 0.0000       1.0000 ± 0.0000 ',
        '',
        'dataset: beta',
        '  method                            auc            error_rate                   nll',
        '  akaike               1.0300 ± 0.0000       1.0000 ± 0.0123       0.5000 ± 0.0000*',
        '  greedy               1.0625 ± 0.0000*      1.0000 ± 0.1000       0.5000 ± 0.2500 ',
        '  ne-ma@0.1234561      1.0625 ± 0.0625       0.9600 ± 0.0100*      0.6200 ± 0.0100 ',
        '  ne-ma@0.1234562                     -      1.2000 ± 0.0000       0.6000 ± 0.0000 ',
        '',
    ]
    GOLDEN_CSV = [
        'dataset,method,metric,mean,std,n_runs,best',
        'alpha,ma,mse,0.98,0.01,2,true',
        'alpha,ma,nll,0.95,0.0376543211,2,true',
        'alpha,single-best,mse,1,0,1,false',
        'alpha,single-best,nll,1,0,1,false',
        'beta,akaike,auc,1.03,0,2,false',
        'beta,akaike,error_rate,1,0.012345679,2,false',
        'beta,akaike,nll,0.5,0,2,true',
        'beta,greedy,auc,1.0625,0,2,true',
        'beta,greedy,error_rate,1,0.1,2,false',
        'beta,greedy,nll,0.5,0.25,2,false',
        'beta,ne-ma@0.1234561,auc,1.0625,0.0625,2,false',
        'beta,ne-ma@0.1234561,error_rate,0.96,0.01,2,true',
        'beta,ne-ma@0.1234561,nll,0.62,0.01,2,false',
        'beta,ne-ma@0.1234562,error_rate,1.2,0,1,false',
        'beta,ne-ma@0.1234562,nll,0.6,0,1,false',
    ]

    def test_golden_table_and_summary(self, tmp_path, capsys):
        path = str(tmp_path / "records.jsonl")
        with open(path, "w") as fh:
            for dataset, method, seed, normalized, config in self.GOLDEN_RECORDS:
                fh.write(json.dumps({"dataset": dataset, "method": method, "seed": seed,
                                     "normalized": normalized, "config": config}) + "\n")
        summary = str(tmp_path / "summary.csv")
        assert main(["report", "--records", path, "--out", summary]) == 0
        assert capsys.readouterr().out.splitlines() == (
            self.GOLDEN_TABLE + [f"summary written to {summary}"])
        with open(summary) as fh:
            assert fh.read() == "".join(line + "\n" for line in self.GOLDEN_CSV)

    @pytest.mark.parametrize("bad", [
        pytest.param('{"dataset": "d", "method": "a", "normalized": [1.0]}',
                     id="normalized-list"),
        pytest.param('{"dataset": "d", "method": "a", "normalized": 1.0}',
                     id="normalized-number"),
        pytest.param('{"dataset": "d", "method": "a", "normalized": {"nll": null}}',
                     id="null-value"),
        pytest.param('{"dataset": 7, "method": "a", "normalized": {"nll": 1.0}}',
                     id="dataset-not-a-string"),
        pytest.param('{"dataset": "d", "method": 7, "normalized": {"nll": 1.0}}',
                     id="row-not-a-string"),
        pytest.param('{"dataset": "d", "method": "a", "normalized": {"nll": true}}',
                     id="bool-value"),
        pytest.param('{"dataset": "d", "method": "a", "normalized": {}}',
                     id="normalized-empty"),
        pytest.param('{"dataset": "d", "method": "a", "normalized": {"nll": 1%s}}' % ("0" * 400),
                     id="integer-beyond-float"),
        pytest.param('{"dataset": "d", "method": "a", "normalized": {"nll": 1.0}, '
                     '"config": {"dropout_rate": true}}', id="bool-rate"),
        pytest.param('{"dataset": "d", "method": "a", "normalized": {"nll": 1.0}, '
                     '"config": {"dropout_rate": 7.5}}', id="rate-above-range"),
        pytest.param('{"dataset": "d", "method": "a", "normalized": {"nll": 1.0}, '
                     '"config": {"dropout_rate": -0.25}}', id="negative-rate"),
    ])
    def test_malformed_record_exits_2_naming_its_line(self, tmp_path, capsys, bad):
        path = str(tmp_path / "records.jsonl")
        with open(path, "w") as fh:
            fh.write('{"dataset": "d", "method": "b", "normalized": {"nll": 1.0}}\n')
            fh.write(bad + "\n")
        assert main(["report", "--records", path]) == 2
        _assert_only_error_line(capsys.readouterr().err, f"{path}:2:")
        assert not os.path.exists(path + ".summary.csv")

    def test_summary_quotes_names_holding_commas_and_quotes(self, tmp_path, capsys):
        path = str(tmp_path / "records.jsonl")
        self._write_records(path, [{"dataset": "a,b", "method": 'x "y"', "seed": 0,
                                    "normalized": {"nll": 1.0}, "config": {}}])
        csv_path = str(tmp_path / "summary.csv")
        assert main(["report", "--records", path, "--out", csv_path]) == 0
        capsys.readouterr()
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["dataset", "method", "metric", "mean", "std", "n_runs", "best"],
                        ["a,b", 'x "y"', "nll", "1", "0", "1", "true"]]

    def test_direction_aware_best_flags(self, tmp_path, capsys):
        # nll is lower-is-better, auc higher-is-better
        path = str(tmp_path / "records.jsonl")
        rows = []
        for method, nll, auc in [("alpha", 0.5, 0.9), ("beta", 0.3, 0.7)]:
            for seed in (0, 1):
                rows.append({
                    "dataset": "toy", "method": method, "mode": "static",
                    "seed": seed, "metrics": {"nll": nll, "auc": auc},
                    "normalized": {"nll": nll, "auc": auc},
                    "wall_time_seconds": 0.0, "config": {},
                })
        self._write_records(path, rows)
        csv_path = str(tmp_path / "summary.csv")
        assert main(["report", "--records", path, "--out", csv_path]) == 0
        capsys.readouterr()
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "dataset,method,metric,mean,std,n_runs,best"
        best = {
            (cells[1], cells[2]): cells[6]
            for cells in (line.split(",") for line in lines[1:])
        }
        assert best[("beta", "nll")] == "true"
        assert best[("alpha", "nll")] == "false"
        assert best[("alpha", "auc")] == "true"
        assert best[("beta", "auc")] == "false"

    def test_default_summary_path(self, tmp_path, capsys):
        path = str(tmp_path / "records.jsonl")
        self._write_records(path, [{
            "dataset": "toy", "method": "alpha", "mode": "static", "seed": 0,
            "metrics": {"nll": 1.0}, "normalized": {"nll": 1.0},
            "wall_time_seconds": 0.0, "config": {},
        }])
        assert main(["report", "--records", path]) == 0
        capsys.readouterr()
        assert os.path.isfile(path + ".summary.csv")

    def test_aggregates_real_runs(self, tmp_path, capsys):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        main(["run", "single-best", "--data", data, "--out", out, "--seeds", "0,1"])
        main(["run", "akaike", "--data", data, "--out", out, "--seeds", "0,1"])
        assert main(["report", "--records", out]) == 0
        text = capsys.readouterr().out
        assert "dataset: experts-m2-c3-seed0" in text
        assert "single-best" in text and "akaike" in text

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["report", "--records", str(tmp_path / "none.jsonl")]) == 2

    def test_corrupt_line_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "records.jsonl")
        with open(path, "w") as fh:
            fh.write('{"dataset": "toy"}\n{broken\n')
        assert main(["report", "--records", path]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_empty_file_exits_2(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        open(path, "w").close()
        assert main(["report", "--records", path]) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, value):
        path = str(tmp_path / "records.jsonl")
        good = ('{"dataset": "d", "method": "b", "seed": 0, '
                '"normalized": {"nll": 1.0}}')
        bad = good.replace('"b"', '"a"').replace("1.0", value)
        with open(path, "w") as fh:
            fh.write(good + "\n" + bad + "\n")
        assert main(["report", "--records", path]) == 2
        _assert_only_error_line(capsys.readouterr().err, f"{path}:2:")
        assert not os.path.exists(path + ".summary.csv")


class TestEdgeCases:
    def test_single_model_dataset_runs_every_method(self, tmp_path):
        """synth needs M >= 2, but a loaded dataset may hold one model."""
        ds = generate(SyntheticSpec(kind="experts", n_instances=200, n_models=2,
                                    n_classes=3, seed=0))
        data = str(tmp_path / "one-model")
        save_metadataset(MetaDataset(
            name="one-model", task=ds.task,
            val=Split(ds.val.predictions[:, :1], ds.val.labels),
            test=Split(ds.test.predictions[:, :1], ds.test.labels),
        ), data)
        out = str(tmp_path / "runs.jsonl")
        for method in cli.METHODS:
            argv = ["run", method, "--data", data, "--out", out,
                    "--seeds", "0", "--n", "2"] + FAST_NE
            assert main(argv) == 0, method
        records = _read_records(out)
        assert [r["method"] for r in records] == list(cli.METHODS)
        for record in records:
            values = list(record["metrics"].values()) + list(record["normalized"].values())
            assert np.all(np.isfinite(values)), record

    def test_binary_test_split_with_one_class_has_no_auc(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        val = Split(rng.dirichlet(np.ones(2), size=(80, 3)), rng.integers(0, 2, size=80))
        test = Split(rng.dirichlet(np.ones(2), size=(40, 3)), np.zeros(40, dtype=np.int64))
        data = str(tmp_path / "one-class")
        save_metadataset(MetaDataset(name="one-class", task=TaskKind.CLASSIFICATION,
                                     val=val, test=test), data)
        out = str(tmp_path / "runs.jsonl")
        for method in ("single-best", "greedy", "ne-stack"):
            assert main(["run", method, "--data", data, "--out", out,
                         "--seeds", "0,1", "--n", "2"] + FAST_NE) == 0
        records = _read_records(out)
        assert len(records) == 6
        for record in records:
            assert set(record["metrics"]) == {"nll", "error_rate"}
            assert set(record["normalized"]) == {"nll", "error_rate"}
        summary = str(tmp_path / "summary.csv")
        assert main(["report", "--records", out, "--out", summary]) == 0
        capsys.readouterr()
        with open(summary) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert {(row[1], row[2]) for row in rows} == {
            (m, k) for m in ("single-best", "greedy", "ne-stack@0.75")
            for k in ("nll", "error_rate")
        }
        assert {row[5] for row in rows} == {"2"}

    @pytest.mark.parametrize("method", ["ne-stack", "ne-ma"])
    def test_batch_size_above_n_trains_on_batches_of_n(self, tmp_path, method):
        data = _synth(tmp_path, n="50")
        outs = {}
        for batch in ("50", "4096"):
            outs[batch] = str(tmp_path / f"runs-{batch}.jsonl")
            assert main(["run", method, "--data", data, "--out", outs[batch], "--seeds", "0",
                         "--steps", "30", "--layers", "2", "--hidden-dim", "4",
                         "--batch-size", batch]) == 0
        small, large = (_untimed_records(outs[b])[0] for b in ("50", "4096"))
        assert large["config"].pop("batch_size") == 4096
        assert small["config"].pop("batch_size") == 50
        assert small == large

    def test_lock_file_stays_and_a_second_run_appends(self, tmp_path):
        """The lock file is never removed. Removing it would race: a run
        that opened the old file could lock it while a later run locks a
        new file of the same name, and both would append."""
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        for seeds in ("0", "1"):
            assert main(["run", "single-best", "--data", data, "--out", out,
                         "--seeds", seeds]) == 0
            assert os.path.isfile(out + ".lock")
            with open(out + ".lock") as lock:
                # Released: this process can take it without waiting.
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
                fcntl.flock(lock, fcntl.LOCK_UN)
        assert [r["seed"] for r in _read_records(out)] == [0, 1]


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ensemblekit", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for command in ("validate", "synth", "run", "report"):
            assert command in proc.stdout
        assert "sweep-dropout" not in proc.stdout

    def test_readme_commands_parse(self):
        """Every `ensemblekit ...` line in README's shell blocks parses
        (without running), so a removed or renamed subcommand or flag in
        the docs fails here."""
        commands = _readme_commands(README)
        assert len(commands) >= 5
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: ensemblekit {shlex.join(argv)}")

    def test_flags_default_to_the_library_defaults(self, capsys):
        """synth and run store each field flag under its field's name, with
        SyntheticSpec's and NEConfig's defaults, and --kind lists the
        generators in their table's order."""
        parser = cli.build_parser()
        args = parser.parse_args(["synth", "--kind", "poly", "--out", "ds"])
        spec = SyntheticSpec(**{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(SyntheticSpec)})
        assert spec == SyntheticSpec("poly")
        args = parser.parse_args(["run", "ne-ma", "--data", "ds", "--out", "runs.jsonl"])
        config = neural.NEConfig()
        for name in cli._NE_FIELDS:
            assert getattr(args, name) == getattr(config, name), name
        assert float(args.dropout_rate) == config.dropout_rate
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        kinds = "{" + ",".join(ensemblekit.data.GENERATORS) + "}"
        assert kinds == "{experts,preferred,poly}" and kinds in capsys.readouterr().out

    def test_missing_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
