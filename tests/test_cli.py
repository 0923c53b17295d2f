"""End-to-end tests for the command line interface: dataset synthesis,
validation, run records, dropout sweeps, report aggregation, exit codes,
output locking, and the worker-thread environment knob."""

import fcntl
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ensemblekit.cli import main
from ensemblekit.data import MetaDataset, Split, SyntheticSpec, generate, save_metadataset

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


def _read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


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

    def test_validate_tampered_dataset_exits_2(self, tmp_path, capsys):
        data = _synth(tmp_path)
        path = os.path.join(data, "val_predictions.csv")
        with open(path) as fh:
            lines = fh.readlines()
        lines[1] = "2.5," + lines[1].split(",", 1)[1]
        with open(path, "w") as fh:
            fh.writelines(lines)
        assert main(["validate", "--data", data]) == 2

    def test_unknown_kind_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--kind", "mystery", "--out", str(tmp_path / "x")])
        assert err.value.code == 2


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

    def test_ne_methods_reject_conflicting_mode_flag(self, tmp_path, capsys):
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        argv = ["run", "ne-stack", "--data", data, "--out", out,
                "--mode", "ma", "--seeds", "0"] + FAST_NE
        assert main(argv) == 2
        assert "mode" in capsys.readouterr().err

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
        assert "not finite" in capsys.readouterr().err
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


class TestThreadEnvironment:
    def test_single_worker_cap_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENSEMBLEKIT_THREADS", "1")
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        assert main(["run", "akaike", "--data", data, "--out", out,
                     "--seeds", "0,1,2"]) == 0
        assert len(_read_records(out)) == 3

    def test_invalid_value_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ENSEMBLEKIT_THREADS", "many")
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        assert main(["run", "akaike", "--data", data, "--out", out,
                     "--seeds", "0"]) == 2
        assert "ENSEMBLEKIT_THREADS" in capsys.readouterr().err

    def test_non_positive_value_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENSEMBLEKIT_THREADS", "0")
        data = _synth(tmp_path)
        out = str(tmp_path / "runs.jsonl")
        assert main(["run", "akaike", "--data", data, "--out", out,
                     "--seeds", "0"]) == 2


class TestSweepDropout:
    def test_zero_rate_normalizes_to_one(self, tmp_path):
        data = _synth(tmp_path)
        out = str(tmp_path / "sweep.jsonl")
        argv = ["sweep-dropout", "--data", data, "--out", out,
                "--seeds", "0", "--rates", "0.0,0.5"] + FAST_NE
        assert main(argv) == 0
        records = _read_records(out)
        assert [r["dropout_rate"] for r in records] == [0.0, 0.5]
        assert records[0]["normalized_nll_vs_zero"] == pytest.approx(1.0)
        assert records[0]["method"] == "ne-ma"

    def test_missing_zero_rate_still_normalized(self, tmp_path):
        data = _synth(tmp_path)
        out = str(tmp_path / "sweep.jsonl")
        argv = ["sweep-dropout", "--data", data, "--out", out, "--seeds", "0",
                "--rates", "0.5", "--mode", "stacking"] + FAST_NE
        assert main(argv) == 0
        record = _read_records(out)[0]
        assert record["method"] == "ne-stack"
        assert record["normalized_nll_vs_zero"] > 0.0

    def test_non_finite_metric_exits_3_before_appending(self, tmp_path, capsys):
        data = _overflowing_regression(tmp_path)
        out = str(tmp_path / "sweep.jsonl")
        argv = ["sweep-dropout", "--data", data, "--out", out,
                "--seeds", "0", "--rates", "0.0"] + FAST_NE
        assert main(argv) == 3
        assert "not finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_rate_outside_range_exits_2(self, tmp_path):
        data = _synth(tmp_path)
        out = str(tmp_path / "sweep.jsonl")
        assert main(["sweep-dropout", "--data", data, "--out", out,
                     "--seeds", "0", "--rates", "0.5,1.0"]) == 2


class TestReport:
    @staticmethod
    def _write_records(path, rows):
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

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


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ensemblekit", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for command in ("validate", "synth", "run", "sweep-dropout", "report"):
            assert command in proc.stdout

    def test_missing_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
