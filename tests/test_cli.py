"""End-to-end tests for the command line interface: dataset synthesis,
validation, run records, dropout sweeps, report aggregation, exit codes,
output locking, the forked seed mapper, and records across BLAS thread
counts."""

import fcntl
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ensemblekit
from ensemblekit import cli
from ensemblekit.cli import main
from ensemblekit.errors import ConfigError
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
        _assert_only_error_line(capsys.readouterr().err, "not finite")
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
    def test_single_worker_cap_accepted(self, tmp_path):
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
    """cli._map_seeds forks one worker per seed up to the usable CPUs;
    results, records and errors are those of the serial loop."""

    def test_workers_are_capped_and_order_is_kept(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        results = cli._map_seeds(lambda seed: (seed, os.getpid()), [2, 0, 1, 3])
        assert [seed for seed, _ in results] == [2, 0, 1, 3]
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2

    def test_one_cpu_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        results = cli._map_seeds(lambda seed: (seed, os.getpid()), [1, 0])
        assert results == [(1, os.getpid()), (0, os.getpid())]

    def test_worker_error_keeps_type_and_message(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def worker(seed):
            if seed == 1:
                raise ConfigError(f"seed {seed} is bad")
            return seed

        with pytest.raises(ConfigError, match="^seed 1 is bad$"):
            cli._map_seeds(worker, [0, 1])

    def test_dead_worker_raises_instead_of_hanging(self):
        code = textwrap.dedent("""
            import os
            from concurrent.futures.process import BrokenProcessPool
            from ensemblekit import cli
            os.sched_getaffinity = lambda pid: {0, 1}
            try:
                cli._map_seeds(lambda seed: os._exit(7), [0, 1])
            except BrokenProcessPool:
                print("broken")
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "broken\n"

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
        data = _synth(tmp_path)
        flags = ["--rates", "0.0,0.5"] + FAST_NE
        multi = str(tmp_path / "multi.jsonl")
        single = str(tmp_path / "single.jsonl")
        assert main(["sweep-dropout", "--data", data, "--out", multi,
                     "--seeds", "0,1"] + flags) == 0
        for seed in ("0", "1"):
            assert main(["sweep-dropout", "--data", data, "--out", single,
                         "--seeds", seed] + flags) == 0
        records = _untimed_records(multi)
        assert [(r["seed"], r["dropout_rate"]) for r in records] == [
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
        _assert_only_error_line(capsys.readouterr().err, "not finite")
        assert not os.path.exists(out)

    def test_dropout_rate_flag_is_rejected(self, tmp_path):
        """The sweep takes its rates from --rates only."""
        data = _synth(tmp_path)
        out = str(tmp_path / "sweep.jsonl")
        with pytest.raises(SystemExit) as err:
            main(["sweep-dropout", "--data", data, "--out", out, "--seeds", "0",
                  "--rates", "0.0", "--dropout-rate", "0.5"] + FAST_NE)
        assert err.value.code == 2
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
