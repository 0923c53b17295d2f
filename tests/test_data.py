"""Tests for dataset containers, on-disk format, split I/O in forked
workers against the serial loop, and the three synthetic generators."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ensemblekit.errors import ConfigError, DataFormatError, DataValidationError
from ensemblekit import data
from ensemblekit.data import (
    MetaDataset,
    Split,
    SyntheticSpec,
    TaskKind,
    generate,
    load_metadataset,
    save_metadataset,
)


GOLDEN_CSV = os.path.join(os.path.dirname(__file__), "data", "golden_csv.json")


def _tiny_classification():
    preds = np.array(
        [
            [[0.6, 0.4], [0.5, 0.5]],
            [[0.1, 0.9], [0.7, 0.3]],
            [[0.3, 0.7], [0.2, 0.8]],
        ]
    )
    labels = np.array([0, 1, 1])
    return Split(predictions=preds, labels=labels)


class TestSplitValidation:
    """Prediction cubes are checked on construction."""

    def test_accepts_valid_classification(self):
        split = _tiny_classification()
        ds = MetaDataset(name="t", task=TaskKind.CLASSIFICATION, val=split, test=split)
        assert ds.n_models == 2
        assert ds.n_classes == 2

    def test_rejects_non_simplex_rows(self):
        preds = np.array([[[0.6, 0.6]]])
        with pytest.raises(DataValidationError) as err:
            MetaDataset(
                name="t",
                task=TaskKind.CLASSIFICATION,
                val=Split(predictions=preds, labels=np.array([0])),
                test=Split(predictions=preds, labels=np.array([0])),
            )
        assert "instance 0" in str(err.value)
        assert "model 0" in str(err.value)

    def test_rejects_non_finite(self):
        preds = np.array([[[np.nan, 1.0]]])
        with pytest.raises(DataValidationError):
            MetaDataset(
                name="t",
                task=TaskKind.CLASSIFICATION,
                val=Split(predictions=preds, labels=np.array([0])),
                test=Split(predictions=preds, labels=np.array([0])),
            )

    def test_rejects_label_out_of_range(self):
        split = _tiny_classification()
        bad = Split(predictions=split.predictions, labels=np.array([0, 1, 2]))
        with pytest.raises(DataValidationError):
            MetaDataset(name="t", task=TaskKind.CLASSIFICATION, val=split, test=bad)

    @pytest.mark.parametrize("empty_split", ["val", "test"])
    def test_rejects_split_without_instances(self, empty_split):
        # Every fitter divides by or softmaxes over the val instances, and
        # every metric averages over the test ones.
        split = _tiny_classification()
        empty = Split(predictions=np.zeros((0, 2, 2)), labels=np.zeros(0, dtype=int))
        splits = {"val": split, "test": split, empty_split: empty}
        with pytest.raises(DataValidationError, match=f"^{empty_split} split has no instances"):
            MetaDataset(name="t", task=TaskKind.CLASSIFICATION, **splits)

    def test_rejects_split_shape_disagreement(self):
        split = _tiny_classification()
        other = Split(
            predictions=split.predictions[:, :1, :], labels=split.labels
        )
        with pytest.raises(DataValidationError):
            MetaDataset(name="t", task=TaskKind.CLASSIFICATION, val=split, test=other)

    def test_regression_labels_are_floats(self):
        preds = np.random.default_rng(0).normal(size=(5, 3, 1))
        split = Split(predictions=preds, labels=np.linspace(-1, 1, 5))
        ds = MetaDataset(name="r", task=TaskKind.REGRESSION, val=split, test=split)
        assert ds.n_classes == 1

    def test_arrays_are_read_only(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=20, n_models=2,
                                    n_classes=3, seed=0))
        with pytest.raises(ValueError):
            ds.val.predictions[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            ds.val.labels[0] = 0

    def test_callers_arrays_are_copied(self):
        split = _tiny_classification()
        ds = MetaDataset(name="t", task=TaskKind.CLASSIFICATION, val=split, test=split)
        assert split.predictions.flags.writeable
        assert split.labels.flags.writeable
        split.predictions[0, 0] = [0.2, 0.8]
        split.labels[0] = 1
        assert ds.val.predictions[0, 0].tolist() == [0.6, 0.4]
        assert ds.val.labels[0] == 0

    @pytest.mark.parametrize("kind", ["experts", "preferred", "poly"])
    def test_generated_and_loaded_arrays_are_read_only(self, tmp_path, kind):
        ds = generate(SyntheticSpec(kind=kind, n_instances=20, n_models=3, seed=0))
        save_metadataset(ds, str(tmp_path))
        loaded = load_metadataset(str(tmp_path))
        for split in (ds.val, ds.test, loaded.val, loaded.test):
            assert not split.predictions.flags.writeable
            assert not split.labels.flags.writeable


class TestSaveLoadRoundtrip:
    """The directory format persists datasets losslessly and
    deterministically."""

    def test_roundtrip_exact(self, tmp_path):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=40, n_models=3, seed=1))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        back = load_metadataset(str(out))
        assert back.name == ds.name
        assert back.task == ds.task
        for split in ("val", "test"):
            np.testing.assert_array_equal(
                getattr(back, split).predictions, getattr(ds, split).predictions
            )
            np.testing.assert_array_equal(
                getattr(back, split).labels, getattr(ds, split).labels
            )

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = generate(SyntheticSpec(kind="experts", n_instances=25, n_models=2,
                                    n_classes=3, seed=3))
        a, b = tmp_path / "a", tmp_path / "b"
        save_metadataset(ds, str(a))
        save_metadataset(ds, str(b))
        for name in sorted(os.listdir(a)):
            with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_manifest_contents(self, tmp_path):
        ds = generate(SyntheticSpec(kind="poly", n_instances=30, n_models=4, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["task"] == "regression"
        assert manifest["n_models"] == 4
        assert set(manifest["splits"]) == {"val", "test"}

    def test_prediction_header_layout(self, tmp_path):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        header = (out / "val_predictions.csv").read_text().splitlines()[0]
        assert header == "m0_c0,m0_c1,m0_c2,m1_c0,m1_c1,m1_c2"

    def test_missing_directory(self):
        with pytest.raises(FileNotFoundError):
            load_metadataset("/nonexistent/nowhere")

    def test_corrupt_manifest(self, tmp_path):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        (out / "manifest.json").write_text("{not json")
        with pytest.raises(DataFormatError):
            load_metadataset(str(out))

    def test_header_mismatch(self, tmp_path):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        path = out / "val_predictions.csv"
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("m0_c0", "weird")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError):
            load_metadataset(str(out))

    def test_row_count_mismatch(self, tmp_path):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        path = out / "val_labels.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(DataFormatError):
            load_metadataset(str(out))

    def test_tampered_probabilities_rejected_on_load(self, tmp_path):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        path = out / "val_predictions.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(["0.9"] * 6)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError):
            load_metadataset(str(out))


def _ragged(lines):
    return lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]


def _non_numeric(lines):
    _, sep, rest = lines[3].partition(",")
    return lines[:3] + ["abc" + sep + rest] + lines[4:]


_MALFORMED = [
    ("val_predictions.csv", lambda lines: lines[:1]),
    ("test_predictions.csv", lambda lines: []),
    ("val_predictions.csv", _ragged),
    ("test_predictions.csv", _non_numeric),
    ("val_predictions.csv", lambda lines: [line.rsplit(",", 1)[0] for line in lines]),
    ("val_labels.csv", lambda lines: lines[:1]),
    ("test_labels.csv", lambda lines: lines[:1] + [line + ",0" for line in lines[1:]]),
    ("test_labels.csv", _non_numeric),
    ("val_labels.csv", lambda lines: lines[:-2]),
]
_MALFORMED_IDS = ["header-only", "empty", "ragged-row", "non-numeric", "short-rows",
                  "header-only-labels", "two-column-labels", "non-numeric-label",
                  "missing-labels"]


class TestCsvFiles:
    """The files on disk are exactly what the writer always wrote, and a
    malformed file is rejected with an error that names it."""

    @pytest.mark.parametrize("kind", ["experts", "preferred", "poly"])
    def test_save_matches_golden_bytes(self, tmp_path, kind):
        with open(GOLDEN_CSV) as fh:
            golden = json.load(fh)[kind]
        ds = generate(SyntheticSpec(**golden["spec"]))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        assert sorted(os.listdir(out)) == sorted(golden["files"])
        for name, text in golden["files"].items():
            assert (out / name).read_bytes() == text.encode(), name
        back = load_metadataset(str(out))
        for split in ("val", "test"):
            for field in ("predictions", "labels"):
                want = getattr(getattr(ds, split), field)
                got = getattr(getattr(back, split), field)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name, edit", _MALFORMED, ids=_MALFORMED_IDS)
    def test_malformed_file_is_named(self, tmp_path, name, edit):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        path = out / name
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in edit(lines)))
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            load_metadataset(str(out))

    @pytest.mark.parametrize(
        "edit, where",
        [
            (_non_numeric, "line 4, column 1: 'abc' is not a number"),
            (_ragged, "line 3 has 5 columns, expected 6"),
        ],
        ids=["non-numeric", "ragged-row"],
    )
    def test_malformed_row_names_file_line(self, tmp_path, edit, where):
        """Lines count from 1 with the header as line 1, as an editor
        shows them; columns count from 1."""
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        path = out / "val_predictions.csv"
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in edit(lines)))
        with pytest.raises(DataFormatError) as err:
            load_metadataset(str(out))
        assert str(err.value) == f"{path}: {where}"


def _split_io(monkeypatch, forked):
    """Write and parse splits in forked workers (two usable CPUs and no
    size floor), or one after another in this process (one usable CPU)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if forked else {0})
    monkeypatch.setattr(data, "_FORK_MIN_VALUES", 0)
    monkeypatch.setattr(data, "_FORK_MIN_BYTES", 0)


def _load_error(monkeypatch, path, forked):
    _split_io(monkeypatch, forked)
    with pytest.raises((DataFormatError, FileNotFoundError)) as err:
        load_metadataset(path)
    return type(err.value), str(err.value)


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestForkedSplits:
    """save_metadataset and load_metadataset hand each split to a fork_map
    worker; files, arrays and errors are those of the serial loop."""

    @pytest.mark.parametrize("kind", ["experts", "preferred", "poly"])
    def test_bytes_and_arrays_match_serial(self, tmp_path, monkeypatch, kind):
        with open(GOLDEN_CSV) as fh:
            golden = json.load(fh)[kind]
        ds = generate(SyntheticSpec(**golden["spec"]))
        loaded = {}
        for forked in (False, True):
            _split_io(monkeypatch, forked)
            out = tmp_path / str(forked)
            save_metadataset(ds, str(out))
            assert sorted(os.listdir(out)) == sorted(golden["files"])
            for name, text in golden["files"].items():
                assert (out / name).read_bytes() == text.encode(), name
            loaded[forked] = load_metadataset(str(out))
        for split in ("val", "test"):
            for field in ("predictions", "labels"):
                want = getattr(getattr(loaded[False], split), field)
                got = getattr(getattr(loaded[True], split), field)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_splits_run_in_forked_workers(self, tmp_path, monkeypatch):
        """Save and load map over the split names; with two CPUs each split
        is parsed in a worker process, with one CPU in this process."""
        calls, pids = [], []
        fork_map, parse = data.fork_map, data._parse_split

        def spy_map(worker, tasks):
            calls.append(tuple(tasks))
            return fork_map(worker, tasks)

        def spy_parse(*args):
            pids.append(os.getpid())
            return parse(*args)

        monkeypatch.setattr(data, "fork_map", spy_map)
        monkeypatch.setattr(data, "_parse_split", spy_parse)
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = str(tmp_path / "ds")
        _split_io(monkeypatch, forked=True)
        save_metadataset(ds, out)
        load_metadataset(out)
        assert calls == [data.SPLIT_NAMES] * 2
        assert pids == []  # the workers appended to their own copies
        _split_io(monkeypatch, forked=False)
        load_metadataset(out)
        assert pids == [os.getpid()] * 2

    @pytest.mark.parametrize("split", data.SPLIT_NAMES)
    @pytest.mark.parametrize("name, edit", _MALFORMED + [("val_labels.csv", None)],
                             ids=_MALFORMED_IDS + ["missing-file"])
    def test_malformed_split_gives_the_serial_error(self, tmp_path, monkeypatch, split,
                                                    name, edit):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        path = out / f"{split}_{name.split('_', 1)[1]}"
        if edit is None:
            path.unlink()
        else:
            lines = path.read_text().splitlines()
            path.write_text("".join(line + "\n" for line in edit(lines)))
        serial = _load_error(monkeypatch, str(out), forked=False)
        assert str(path) in serial[1]
        assert _load_error(monkeypatch, str(out), forked=True) == serial

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    def test_both_splits_malformed_raises_val(self, tmp_path, monkeypatch, forked):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        for split in ("test", "val"):
            path = out / f"{split}_predictions.csv"
            lines = path.read_text().splitlines()
            path.write_text("".join(line + "\n" for line in _ragged(lines)))
        _, message = _load_error(monkeypatch, str(out), forked)
        assert message == f"{out / 'val_predictions.csv'}: line 3 has 5 columns, expected 6"

    def test_nothing_left_behind(self, tmp_path, monkeypatch):
        """No temporary file, open descriptor or child process outlives a
        load, whether it succeeds or fails."""
        import multiprocessing
        import tempfile

        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        _split_io(monkeypatch, forked=True)
        fds = _open_fds()
        load_metadataset(str(out))
        (out / "test_labels.csv").write_text("label\nabc\n")
        with pytest.raises(DataFormatError):
            load_metadataset(str(out))
        assert os.listdir(temp) == []
        assert _open_fds() == fds
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        save_metadataset(ds, str(tmp_path / "ds"))
        code = textwrap.dedent("""
            import os, sys
            from concurrent.futures.process import BrokenProcessPool
            from ensemblekit import data
            os.sched_getaffinity = lambda pid: {0, 1}
            data._FORK_MIN_BYTES = 0
            data._parse_split = lambda *args: os._exit(7)
            try:
                data.load_metadataset(sys.argv[1])
            except BrokenProcessPool:
                print("broken")
        """)
        src = os.path.dirname(os.path.dirname(data.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "ds")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "broken\n"


class TestExpertsGenerator:
    """Each instance has exactly one competent model (its region's
    expert); every other model backs a fixed dump class."""

    def test_shapes_and_task(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=50, n_models=4,
                                    n_classes=3, seed=0))
        assert ds.task is TaskKind.CLASSIFICATION
        assert ds.val.predictions.shape == (50, 4, 3)
        assert ds.name == "experts-m4-c3-seed0"

    def test_rows_are_simplex(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=80, n_models=3,
                                    n_classes=4, seed=1))
        sums = ds.val.predictions.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_labels_avoid_dump_class(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=200, n_models=2,
                                    n_classes=3, seed=2))
        for split in (ds.val, ds.test):
            assert split.labels.min() >= 1
            assert split.labels.max() <= 2

    def test_expert_structure(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=100, n_models=2,
                                    n_classes=3, seed=0))
        preds, labels = ds.val.predictions, ds.val.labels
        for i in range(preds.shape[0]):
            peak = preds[i, :, labels[i]]
            experts = np.flatnonzero(np.isclose(peak, 0.9))
            assert len(experts) == 1
            other = 1 - experts[0]
            # the non-expert concentrates on the dump class
            assert preds[i, other, 0] == pytest.approx(0.9)

    def test_deterministic_and_seed_sensitive(self):
        a = generate(SyntheticSpec(kind="experts", n_instances=30, n_models=2,
                                   n_classes=3, seed=5))
        b = generate(SyntheticSpec(kind="experts", n_instances=30, n_models=2,
                                   n_classes=3, seed=5))
        c = generate(SyntheticSpec(kind="experts", n_instances=30, n_models=2,
                                   n_classes=3, seed=6))
        np.testing.assert_array_equal(a.val.predictions, b.val.predictions)
        assert not np.array_equal(a.val.predictions, c.val.predictions)

    def test_each_model_alone_errs_on_half(self):
        # With two models each one is the expert on half the input range
        # and confidently wrong on the other half.
        ds = generate(SyntheticSpec(kind="experts", n_instances=2000, n_models=2,
                                    n_classes=3, seed=0))
        preds, labels = ds.val.predictions, ds.val.labels
        for m in range(2):
            errs = np.mean(np.argmax(preds[:, m, :], axis=1) != labels)
            assert abs(errs - 0.5) < 0.05

    def test_two_classes_rejected(self):
        """Labels avoid the dump class 0, so two classes would label every
        instance 1."""
        with pytest.raises(ConfigError, match="at least 3"):
            generate(SyntheticSpec(kind="experts", n_instances=20, n_models=2,
                                   n_classes=2, seed=0))

    def test_rejects_single_model_or_class(self):
        with pytest.raises(ConfigError):
            generate(SyntheticSpec(kind="experts", n_instances=10, n_models=1,
                                   n_classes=3, seed=0))
        with pytest.raises(ConfigError):
            generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                   n_classes=1, seed=0))


class TestPreferredGenerator:
    """One model is correlated with the target at level rho_p; the rest
    are standardized noise."""

    def test_shapes_and_task(self):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=60, n_models=5,
                                    rho_p=0.8, seed=0))
        assert ds.task is TaskKind.REGRESSION
        assert ds.val.predictions.shape == (60, 5, 1)
        assert ds.name == "preferred-m5-rho0.8-seed0"

    def test_columns_and_labels_standardized(self):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=500, n_models=4,
                                    rho_p=0.7, seed=1))
        for split in (ds.val, ds.test):
            z = split.predictions[:, :, 0]
            np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
            np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
            np.testing.assert_allclose(split.labels.mean(), 0.0, atol=1e-12)
            np.testing.assert_allclose(split.labels.std(), 1.0, atol=1e-12)

    def test_first_column_hits_target_correlation(self):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=20000, n_models=3,
                                    rho_p=0.9, seed=2))
        z0 = ds.val.predictions[:, 0, 0]
        rho = float(np.mean(z0 * ds.val.labels))
        assert rho == pytest.approx(0.9, abs=0.02)
        others = ds.val.predictions[:, 1:, 0]
        cross = np.abs(others.T @ ds.val.labels / len(ds.val.labels))
        assert np.all(cross < 0.05)

    def test_perfect_correlation_is_bitwise_exact(self):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=100, n_models=3,
                                    rho_p=1.0, seed=3))
        np.testing.assert_array_equal(ds.val.predictions[:, 0, 0], ds.val.labels)
        np.testing.assert_array_equal(ds.test.predictions[:, 0, 0], ds.test.labels)

    def test_rejects_out_of_range_rho(self):
        with pytest.raises(ConfigError):
            generate(SyntheticSpec(kind="preferred", n_instances=10, n_models=2,
                                   rho_p=1.5, seed=0))


class TestPolyGenerator:
    """Base models are bootstrap polynomial fits of one fixed cubic."""

    def test_shapes_and_task(self):
        ds = generate(SyntheticSpec(kind="poly", n_instances=40, n_models=6,
                                    degree=10, seed=0))
        assert ds.task is TaskKind.REGRESSION
        assert ds.val.predictions.shape == (40, 6, 1)
        assert ds.name == "poly-d10-m6-seed0"

    def test_models_are_distinct(self):
        ds = generate(SyntheticSpec(kind="poly", n_instances=50, n_models=5,
                                    degree=6, seed=1))
        z = ds.val.predictions[:, :, 0]
        for a in range(5):
            for b in range(a + 1, 5):
                assert not np.allclose(z[:, a], z[:, b])

    def test_zero_noise_high_degree_recovers_target_exactly(self):
        # Without label noise the bootstrap samples lie exactly on the
        # underlying cubic, so any fit of degree >= 3 reproduces it and
        # every model's predictions coincide with the labels.
        ds = generate(SyntheticSpec(kind="poly", n_instances=60, n_models=4,
                                    degree=5, noise_scale=0.0, seed=2))
        for split in (ds.val, ds.test):
            diff = split.predictions[:, :, 0] - split.labels[:, None]
            assert np.max(np.abs(diff)) < 1e-8

    def test_zero_noise_low_degree_cannot_recover_target(self):
        # A linear fit cannot represent the cubic even on clean samples.
        ds = generate(SyntheticSpec(kind="poly", n_instances=60, n_models=4,
                                    degree=1, noise_scale=0.0, seed=2))
        diff = ds.val.predictions[:, :, 0] - ds.val.labels[:, None]
        assert np.max(np.abs(diff)) > 0.1

    def test_labels_follow_low_degree_signal(self):
        # labels = f(x) + noise with small noise, so a strong fraction of
        # the label variance is explained by the best single model
        ds = generate(SyntheticSpec(kind="poly", n_instances=2000, n_models=8,
                                    degree=3, noise_scale=0.1, seed=0))
        z = ds.val.predictions[:, :, 0]
        best = np.min(np.mean((z - ds.val.labels[:, None]) ** 2, axis=0))
        var = float(np.var(ds.val.labels))
        assert best < 0.2 * var

    def test_deterministic(self):
        a = generate(SyntheticSpec(kind="poly", n_instances=30, n_models=3, seed=7))
        b = generate(SyntheticSpec(kind="poly", n_instances=30, n_models=3, seed=7))
        np.testing.assert_array_equal(a.test.predictions, b.test.predictions)

    def test_splits_use_fresh_inputs(self):
        ds = generate(SyntheticSpec(kind="poly", n_instances=30, n_models=3, seed=0))
        assert not np.array_equal(ds.val.predictions, ds.test.predictions)


class TestGenerateDispatch:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            generate(SyntheticSpec(kind="nope", n_instances=10, n_models=2, seed=0))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            generate(SyntheticSpec(kind="preferred", n_instances=1, n_models=2, seed=0))
        with pytest.raises(ConfigError):
            generate(SyntheticSpec(kind="preferred", n_instances=10, n_models=0, seed=0))
