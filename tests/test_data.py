"""Tests for dataset containers, on-disk format, split I/O in forked
workers against the serial loop, the three synthetic generators, and the
count rule every exported count argument shares."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ensemblekit.errors import ConfigError, DataFormatError, DataValidationError, ShapeError
from ensemblekit import baselines, cli, data, neural
from ensemblekit.data import (
    MetaDataset,
    Split,
    SyntheticSpec,
    TaskKind,
    generate,
    load_metadataset,
    load_split,
    save_metadataset,
    save_synthetic,
)
from peakmem import traced_peak


GOLDEN_CSV = os.path.join(os.path.dirname(__file__), "data", "golden_csv.json")
CACHE_FILES = ["test_cache.npy", "val_cache.npy"]


def _drop_caches(path):
    """Delete the parse caches save_metadataset wrote, so that the next
    load parses the CSV files."""
    for name in CACHE_FILES:
        os.remove(os.path.join(path, name))


# _OPENSSL_MIN_BYTES values that send every digest through OpenSSL's
# SHA-256, or through CPython's own.
SHA256_FLOORS = {"openssl": 0, "builtin": 1 << 62}


@pytest.fixture(params=sorted(SHA256_FLOORS))
def sha256_impl(request, monkeypatch):
    """Every digest of the test through one SHA-256 implementation, whose
    name is the fixture's value."""
    monkeypatch.setattr(data, "_OPENSSL_MIN_BYTES", SHA256_FLOORS[request.param])
    return request.param


def _child_env():
    """Environment for a child interpreter that imports the same package
    as this test."""
    src = os.path.dirname(os.path.dirname(data.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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
        hit = load_metadataset(str(tmp_path))
        _drop_caches(tmp_path)
        parsed = load_metadataset(str(tmp_path))
        for split in (ds.val, ds.test, hit.val, hit.test, parsed.val, parsed.test):
            assert not split.predictions.flags.writeable
            assert not split.labels.flags.writeable


    def test_one_split_may_be_absent(self):
        split = _tiny_classification()
        for val, test in ((split, None), (None, split)):
            ds = MetaDataset(name="t", task=TaskKind.CLASSIFICATION, val=val, test=test)
            assert (ds.n_models, ds.n_classes) == (2, 2)
            present = ds.val if val is not None else ds.test
            assert not present.predictions.flags.writeable
            assert (ds.test if val is not None else ds.val) is None
        with pytest.raises(ConfigError, match="needs a val or a test split"):
            MetaDataset(name="t", task=TaskKind.CLASSIFICATION, val=None, test=None)
        bad = Split(predictions=split.predictions * 2.0, labels=split.labels)
        with pytest.raises(DataValidationError, match="^test split"):
            MetaDataset(name="t", task=TaskKind.CLASSIFICATION, val=None, test=bad)

    def test_saving_needs_both_splits(self, tmp_path):
        ds = MetaDataset(name="t", task=TaskKind.CLASSIFICATION, val=_tiny_classification(),
                         test=None)
        with pytest.raises(ConfigError, match="needs both splits"):
            save_metadataset(ds, str(tmp_path / "ds"))
        assert not (tmp_path / "ds").exists()


class TestInputChecks:
    """check_cube and check_labels are the one rule for a prediction cube
    and a label vector, at load and at every public entry point."""

    @pytest.mark.parametrize("shape, entries, message", [
        ((3, 2, 2), {(2, 0, 1): np.inf, (1, 1, 0): np.nan},
         "here entry (instance 1, model 1, class 0) is not finite: nan"),
        ((3, 2, 2), {(2, 0, 1): np.inf}, "here entry (instance 2, model 0, class 1) is not finite: inf"),
        ((3, 2, 2), {(0, 1, 0): -np.inf},
         "here entry (instance 0, model 1, class 0) is not finite: -inf"),
        ((3, 2, 2), {(0, 1, 1): 1.5, (1, 1, 0): np.nan},
         "here entry (instance 1, model 1, class 0) is not finite: nan"),
        ((3, 2, 2), {(1, 0, 0): -2e-12}, "here: predictions must be probabilities in [0, 1]"),
        ((3, 2, 2), {(1, 0, 0): 1.0 + 2e-12}, "here: predictions must be probabilities in [0, 1]"),
        ((3, 2, 1), {(0, 0, 0): 1e308, (2, 1, 0): -1e308}, None),
    ], ids=["nan-before-inf", "inf", "minus-inf", "nan-beside-out-of-range", "below-zero",
            "above-one", "huge-regression-column"])
    def test_cube_entry_messages(self, shape, entries, message):
        """A non-finite entry is named before a probability outside [0, 1]
        is reported; 1e-12 is the range's tolerance, and a regression
        column may hold any finite value."""
        cube = np.full(shape, 0.5)
        for index, value in entries.items():
            cube[index] = value
        if message is None:
            data.check_cube(cube, "here")
            return
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            data.check_cube(cube, "here")

    def test_cube_check_allocates_less_than_a_tenth_of_the_cube(self):
        cube = generate(SyntheticSpec(kind="experts", n_instances=2000, n_models=20,
                                      n_classes=20, seed=0)).val.predictions
        _, peak = traced_peak(lambda: data.check_cube(cube, "here"))
        assert peak < 0.1 * cube.nbytes

    def test_cube_shape_and_sizes(self):
        with pytest.raises(ShapeError, match=r"^here must be \(instances, models, classes\)"):
            data.check_cube(np.full((3, 2), 0.5), "here")
        with pytest.raises(DataValidationError, match="^here has no instances$"):
            data.check_cube(np.zeros((0, 2, 2)), "here")
        with pytest.raises(DataValidationError, match="^here needs at least one model and class$"):
            data.check_cube(np.zeros((3, 0, 2)), "here")

    def test_cube_simplex_only_with_classes(self):
        data.check_cube(np.full((3, 2, 1), 7.5), "here")  # a regression column
        with pytest.raises(DataValidationError, match="instance 0, model 1 sum to 1.500000"):
            data.check_cube(np.array([[[0.5, 0.5], [0.75, 0.75]]]), "here")

    def test_classification_labels_become_int64_copies(self):
        given = np.array([2.0, 0.0, 1.0])
        labels = data.check_labels(given, 3, TaskKind.CLASSIFICATION, 3, "here")
        assert labels.dtype == np.int64 and labels.tolist() == [2, 0, 1]
        labels[0] = 0
        assert given[0] == 2.0

    @pytest.mark.parametrize("labels, n", [([0, 1], 3), ([0, 1, 1, 0], 3), ([[0, 1, 1]], 3)],
                             ids=["too-few", "too-many", "two-d"])
    def test_label_shape(self, labels, n):
        with pytest.raises(ShapeError, match=f"^here labels must be 1-D with {n} entries"):
            data.check_labels(np.array(labels), n, TaskKind.CLASSIFICATION, 2, "here")

    @pytest.mark.parametrize("labels", [[0, 1.5], [0, np.nan], [0, np.inf], [0, 1e300],
                                        [0, 2], [-1, 0]],
                             ids=["fraction", "nan", "inf", "huge", "too-high", "negative"])
    def test_bad_class_labels(self, labels):
        # A RuntimeWarning on the way would fail here: the suite turns it into an error.
        with pytest.raises(DataValidationError, match="^here labels must"):
            data.check_labels(np.array(labels), 2, TaskKind.CLASSIFICATION, 2, "here")

    def test_regression_labels(self):
        labels = data.check_labels([1, 2], 2, TaskKind.REGRESSION, 1, "here")
        assert labels.dtype == np.float64 and labels.tolist() == [1.0, 2.0]
        with pytest.raises(DataValidationError, match="^here labels contain non-finite values$"):
            data.check_labels(np.array([0.5, np.nan]), 2, TaskKind.REGRESSION, 1, "here")


class TestSaveLoadRoundtrip:
    """The directory format persists datasets losslessly and
    deterministically."""

    def test_roundtrip_exact(self, tmp_path):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=40, n_models=3, seed=1))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        for cached in (True, False):  # from the caches, then from the CSV files
            if not cached:
                _drop_caches(out)
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

    @pytest.mark.parametrize("key", ["n_models", "n_classes"])
    @pytest.mark.parametrize("size", [None, [3], 2.7, True, 0, "abc", "3", 3.0],
                             ids=["null", "list", "fraction", "bool", "zero", "text",
                                  "numeric-text", "integral-float"])
    def test_manifest_sizes_must_be_positive_integers(self, tmp_path, key, size):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=3,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[key] = size
        (out / "manifest.json").write_text(json.dumps(manifest))
        pattern = re.escape(f"{out / 'manifest.json'}: '{key}' must be a JSON integer >= 1")
        with pytest.raises(DataFormatError, match=pattern):
            load_metadataset(str(out))

    @pytest.mark.parametrize("splits", [5, "val,test", None, {"val": 1}, ["val"],
                                        ["val", 5], [["val"], "test"]],
                             ids=["number", "text", "null", "object", "one-split",
                                  "number-in-list", "list-in-list"])
    def test_manifest_splits_must_list_val_and_test(self, tmp_path, splits):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=3,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["splits"] = splits
        (out / "manifest.json").write_text(json.dumps(manifest))
        pattern = re.escape(f"{out / 'manifest.json'}: 'splits' must list ['val', 'test']")
        with pytest.raises(DataFormatError, match=pattern):
            load_metadataset(str(out))

    @pytest.mark.parametrize("manifest", ["5", "[1, 2]", '"ds"', "null", "true"],
                             ids=["number", "array", "string", "null", "bool"])
    def test_manifest_must_be_an_object(self, tmp_path, manifest):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        (out / "manifest.json").write_text(manifest + "\n")
        pattern = re.escape(f"{out / 'manifest.json'}: the manifest must be a JSON object, "
                            f"got {manifest}")
        with pytest.raises(DataFormatError, match=f"^{pattern}$"):
            load_metadataset(str(out))

    @pytest.mark.parametrize("name", [None, "", 5, True, ["ds"]],
                             ids=["null", "empty", "number", "bool", "list"])
    def test_manifest_name_must_be_a_non_empty_string(self, tmp_path, name):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["name"] = name
        (out / "manifest.json").write_text(json.dumps(manifest))
        pattern = re.escape(f"{out / 'manifest.json'}: 'name' must be a non-empty JSON string, "
                            f"got {json.dumps(name)}")
        with pytest.raises(DataFormatError, match=f"^{pattern}$"):
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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_named_on_load(self, tmp_path, cell):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        path = out / "test_predictions.csv"
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[4] = cell  # instance 3 (line 5), model 1, class 1
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError,
                           match=r"^test split entry \(instance 3, model 1, class 1\) "
                                 r"is not finite"):
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
        assert sorted(os.listdir(out)) == sorted(list(golden["files"]) + CACHE_FILES)
        for name, text in golden["files"].items():
            assert (out / name).read_bytes() == text.encode(), name
        for cached in (True, False):  # from the caches, then from the CSV files
            if not cached:
                _drop_caches(out)
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


def _savetxt_bytes(tmp_path, rows, fmt):
    """The reference: what np.savetxt writes for ``rows`` flattened to lines."""
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, rows.reshape(len(rows), -1), fmt=fmt, delimiter=",", header="h",
               comments="")
    return path.read_bytes()


_RNG = np.random.default_rng(3)
_MANY = _RNG.random((1000, 3))


class TestCsvWriter:
    """_write_csv writes the bytes np.savetxt writes, formatting each
    distinct row once, and returns their sha256."""

    @pytest.mark.parametrize("rows, fmt", [
        (np.array([[-0.0, 0.0], [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]]), "%.17g"),
        (np.vstack([_MANY[:1], _MANY, _MANY[500:501], _MANY[:1]]), "%.17g"),
        (np.full((500, 4), 0.1), "%.17g"),
        (np.array([[0.25, 1e-300, -3.0]]), "%.17g"),
        (_RNG.integers(-5, 5, 1000), "%d"),
        (np.concatenate([_RNG.standard_normal(600), np.full(400, np.pi)]), "%.17g"),
        (_RNG.random((40, 5000)), "%.17g"),
        (_RNG.random((50, 4, 3)), "%.17g"),
        (np.tile(_MANY[:2], (50, 1)), "%.17g"),
        (np.tile(_RNG.random((3, 4, 3)), (40, 1, 1)), "%.17g"),
    ], ids=["signed-zeros", "late-repeats", "all-equal", "single-row", "column-d",
            "column-g", "wide", "cube", "interleaved", "cycle-of-three"])
    def test_bytes_and_digest_match_savetxt(self, tmp_path, rows, fmt, sha256_impl):
        path = tmp_path / "written.csv"
        digest = data._write_csv(str(path), "h", rows, fmt)
        written = path.read_bytes()
        assert written == _savetxt_bytes(tmp_path, rows, fmt)
        assert digest == hashlib.sha256(written).digest()

    @pytest.mark.parametrize("value, fmt", [(-2.2250738585072014e-308, "%.17g"),
                                            (np.iinfo(np.int64).min, "%d")])
    def test_file_digest_is_sized_by_the_longest_text(self, tmp_path, monkeypatch, value, fmt):
        """Row digests are sized by the array's bytes, the file's digest by
        25 bytes a value, which the longest text a value takes fills."""
        sizes, choose = [], data._sha256
        monkeypatch.setattr(data, "_sha256", lambda n: sizes.append(n) or choose(n))
        path = tmp_path / "written.csv"
        data._write_csv(str(path), "h", np.full((4, 3), value), fmt)
        assert sizes == [96, 300]
        assert path.stat().st_size - len("h\n") <= 300

    def test_signed_zeros_are_different_rows(self, tmp_path):
        path = tmp_path / "written.csv"
        data._write_csv(str(path), "h", np.array([[-0.0, 0.0], [0.0, 0.0], [-0.0, 0.0]]),
                        "%.17g")
        assert path.read_text() == "h\n-0,0\n0,0\n-0,0\n"

    def test_serial_save_without_repeats_stays_below_two_cubes(self, tmp_path, monkeypatch):
        """Dense data repeats no row, so the writer formats every row; it
        keeps no row's text beyond the chunk it writes."""
        _split_io(monkeypatch, forked=False)
        rng = np.random.default_rng(0)
        splits = []
        for _ in data.SPLIT_NAMES:
            preds = rng.random((1000, 10, 10))
            preds /= preds.sum(axis=2, keepdims=True)
            splits.append(Split(predictions=preds, labels=rng.integers(0, 10, 1000)))
        ds = MetaDataset(name="dense", task=TaskKind.CLASSIFICATION, val=splits[0],
                         test=splits[1])
        del splits
        assert len(np.unique(ds.val.predictions.reshape(1000, -1), axis=0)) == 1000
        save_metadataset(generate(SyntheticSpec(kind="experts", n_instances=10)),
                         str(tmp_path / "warm-up"))
        _, peak = traced_peak(lambda: save_metadataset(ds, str(tmp_path / "ds")))
        cube_bytes = ds.val.predictions.nbytes
        assert peak < 1.5 * cube_bytes, peak / cube_bytes


def _split_io(monkeypatch, forked):
    """Write splits in forked workers (two usable CPUs and no size floor),
    or one after another in this process (one usable CPU)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if forked else {0})
    monkeypatch.setattr(data, "_FORK_MIN_VALUES", 0)


def _load_error(monkeypatch, path, forked):
    _split_io(monkeypatch, forked)
    with pytest.raises((DataFormatError, FileNotFoundError)) as err:
        load_metadataset(path)
    return type(err.value), str(err.value)


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestForkedSplits:
    """save_metadataset hands each split to a fork_map worker, and
    load_metadataset reads them in this process; files, arrays and errors
    are the same with one usable CPU or two."""

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
            assert sorted(os.listdir(out)) == sorted(list(golden["files"]) + CACHE_FILES)
            for name, text in golden["files"].items():
                assert (out / name).read_bytes() == text.encode(), name
            _drop_caches(out)
            loaded[forked] = load_metadataset(str(out))
        for split in ("val", "test"):
            for field in ("predictions", "labels"):
                want = getattr(getattr(loaded[False], split), field)
                got = getattr(getattr(loaded[True], split), field)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_splits_run_in_forked_workers(self, tmp_path, monkeypatch):
        """Save maps the split names through fork_map once; load parses
        both splits in this process, even with two CPUs."""
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
        _drop_caches(out)
        load_metadataset(out)
        assert calls == [data.SPLIT_NAMES]
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
        load, whether it succeeds from the caches, succeeds by a parse, or
        fails."""
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
        _drop_caches(out)
        calls = _parse_spy(monkeypatch)
        load_metadataset(str(out))
        assert calls == list(data.SPLIT_NAMES)
        (out / "test_labels.csv").write_text("label\nabc\n")
        with pytest.raises(DataFormatError):
            load_metadataset(str(out))
        assert os.listdir(temp) == []
        assert _open_fds() == fds
        with pytest.raises(ChildProcessError):  # no child left, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        code = textwrap.dedent("""
            import os, sys
            from ensemblekit import data
            from ensemblekit.errors import WorkerDiedError
            os.sched_getaffinity = lambda pid: {0, 1}
            data._FORK_MIN_VALUES = 0
            data._write_csv = lambda *args: os._exit(7)
            ds = data.generate(data.SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                                  n_classes=3, seed=0))
            try:
                data.save_metadataset(ds, sys.argv[1])
            except WorkerDiedError as exc:
                print(exc)
        """)
        out = tmp_path / "ds"
        proc = subprocess.run([sys.executable, "-c", code, str(out)],
                              capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("a worker process died (killed, perhaps out of memory) "
                               "before task 1 of 2 returned\n")
        assert not out.exists()


def _parse_spy(monkeypatch):
    """Count _parse_split calls in this process."""
    calls = []
    parse = data._parse_split

    def spy(*args):
        calls.append(args[1])
        return parse(*args)

    monkeypatch.setattr(data, "_parse_split", spy)
    return calls


def _assert_same_arrays(got, want):
    """Every split array of ``got`` has the dtype, shape, strides and bytes
    of ``want``'s."""
    for split in data.SPLIT_NAMES:
        for field in ("predictions", "labels"):
            a = getattr(getattr(got, split), field)
            b = getattr(getattr(want, split), field)
            assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
            assert a.tobytes() == b.tobytes(), (split, field)


class TestParseCache:
    """save_metadataset writes each split's arrays beside its CSV files;
    load_metadataset reads them only while the CSV files are the bytes
    they were saved with, and otherwise parses the CSV files."""

    @staticmethod
    def _parsed(path, monkeypatch):
        """The dataset at ``path`` parsed from its CSV files, caches left in place."""
        with monkeypatch.context() as patch:
            patch.setattr(data, "_cached_split", lambda *args: None)
            return load_metadataset(str(path))

    @pytest.mark.parametrize("kind", ["experts", "preferred", "poly"])
    def test_hit_returns_the_parsed_arrays(self, tmp_path, monkeypatch, kind, sha256_impl):
        """A cache written with one SHA-256 implementation hits when it is
        read with the other."""
        with open(GOLDEN_CSV) as fh:
            golden = json.load(fh)[kind]
        ds = generate(SyntheticSpec(**golden["spec"]))
        out = tmp_path / "ds"
        with monkeypatch.context() as patch:
            other = next(name for name in SHA256_FLOORS if name != sha256_impl)
            patch.setattr(data, "_OPENSSL_MIN_BYTES", SHA256_FLOORS[other])
            save_metadataset(ds, str(out))
        parsed = self._parsed(out, monkeypatch)

        def fail(*args):
            raise AssertionError("a cache hit parsed or forked")

        monkeypatch.setattr(data, "_parse_split", fail)
        monkeypatch.setattr(data, "fork_map", fail)
        _split_io(monkeypatch, forked=True)
        hit = load_metadataset(str(out))
        assert (hit.name, hit.task) == (parsed.name, parsed.task)
        _assert_same_arrays(hit, parsed)
        assert not hit.val.predictions.flags.writeable

    def test_same_length_digit_edit_is_read_from_the_csv(self, tmp_path, monkeypatch):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=10, n_models=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        path = out / "val_predictions.csv"
        text = path.read_text()
        first_row = text.index("\n") + 1
        digit = next(i for i in range(first_row, len(text)) if text[i].isdigit())
        edited = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
        path.write_text(edited)
        cell = edited[first_row:].split(",", 1)[0]
        calls = _parse_spy(monkeypatch)
        back = load_metadataset(str(out))
        assert calls == ["val"]
        assert back.val.predictions[0, 0, 0] == float(cell) != ds.val.predictions[0, 0, 0]

    def test_flipped_bit_in_cached_arrays_is_read_from_the_csv(self, tmp_path, monkeypatch):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=10, n_models=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        parsed = self._parsed(out, monkeypatch)
        cache = out / "val_cache.npy"
        with open(cache, "rb") as fh:
            np.load(fh)  # the digests
            np.lib.format.read_magic(fh)
            np.lib.format.read_array_header_1_0(fh)
            last = fh.tell() + ds.val.predictions.nbytes - 8  # little-endian float64
        raw = bytearray(cache.read_bytes())
        raw[last] ^= 1  # the lowest mantissa bit of the last prediction
        cache.write_bytes(bytes(raw))
        calls = _parse_spy(monkeypatch)
        back = load_metadataset(str(out))
        assert calls == ["val"]
        _assert_same_arrays(back, parsed)

    def test_csv_digest_reads_in_small_chunks(self, tmp_path, sha256_impl):
        """A digest reads its files in small chunks, so it holds little."""
        ds = generate(SyntheticSpec(kind="experts", n_instances=2000, n_models=20,
                                    n_classes=20, seed=0))
        save_metadataset(ds, str(tmp_path))
        stem = str(tmp_path / "val")
        assert os.path.getsize(stem + "_predictions.csv") > 2 << 20
        digest, peak = traced_peak(lambda: data._csv_digest(stem))
        assert peak < 256 << 10
        whole = [hashlib.sha256((tmp_path / f"val_{kind}.csv").read_bytes()).digest()
                 for kind in ("predictions", "labels")]
        assert digest == b"".join(whole)

    def test_digest_constructor_is_chosen_by_size(self):
        floor = data._OPENSSL_MIN_BYTES
        assert data._sha256(floor - 1) is data._builtin_sha256
        assert data._sha256(floor) is hashlib.sha256

    def test_python_without_its_own_sha256_uses_openssls(self, tmp_path):
        """On a build without _sha2 and _sha256, as some FIPS builds are,
        data imports and every digest goes through hashlib."""
        code = textwrap.dedent("""
            import hashlib, sys
            sys.modules["_sha2"] = sys.modules["_sha256"] = None  # import fails
            from ensemblekit import data
            assert data._sha256(0) is hashlib.sha256
            rows = [[0.5, -1.0], [2.0, 3.0]]
            digest = data._write_csv(sys.argv[1], "a,b", data.np.array(rows), "%.17g")
            with open(sys.argv[1], "rb") as fh:
                assert digest == hashlib.sha256(fh.read()).digest()
        """)
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "rows.csv")],
                              capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(data._builtin_sha256.__module__ not in ("_sha2", "_sha256"),
                        reason="this Python has no SHA-256 of its own")
    def test_small_loads_and_report_leave_openssl_unloaded(self, tmp_path):
        """A process that loads both splits of a 2000 x 20 dataset from
        their caches, and reports, never loads OpenSSL's _hashlib: each
        digest is below _OPENSSL_MIN_BYTES. The dataset and its records
        are written here, as drawing data imports numpy.random, which
        loads _hashlib through secrets and hmac."""
        out, runs = str(tmp_path / "ds"), str(tmp_path / "runs.jsonl")
        save_synthetic(SyntheticSpec(kind="preferred", n_instances=2000, n_models=20), out)
        assert cli.main(["run", "single-best", "--data", out, "--out", runs]) == 0
        code = textwrap.dedent("""
            import sys
            from ensemblekit import cli, data

            def parse(*args):
                raise AssertionError("a load parsed its CSV files")

            data._parse_split = parse
            for split_name in data.SPLIT_NAMES:
                data.load_split(sys.argv[1], split_name)
            assert cli.main(["report", "--records", sys.argv[2]]) == 0
            print("_hashlib" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", code, out, runs],
                              capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "missing"])
    def test_damaged_cache_loads_as_a_parse(self, tmp_path, monkeypatch, damage):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        parsed = self._parsed(out, monkeypatch)
        cache = out / "test_cache.npy"
        if damage == "truncated":
            cache.write_bytes(cache.read_bytes()[:-40])
        elif damage == "garbage":
            cache.write_bytes(bytes(range(256)) * 4)
        else:
            cache.unlink()
        calls = _parse_spy(monkeypatch)
        back = load_metadataset(str(out))
        assert calls == ["test"]  # val's cache is judged on its own, and hits
        _assert_same_arrays(back, parsed)

    @pytest.mark.parametrize("sizes, fault", [
        ({"n_models": 3}, "rows must have 9 columns, got 6"),
        ({"n_models": 3, "n_classes": 2}, "header does not match manifest"),
    ], ids=["more-models", "same-columns"])
    def test_manifest_with_other_sizes_gives_the_parse_error(self, tmp_path, sizes, fault):
        ds = generate(SyntheticSpec(kind="experts", n_instances=10, n_models=2,
                                    n_classes=3, seed=0))
        out = tmp_path / "ds"
        save_metadataset(ds, str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.update(sizes)
        (out / "manifest.json").write_text(json.dumps(manifest))
        errors = []
        for drop in (False, True):
            if drop:
                _drop_caches(out)
            with pytest.raises(DataFormatError) as err:
                load_metadataset(str(out))
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"{out / 'val_predictions.csv'}: {fault}")


class TestOneSplitAtATime:
    """save_synthetic writes what save_metadataset(generate(spec)) writes,
    drawing each split where it is written; load_split loads one split
    as load_metadataset loads it. A failed write leaves no dataset."""

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("kind", ["experts", "preferred", "poly"])
    def test_synth_writer_matches_save_metadataset(self, tmp_path, monkeypatch, kind, forked):
        spec = SyntheticSpec(kind=kind, n_instances=30, n_models=3, n_classes=4, degree=3,
                             seed=5)
        _split_io(monkeypatch, forked)
        save_metadataset(generate(spec), str(tmp_path / "saved"))
        assert save_synthetic(spec, str(tmp_path / "drawn")) == generate(spec).name
        names = sorted(os.listdir(tmp_path / "saved"))
        assert names == sorted(["manifest.json"] + CACHE_FILES + [
            f"{split}_{kind}.csv" for split in data.SPLIT_NAMES
            for kind in ("predictions", "labels")])
        assert sorted(os.listdir(tmp_path / "drawn")) == names
        for name in names:
            assert (tmp_path / "drawn" / name).read_bytes() == \
                (tmp_path / "saved" / name).read_bytes(), name

    def test_synth_writer_draws_each_split_in_its_worker(self, tmp_path, monkeypatch):
        """With two CPUs neither split is drawn in this process; with one,
        val is drawn once and test after a replay of val's draw."""
        draws = []
        generator = data._generator

        def spy(spec):
            name, task, draw = generator(spec)

            def counted():
                draws.append(os.getpid())
                return draw()

            return name, task, counted

        monkeypatch.setattr(data, "_generator", spy)
        spec = SyntheticSpec(kind="experts", n_instances=10, n_models=2, n_classes=3, seed=0)
        _split_io(monkeypatch, forked=True)
        save_synthetic(spec, str(tmp_path / "forked"))
        assert draws == []
        _split_io(monkeypatch, forked=False)
        save_synthetic(spec, str(tmp_path / "serial"))
        assert draws == [os.getpid()] * 3

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "parse"])
    @pytest.mark.parametrize("split", data.SPLIT_NAMES)
    def test_split_loader_matches_the_dataset_loader(self, tmp_path, monkeypatch, split,
                                                     cached):
        ds = generate(SyntheticSpec(kind="experts", n_instances=20, n_models=3, n_classes=4,
                                    seed=2))
        save_metadataset(ds, str(tmp_path))
        if not cached:
            _drop_caches(tmp_path)
        whole = load_metadataset(str(tmp_path))
        calls = _parse_spy(monkeypatch)
        one = load_split(str(tmp_path), split)
        assert calls == ([] if cached else [split])
        assert (one.name, one.task, one.n_models, one.n_classes) == (
            whole.name, whole.task, whole.n_models, whole.n_classes)
        other = "test" if split == "val" else "val"
        assert getattr(one, other) is None
        got, want = getattr(one, split), getattr(whole, split)
        for field in ("predictions", "labels"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("task"),
        lambda m: m.update(splits=["val"]),
        lambda m: m.update(n_models=0),
    ], ids=["no-task", "splits", "size"])
    def test_split_loader_gives_the_manifest_errors(self, tmp_path, edit):
        save_metadataset(generate(SyntheticSpec(kind="poly", n_instances=10, n_models=3,
                                                seed=0)), str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        edit(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError) as whole:
            load_metadataset(str(tmp_path))
        for split in data.SPLIT_NAMES:
            with pytest.raises(DataFormatError) as one:
                load_split(str(tmp_path), split)
            assert str(one.value) == str(whole.value)

    def test_split_loader_reads_its_split_only(self, tmp_path):
        ds = generate(SyntheticSpec(kind="preferred", n_instances=10, n_models=3, seed=0))
        save_metadataset(ds, str(tmp_path))
        (tmp_path / "test_predictions.csv").write_text("garbage\n")
        assert load_split(str(tmp_path), "val").val.predictions.shape == (10, 3, 1)
        with pytest.raises(DataFormatError, match="test_predictions.csv"):
            load_split(str(tmp_path), "test")

    @pytest.mark.parametrize("split", ["train", "VAL", 3, None])
    def test_split_loader_rejects_other_split_names(self, tmp_path, split):
        """An unknown split is named before the manifest is read: the
        directory here does not exist."""
        with pytest.raises(ConfigError) as err:
            load_split(str(tmp_path / "nowhere"), split)
        assert str(err.value) == f"split must be one of ['val', 'test'], got {split!r}"

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    def test_failed_write_leaves_no_dataset(self, tmp_path, monkeypatch, forked):
        """A split that fails validation leaves no new directory, and an
        existing dataset as it was, with nothing staged inside it."""
        _split_io(monkeypatch, forked)
        bad = SyntheticSpec(kind="poly", n_instances=10, noise_scale=1e308, seed=0)
        with pytest.raises(DataValidationError, match="^val split entry"):
            save_synthetic(bad, str(tmp_path / "new"))
        assert not (tmp_path / "new").exists()
        old = tmp_path / "old"
        save_metadataset(generate(SyntheticSpec(kind="poly", n_instances=10, seed=1)),
                         str(old))
        before = {name: (old / name).read_bytes() for name in os.listdir(old)}
        with pytest.raises(DataValidationError):
            save_synthetic(bad, str(old))
        assert {name: (old / name).read_bytes() for name in os.listdir(old)} == before


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

    def test_negative_zero_rho_names_the_dataset_of_zero(self):
        a = generate(SyntheticSpec(kind="preferred", n_instances=10, n_models=2, rho_p=-0.0))
        b = generate(SyntheticSpec(kind="preferred", n_instances=10, n_models=2, rho_p=0.0))
        assert a.name == b.name == "preferred-m2-rho0-seed0"
        np.testing.assert_array_equal(a.val.predictions, b.val.predictions)


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
        """generate checks both sizes for every kind."""
        for kind in ("experts", "preferred", "poly"):
            with pytest.raises(ConfigError, match="n_instances must be at least 2, got 1"):
                generate(SyntheticSpec(kind=kind, n_instances=1, n_models=2, seed=0))
            with pytest.raises(ConfigError, match="n_models must be at least 2, got 1"):
                generate(SyntheticSpec(kind=kind, n_instances=10, n_models=1, seed=0))

    @pytest.mark.parametrize("kind", ["experts", "preferred", "poly"])
    @pytest.mark.parametrize("field, value, message", [
        ("n_instances", 1, "n_instances must be at least 2, got 1"),
        ("n_models", 1, "n_models must be at least 2, got 1"),
        ("n_classes", 2, "n_classes must be at least 3, got 2"),
        ("rho_p", 1.5, "rho_p must lie in [0, 1], got 1.5"),
        ("rho_p", math.nan, "rho_p must lie in [0, 1], got nan"),
        ("rho_p", "0.5", "rho_p must lie in [0, 1], got '0.5'"),
        ("rho_p", True, "rho_p must lie in [0, 1], got True"),
        ("rho_p", None, "rho_p must lie in [0, 1], got None"),
        ("degree", 0, "degree must be at least 1, got 0"),
        ("noise_scale", -0.1, "noise_scale must be a finite number >= 0, got -0.1"),
        ("noise_scale", math.nan, "noise_scale must be a finite number >= 0, got nan"),
        ("noise_scale", math.inf, "noise_scale must be a finite number >= 0, got inf"),
        ("noise_scale", "0.1", "noise_scale must be a finite number >= 0, got '0.1'"),
        ("noise_scale", True, "noise_scale must be a finite number >= 0, got True"),
        ("noise_scale", None, "noise_scale must be a finite number >= 0, got None"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
    ])
    def test_spec_checks_every_field_for_every_kind_at_construction(
            self, kind, field, value, message):
        """The spec, not the generator, rejects a bad field, whatever the
        kind; dataclasses.replace checks the copy again."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            SyntheticSpec(**{"kind": kind, field: value})
        spec = SyntheticSpec(kind=kind)
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(spec, **{field: value})

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        """data.check_seed is the seed rule of every kind."""
        message = f"seed must be a non-negative integer, got {seed!r}"
        for kind in ("experts", "preferred", "poly"):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                generate(SyntheticSpec(kind=kind, n_instances=10, n_models=2, seed=seed))

    @pytest.mark.parametrize("field", ["n_instances", "n_models", "n_classes", "degree"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
    def test_sizes_must_be_integers(self, field, value):
        message = f"{field} must be an integer, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(kind="poly", **{field: value})

    def test_numpy_integer_sizes_are_sizes(self):
        sizes = {"n_instances": 10, "n_models": 3, "n_classes": 4, "degree": 2}
        a = generate(SyntheticSpec(kind="poly", **{k: np.int64(v) for k, v in sizes.items()}))
        b = generate(SyntheticSpec(kind="poly", **sizes))
        assert np.array_equal(a.val.predictions, b.val.predictions)

    def test_numpy_integer_seed_is_a_seed(self):
        a = generate(SyntheticSpec(kind="poly", n_instances=10, n_models=2, seed=np.int64(3)))
        b = generate(SyntheticSpec(kind="poly", n_instances=10, n_models=2, seed=3))
        assert np.array_equal(a.val.predictions, b.val.predictions)


_CUBE = np.full((4, 3, 2), 0.5)
_LABELS = np.array([0, 1, 0, 1])
_CLS = TaskKind.CLASSIFICATION

# Every count argument of an exported function or class, and a model
# selection's index: a call that takes the value, the argument's name and
# its least value.
COUNT_ARGUMENTS = [
    pytest.param(lambda v: baselines.top_n(_CUBE, _LABELS, _CLS, n=v), "n", 1, id="top_n-n"),
    pytest.param(lambda v: baselines.random_n(3, n=v), "n", 1, id="random_n-n"),
    pytest.param(lambda v: baselines.random_n(v, n=1), "n_models", 1, id="random_n-n_models"),
    pytest.param(lambda v: baselines.greedy_select(_CUBE, _LABELS, _CLS, n_slots=v),
                 "n_slots", 1, id="greedy_select-n_slots"),
    pytest.param(lambda v: baselines.quick_select(_CUBE, _LABELS, _CLS, n=v),
                 "n", 1, id="quick_select-n"),
    pytest.param(lambda v: baselines.fit_constant_ma(_CUBE, _LABELS, _CLS, steps=v),
                 "steps", 1, id="fit_constant_ma-steps"),
    pytest.param(lambda v: neural.init_ne_params(neural.NEConfig(), v),
                 "n_models", 1, id="init_ne_params-n_models"),
    pytest.param(lambda v: neural.param_count(neural.NEConfig(), v),
                 "n_models", 1, id="param_count-n_models"),
    pytest.param(lambda v: neural.diversity_limit_oracle(0.5, 0.9, 3, n_samples=v, n_masks=2),
                 "n_samples", 2, id="diversity_limit_oracle-n_samples"),
    pytest.param(lambda v: neural.diversity_limit_oracle(0.5, 0.9, 3, n_samples=10, n_masks=v),
                 "n_masks", 1, id="diversity_limit_oracle-n_masks"),
    pytest.param(lambda v: baselines.ModelSelection((0,), v), "n_models", 1,
                 id="ModelSelection-n_models"),
    pytest.param(lambda v: baselines.ModelSelection((1, v), 3), "selection index", 0,
                 id="ModelSelection-index"),
]


class TestCountRule:
    """data.check_integer is the one rule of every exported count argument
    and of a model selection's indices."""

    @pytest.mark.parametrize("call, name, least", COUNT_ARGUMENTS)
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_a_count_must_be_an_integer(self, call, name, least, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("call, name, least", COUNT_ARGUMENTS)
    def test_a_count_below_its_least_is_refused(self, call, name, least):
        message = f"{name} must be at least {least}, got {least - 1}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call(least - 1)

    @pytest.mark.parametrize("call, name, least", COUNT_ARGUMENTS)
    def test_a_numpy_integer_at_its_least_is_a_count(self, call, name, least):
        call(np.int64(least))
