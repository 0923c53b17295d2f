"""Pinned run records: `run` of all 9 methods on three synthetic datasets
must write the records recorded in ``data/records.json``, and `run
ne-stack` and `run ne-ma` at the CLI's batch size those in
``data/records_b2048.json``.

The sweep synthesizes experts (``--n 300 --models 6 --classes 4``),
preferred (``--models 6``) and poly (``--models 5``) datasets, runs every
method on each with ``--seeds 0,1 --steps 50 --n 3 --batch-size 64``
through ``cli.main`` in this process, and keeps the 54 records without
``wall_time_seconds``. Numbers must match the fixture to rtol=1e-9, as in
``data/trajectories.json``; everything else (keys, strings, integers,
record order) must match exactly. This pins the static baselines'
records, `report`'s normalization and the config echo, which the
trajectory fixture does not. At 50 steps the poly ne-* records moved at
most 1.3e-15 (relative) under ±1-ulp bumps of one initial weight, so the
tolerance holds for them too.

The second sweep runs both neural methods with ``--seeds 0,1 --steps 5
--batch-size 2048`` on an experts set of 2 100 rows (``--models 5
--classes 4``), so a step gathers 2 048 rows of every class column, as a
step at the CLI's default batch size does.

Regenerate the fixtures with ``PYTHONPATH=src python tests/test_records.py``
(or name the fixture files to regenerate) only when a change of the
records is intended, and say so in CHANGES.md.
"""

import json
import os
import sys
import tempfile

import numpy as np

from ensemblekit import cli

DATA = os.path.join(os.path.dirname(__file__), "data")

# Per fixture file: the datasets' synth flags, the methods and the run flags.
SWEEPS = {
    "records.json": (
        {
            "experts": ["--kind", "experts", "--n", "300", "--models", "6", "--classes", "4"],
            "preferred": ["--kind", "preferred", "--models", "6"],
            "poly": ["--kind", "poly", "--models", "5"],
        },
        cli.METHODS,
        ["--seeds", "0,1", "--steps", "50", "--n", "3", "--batch-size", "64"],
    ),
    "records_b2048.json": (
        {"experts": ["--kind", "experts", "--n", "2100", "--models", "5", "--classes", "4",
                     "--seed", "0"]},
        ("ne-stack", "ne-ma"),
        ["--seeds", "0,1", "--steps", "5", "--batch-size", "2048"],
    ),
}


def _sweep(directory, fixture):
    """The timing-free records of every method of ``fixture``'s sweep on
    every dataset, in run order."""
    datasets, methods, run_flags = SWEEPS[fixture]
    records = []
    for name, flags in datasets.items():
        data = os.path.join(directory, name)
        assert cli.main(["synth", "--out", data] + flags) == 0
        out = os.path.join(directory, name + ".jsonl")
        for method in methods:
            assert cli.main(["run", method, "--data", data, "--out", out] + run_flags) == 0
        with open(out) as fh:
            for line in fh:
                record = json.loads(line)
                del record["wall_time_seconds"]
                records.append(record)
    return records


def _assert_matches(got, want, where):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0, err_msg=where)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: {got!r}"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _check_sweep(directory, fixture, n_records):
    with open(os.path.join(DATA, fixture)) as fh:
        want = json.load(fh)
    got = _sweep(directory, fixture)
    assert len(got) == len(want) == n_records
    for i, (record, expected) in enumerate(zip(got, want)):
        _assert_matches(record, expected,
                        f"{fixture} record {i} ({expected['dataset']} {expected['method']} "
                        f"seed {expected['seed']})")


def test_sweep_matches_recorded_records(tmp_path, capsys):
    _check_sweep(str(tmp_path), "records.json", 54)
    capsys.readouterr()


def test_batch_2048_sweep_matches_recorded_records(tmp_path, capsys):
    _check_sweep(str(tmp_path), "records_b2048.json", 4)
    capsys.readouterr()


if __name__ == "__main__":
    for fixture in sys.argv[1:] or SWEEPS:
        with tempfile.TemporaryDirectory() as directory:
            recorded = _sweep(directory, fixture)
        path = os.path.join(DATA, fixture)
        os.makedirs(DATA, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(recorded)} records to {path}", file=sys.stderr)
