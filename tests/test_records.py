"""Pinned run records: `run` of all 9 methods on three synthetic datasets
must write the records recorded in ``data/records.json``.

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

Regenerate the file with ``PYTHONPATH=src python tests/test_records.py``
only when a change of the records is intended, and say so in CHANGES.md.
"""

import json
import os
import sys
import tempfile

import numpy as np

from ensemblekit import cli

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "records.json")

DATASETS = {
    "experts": ["--kind", "experts", "--n", "300", "--models", "6", "--classes", "4"],
    "preferred": ["--kind", "preferred", "--models", "6"],
    "poly": ["--kind", "poly", "--models", "5"],
}

RUN_FLAGS = ["--seeds", "0,1", "--steps", "50", "--n", "3", "--batch-size", "64"]


def _sweep(directory):
    """The timing-free records of every method on every dataset, in run
    order."""
    records = []
    for name, flags in DATASETS.items():
        data = os.path.join(directory, name)
        assert cli.main(["synth", "--out", data] + flags) == 0
        out = os.path.join(directory, name + ".jsonl")
        for method in cli.METHODS:
            assert cli.main(["run", method, "--data", data, "--out", out] + RUN_FLAGS) == 0
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


def test_sweep_matches_recorded_records(tmp_path, capsys):
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = _sweep(str(tmp_path))
    capsys.readouterr()
    assert len(got) == len(want) == 54
    for i, (record, expected) in enumerate(zip(got, want)):
        _assert_matches(record, expected,
                        f"record {i} ({expected['dataset']} {expected['method']} "
                        f"seed {expected['seed']})")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        recorded = _sweep(directory)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recorded)} records to {FIXTURE}", file=sys.stderr)
